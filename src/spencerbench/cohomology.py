"""Total complexes over a finite de Rham model and their exact cohomology.

A DGAModel is a finite commutative differential graded algebra standing in
for the forms on the base: per-degree bases, differentials d_i with
d.d = 0, and an optional product table for cup products. ce_model builds
the Chevalley-Eilenberg cochains of a Lie algebra, the one exterior-algebra
model: on abelian(n) it has d = 0 and the cohomology of the n-torus. A basis
element e^S is the bit mask S, and d and the wedge product both follow one
sign rule: e^i ^ e^S = (-1)^popcount(S & ((1 << i) - 1)) e^(S | 1 << i).

The coupled complex is the total complex of the model with the symmetric
algebra of a Lie algebra: degree k is  sum_{i+j=k} Omega^i x S^j  with
differential  d x 1 + (-1)^i 1 x delta  (Koszul sign on the form degree).
Its differential squares to zero exactly when d^2 = 0 and delta^2 = 0.

The complex is kept by its Kronecker factors: each block of D^k between
segments is a short list of terms c A x B, and a mirror's chain map psi_k is
F_i x T_{k-i} on segment i. The D^2 and psi D - D' psi residuals are read
off these factors block by block, exactly, by (A x B)(C x D) = AC x BD, each
AC kept as its two factors (linalg.factored_product folds a c * I), and
max |A x B| = max |A| max |B|: a block whose terms share a factor is summed
on the other by linalg.residual_max_abs, row by row, with no product,
difference or block sum built. The complex's reader (linalg.read_once),
shared with its mirrored complex, reads each distinct sum, such as
delta_{j+1} delta_j or T_{j+1} delta_j - delta'_j T_j, once and splits each
factor into rows once per command; only a block whose terms share no factor
would be built, at block size, and the complex has none. The total matrices
D^k are assembled only when read, by rank, kernel, cup products or a caller,
so a run whose D^2 is not zero, and so withholds its dims, never assembles one.

Cohomology dimensions are computed by exact rank-nullity over the rationals
and reported only when the squared differential is exactly zero.
"""

from __future__ import annotations

import functools
import itertools

from .errors import DegenerateInputError, FormatError, MismatchError
from .linalg import (
    ZERO,
    OperatorMatrix,
    format_scalar,
    in_column_span,
    kron,
    literal_parser,
    parse_int,
    parse_list,
    composite_residuals,
    factored_product,
    read_once,
)
from .mirror import mirror_lambda
from .records import FrozenRecord, Record
from .spencer import Identification, LeibnizConvention, delta_matrix
from .symtensor import multisets, sym_dim

class DGAModel(FrozenRecord):
    """Finite CDGA: bases per degree, differentials, optional product table."""

    # basis[i]: tuple of labels in degree i; diff[i]: OperatorMatrix from
    # degree i to i+1; product[(i, a, j, b)] -> {c: coeff} in degree i+j, or
    # None, and not compared
    __slots__ = _fields = ("name", "basis", "diff", "product")
    _defaults = {"product": None}
    _uncompared = ("product",)

    @property
    def top_degree(self):
        return len(self.basis) - 1

    def dims(self):
        return [len(b) for b in self.basis]

    def d_squared_residual(self):
        return max(composite_residuals(self.diff), default=ZERO)

    def de_rham_dims(self):
        """H^i dims by rank-nullity on the stored differentials."""
        return _rank_nullity(self.dims(), self.diff)

    def multiply(self, i, a, j, b):
        """Product of basis elements (degree i, index a) and (degree j, index b)."""
        if self.product is None:
            raise DegenerateInputError(f"model {self.name!r} has no product table")
        return self.product.get((i, a, j, b), {})

    def to_json(self):
        data = {
            "name": self.name,
            "basis": [list(labels) for labels in self.basis],
            "diff": [m.to_json() for m in self.diff],
        }
        if self.product is not None:
            data["product"] = [
                [i, a, j, b, [[c, format_scalar(v)] for c, v in sorted(table.items())]]
                for (i, a, j, b), table in sorted(self.product.items())
            ]
        return data

    @classmethod
    def from_json(cls, data):
        try:
            name = str(data["name"])
            basis = tuple(tuple(str(x) for x in parse_list(row, "DGA basis row"))
                          for row in parse_list(data["basis"], "DGA basis"))
            diff = tuple(OperatorMatrix.from_json(m) for m in parse_list(data["diff"], "DGA diff"))
        except (KeyError, TypeError) as exc:
            raise FormatError("DGA JSON needs name/basis/diff") from exc
        if len(diff) != len(basis) - 1:
            raise FormatError(
                f"DGA needs one differential per degree below the top: "
                f"{len(basis)} basis degrees but {len(diff)} differentials"
            )
        for i, m in enumerate(diff):
            if m.shape != (len(basis[i + 1]), len(basis[i])):
                raise FormatError(
                    f"DGA differential {i} has shape {m.shape}, "
                    f"expected {(len(basis[i + 1]), len(basis[i]))}"
                )
        product = None
        if "product" in data:
            parse = literal_parser()
            sizes = [len(row) for row in basis]
            product = {}
            for item in parse_list(data["product"], "DGA product"):
                key, table = _product_row(item, sizes, parse)
                if key in product:
                    raise FormatError(f"product row {item!r}: a second row for {list(key)}")
                product[key] = table
        model = cls(name, basis, diff, product)
        if model.d_squared_residual() != 0:
            raise FormatError("DGA differential does not square to zero")
        return model


def _product_row(item, sizes, parse):
    """Parse [i, a, j, b, [[c, coeff], ...]]: e^i_a . e^j_b = sum coeff e^{i+j}_c,
    sizes[d] the number of basis elements in degree d, reading each
    coefficient with parse (one ``literal_parser`` per table). One pass: the
    shape, the integer fields, the degrees, a and b, then each c and its
    coefficient."""
    if type(item) is not list or len(item) != 5 or type(item[4]) is not list:
        raise FormatError(f"product row {item!r} must be [i, a, j, b, [[c, coeff], ...]]")
    i, a, j, b, entries = item
    if not (type(i) is int and type(a) is int and type(j) is int and type(b) is int):
        for x in item[:4]:
            parse_int(x, "product row index")
    top = len(sizes) - 1
    if i < 0 or j < 0 or i + j > top:
        raise FormatError(f"product row {item!r}: degrees must satisfy i + j <= {top}")
    for index, degree in (a, i), (b, j):
        if not 0 <= index < sizes[degree]:
            raise FormatError(
                f"product row {item!r}: index {index} out of range in degree {degree}")
    n = sizes[i + j]
    table = {}
    try:
        for c, v in entries:
            if type(c) is not int:
                parse_int(c, "product row index")
            if c in table:
                raise FormatError(f"product row {item!r}: index {c} appears twice")
            if not 0 <= c < n:
                raise FormatError(
                    f"product row {item!r}: index {c} out of range in degree {i + j}")
            table[c] = parse(v)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"product row {item!r}: {exc}") from exc
    return (i, a, j, b), table


def _sign_mask(s):
    """The w with e^s ^ e^t = (-1)^popcount(t & w) e^(s | t) for t disjoint from
    s: the sign rule inserts each i in s, largest first, past t's (1 << i) - 1."""
    w = 0
    while s:
        w, s = w ^ (s & -s) - 1, s & s - 1
    return w


def _ce_differentials(algebra):
    """Per degree, the masks in combinations order and their index; and d_k,
    k < dim, on the integers of integer_structure: d e^m = -sum_{i<j} c_ij^m
    e^i e^j, and d e^S = sum_{m in S} (-1)^|S below m| (d e^m) ^ e^(S - m)."""
    n, (den, nz) = algebra.dim, algebra.integer_structure
    masks = [[sum(1 << i for i in s) for s in itertools.combinations(range(n), k)]
             for k in range(n + 1)]
    index = {s: a for row in masks for a, s in enumerate(row)}
    d_gen = [[] for _ in range(n)]  # d e^m: (mask {i, j}, sign mask of e^m e^i e^j, v / den)
    for i, j in itertools.combinations(range(n), 2):
        pair = 1 << i | 1 << j
        for m, v in nz[i][j]:
            d_gen[m].append((pair, _sign_mask(1 << m) ^ _sign_mask(pair), -v))
    diff = []
    for k, row in enumerate(masks[:-1]):
        nums = {}
        for col, s in enumerate(row):
            for m, terms in enumerate(d_gen):
                if s >> m & 1:
                    rest = s ^ 1 << m
                    for pair, w, v in terms:
                        if not pair & rest:
                            key = (index[pair | rest], col)
                            nums[key] = nums.get(key, 0) + (-v if (rest & w).bit_count() & 1 else v)
        diff.append(OperatorMatrix.from_numerators(
            len(masks[k + 1]), len(row), den, {key: v for key, v in nums.items() if v}))
    return masks, index, tuple(diff)


def ce_model(algebra, name):
    """The Chevalley-Eilenberg cochains of algebra (Chevalley & Eilenberg 1948):
    d (_ce_differentials) and the wedge product (_sign_mask) follow one rule,
    e^i ^ e^S = (-1)^popcount(S & ((1 << i) - 1)) e^(S | 1 << i) for i not in S."""
    masks, index, diff = _ce_differentials(algebra)
    flat = [(i, a, s, _sign_mask(s)) for i, row in enumerate(masks) for a, s in enumerate(row)]
    product = {(i, a, j, b): {index[s | t]: -1 if (t & w).bit_count() & 1 else 1}
               for i, a, s, w in flat for j, b, t, _ in flat if not s & t}
    labels = tuple(tuple("e" + "^".join(str(x + 1) for x in s) if s else "1" for s in
                         itertools.combinations(range(algebra.dim), k)) for k in range(len(masks)))
    return DGAModel(name, labels, diff, product)


# ---------------------------------------------------------------------------
# Complex assembly
# ---------------------------------------------------------------------------


class SpencerComplexInstance(Record):
    # bases[k]: list of (form_degree, form_index, multiset), k <= K;
    # kron_blocks: D^k for k in 0..K-1 by its Kronecker factors (build_complex);
    # delta_matrices: delta^j for j in 0..K-1 (reused by diagnostics);
    # read: the linalg.read_once reader of its D^2 and commutation residuals,
    # shared with the mirrored complex, so each factor is split into rows once.
    # No __slots__: the cached properties live in the instance __dict__.
    _fields = ("dga", "algebra", "lam", "K", "convention", "identification", "bases",
               "kron_blocks", "delta_matrices", "read")
    _uncompared = ("read",)

    @functools.cached_property
    def differentials(self):
        """D^k for k in 0..K-1 as matrices, assembled from kron_blocks on the
        first read (rank, kernel, cup products)."""
        return [_assemble(self, k + 1, k, blocks) for k, blocks in enumerate(self.kron_blocks)]

    @functools.cached_property
    def _cohomology(self):
        return _cohomology_report(self)


def segment_offsets(dga, dim, k):
    """Start offset of each (form degree i) segment inside the degree-k basis.

    Segment i holds Omega^i x S^{k-i}, form index major; returns (offsets, size).
    """
    offsets = {}
    pos = 0
    for i in range(min(k, dga.top_degree) + 1):
        offsets[i] = pos
        pos += len(dga.basis[i]) * sym_dim(dim, k - i)
    return offsets, pos


def build_complex(dga, algebra, lam, K, convention=LeibnizConvention.UNSIGNED,
                  identification=Identification.BASIS, read=None):
    """The total complex up to degree K (K >= 1), each D^k kept as its
    Kronecker blocks: from segment i of degree k, d_i x I to segment i+1
    and (-1)^i I x delta_{k-i} to segment i of degree k+1. read is the
    residual reader it shares with a complex it is compared with; a new
    read_once() by default."""
    if K < 1:
        raise MismatchError("truncation K must be >= 1")
    if lam.algebra != algebra:
        raise MismatchError("lam does not live on the given algebra")
    convention = LeibnizConvention(convention)
    identification = Identification(identification)
    dim = algebra.dim
    deltas = [delta_matrix(lam, j, convention, identification) for j in range(K)]
    bases = [
        [(i, a, ms) for i in range(min(k, dga.top_degree) + 1)
         for a in range(len(dga.basis[i])) for ms in multisets(dim, k - i)]
        for k in range(K + 1)
    ]
    identity = functools.cache(OperatorMatrix.identity)  # one I_n per size and instance
    kron_blocks = []
    for k in range(K):
        blocks = {}
        for i in range(min(k, dga.top_degree) + 1):
            if i < dga.top_degree:
                blocks[(i + 1, i)] = [(1, dga.diff[i], identity(sym_dim(dim, k - i)))]
            blocks[(i, i)] = [((-1) ** i, identity(len(dga.basis[i])), deltas[k - i])]
        kron_blocks.append(blocks)
    return SpencerComplexInstance(
        dga, algebra, lam, K, convention, identification, bases, kron_blocks, deltas,
        read or read_once(),
    )


def _assemble(instance, row_degree, col_degree, blocks):
    """The matrix from degree col_degree to row_degree whose block between
    segments (r, c) is sum c A x B over blocks[(r, c)]."""
    dim = instance.algebra.dim
    rows, n_rows = segment_offsets(instance.dga, dim, row_degree)
    cols, n_cols = segment_offsets(instance.dga, dim, col_degree)
    return OperatorMatrix.from_blocks(n_rows, n_cols, [
        (rows[r], cols[c], kron(a.scaled(coeff), b))
        for (r, c), terms in blocks.items() for coeff, a, b in terms])


def _compose(after, before):
    """The Kronecker blocks of after @ before: by (A x B)(C x D) = AC x BD,
    block (r, c) collects (c1 c2, A1 A2, B1 B2) over the middle segments m
    of every pair of terms in after[(r, m)] and before[(m, c)], each product
    kept as its factors (factored_product)."""
    out = {}
    for (m, c), inner in before.items():
        for (r, m_out), outer in after.items():
            if m_out == m:
                terms = out.setdefault((r, c), [])
                for c1, a1, b1 in outer:
                    for c2, a2, b2 in inner:
                        (sa, a), (sb, b) = factored_product(a1, a2), factored_product(b1, b2)
                        terms.append((c1 * c2 * sa * sb, a, b))
    return out


def _matrix(factor):
    return factor if isinstance(factor, OperatorMatrix) else factor[0] @ factor[1]


def _block_max_abs(terms, read=None):
    """Exact max |entry| of the block sum c A x B over terms, each factor a
    matrix or a pair (x, y) for x @ y, by max |A x B| = max |A| max |B|:
    terms that share both factors add their coefficients, terms that share
    the left (right) factor sum on the right (left) one, each sum read by
    read (a linalg.read_once reader), and only terms that share no factor
    are built, at block size."""
    read = read or read_once()
    _, a0, b0 = terms[0]
    same_a = all(a == a0 for _, a, _ in terms)
    same_b = all(b == b0 for _, _, b in terms)
    if same_a and same_b:
        return abs(sum(c for c, _, _ in terms)) * read([(1, a0)]) * read([(1, b0)])
    if same_a:
        return read([(1, a0)]) * read([(c, b) for c, _, b in terms])
    if same_b:
        return read([(1, b0)]) * read([(c, a) for c, a, _ in terms])
    return read([(c, kron(_matrix(a), _matrix(b))) for c, a, b in terms])


def _max_abs(blocks, read):
    return max((_block_max_abs(terms, read) for terms in blocks.values()), default=ZERO)


def d_squared_residual(instance):
    """Max |entry| of D^{k+1} D^k over k, block by block from the factors:
    each distinct factor product (delta_{j+1} delta_j, ...) is read once by
    the instance's reader and never built, and the Koszul cross block
    (d_i x delta_j)(eps_i + eps_{i+1}) is summed from its two terms."""
    return max((_max_abs(_compose(after, before), instance.read)
                for before, after in zip(instance.kron_blocks, instance.kron_blocks[1:])),
               default=ZERO)


def _rank_nullity(sizes, maps):
    """dim H^k = sizes[k] - rank maps[k] - rank maps[k-1]; absent maps have rank 0."""
    dims = []
    prev_rank = 0
    for k, n in enumerate(sizes):
        rank = maps[k].rank() if k < len(maps) else 0
        dims.append(n - rank - prev_rank)
        prev_rank = rank
    return dims


class CohomologyReport(Record):
    # dims: per degree k <= K-1, or None when not a complex (euler too);
    # to_json names the one grading, the total complex
    __slots__ = _fields = ("convention", "K", "dims", "euler", "d_squared", "flags")

    def to_json(self):
        return {
            "grading": "total",
            "convention": self.convention.value,
            "K": self.K,
            "dims": self.dims if self.dims is not None else [],
            "euler": self.euler if self.euler is not None else 0,
            "d_squared_residual": str(self.d_squared),
            "flags": list(self.flags),
        }


def cohomology_report(instance):
    """Exact dims and Euler characteristic for k <= K-1, or a non-complex flag.
    Computed once per instance; later calls return the same read-only report."""
    return instance._cohomology


def _cohomology_report(instance):
    residual = d_squared_residual(instance)
    if residual != 0:
        return CohomologyReport(
            instance.convention, instance.K,
            None, None, residual, ["not-a-complex: D^2 != 0; dims withheld"],
        )
    dims = _rank_nullity(
        [len(instance.bases[k]) for k in range(instance.K)], instance.differentials
    )
    euler = sum((-1) ** k * d for k, d in enumerate(dims))
    return CohomologyReport(instance.convention, instance.K, dims, euler, residual, [])


# ---------------------------------------------------------------------------
# Cup products
# ---------------------------------------------------------------------------


def is_closed(instance, degree, vec):
    if degree >= instance.K:
        raise MismatchError(f"no differential stored at degree {degree}")
    return not any(instance.differentials[degree].apply(vec))


def cup_product(instance, deg1, rep1, deg2, rep2):
    """Product of two closed representatives; returns (degree, vector).

    Componentwise: (omega_a x e_M) . (omega_b x e_N) multiplies the forms in
    the base model (with its sign) and merges the multisets.
    """
    if instance.dga.product is None:
        raise DegenerateInputError("the base model has no product table")
    if not is_closed(instance, deg1, rep1) or not is_closed(instance, deg2, rep2):
        raise MismatchError("cup product needs closed representatives")
    target = deg1 + deg2
    if target > instance.K:
        raise MismatchError("product degree exceeds the truncation")
    out = [ZERO] * len(instance.bases[target])
    row_index = {key: r for r, key in enumerate(instance.bases[target])}
    for c1, v1 in enumerate(rep1):
        if not v1:
            continue
        i, a, ms1 = instance.bases[deg1][c1]
        for c2, v2 in enumerate(rep2):
            if not v2:
                continue
            j, b, ms2 = instance.bases[deg2][c2]
            if i + j > instance.dga.top_degree:
                continue
            merged = tuple(sorted(ms1 + ms2))
            for cc, coeff in instance.dga.multiply(i, a, j, b).items():
                out[row_index[(i + j, cc, merged)]] += v1 * v2 * coeff
    return target, tuple(out)


def classes_equal(instance, degree, vec1, vec2):
    """True iff vec1 - vec2 lies in the image of the previous differential."""
    diff = [a - b for a, b in zip(vec1, vec2)]
    if not any(diff):
        return True
    if degree == 0:
        return False
    return in_column_span(instance.differentials[degree - 1], diff)


def cup_well_defined(instance, deg1, rep1, deg2, rep2):
    """True iff the class of rep1 . rep2 does not move when rep1 moves by a
    boundary. The product is bilinear, so this holds iff D(e) . rep2 is
    exact for every basis vector e one degree below deg1."""
    target, _ = cup_product(instance, deg1, rep1, deg2, rep2)
    if deg1 == 0:
        return True
    prev = instance.differentials[deg1 - 1]
    for c in range(prev.cols):
        _, shift = cup_product(instance, deg1, prev.column(c), deg2, rep2)
        if any(shift) and not in_column_span(instance.differentials[target - 1], shift):
            return False
    return True


# ---------------------------------------------------------------------------
# Mirror comparison and product-formula diagnostic
# ---------------------------------------------------------------------------


class MirrorInvarianceReport(Record):
    # commutation_residuals: per degree k <= K-1; dims_equal: None when
    # either side is not a complex
    __slots__ = _fields = ("transform_kind", "commutation_residuals", "commutation_holds",
                           "dims_original", "dims_mirrored", "euler_original",
                           "euler_mirrored", "dims_equal", "flags")

    def to_json(self):
        return {
            "transform": self.transform_kind,
            "commutation_residuals": [str(r) for r in self.commutation_residuals],
            "commutation_holds": self.commutation_holds,
            "dims_original": self.dims_original or [],
            "dims_mirrored": self.dims_mirrored or [],
            "euler_original": self.euler_original,
            "euler_mirrored": self.euler_mirrored,
            "dims_equal": self.dims_equal,
            "flags": list(self.flags),
        }


def _chain_map_blocks(instance, transform, degrees, base_maps=None):
    """The chain map on each degree k in degrees as Kronecker blocks: F_i x
    T_{k-i} on each segment Omega^i x S^{k-i}, with T_j =
    transform.tensor_map(j), built once per j, and F_i the identity or
    base_maps[i]: an invertible chain map of the base model, given as a dict
    with one |Omega^i| x |Omega^i| map for each form degree i = 0..top."""
    sizes = instance.dga.dims()
    if base_maps is not None and (len(base_maps) != len(sizes) or any(
            i not in base_maps or base_maps[i].shape != (n, n) for i, n in enumerate(sizes))):
        raise MismatchError(f"base_maps needs one square map per form degree, sizes {sizes}")
    forms = [OperatorMatrix.identity(n) if base_maps is None else base_maps[i]
             for i, n in enumerate(sizes)]
    tensor_maps = [transform.tensor_map(instance.algebra, j, instance.identification)
                   for j in range(max(degrees) + 1)]
    return [{(i, i): [(1, forms[i], tensor_maps[k - i])]
             for i in range(min(k, instance.dga.top_degree) + 1)} for k in degrees]


def chain_map_matrix(instance, transform, k, base_maps=None):
    """Block-diagonal chain map on the degree-k space of the instance, with
    kron(F_i, T_{k-i}) on each segment (see _chain_map_blocks)."""
    return _assemble(instance, k, k, _chain_map_blocks(instance, transform, [k], base_maps)[0])


def commutation_residuals(instance, mirrored, transform, base_maps=None):
    """max |psi_{k+1} D^k - D'^k psi_k| for k < K, D' the differential of the
    mirrored instance and psi the chain map of transform, block by block
    from the factors: psi_{k+1} D^k and D'^k psi_k share F_i on a delta
    block and T_{k-i} on a d block."""
    psi = _chain_map_blocks(instance, transform, range(instance.K + 1), base_maps)
    read = instance.read
    residuals = []
    for k in range(instance.K):
        blocks = _compose(psi[k + 1], instance.kron_blocks[k])
        for key, terms in _compose(mirrored.kron_blocks[k], psi[k]).items():
            blocks.setdefault(key, []).extend((-c, a, b) for c, a, b in terms)
        residuals.append(_max_abs(blocks, read))
    return residuals


def mirror_invariance_check(instance, transform, base_maps=None):
    """Build the mirrored complex (the dual vector under the inverse
    transport) on the instance's reader, verify chain-map commutation,
    compare dims."""
    lam_m = mirror_lambda(transform, instance.lam)
    mirrored = build_complex(
        instance.dga, instance.algebra, lam_m, instance.K,
        instance.convention, instance.identification, instance.read,
    )
    residuals = commutation_residuals(instance, mirrored, transform, base_maps)
    commutation_holds = all(r == 0 for r in residuals)

    rep_o = cohomology_report(instance)
    rep_m = cohomology_report(mirrored)
    flags = list(dict.fromkeys(rep_o.flags + rep_m.flags))
    if rep_o.dims is None or rep_m.dims is None:
        dims_equal = None
    else:
        dims_equal = rep_o.dims == rep_m.dims and rep_o.euler == rep_m.euler
    return MirrorInvarianceReport(
        transform.kind, residuals, commutation_holds,
        rep_o.dims, rep_m.dims, rep_o.euler, rep_m.euler, dims_equal, flags,
    )


class KunnethReport(Record):
    # per_degree: [(k, total dim, product-formula dim)]
    __slots__ = _fields = ("per_degree", "matches", "flags")

    def to_json(self):
        return {
            "per_degree": [[k, a, b] for k, a, b in self.per_degree],
            "matches": self.matches,
            "flags": list(self.flags),
        }


def kunneth_diagnostic(instance):
    """Compare total-complex dims against the tensor-product formula.

    The right side is sum_{i+j=k} dim H^i(base) * dim H^j(delta), with the
    delta-only cohomology computed from the stored delta matrices. Reported
    only when both squared differentials vanish.
    """
    rep = cohomology_report(instance)
    if rep.dims is None:
        return KunnethReport(
            [], None, [f"not applicable: D^2 residual = {rep.d_squared}"]
        )
    base_dims = instance.dga.de_rham_dims()
    delta_h = _rank_nullity(
        [sym_dim(instance.algebra.dim, j) for j in range(instance.K)],
        instance.delta_matrices,
    )
    per_degree = []
    for k in range(instance.K):
        rhs = sum(
            base_dims[i] * delta_h[k - i]
            for i in range(min(k, instance.dga.top_degree) + 1)
        )
        per_degree.append((k, rep.dims[k], rhs))
    matches = all(a == b for _, a, b in per_degree)
    return KunnethReport(per_degree, matches, [])
