"""Total complexes over a finite de Rham model and their exact cohomology.

A DGAModel is a finite commutative differential graded algebra standing in
for the forms on the base: per-degree bases, differentials d_i with
d.d = 0, and an optional product table for cup products. torus_model(n)
is the constant-coefficient exterior algebra on n one-forms (d = 0), whose
cohomology is that of the n-torus.

The coupled complex is the total complex of the model with the symmetric
algebra of a Lie algebra: degree k is  sum_{i+j=k} Omega^i x S^j  with
differential  d x 1 + (-1)^i 1 x delta  (Koszul sign on the form degree).
Its differential squares to zero exactly when d^2 = 0 and delta^2 = 0. The
literal diagonal spaces Omega^k x S^k do not form a complex: d and delta map
them into Omega^{k+1} x S^k and Omega^k x S^{k+1}, neither of which is the
next diagonal space, so diagonal_block_shapes reports only the shapes of
those two blocks, by arithmetic.

Cohomology dimensions are computed by exact rank-nullity over the rationals
and reported only when the squared differential is exactly zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .errors import DegenerateInputError, FormatError, MismatchError
from .linalg import (
    ZERO,
    OperatorMatrix,
    format_scalar,
    in_column_span,
    kron,
    literal_parser,
    parse_int,
)
from .mirror import mirror_lambda
from .spencer import Identification, LeibnizConvention, delta_matrix
from .symtensor import multisets, sym_dim

GRADING_TOTAL = "total"
GRADING_DIAGONAL = "diagonal"


@dataclass(frozen=True)
class DGAModel:
    """Finite CDGA: bases per degree, differentials, optional product table."""

    name: str
    basis: tuple  # basis[i] = tuple of labels in degree i
    diff: tuple  # diff[i]: OperatorMatrix from degree i to i+1
    product: dict | None = field(default=None, compare=False)
    # product[(i, a, j, b)] -> {c: coeff} in degree i+j

    @property
    def top_degree(self):
        return len(self.basis) - 1

    def dims(self):
        return [len(b) for b in self.basis]

    def d_squared_residual(self):
        return _composite_residual(self.diff)

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
            basis = tuple(tuple(str(x) for x in row) for row in data["basis"])
            diff = tuple(OperatorMatrix.from_json(m) for m in data["diff"])
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
            if not isinstance(data["product"], list):
                raise FormatError("DGA product must be a list of rows")
            parse = literal_parser()
            product = dict(_product_row(item, basis, parse) for item in data["product"])
        model = cls(name, basis, diff, product)
        if model.d_squared_residual() != 0:
            raise FormatError("DGA differential does not square to zero")
        return model


def _product_row(item, basis, parse):
    """Parse [i, a, j, b, [[c, coeff], ...]]: e^i_a . e^j_b = sum coeff e^{i+j}_c,
    reading each coefficient with parse (one ``literal_parser`` per table)."""
    if not isinstance(item, list) or len(item) != 5 or not isinstance(item[4], list):
        raise FormatError(f"product row {item!r} must be [i, a, j, b, [[c, coeff], ...]]")
    i, a, j, b = (parse_int(x, "product row index") for x in item[:4])
    try:
        table = {}
        for c, v in item[4]:
            c = parse_int(c, "product row index")
            table[c] = parse(v)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"product row {item!r}: {exc}") from exc
    top = len(basis) - 1
    if min(i, j) < 0 or i + j > top:
        raise FormatError(f"product row {item!r}: degrees must satisfy i + j <= {top}")
    for index, degree in [(a, i), (b, j)] + [(c, i + j) for c in table]:
        if not 0 <= index < len(basis[degree]):
            raise FormatError(
                f"product row {item!r}: index {index} out of range in degree {degree}"
            )
    return (i, a, j, b), table


def torus_model(n):
    """Constant-coefficient exterior algebra on n one-form generators."""
    if not 1 <= n <= 4:
        raise FormatError("torus_model supports 1 <= n <= 4")
    subsets = [
        list(itertools.combinations(range(n), i)) for i in range(n + 1)
    ]
    labels = tuple(
        tuple("1" if not s else "d" + "".join(f"x{i + 1}" for i in s) for s in row)
        for row in subsets
    )
    diff = tuple(
        OperatorMatrix.zero(len(subsets[i + 1]), len(subsets[i])) for i in range(n)
    )
    product = {}
    for i, row_i in enumerate(subsets):
        for j, row_j in enumerate(subsets):
            if i + j > n:
                continue
            target_index = {s: c for c, s in enumerate(subsets[i + j])}
            for a, sa in enumerate(row_i):
                for b, sb in enumerate(row_j):
                    if set(sa) & set(sb):
                        continue
                    union = tuple(sorted(sa + sb))
                    sign = _merge_sign(sa, sb)
                    product[(i, a, j, b)] = {target_index[union]: sign}
    return DGAModel(f"torus{n}", labels, diff, product)


def _merge_sign(sa, sb):
    inversions = sum(1 for s in sa for t in sb if s > t)
    return Fraction(-1) ** inversions


# ---------------------------------------------------------------------------
# Complex assembly
# ---------------------------------------------------------------------------


@dataclass
class SpencerComplexInstance:
    dga: DGAModel
    algebra: object
    lam: object
    K: int
    convention: LeibnizConvention
    identification: Identification
    bases: list  # bases[k] = list of (form_degree, form_index, multiset), k <= K
    differentials: list  # D^k for k in 0..K-1
    delta_matrices: list  # delta^j for j in 0..K-1 (reused by diagnostics)

    @cached_property
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
                  identification=Identification.BASIS):
    """Assemble the total complex up to degree K (K >= 1)."""
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
    differentials = []
    for k in range(K):
        rows, n_rows = segment_offsets(dga, dim, k + 1)
        cols, n_cols = segment_offsets(dga, dim, k)
        blocks = []
        for i, start in cols.items():
            # (d omega) x s lands in form degree i+1, omega x delta(s) in i
            if i < dga.top_degree:
                d_block = kron(dga.diff[i], OperatorMatrix.identity(sym_dim(dim, k - i)))
                blocks.append((rows[i + 1], start, d_block))
            signs = OperatorMatrix.identity(len(dga.basis[i])).scaled((-1) ** i)
            blocks.append((rows[i], start, kron(signs, deltas[k - i])))
        differentials.append(OperatorMatrix.from_blocks(n_rows, n_cols, blocks))
    return SpencerComplexInstance(
        dga, algebra, lam, K, convention, identification, bases, differentials, deltas,
    )


def diagonal_block_shapes(dga, dim, K):
    """Shapes of the d x 1 and (-1)^k 1 x delta blocks on each diagonal space
    Omega^k x S^k, k < min(K, top + 1), as [(d shape, delta shape), ...].

    Pure arithmetic on the basis sizes: no block is built. With s_j =
    sym_dim(dim, j) and n_k = |Omega^k|, the d block is (n_{k+1} s_k, n_k s_k),
    with no rows at the top degree, and the delta block (n_k s_{k+1}, n_k s_k).
    """
    if K < 1:
        raise MismatchError("truncation K must be >= 1")
    n = dga.dims() + [0]
    return [
        ((n[k + 1] * sym_dim(dim, k), n[k] * sym_dim(dim, k)),
         (n[k] * sym_dim(dim, k + 1), n[k] * sym_dim(dim, k)))
        for k in range(min(K, dga.top_degree + 1))
    ]


def d_squared_residual(instance):
    """Max |entry| over all consecutive compositions of the differential."""
    return _composite_residual(instance.differentials)


def _composite_residual(maps):
    """Max |entry| over the consecutive composites maps[k+1] @ maps[k]."""
    return max(((b @ a).max_abs() for a, b in zip(maps, maps[1:])), default=ZERO)


def _rank_nullity(sizes, maps):
    """dim H^k = sizes[k] - rank maps[k] - rank maps[k-1]; absent maps have rank 0."""
    dims = []
    prev_rank = 0
    for k, n in enumerate(sizes):
        rank = maps[k].rank() if k < len(maps) else 0
        dims.append(n - rank - prev_rank)
        prev_rank = rank
    return dims


@dataclass
class CohomologyReport:
    grading: str
    convention: LeibnizConvention
    K: int
    dims: list | None  # per degree k <= K-1; None when not a complex
    euler: int | None
    d_squared: Fraction
    flags: list

    def to_json(self):
        return {
            "grading": self.grading,
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
            GRADING_TOTAL, instance.convention, instance.K,
            None, None, residual, ["not-a-complex: D^2 != 0; dims withheld"],
        )
    dims = _rank_nullity(
        [len(instance.bases[k]) for k in range(instance.K)], instance.differentials
    )
    euler = sum((-1) ** k * d for k, d in enumerate(dims))
    return CohomologyReport(
        GRADING_TOTAL, instance.convention, instance.K, dims, euler, residual, [],
    )


# ---------------------------------------------------------------------------
# Cup products
# ---------------------------------------------------------------------------


def is_closed(instance, degree, vec):
    if degree >= len(instance.differentials):
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


@dataclass
class MirrorInvarianceReport:
    transform_kind: str
    commutation_residuals: list  # per degree k <= K-1
    commutation_holds: bool
    dims_original: list | None
    dims_mirrored: list | None
    euler_original: int | None
    euler_mirrored: int | None
    dims_equal: bool | None  # None when either side is not a complex
    flags: list

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


def chain_map_matrix(instance, transform, k, base_maps=None):
    """Block-diagonal chain map on the degree-k space of the instance.

    Each segment Omega^i x S^j carries kron(form map, transform.tensor_map(j)),
    the form map being the identity or base_maps[i]: an invertible chain map
    of the base model, given as a dict with one |Omega^i| x |Omega^i| map for
    each form degree i = 0..top.
    """
    sizes = instance.dga.dims()
    if base_maps is not None and (len(base_maps) != len(sizes) or any(
            i not in base_maps or base_maps[i].shape != (n, n) for i, n in enumerate(sizes))):
        raise MismatchError(f"base_maps needs one square map per form degree, sizes {sizes}")
    offsets, total = segment_offsets(instance.dga, instance.algebra.dim, k)
    blocks = []
    for i, start in offsets.items():
        form_map = OperatorMatrix.identity(sizes[i]) if base_maps is None else base_maps[i]
        tensor_map = transform.tensor_map(instance.algebra, k - i, instance.identification)
        blocks.append((start, start, kron(form_map, tensor_map)))
    return OperatorMatrix.from_blocks(total, total, blocks)


def mirror_invariance_check(instance, transform, base_maps=None):
    """Build the mirrored complex (the dual vector under the inverse
    transport), verify chain-map commutation, compare dims."""
    lam_m = mirror_lambda(transform, instance.lam)
    mirrored = build_complex(
        instance.dga, instance.algebra, lam_m, instance.K,
        instance.convention, instance.identification,
    )
    psi = [chain_map_matrix(instance, transform, k, base_maps) for k in range(instance.K + 1)]
    residuals = [
        (psi[k + 1] @ instance.differentials[k] - mirrored.differentials[k] @ psi[k]).max_abs()
        for k in range(instance.K)
    ]
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


@dataclass
class KunnethReport:
    per_degree: list  # [(k, total dim, product-formula dim)]
    matches: bool | None
    flags: list

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
            if k - i < len(delta_h)
        )
        per_degree.append((k, rep.dims[k], rhs))
    matches = all(a == b for _, a, b in per_degree)
    return KunnethReport(per_degree, matches, [])
