"""Oracles shared by the tests.

Textbook Gauss-Jordan over Fraction on dense rows, kept independent of the
integer elimination in ``spencerbench.linalg``: the reduced row echelon form
is unique, so every kernel, span and solution derived from it is canonical
and can be compared with ``==``. The lattice oracles evaluate the bundle
diagnostics straight from their definitions, site by site: the flatness
residual and its energy in Fractions, and the equivariance defect with the
same float additions in the same order as the library, every product
included: the library skips exact zero products, which moves at most the
sign of a zero that the residual's |a - b| erases, so ``==`` holds for it
too. The coupled complex's D^2 and mirror-commutation
residuals are taken here from total-size products of its assembled
matrices, independent of the library's block-by-block reading of the
Kronecker factors. The dense forms of an algebra (its n^3 structure
tensor and its (re, im) matrix basis) exist only here, read from or
written through the public JSON interface and the stored sparse forms,
with the dense Jacobi loop over every index quadruple.
The term-by-term Leibniz rule on one factor word lives here too, against
delta_matrix's index tables and the signed-rule ordering audit's reading
of delta_k. Symmetric tensors exist only here too, as zero-free
{multiset: Fraction} dicts with their product, evaluation and
reconstruction from values: an independent Fraction model of delta^lam to
hold its matrices against, and of the mirror intertwining residual under
both dual transports.
The Chevalley-Eilenberg cochains are built here from the dense structure
tensor in Fractions, against ``ce_model``'s integer build.
"""

import functools
import itertools
from fractions import Fraction
from math import factorial, prod

from spencerbench.liealg import (
    algebra_from_json,
    algebra_to_json,
    bracket,
    coadjoint_matrix,
    killing_gram,
    pairing,
)
from spencerbench.cohomology import DGAModel, build_complex, segment_offsets
from spencerbench.linalg import OperatorMatrix, kron
from spencerbench.mirror import mirror_lambda
from spencerbench.spencer import (
    Identification,
    LeibnizConvention,
    _generator_table,
    delta_matrix,
)
from spencerbench.symtensor import _columns, multisets, sym_dim

F = Fraction


# ---------------------------------------------------------------------------
# Dense forms of an algebra
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def dense_structure(alg):
    """c[i][j][k] as a dense tuple of Fractions, from the algebra_to_json
    triples; memoised, since the bracket oracles read it once per product."""
    n = alg.dim
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in algebra_to_json(alg)["structure_constants"]:
        c[i][j][k] = F(v)
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def algebra_from_dense(name, c, labels=None):
    """The algebra with dense constants c[i][j][k] (any rationals, no
    antisymmetry required), loaded through algebra_from_json."""
    n = len(c)
    triples = [[i, j, k, str(F(v))] for i in range(n) for j in range(n)
               for k, v in enumerate(c[i][j]) if v]
    return algebra_from_json({"name": name, "dim": n, "structure_constants": triples,
                              "basis_labels": list(labels or (f"e{i + 1}" for i in range(n)))})


def oracle_jacobi(c, n):
    """Dense n^5 Fraction Jacobi loop over the constants c[i][j][k]:
    (worst, witness, all maximizers)."""
    sums = {}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for k in range(n):
                    s = F(0)
                    for m in range(n):
                        s += (
                            c[i][j][m] * c[m][l][k]
                            + c[j][l][m] * c[m][i][k]
                            + c[l][i][m] * c[m][j][k]
                        )
                    sums[(i, j, l, k)] = abs(s)
    worst = max(sums.values())
    if not worst:
        return worst, None, []
    tied = sorted(q for q, s in sums.items() if s == worst)
    return worst, tied[0], tied


def dense_matrix_basis(alg):
    """The matrix realization as dense n x n matrices of (re, im) Fractions."""
    n, mats = alg.matrix_basis
    zero = (F(0), F(0))
    return tuple(tuple(tuple((F(z[0]), F(z[1])) if (z := m.get((r, c))) else zero
                             for c in range(n)) for r in range(n)) for m in mats)


def oracle_rref(dense):
    """(RREF rows, pivot columns) of a dense matrix; zero rows stay at the end."""
    mat = [[F(x) for x in row] for row in dense]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((rr for rr in range(r, nrows) if mat[rr][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for rr in range(nrows):
            if rr != r:
                f = mat[rr][c]
                mat[rr] = [x - f * y for x, y in zip(mat[rr], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def oracle_components(matrix):
    """The connected components of a matrix's non-zero pattern, where each
    non-zero (r, c) joins row r to column c, found by graph search from
    each unvisited row in ascending order; each component is the dense
    Fraction block of its rows and columns, both in ascending order."""
    by_row, by_col = {}, {}
    for r, c in matrix.entries:
        by_row.setdefault(r, []).append(c)
        by_col.setdefault(c, []).append(r)
    seen, blocks = set(), []
    for start in sorted(by_row):
        if start in seen:
            continue
        rows, cols, stack = {start}, set(), [start]
        while stack:
            for c in by_row[stack.pop()]:
                if c not in cols:
                    cols.add(c)
                    fresh = [r for r in by_col[c] if r not in rows]
                    rows.update(fresh)
                    stack.extend(fresh)
        seen |= rows
        blocks.append([[matrix.get(r, c) for c in sorted(cols)] for r in sorted(rows)])
    return blocks


def oracle_kernel(dense, ncols):
    """Kernel basis of the rows, one vector per free column of the RREF."""
    red, pivots = oracle_rref(dense)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def oracle_row_space(vectors):
    """The non-zero RREF rows: one canonical basis per row span."""
    red, pivots = oracle_rref([list(v) for v in vectors])
    return [tuple(row) for row in red[:len(pivots)]]


def oracle_solve(a, b, ncols, width):
    """The solution X (ncols x width) of a X = b with every free variable
    zero, or None when the system is inconsistent."""
    red, pivots = oracle_rref([list(ra) + list(rb) for ra, rb in zip(a, b)])
    if any(c >= ncols for c in pivots):
        return None
    x = [[F(0)] * width for _ in range(ncols)]
    for row, c in zip(red, pivots):
        x[c] = row[ncols:]
    return x


def oracle_inverse(a):
    n = len(a)
    return oracle_solve(a, [[F(int(i == j)) for j in range(n)] for i in range(n)], n, n)


# ---------------------------------------------------------------------------
# Block matrices, summed in Fraction dicts
# ---------------------------------------------------------------------------


def oracle_place_block(target, block, row_offset, col_offset):
    """A new {(r, c): Fraction} dict: target plus block (a dict too) at the
    offset, with no stored zero."""
    out = dict(target)
    for (r, c), v in block.items():
        key = (row_offset + r, col_offset + c)
        s = out.get(key, F(0)) + v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def oracle_block_matrix(rows, cols, blocks):
    """The rows x cols sum of the (row_offset, col_offset, block) triples,
    each block's entries added to a Fraction dict."""
    out = {}
    for row_offset, col_offset, block in blocks:
        out = oracle_place_block(out, dict(block.entries), row_offset, col_offset)
    return OperatorMatrix(rows, cols, out)


# ---------------------------------------------------------------------------
# delta^lam_k assembled term by term
# ---------------------------------------------------------------------------


def _image(cols, seq, signed):
    """Leibniz extension of a generator table to the product of the factors in
    seq, as {multiset: integer}.

    cols[m] lists the (index pair, integer) terms of the image of e_m: the
    columns (_columns) of _generator_table. Leibniz rule: the t-th factor is
    replaced by its generator image, whose index pair is merged into the
    sorted remaining factors. The signed rule's left-to-right
    splitting delta(h.r) = delta(h).r - h.delta(r) unrolls to the sign (-1)^t
    on the t-th term, so it depends on the order of seq.
    """
    out = {}
    for t, i in enumerate(seq):
        rest = seq[:t] + seq[t + 1 :]
        sign = -1 if signed and t % 2 else 1
        for pair, v in cols[i]:
            key = tuple(sorted(pair + rest))
            out[key] = out.get(key, 0) + sign * v
    return {key: v for key, v in out.items() if v}


def oracle_delta_matrix(lam, k, convention=LeibnizConvention.UNSIGNED,
                        identification=Identification.BASIS):
    """delta^lam_k with the Leibniz rule applied to each column's multiset
    one factor at a time (_image): every term's row is the sorted merge of
    the generator image's index pair into the remaining factors, looked up
    by its multiset, independent of the library's index tables."""
    dim = lam.algebra.dim
    signed = LeibnizConvention(convention) is LeibnizConvention.PAPER_SIGNED
    if k == 0:
        return OperatorMatrix.zero(dim, 1)
    table = _generator_table(lam, Identification(identification))
    cols = _columns(table, multisets(dim, 2))
    codomain_index = {key: r for r, key in enumerate(multisets(dim, k + 1))}
    nums = {
        (codomain_index[row_key], c): v
        for c, key in enumerate(multisets(dim, k))
        for row_key, v in _image(cols, key, signed).items()
    }
    return OperatorMatrix.from_numerators(sym_dim(dim, k + 1), sym_dim(dim, k), table.den, nums)


def oracle_ordering_witnesses(lam, k, identification=Identification.BASIS):
    """The signed-rule ordering audit's JSON witnesses from its definition:
    _image on each multiset's sorted word and on its reversal, one witness
    with the max |difference| wherever the two images differ."""
    table = _generator_table(lam, Identification(identification))
    cols = _columns(table, multisets(table.cols, 2))
    witnesses = []
    for key in multisets(lam.algebra.dim, k):
        reverse = tuple(reversed(key))
        a, b = _image(cols, key, True), _image(cols, reverse, True)
        gap = max((abs(a.get(m, 0) - b.get(m, 0)) for m in a.keys() | b.keys()), default=0)
        if gap:
            witnesses.append({"multiset": list(key), "forward": list(key),
                              "reverse": list(reverse), "difference_max": str(F(gap, table.den))})
    return witnesses


# ---------------------------------------------------------------------------
# Symmetric tensors as {multiset: Fraction} dicts
# ---------------------------------------------------------------------------


def oracle_sum(*terms):
    """sum a * t over the (a, t) terms, with no stored zero, so equal
    tensors compare ==."""
    out = {}
    for a, t in terms:
        for key, v in t.items():
            out[key] = out.get(key, F(0)) + a * v
    return {key: v for key, v in out.items() if v}


def oracle_sym_product(s, t):
    """The symmetric product: multisets merged, coefficients multiplied."""
    return oracle_sum(*((v * w, {tuple(sorted(a + b)): F(1)})
                        for a, v in s.items() for b, w in t.items()))


def oracle_eval(s, args):
    """s as a symmetric multilinear functional through e_i <-> e_i*: the
    multiset (i_1..i_k) takes the vectors (X_1..X_k) to (1/k!) times the sum
    over permutations sigma of prod_t X_sigma(t)[i_t]."""
    return sum((v * prod(x.coeffs[i] for x, i in zip(perm, key)) / factorial(len(key))
                for key, v in s.items() for perm in itertools.permutations(args)), F(0))


def oracle_power_map(s, matrix):
    """The degree-k power of a dense linear map applied to s: each factor e_i
    becomes column i of matrix, multiplied in one factor at a time."""
    n = len(matrix)
    cols = [{(r,): matrix[r][c] for r in range(n) if matrix[r][c]} for c in range(n)]
    terms = []
    for key, v in s.items():
        term = {(): v}
        for i in key:
            term = oracle_sym_product(term, cols[i])
        terms.append((1, term))
    return oracle_sum(*terms)


def oracle_reconstruct(algebra, values, identification=Identification.BASIS):
    """The tensor whose value on the basis vectors of each multiset is
    values[multiset]: each value times the multiplicity k!/prod(m_a!) under
    the basis identification, then the degree-k power of the inverse
    Killing Gram under the killing one."""
    s = oracle_sum(*((F(factorial(len(key)), prod(factorial(key.count(a)) for a in set(key))),
                      {key: v}) for key, v in values.items()))
    if Identification(identification) is Identification.KILLING:
        s = oracle_power_map(s, oracle_inverse(killing_gram(algebra).to_dense()))
    return s


def oracle_jacobi_generator(lam, v, identification=Identification.BASIS):
    """delta^lam(v) from the Jacobi-rewritten double bracket
    lam([e_j,[e_i,v]]) + lam([[e_i,e_j],v]) / 2 on each basis pair i <= j."""
    e = v.algebra.basis_vectors()
    return oracle_reconstruct(v.algebra, {
        (i, j): pairing(lam, bracket(e[j], bracket(e[i], v)))
        + pairing(lam, bracket(bracket(e[i], e[j]), v)) / 2
        for i, j in multisets(v.algebra.dim, 2)}, identification)


def apply_delta_matrix(lam, s, convention=LeibnizConvention.UNSIGNED,
                       identification=Identification.BASIS):
    """delta_matrix(lam, k) applied to the degree-k tensor s, k the length of
    its multisets; {} for s = {}."""
    if not s:
        return {}
    dim, k = lam.algebra.dim, len(next(iter(s)))
    image = delta_matrix(lam, k, convention, identification).apply(
        [s.get(key, F(0)) for key in multisets(dim, k)])
    return {key: v for key, v in zip(multisets(dim, k + 1), image) if v}


# ---------------------------------------------------------------------------
# The sign mirror on the operator matrices
# ---------------------------------------------------------------------------


def oracle_sign_residual(lam, k, convention, identification):
    """max |delta^{-lam}_k + delta^lam_k|: the sign mirror's operator identity
    delta^{-lam} = -delta^lam compared entry by entry, with no tensor maps."""
    return (delta_matrix(-lam, k, convention, identification)
            - delta_matrix(lam, k, convention, identification).scaled(-1)).max_abs()


# ---------------------------------------------------------------------------
# Mirror intertwining on symmetric-tensor dicts
# ---------------------------------------------------------------------------


def oracle_intertwining_residual(transform, lam, k, convention=LeibnizConvention.UNSIGNED,
                                 identification=Identification.KILLING):
    """(inverse, literal): max |T_{k+1} delta^lam_k s - delta^lam'_k T_k s| over
    the basis tensors s of S^k, for lam' = lam o A^{-1} and lam o A (-lam
    both for the sign mirror). delta comes from oracle_delta_matrix, read as
    columns of tensor dicts; T_j is (-1)^j for the sign mirror and else
    oracle_power_map of A (killing) or (A^{-1})^T (basis), with A^{-1} from
    the Fraction Gauss-Jordan, not the automorphism's stored inverse."""
    algebra = lam.algebra
    n = algebra.dim
    if transform.kind == "sign":
        def tensor_map(s):
            return {key: (-1) ** len(key) * v for key, v in s.items()}
        duals = ([-c for c in lam.coeffs],) * 2
    else:
        a = transform.automorphism.matrix.to_dense()
        a_inv = oracle_inverse(a)
        base = (a if Identification(identification) is Identification.KILLING
                else [list(col) for col in zip(*a_inv)])

        def tensor_map(s):
            return oracle_power_map(s, base)
        # <lam', e_j> = <lam, M e_j> = sum_i lam_i M[i][j]
        duals = tuple([sum((lam.coeffs[i] * m[i][j] for i in range(n)), F(0)) for j in range(n)]
                      for m in (a_inv, a))
    domain, codomain = multisets(n, k), multisets(n, k + 1)

    def columns(lam_):
        cols = [{} for _ in domain]
        for (r, c), v in oracle_delta_matrix(lam_, k, convention, identification).entries.items():
            cols[c][codomain[r]] = v
        return cols

    # T_j is linear: its images of the basis tensors of S^k and S^{k+1}
    image = {key: tensor_map({key: F(1)}) for key in domain + codomain}
    index = {key: c for c, key in enumerate(domain)}
    mapped = [oracle_sum(*((v, image[m]) for m, v in col.items())) for col in columns(lam)]
    residuals = []
    for coeffs in duals:
        delta_t = columns(algebra.dual(coeffs))
        gap = F(0)
        for c, key in enumerate(domain):
            diff = oracle_sum((1, mapped[c]),
                              *((-v, delta_t[index[m]]) for m, v in image[key].items()))
            gap = max([gap, *map(abs, diff.values())])
        residuals.append(gap)
    return tuple(residuals)


# ---------------------------------------------------------------------------
# Diagonal blocks of the coupled complex, built as matrices
# ---------------------------------------------------------------------------


def oracle_diagonal_block_shapes(dga, lam, K):
    """Shapes of kron(d_k, I) and kron((-1)^k I, delta_k) on Omega^k x S^k for
    k < min(K, top + 1), each block built; the d block at the top degree is
    an empty matrix with the delta block's columns."""
    shapes = []
    for k in range(min(K, dga.top_degree + 1)):
        delta_k = delta_matrix(lam, k)
        s_k = delta_k.cols
        delta_block = kron(OperatorMatrix.identity(len(dga.basis[k])).scaled((-1) ** k), delta_k)
        d_block = (kron(dga.diff[k], OperatorMatrix.identity(s_k)) if k < dga.top_degree
                   else OperatorMatrix.zero(0, delta_block.cols))
        shapes.append((d_block.shape, delta_block.shape))
    return shapes


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg cochains from the dense structure tensor
# ---------------------------------------------------------------------------


def _wedge_sign(word):
    return (-1) ** sum(1 for x, y in itertools.combinations(word, 2) if x > y)


def oracle_ce_model(alg, name):
    """CE cochains of alg: d e^m = -sum_{i<j} c_ij^m e^i e^j, as a derivation,
    and the wedge product, read from the dense Fraction constants.

    Degree k has the sorted k-subsets S as basis; d e^S replaces each e^{s_p}
    by d e^{s_p} (sign (-1)^p for moving d past p one-forms) and re-sorts the
    wedge word with its permutation sign.
    """
    n, structure = alg.dim, dense_structure(alg)
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    diff = []
    for k in range(n):
        index = {s: r for r, s in enumerate(subsets[k + 1])}
        entries = {}
        for col, S in enumerate(subsets[k]):
            for p, m in enumerate(S):
                for i, j in itertools.combinations(range(n), 2):
                    c = structure[i][j][m]
                    word = S[:p] + (i, j) + S[p + 1 :]
                    if not c or len(set(word)) < len(word):
                        continue
                    key = (index[tuple(sorted(word))], col)
                    entries[key] = entries.get(key, 0) - c * (-1) ** p * _wedge_sign(word)
        diff.append(OperatorMatrix(len(subsets[k + 1]), len(subsets[k]), entries))
    product = {}
    for S, T in itertools.product(itertools.chain(*subsets), repeat=2):
        if not set(S) & set(T):
            key = (len(S), subsets[len(S)].index(S), len(T), subsets[len(T)].index(T))
            target = subsets[len(S) + len(T)].index(tuple(sorted(S + T)))
            product[key] = {target: _wedge_sign(S + T)}
    labels = tuple(tuple("e" + "^".join(str(x + 1) for x in S) if S else "1" for S in row)
                   for row in subsets)
    return DGAModel(name, labels, tuple(diff), product)


# ---------------------------------------------------------------------------
# The coupled complex as total-size matrices
# ---------------------------------------------------------------------------


def oracle_total_differentials(instance, assemble=OperatorMatrix.from_blocks):
    """Every D^k of the instance as one matrix: kron(d_i, I) and kron((-1)^i I,
    delta_{k-i}) placed at their segment offsets by assemble."""
    dga, dim = instance.dga, instance.algebra.dim
    out = []
    for k in range(instance.K):
        rows, n_rows = segment_offsets(dga, dim, k + 1)
        cols, n_cols = segment_offsets(dga, dim, k)
        blocks = []
        for i, start in cols.items():
            if i < dga.top_degree:
                identity = OperatorMatrix.identity(sym_dim(dim, k - i))
                blocks.append((rows[i + 1], start, kron(dga.diff[i], identity)))
            signs = OperatorMatrix.identity(len(dga.basis[i])).scaled((-1) ** i)
            blocks.append((rows[i], start, kron(signs, instance.delta_matrices[k - i])))
        out.append(assemble(n_rows, n_cols, blocks))
    return out


def oracle_chain_map(instance, transform, k, base_maps=None):
    """The degree-k chain map as one matrix: kron(F_i, T_{k-i}) on each
    segment, F_i the identity or base_maps[i]."""
    offsets, total = segment_offsets(instance.dga, instance.algebra.dim, k)
    return OperatorMatrix.from_blocks(total, total, [
        (start, start, kron(
            OperatorMatrix.identity(len(instance.dga.basis[i])) if base_maps is None
            else base_maps[i],
            transform.tensor_map(instance.algebra, k - i, instance.identification)))
        for i, start in offsets.items()])


def oracle_total_residuals(instance, transform=None, base_maps=None):
    """(max |D^{k+1} D^k| over k, [max |psi_{k+1} D^k - D'^k psi_k| for k < K])
    from total-size products of the assembled matrices, D' the differential
    of the complex of the inverse-transported dual vector; the second entry
    is None without a transform."""
    total = oracle_total_differentials(instance)
    d_squared = max(((b @ a).max_abs() for a, b in zip(total, total[1:])), default=F(0))
    if transform is None:
        return d_squared, None
    mirrored = oracle_total_differentials(build_complex(
        instance.dga, instance.algebra, mirror_lambda(transform, instance.lam), instance.K,
        instance.convention, instance.identification))
    psi = [oracle_chain_map(instance, transform, k, base_maps) for k in range(instance.K + 1)]
    return d_squared, [(psi[k + 1] @ total[k] - mirrored[k] @ psi[k]).max_abs()
                       for k in range(instance.K)]


# ---------------------------------------------------------------------------
# Lattice diagnostics, coded from their definitions over Fractions and floats
# ---------------------------------------------------------------------------


def oracle_cartan(bundle):
    """(field, max_abs) of the central-difference flatness residual, summed
    per coefficient in Fractions; the coadjoint term is -<lam, [omega_a, e_j]>
    from the bracket, independent of the integer coadjoint matrices."""
    basis = bundle.algebra.basis_vectors()
    field = {}
    worst = F(0)
    for site in bundle.sites():
        lam = bundle.lam_field[site]
        for a in range(bundle.n_axes):
            plus = bundle.lam_field[bundle.shift(site, a, 1)].coeffs
            minus = bundle.lam_field[bundle.shift(site, a, -1)].coeffs
            half = F(bundle.shape[a], 2)  # 1 / (2 h_a)
            coad = [-pairing(lam, bracket(bundle.omega[site][a], e)) for e in basis]
            res = tuple((p - q) * half + x for p, q, x in zip(plus, minus, coad))
            field[(site, a)] = res
            worst = max(worst, max(map(abs, res), default=F(0)))
    return field, worst


def oracle_constraint_row(bundle, site):
    """The constraint functional v = (u, X) -> <lam, omega(v)> at a site as
    one Fraction row: <lam, omega_a> for each base axis a, then lam."""
    lam = bundle.lam_field[site]
    return [pairing(lam, w) for w in bundle.omega[site]] + list(lam.coeffs)


def oracle_site_dims(bundle, site):
    """(dim D, dim D&V, dim D+V) from one kernel and one RREF at this site."""
    n, dim_g = bundle.n_axes, bundle.algebra.dim
    dist = oracle_kernel([oracle_constraint_row(bundle, site)], n + dim_g)
    vertical = [[F(int(c == n + i)) for c in range(n + dim_g)] for i in range(dim_g)]
    dim_sum = len(oracle_rref([list(v) for v in dist] + vertical)[1])
    return len(dist), len(dist) + dim_g - dim_sum, dim_sum


def oracle_first_term(field, vol):
    """Half the volume-weighted sum of the squared residual coefficients."""
    total = F(0)
    for coeffs in field.values():
        total += sum((v * v for v in coeffs), F(0))
    return total * vol / 2


def oracle_equivariance_residual(bundle, order=8, steps=(0.1, 0.2)):
    """The float group-law defect with plain index loops: one series per step
    and per half step, every entry a running total of its products in
    ascending index order, added with += (never builtin sum, which Python
    3.12 made compensated)."""
    alg = bundle.algebra
    dim = alg.dim
    lams = {bundle.lam_field[site].coeffs: None for site in bundle.sites()}
    lams = [[float(c) for c in coeffs] for coeffs in lams]

    def mat_mul(a, b):
        out = []
        for i in range(dim):
            row = []
            for j in range(dim):
                total = 0.0
                for k in range(dim):
                    total += a[i][k] * b[k][j]
                row.append(total)
            out.append(row)
        return out

    def mat_apply(a, v):
        out = []
        for i in range(dim):
            total = 0.0
            for k in range(dim):
                total += a[i][k] * v[k]
            out.append(total)
        return out

    def expm(mat, t):
        out = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
        term = [row[:] for row in out]
        for p in range(1, order + 1):
            term = mat_mul(term, mat)
            term = [[x * t / p for x in row] for row in term]
            for i in range(dim):
                for j in range(dim):
                    out[i][j] += term[i][j]
        return out

    worst = 0.0
    for i in range(dim):
        gen = [[float(v) for v in row]
               for row in coadjoint_matrix(alg.basis_vector(i)).to_dense()]
        for t in steps:
            one_step = expm(gen, t)
            half = expm(gen, t / 2)
            two_step = mat_mul(half, half)
            for lam in lams:
                a = mat_apply(one_step, lam)
                b = mat_apply(two_step, lam)
                worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    return worst
