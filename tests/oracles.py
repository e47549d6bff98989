"""Exact-elimination oracles shared by the tests.

Textbook Gauss-Jordan over Fraction on dense rows, kept independent of the
integer elimination in ``spencerbench.linalg``: the reduced row echelon form
is unique, so every kernel, span and solution derived from it is canonical
and can be compared with ``==``.
"""

from fractions import Fraction

F = Fraction


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
