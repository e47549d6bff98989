"""Exact sparse rational matrices and rank/kernel routines.

Everything here is Fraction-valued; no floating point. The package uses one
elimination, ``rref`` (Gauss-Jordan over the integers), for every rank,
kernel, solve, inverse and column-span test. ``rank_bareiss`` is a separate
fraction-free Bareiss elimination kept only to cross-check those ranks.
Products also run on integers: each factor is written as integer numerators
over one common denominator (``common_denominator``), and a Fraction is
built once per non-zero entry of the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import FormatError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_scalar(text):
    """Parse a "p/q" (or "p") string into a Fraction."""
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational literal {text!r}") from exc


def format_scalar(value):
    """Render a Fraction as "p" or "p/q"."""
    return str(value)


def common_denominator(values):
    """(den, ints): the lcm of the denominators of the Fractions in values,
    and the integer numerators over it, in the order of values."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


@dataclass
class OperatorMatrix:
    """Sparse rows x cols matrix over Fraction; entries holds only nonzeros."""

    rows: int
    cols: int
    entries: dict = field(default_factory=dict)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def from_dense(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {}
        for r, row in enumerate(dense):
            for c, v in enumerate(row):
                v = Fraction(v)
                if v:
                    entries[(r, c)] = v
        return cls(rows, cols, entries)

    def set(self, r, c, value):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        if value:
            self.entries[(r, c)] = value
        else:
            self.entries.pop((r, c), None)

    def get(self, r, c):
        return self.entries.get((r, c), ZERO)

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.entries)
        for key, v in other.entries.items():
            s = out.get(key, ZERO) + v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return OperatorMatrix(self.rows, self.cols, out)

    def __sub__(self, other):
        return self + other.scaled(Fraction(-1))

    def __neg__(self):
        return self.scaled(Fraction(-1))

    def scaled(self, a):
        a = Fraction(a)
        if not a:
            return OperatorMatrix.zero(self.rows, self.cols)
        return OperatorMatrix(
            self.rows, self.cols, {k: a * v for k, v in self.entries.items()}
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        da, a = common_denominator(self.entries.values())
        db, b = common_denominator(other.entries.values())
        by_row = {}
        for (r, c), w in zip(other.entries, b):
            by_row.setdefault(r, []).append((c, w))
        left_rows = {}
        for (r, k), v in zip(self.entries, a):
            left_rows.setdefault(r, []).append((k, v))
        den = da * db
        out = {}
        for r, items in left_rows.items():
            acc = {}
            for k, v in items:
                for c, w in by_row.get(k, ()):
                    acc[c] = acc.get(c, 0) + v * w
            out.update(((r, c), Fraction(v, den)) for c, v in acc.items() if v)
        return OperatorMatrix(self.rows, other.cols, out)

    def max_abs(self):
        return max((abs(v) for v in self.entries.values()), default=ZERO)

    def is_zero(self):
        return not self.entries

    @property
    def shape(self):
        return (self.rows, self.cols)

    def to_dense(self):
        dense = [[ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            dense[r][c] = v
        return dense

    def column(self, c):
        col = [ZERO] * self.rows
        for (r, cc), v in self.entries.items():
            if cc == c:
                col[r] = v
        return tuple(col)

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of Fractions."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for (r, c), v in self.entries.items():
            if vec[c]:
                out[r] += v * vec[c]
        return tuple(out)

    def rank(self):
        return len(rref(self.to_dense())[1])

    def kernel_basis(self):
        return kernel_basis_dense(self.to_dense(), self.cols)

    def rank_bareiss(self):
        return rank_bareiss(self.to_dense())

    def sorted_entries(self):
        return sorted(self.entries.items())

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[r, c, format_scalar(v)] for (r, c), v in self.sorted_entries()],
        }

    @classmethod
    def from_json(cls, data):
        try:
            rows = int(data["rows"])
            cols = int(data["cols"])
            raw = data["entries"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError("operator matrix JSON must have rows/cols/entries") from exc
        out = cls.zero(rows, cols)
        try:
            for r, c, v in raw:
                out.set(int(r), int(c), parse_scalar(v))
        except (TypeError, ValueError, IndexError) as exc:
            raise FormatError(f"bad operator matrix entries: {exc}") from exc
        return out

    def _check_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


def kron(a, b):
    """Kronecker product of two sparse matrices."""
    entries = {}
    for (ra, ca), va in a.entries.items():
        for (rb, cb), vb in b.entries.items():
            entries[(ra * b.rows + rb, ca * b.cols + cb)] = va * vb
    return OperatorMatrix(a.rows * b.rows, a.cols * b.cols, entries)


def place_block(target, block, row_offset, col_offset):
    """Copy block entries into target (an OperatorMatrix) at an offset."""
    for (r, c), v in block.entries.items():
        target.set(row_offset + r, col_offset + c, target.get(row_offset + r, col_offset + c) + v)


def _integer_rows(dense):
    """Each row times the lcm of its denominators: integer rows, same row space."""
    return [common_denominator(row)[1] for row in dense]


def rref(dense):
    """Reduced row echelon form of a dense rational matrix.

    Returns (new dense Fraction matrix, pivot column list). The input is not
    modified. Gauss-Jordan over the integers: rows are cleared of
    denominators once, eliminated with p*row - f*pivot_row and divided by
    the gcd of their entries; pivot rows are divided by their pivot once at
    the end. The RREF is unique, so this equals rational Gauss-Jordan.
    """
    mat = _integer_rows(dense)
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((rr for rr in range(r, nrows) if mat[rr][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        prow = mat[r]
        p = prow[c]
        for rr in range(nrows):
            f = mat[rr][c]
            if rr != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(mat[rr], prow)]
                g = gcd(*row)
                mat[rr] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    out = [[Fraction(x, row[c]) if x else ZERO for x in row] for row, c in zip(mat, pivots)]
    out.extend([ZERO] * ncols for _ in range(nrows - r))
    return out, pivots


def kernel_basis_dense(dense, ncols):
    """Canonical kernel basis (from RREF free columns), list of tuples."""
    mat, pivots = rref(dense)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(tuple(vec))
    return basis


def row_space_canonical(vectors):
    """Canonical basis of the span of the given row vectors (RREF rows)."""
    if not vectors:
        return []
    mat, pivots = rref([list(v) for v in vectors])
    return [tuple(mat[i]) for i in range(len(pivots))]


def rank_bareiss(dense):
    """Rank by integer fraction-free elimination (independent of rref).

    Rows are scaled by their denominator lcm first; this preserves rank.
    """
    mat = _integer_rows(dense)
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for rr in range(r, nrows):
            if mat[rr][c]:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        for rr in range(r + 1, nrows):
            for cc in range(c + 1, ncols):
                mat[rr][cc] = (mat[r][c] * mat[rr][cc] - mat[rr][c] * mat[r][cc]) // prev
            mat[rr][c] = 0
        prev = mat[r][c]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def invert_dense(dense):
    """Exact inverse of a square dense Fraction matrix; None if singular."""
    n = len(dense)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(dense)]
    mat, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in mat]


def solve_dense(dense, rhs):
    """One exact solution of A x = b, or None if inconsistent.

    For full-column-rank A the solution is unique.
    """
    nrows = len(dense)
    ncols = len(dense[0]) if nrows else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(dense)]
    mat, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, c in enumerate(pivots):
        x[c] = mat[r][ncols]
    return tuple(x)


def in_column_span(matrix, vec):
    """True iff vec lies in the column span of the sparse matrix."""
    return solve_dense(matrix.to_dense(), vec) is not None
