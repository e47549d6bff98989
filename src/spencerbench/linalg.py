"""Exact sparse rational matrices and rank/kernel/solve routines.

No floating point. ``OperatorMatrix`` is the package's one matrix type: it
stores integer numerators over one positive denominator, kept canonical (the
gcd of the denominator and every numerator is 1, and zero numerators are not
stored), so ``==`` is exact whatever built a matrix. Sums, products,
scaling, transposes, Kronecker products and block sums (``from_blocks``)
are integer operations; Fractions appear only at the interface (``get``,
``entries``, ``to_dense``, ``to_json``). A product with a factor c * I is
a scaling of the other factor. Every operation returns a new matrix, except
that ``scaled(1)`` (and so a product with I) returns the matrix itself, and
no function writes into an existing one, so a cached matrix can be shared.
``rank()`` is one sparse fraction-free elimination of the integer
numerators (``_sparse_rank``) that pivots on a shortest row and, within it,
the column held by the fewest rows (Markowitz's rule, which limits
fill-in). Every kernel, solve, inverse and column-span test is one
Gauss-Jordan elimination over the integers of the matrix's numerator rows
(``_eliminate``, which yields the RREF and so the canonical outputs);
``solve(B)`` eliminates [A | B] (built by ``from_blocks``) once, so an
inverse is ``solve(identity)``. That elimination runs on each connected
component of the non-zero pattern on its own (found by union-find over the
stored keys), and kernels and solutions come out as integer numerators over
the lcm of the pivots. ``rank_bareiss`` is a separate fraction-free Bareiss
elimination on the dense Fraction form, kept only to cross-check ranks.

Only the boundaries stay dense: ``from_dense``/``to_dense`` and JSON.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

from .errors import FormatError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_scalar(text):
    """Parse a "p/q" (or "p") string, or an integer, into a Fraction.

    A float or a bool is not an exact rational literal and is rejected.
    """
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise FormatError(f"bad rational literal {text!r}")
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational literal {text!r}") from exc


def literal_parser():
    """A parse_scalar that parses each distinct literal once, for a loader
    whose data repeat few literals. The literal's type is part of the key:
    1, 1.0 and True are equal, but only 1 is a rational literal."""
    seen = {}

    def parse(value):
        key = (type(value), value)
        try:
            return seen[key]
        except KeyError:
            out = seen[key] = parse_scalar(value)
            return out
        except TypeError:  # unhashable, so no literal: parse_scalar rejects it
            return parse_scalar(value)

    return parse


def parse_int(value, what):
    """value, checked to be an integer (not a bool): a float or a string is
    rejected instead of being truncated or converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def format_scalar(value):
    """Render a Fraction as "p" or "p/q"."""
    return str(value)


def common_denominator(values):
    """(den, ints): the lcm of the denominators of the Fractions in values,
    and the integer numerators over it, in the order of values."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _reduced(den, nums):
    """The canonical form of nums / den (den > 0, no zero numerators): both
    divided by the gcd of den and every numerator."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {key: v // g for key, v in nums.items()}
    return den, nums


class _Entries(Mapping):
    """Read-only view of a matrix's non-zero entries as Fractions."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        self._matrix = matrix

    def __getitem__(self, key):
        return Fraction(self._matrix.nums[key], self._matrix.den)

    def __iter__(self):
        return iter(self._matrix.nums)

    def __len__(self):
        return len(self._matrix.nums)


class OperatorMatrix:
    """Sparse rows x cols rational matrix: the non-zero entries are
    nums[(r, c)] / den, in canonical form.

    ``OperatorMatrix(rows, cols, {(r, c): Fraction})`` builds one from
    rationals and raises IndexError for a key outside the shape;
    ``from_numerators`` builds one from integers over a denominator, and
    ``from_blocks`` one from blocks at offsets. Only ``__init__`` and
    ``from_numerators`` set ``den`` and ``nums``.
    """

    __slots__ = ("rows", "cols", "den", "nums")

    def __init__(self, rows, cols, entries=None):
        entries = entries or {}
        for r, c in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError((r, c))
        items = [(key, v) for key, v in entries.items() if v]
        den, ints = common_denominator(v for _, v in items)
        self.rows, self.cols = rows, cols
        self.den, self.nums = _reduced(den, {key: v for (key, _), v in zip(items, ints)})

    @classmethod
    def from_numerators(cls, rows, cols, den, nums):
        """The matrix nums / den; den > 0 and nums holds non-zero integers.
        The matrix takes ownership of nums."""
        out = cls.__new__(cls)
        out.rows, out.cols = rows, cols
        out.den, out.nums = _reduced(den, nums)
        return out

    @classmethod
    def from_blocks(cls, rows, cols, blocks):
        """The rows x cols sum of the list blocks of (row_offset, col_offset,
        block) triples, each block written once over the lcm of their
        denominators; a block that does not fit raises IndexError."""
        den = lcm(*(block.den for _, _, block in blocks))
        nums = {}
        for row_offset, col_offset, block in blocks:
            if not (0 <= row_offset <= rows - block.rows
                    and 0 <= col_offset <= cols - block.cols):
                raise IndexError((row_offset, col_offset))
            f = den // block.den
            for (r, c), v in block.nums.items():
                key = (row_offset + r, col_offset + c)
                s = nums.get(key, 0) + v * f
                if s:
                    nums[key] = s
                else:
                    del nums[key]
        return cls.from_numerators(rows, cols, den, nums)

    @classmethod
    def zero(cls, rows, cols):
        return cls.from_numerators(rows, cols, 1, {})

    @classmethod
    def identity(cls, n):
        return cls.from_numerators(n, n, 1, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_dense(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        return cls(rows, cols, {(r, c): Fraction(v) for r, row in enumerate(dense)
                                for c, v in enumerate(row)})

    @property
    def entries(self):
        return _Entries(self)

    def get(self, r, c):
        return Fraction(self.nums.get((r, c), 0), self.den)

    def __eq__(self, other):
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.nums) == (
            other.rows, other.cols, other.den, other.nums)

    __hash__ = None

    def __repr__(self):
        return f"OperatorMatrix({self.rows}, {self.cols}, den={self.den}, nums={self.nums})"

    def _combined(self, other, sign):
        """self + sign * other in one pass over both key sets, over the lcm
        of the two denominators."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        nums = {key: v * f for key, v in self.nums.items()} if f != 1 else dict(self.nums)
        for key, v in other.nums.items():
            s = nums.get(key, 0) + v * g
            if s:
                nums[key] = s
            else:
                del nums[key]
        return OperatorMatrix.from_numerators(self.rows, self.cols, den, nums)

    def __add__(self, other):
        return self._combined(other, 1)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, a):
        """a * self; scaled(1) is self, which no function writes into."""
        a = Fraction(a)
        if a == 1:
            return self
        p = a.numerator
        nums = {key: v * p for key, v in self.nums.items()} if p else {}
        return OperatorMatrix.from_numerators(self.rows, self.cols, self.den * a.denominator, nums)

    def _identity_scale(self):
        """c when self is c times the identity (a 0 x 0 matrix with c = 1),
        else None. Only a square matrix with as many non-zeros as rows gets
        past the first test."""
        n, nums = self.rows, self.nums
        if n != self.cols or len(nums) != n:
            return None
        v = next(iter(nums.values()), self.den)
        if all(nums.get((i, i)) == v for i in range(n)):
            return Fraction(v, self.den)
        return None

    def __matmul__(self, other):
        """The product; a factor c * I is a scaling of the other factor.
        Each row accumulates in an integer list, read back through
        ``compress``, which skips its zero columns in C."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        scale = other._identity_scale()
        if scale is not None:
            return self.scaled(scale)
        scale = self._identity_scale()
        if scale is not None:
            return other.scaled(scale)
        by_row = {}
        for (r, c), w in other.nums.items():
            by_row.setdefault(r, []).append((c, w))
        left_rows = {}
        for (r, k), v in self.nums.items():
            left_rows.setdefault(r, []).append((k, v))
        out = {}
        columns = range(other.cols)
        for r, items in left_rows.items():
            acc = [0] * other.cols
            for k, v in items:
                for c, w in by_row.get(k, ()):
                    acc[c] += v * w
            out.update(((r, c), acc[c]) for c in compress(columns, acc))
        return OperatorMatrix.from_numerators(self.rows, other.cols, self.den * other.den, out)

    def transpose(self):
        return OperatorMatrix.from_numerators(
            self.cols, self.rows, self.den, {(c, r): v for (r, c), v in self.nums.items()})

    def max_abs(self):
        return Fraction(max(map(abs, self.nums.values()), default=0), self.den)

    def is_zero(self):
        return not self.nums

    @property
    def shape(self):
        return (self.rows, self.cols)

    def to_dense(self):
        dense = [[ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.nums.items():
            dense[r][c] = Fraction(v, self.den)
        return dense

    def _numerator_rows(self):
        """Dense integer rows den * self: the same row space as self."""
        mat = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.nums.items():
            mat[r][c] = v
        return mat

    def column(self, c):
        col = [ZERO] * self.rows
        for (r, cc), v in self.nums.items():
            if cc == c:
                col[r] = Fraction(v, self.den)
        return tuple(col)

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of Fractions."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for (r, c), v in self.nums.items():
            if vec[c]:
                out[r] += v * vec[c]
        return tuple(x / self.den for x in out)

    def rank(self):
        """The rank, by the sparse elimination of the numerators."""
        return _sparse_rank(self.nums)

    def kernel(self):
        """The canonical kernel basis as the rows of an integer matrix: row k
        has 1 at the k-th free column fc of the RREF and minus the RREF entry
        in column fc at each pivot column, all over the lcm of the pivots."""
        rows, pivots = _rref(self)
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        index = {c: k for k, c in enumerate(free)}
        den = lcm(*(row[pc] for row, pc in zip(rows, pivots)))
        nums = {(k, c): den for k, c in enumerate(free)}
        for row, pc in zip(rows, pivots):
            f = den // row[pc]
            for c, v in row.items():
                if c != pc:
                    nums[(index[c], pc)] = -v * f
        return OperatorMatrix.from_numerators(len(free), self.cols, den, nums)

    def kernel_basis(self):
        """The rows of kernel(), as tuples of Fractions."""
        return [tuple(row) for row in self.kernel().to_dense()]

    def solve(self, rhs):
        """One exact solution X of self @ X = rhs, free variables set to
        zero, or None when the system is inconsistent. One elimination of
        the numerator rows of [self | rhs]."""
        if self.rows != rhs.rows:
            raise ValueError(f"shape mismatch {self.shape} vs {rhs.shape}")
        n = self.cols
        rows, pivots = _rref(OperatorMatrix.from_blocks(
            self.rows, n + rhs.cols, [(0, 0, self), (0, n, rhs)]))
        if pivots and pivots[-1] >= n:
            return None
        den = lcm(*(row[pc] for row, pc in zip(rows, pivots)))
        return OperatorMatrix.from_numerators(n, rhs.cols, den, {
            (pc, c - n): v * (den // row[pc])
            for row, pc in zip(rows, pivots) for c, v in row.items() if c >= n})

    def rank_bareiss(self):
        return rank_bareiss(self.to_dense())

    def to_json(self):
        """rows, cols and the sorted [r, c, "p/q"] entries; each entry is
        rendered as format_scalar would render it, from v / den reduced by
        their gcd, without building a Fraction."""
        den = self.den
        if den == 1:
            entries = [[r, c, str(v)] for (r, c), v in sorted(self.nums.items())]
        else:
            entries = []
            for (r, c), v in sorted(self.nums.items()):
                g = gcd(v, den)
                entries.append([r, c, f"{v // g}/{den // g}" if g != den else str(v // g)])
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    @classmethod
    def from_json(cls, data):
        try:
            rows = parse_int(data["rows"], "operator matrix rows")
            cols = parse_int(data["cols"], "operator matrix cols")
            raw = data["entries"]
        except (KeyError, TypeError) as exc:
            raise FormatError("operator matrix JSON must have rows/cols/entries") from exc
        entries = {}
        try:
            for r, c, v in raw:
                key = (parse_int(r, "entry row"), parse_int(c, "entry column"))
                entries[key] = parse_scalar(v)
            return cls(rows, cols, entries)
        except (TypeError, ValueError, IndexError) as exc:
            raise FormatError(f"bad operator matrix entries: {exc}") from exc


def kron(a, b):
    """Kronecker product of two sparse matrices."""
    nums = {}
    for (ra, ca), va in a.nums.items():
        r0, c0 = ra * b.rows, ca * b.cols
        for (rb, cb), vb in b.nums.items():
            nums[(r0 + rb, c0 + cb)] = va * vb
    return OperatorMatrix.from_numerators(a.rows * b.rows, a.cols * b.cols, a.den * b.den, nums)


def _eliminate(mat):
    """Gauss-Jordan over the integers, in place on a list of integer rows.

    Returns the pivot columns; row r < len(pivots) is then the r-th RREF row
    times its pivot entry mat[r][pivots[r]]. Rows are eliminated with
    p*row - f*pivot_row and divided by the gcd of their entries.
    """
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
    return pivots


def _sparse_rank(nums):
    """The rank of the matrix with the non-zero integer entries nums[(r, c)],
    by fraction-free elimination on sparse rows with Markowitz-style pivots.

    Each row is a {column: value} dict, and each column keeps the set of rows
    that hold it. The pivot row is a shortest row left, taken from buckets
    of rows by length (a row is filed again when its length changes, and
    stale entries are skipped), and its pivot column is the one held by the
    fewest rows, so little fills in. Every other row holding that column
    becomes a*row - b*pivot_row (a/b the pivot over that row's entry, in
    lowest terms), divided by the gcd of its entries; a pivot row with one
    entry only deletes its column.
    """
    rows, holders = {}, {}
    for (r, c), v in nums.items():
        rows.setdefault(r, {})[c] = v
        holders.setdefault(c, set()).add(r)
    # a row never holds more columns than the matrix has non-zero columns
    by_length = [[] for _ in range(len(holders) + 1)]
    for r, row in rows.items():
        by_length[len(row)].append(r)
    rank, n = 0, 1
    while n < len(by_length):
        if not by_length[n]:
            n += 1
            continue
        r = by_length[n].pop()
        prow = rows.get(r)
        if prow is None or len(prow) != n:
            continue
        del rows[r]
        rank += 1
        pc = min(prow, key=lambda c: len(holders[c]))
        p = prow.pop(pc)
        for c in prow:
            holders[c].discard(r)
        targets = holders.pop(pc)
        targets.discard(r)
        for rr in targets:
            row = rows[rr]
            m = len(row)
            f = row.pop(pc)
            if prow:
                g = gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    row = {c: a * x for c, x in row.items()}
                for c, y in prow.items():
                    x = row.get(c)
                    if x is None:
                        row[c] = -b * y
                        holders[c].add(rr)
                    elif x := x - b * y:
                        row[c] = x
                    else:
                        del row[c]
                        holders[c].discard(rr)
                g = gcd(*row.values())
                if g > 1:
                    row = {c: x // g for c, x in row.items()}
            if not row:
                del rows[rr]
                continue
            rows[rr] = row
            if len(row) != m:
                by_length[len(row)].append(rr)
                n = min(n, len(row))
    return rank


def _blocks(matrix):
    """The connected components of the non-zero pattern of a matrix, as
    (cols, mat): mat holds the numerator rows of the component's rows
    restricted to its columns cols, both in ascending order.

    Union-find joins row r and column c for each key (r, c), one key at a
    time, and stops once the rows and columns in use are joined; no dense
    row is scanned. Rows and columns with no non-zero are left out. A
    matrix with at most one row, or one component, is one block of all its
    rows and columns.
    """
    nrows, ncols, nums = matrix.rows, matrix.cols, matrix.nums
    if not nums:
        return []
    if nrows > 1:
        parent = list(range(nrows + ncols))

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        # the number of unions that leaves one component
        left = len({r for r, _ in nums}) + len({c for _, c in nums}) - 1
        for r, c in nums:
            a, b = find(r), find(nrows + c)
            if a != b:
                parent[a] = b
                left -= 1
                if not left:
                    break
        if left:
            root = [find(x) for x in range(nrows + ncols)]
            rows, cols = {}, {}
            for r in range(nrows):
                rows.setdefault(root[r], []).append(r)
            for c in range(ncols):
                if root[nrows + c] in rows:
                    cols.setdefault(root[nrows + c], []).append(c)
            local = [0] * (nrows + ncols)
            blocks = {}
            for key, cc in cols.items():
                for i, r in enumerate(rows[key]):
                    local[r] = i
                for j, c in enumerate(cc):
                    local[nrows + c] = j
                blocks[key] = (cc, [[0] * len(cc) for _ in rows[key]])
            for (r, c), v in nums.items():
                blocks[root[r]][1][local[r]][local[nrows + c]] = v
            return list(blocks.values())
    return [(range(ncols), matrix._numerator_rows())]


def _rref(matrix):
    """(rows, pivots): the pivot columns of matrix in ascending order and,
    for each, the non-zeros {column: value} of its RREF row times its pivot
    entry. Each block of _blocks runs through _eliminate on its own; the
    RREF is unique and the blocks share no row or column, so the pivots and
    the RREF rows are those of the whole matrix."""
    out = []
    for cols, mat in _blocks(matrix):
        for row, pc in zip(mat, _eliminate(mat)):
            out.append((cols[pc], {cols[j]: v for j, v in enumerate(row) if v}))
    out.sort(key=lambda item: item[0])
    return [row for _, row in out], [pc for pc, _ in out]


def rank_bareiss(dense):
    """Rank of a dense Fraction matrix by integer fraction-free elimination,
    independent of ``_eliminate``. Each row is scaled by the lcm of its
    denominators first; this preserves rank.
    """
    mat = [common_denominator(row)[1] for row in dense]
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


def in_column_span(matrix, vec):
    """True iff vec lies in the column span of the sparse matrix, that is iff
    matrix @ x = vec has a solution."""
    column = OperatorMatrix(len(vec), 1, {(r, 0): v for r, v in enumerate(vec)})
    return matrix.solve(column) is not None
