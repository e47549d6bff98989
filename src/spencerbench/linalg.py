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
``residual_max_abs`` reads the exact max |entry| of a sum of products
c A B row by row, in integers over one denominator, and builds none of them;
``residual_is_zero`` reads the same rows (``_row_peaks``) only until the
first non-zero one. ``factored_product`` folds a c * I factor into the
coefficient, and a ``read_once`` reader reads each distinct sum once, as a
max or as a zero test, and splits each matrix into rows once, so every
residual of the package (delta^2, the mirror intertwining, D^2 and the
chain-map commutation) goes through it.
Both eliminations are fraction-free on sparse {column: value} rows of the
numerators with a column-to-rows index, and share one row step (a*row -
b*pivot_row over its content). ``rank()`` (``_sparse_rank``) pivots on a
shortest row and its column held by the fewest rows (Markowitz's rule).
Every kernel, solve, inverse and column-span test is one Gauss-Jordan
elimination (``_rref``) in ascending column order, whose RREF is unique and
gives the canonical outputs as integer numerators over the lcm of the
pivots; ``solve(B)`` eliminates [A | B] (one ``from_blocks``), so an inverse
is ``solve(identity)``. A row only meets rows that hold its pivot column, so
a block-diagonal matrix costs the sum of its blocks. ``rank_bareiss``, a
dense Fraction-form Bareiss elimination, only cross-checks ranks.

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


def parse_list(value, what):
    """value, checked to be a list: a string or a number is not split up."""
    if not isinstance(value, (list, tuple)):
        raise FormatError(f"{what} must be a list, got {value!r}")
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

    def identity_scale(self):
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
        scale = other.identity_scale()
        if scale is not None:
            return self.scaled(scale)
        scale = self.identity_scale()
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
                if key in entries:
                    raise FormatError(f"a second entry for {list(key)}")
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


def _row_peaks(terms, split):
    """(den, peaks): the lcm den of the terms' denominators and an iterator
    over the exact integer max |entry| of each non-empty output row of
    den * sum c A B, in row order, for residual_max_abs and
    residual_is_zero; B None stands for the identity, so the term is c A.

    Each output row is summed in one integer list (a sparse accumulator,
    Gustavson 1978), so no product, difference or sum is built; a row that
    cancels to zero is told by any() and skips its max and min scans. Each
    matrix is split into its rows once, into split ({id(matrix): rows}),
    which a caller may share between calls while it keeps the matrices
    alive. The shapes are checked before the first row is read."""
    terms = [(Fraction(c), a, b) for c, a, b in terms]
    if not terms:
        return 1, iter(())
    shapes = {(a.rows, a.cols if b is None else b.cols) for _, a, b in terms}
    if len(shapes) != 1 or any(b is not None and a.cols != b.rows for _, a, b in terms):
        raise ValueError(f"terms of mismatched shapes {sorted(shapes)}")
    n_rows, cols = shapes.pop()
    if not cols:
        return 1, iter(())
    den = lcm(*(c.denominator * a.den * (1 if b is None else b.den) for c, a, b in terms))
    split = {} if split is None else split

    def rows(m):  # [[(column, numerator), ...] for each row of m]
        out = split.get(id(m))
        if out is None:
            out = split[id(m)] = [[] for _ in range(m.rows)]
            for (r, c), v in m.nums.items():
                out[r].append((c, v))
        return out

    by_row = [[] for _ in range(n_rows)]  # [(scale, row of A, rows of B or None)]
    for c, a, b in terms:
        if c:
            scale = c.numerator * (den // (c.denominator * a.den * (1 if b is None else b.den)))
            right = None if b is None else rows(b)
            for parts, items in zip(by_row, rows(a)):
                if items:
                    parts.append((scale, items, right))

    def peaks():
        for parts in by_row:
            if not parts:
                continue
            acc = [0] * cols
            for scale, items, right in parts:
                if right is None:
                    for k, v in items:
                        acc[k] += scale * v
                else:
                    for k, v in items:
                        sv = scale * v
                        for c, w in right[k]:
                            acc[c] += sv * w
            yield max(max(acc), -min(acc)) if any(acc) else 0

    return den, peaks()


def residual_max_abs(terms, split=None):
    """Exact max |entry| of sum c A B over the (c, A, B) terms, every A B of
    one shape; B None stands for the identity, so the term is c A. Read row
    by row (_row_peaks) in integers over one denominator, with one Fraction
    made at the end."""
    den, peaks = _row_peaks(terms, split)
    return Fraction(max(peaks, default=0), den)


def residual_is_zero(terms, split=None):
    """True iff sum c A B over the terms is zero: residual_max_abs(terms)
    == 0, read by the same rows (_row_peaks), which stop at the first
    non-zero one."""
    return not any(_row_peaks(terms, split)[1])


def factored_product(x, y):
    """(s, F) with s F = x @ y: a factor c * I scales the other factor (s = c,
    F the other factor; I itself when both are c * I), otherwise F is the
    pair (x, y), kept unmultiplied."""
    sx, sy = x.identity_scale(), y.identity_scale()
    if sy is not None:
        return (sy, x) if sx is None else (sx * sy, x.scaled(1 / sx))
    if sx is not None:
        return sx, y
    return 1, (x, y)


def read_once():
    """A reader: read(pairs) is residual_max_abs over (c, F) pairs, F a
    matrix or a pair (x, y) for x @ y (as factored_product gives them), and
    read(pairs, zero_test=True) is True iff that sum is zero
    (residual_is_zero). It reads each distinct list once, up to an overall
    sign, and splits each matrix into rows once across all its reads. A
    zero verdict is kept as the exact value 0, so a later read of that list
    costs nothing; a non-zero one keeps no number, so a later max read
    reads it. The memo keeps the factors, so their ids stay theirs."""
    memo, split = {}, {}  # key: (terms, max |sum|, or None when only known non-zero)

    def read(pairs, zero_test=False):
        if len(pairs) == 1 and isinstance(pairs[0][1], OperatorMatrix):
            c, m = pairs[0]
            if zero_test:
                return not c or m.is_zero()
            return abs(c) * m.max_abs()
        sign = -1 if pairs[0][0] < 0 else 1
        terms = [(sign * c, f, None) if isinstance(f, OperatorMatrix) else (sign * c, *f)
                 for c, f in pairs]
        key = tuple((c, id(a), id(b)) for c, a, b in terms)
        entry = memo.get(key)
        if zero_test:
            if entry is None:
                entry = memo[key] = (terms, ZERO if residual_is_zero(terms, split) else None)
            return entry[1] == 0
        if entry is None or entry[1] is None:
            entry = memo[key] = (terms, residual_max_abs(terms, split))
        return entry[1]

    return read


def composite_residuals(maps):
    """[max |maps[k+1] @ maps[k]| for each k], each composite read by one
    reader, so a map that is the right factor at k and the left one at k + 1
    is split into rows once."""
    read = read_once()
    return [read([factored_product(b, a)]) for a, b in zip(maps, maps[1:])]


def _sparse_rows(nums):
    """The entries nums[(r, c)] as {column: value} rows, and each column's set
    of rows that hold it."""
    rows, holders = {}, {}
    for (r, c), v in nums.items():
        rows.setdefault(r, {})[c] = v
        holders.setdefault(c, set()).add(r)
    return rows, holders


def _row_step(row, r, pc, p, rest, holders):
    """Row r with its entry f in column pc cleared by a pivot row holding p
    there and rest elsewhere: a*row - b*pivot_row (a/b = p/f in lowest terms)
    over its content, as a new dict or row itself. holders follows every
    entry that fills in or cancels (r stays listed under pc)."""
    f = row.pop(pc)
    if rest:
        g = gcd(p, f)
        a, b = p // g, f // g
        if a != 1:
            row = {c: a * x for c, x in row.items()}
        for c, y in rest.items():
            x = row.get(c)
            if x is None:
                row[c] = -b * y
                holders[c].add(r)
            elif x := x - b * y:
                row[c] = x
            else:
                del row[c]
                holders[c].discard(r)
        g = gcd(*row.values())
        if g > 1:
            row = {c: x // g for c, x in row.items()}
    return row


def _sparse_rank(nums):
    """The rank of the matrix with the non-zero integer entries nums[(r, c)].

    The pivot row is a shortest row left, taken from buckets of rows by
    length (a row is filed again when its length changes, and stale entries
    are skipped), and its pivot column is the one held by the fewest rows,
    so little fills in (Markowitz). The pivot row is dropped and every other
    row holding that column takes one _row_step."""
    rows, holders = _sparse_rows(nums)
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
            m = len(rows[rr])
            row = _row_step(rows[rr], rr, pc, p, prow, holders)
            if not row:
                del rows[rr]
                continue
            rows[rr] = row
            if len(row) != m:
                by_length[len(row)].append(rr)
                n = min(n, len(row))
    return rank


def _rref(matrix):
    """(rows, pivots): the pivot columns of matrix in ascending order and,
    for each, the non-zeros {column: value} of its RREF row times its pivot
    entry.

    Gauss-Jordan on sparse rows, column by column: the pivot row is a
    shortest row holding the column that is not yet a pivot row (ties to
    the lower index), and every other row holding it, earlier pivot rows
    included, takes one _row_step. A pivot row keeps its pivot entry, so
    only other rows cancel, and once every row left is a pivot row the
    remaining columns are free."""
    rows, holders = _sparse_rows(matrix.nums)
    pivots, pivot_rows, left = [], set(), len(rows)
    for pc in sorted(holders):
        if not left:
            break
        hold = holders[pc]
        best = min(((len(rows[rr]), rr) for rr in hold if rr not in pivot_rows), default=None)
        if best is None:
            continue
        r = best[1]
        pivot_rows.add(r)
        left -= 1
        prow = rows[r]
        p = prow.pop(pc)
        for rr in hold:
            if rr != r:
                row = _row_step(rows[rr], rr, pc, p, prow, holders)
                if row:
                    rows[rr] = row
                else:
                    del rows[rr]
                    left -= 1
        prow[pc] = p
        pivots.append((pc, r))
    return [rows[r] for _, r in pivots], [pc for pc, _ in pivots]


def rank_bareiss(dense):
    """Rank of a dense Fraction matrix by integer fraction-free elimination,
    independent of the sparse eliminations. Each row is scaled by the lcm of
    its denominators first; this preserves rank.
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
