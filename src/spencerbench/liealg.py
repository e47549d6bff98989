"""Finite-dimensional Lie algebras over exact rationals.

An algebra is stored by its structure constants c_ij^k, with
[e_i, e_j] = sum_k c_ij^k e_k, in one integer form: a common denominator
den and, for each pair (i, j), the non-zero numerators as (k, c_ij^k * den)
by ascending k. That form is canonical (the gcd of den and every numerator
is 1), so equality and hashing of algebras run over integers, and every
residual, contraction and bracket is exact. Vector coefficients are
Fractions. Built-in families:

* ``so3``          cyclic constants [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2
* ``sl2``          basis h, x, y with [h,x]=2x, [h,y]=-2y, [x,y]=h
* ``sl<n>``        traceless matrices, basis H_1..H_{n-1}, E_ij (i != j)
* ``su<n>``        real basis i*H_k, E_jk - E_kj, i(E_jk + E_kj)
* ``abelian(<n>)`` all brackets zero

The sl/su families are built on integers: every entry of their defining
matrices is 0, +-1 or +-i, so the commutators are Gaussian-integer matrices,
written as integer columns of 2n^2 rows (real and imaginary parts), and one
``solve`` of the basis columns against them gives every structure constant.
The algebras carry that realization (``matrix_basis``: the size n and the
sparse Gaussian-integer basis matrices) so conjugation and transpose maps
can be turned into validated automorphisms: the matrix of a map is the
``solve`` of the basis against the images of the basis matrices.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction

from .errors import FormatError, MismatchError, ValidationError
from .linalg import (
    ZERO,
    ONE,
    OperatorMatrix,
    common_denominator,
    format_scalar,
    kron,
    parse_int,
    parse_list,
    parse_scalar,
)
from .records import FrozenRecord


class LieAlgebra(FrozenRecord):
    # integer_structure = (den, nz): the structure constants as integers over
    # their common denominator den; nz[i][j] lists the non-zero c_ij^k as
    # (k, numerator) by ascending k, and gcd(den, every numerator) = 1.
    # matrix_basis: the matrix realization (n, basis matrices {(row, col):
    # (re, im)} with integer entries), present for sl/su families; used to
    # build conjugation automorphisms, and neither compared nor shown.
    __slots__ = _fields = ("name", "dim", "integer_structure", "basis_labels", "matrix_basis")
    _defaults = {"matrix_basis": None}
    _uncompared = ("matrix_basis",)

    def _coefficients(self, coeffs):
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != self.dim:
            raise MismatchError(f"expected {self.dim} coefficients, got {len(coeffs)}")
        return coeffs

    def vector(self, coeffs):
        return AlgebraVector(self, self._coefficients(coeffs))

    def dual(self, coeffs):
        return DualVector(self, self._coefficients(coeffs))

    def basis_vector(self, i):
        return self.vector(tuple(ONE if j == i else ZERO for j in range(self.dim)))

    def dual_basis_vector(self, i):
        return self.dual(tuple(ONE if j == i else ZERO for j in range(self.dim)))

    def zero_vector(self):
        return self.vector((ZERO,) * self.dim)

    def basis_vectors(self):
        return [self.basis_vector(i) for i in range(self.dim)]


def _nonzero_table(dim, nums):
    """nz[i][j]: the (k, nums[(i, j, k)]) by ascending k, for integer
    numerators keyed by (i, j, k) with no zero among them."""
    nz = [[[] for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), v in sorted(nums.items()):
        nz[i][j].append((k, v))
    return tuple(tuple(map(tuple, row)) for row in nz)


class _Coefficients:
    """The linear structure shared by AlgebraVector and DualVector: a
    coefficient tuple on one algebra. Adding or subtracting a vector of the
    other kind, or of another algebra, is a MismatchError."""

    __slots__ = ()

    def __init__(self, algebra, coeffs):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", coeffs)

    def _check(self, other):
        if other.__class__ is not self.__class__:
            raise MismatchError(
                f"{type(self).__name__} and {type(other).__name__} do not add or subtract")
        _same_algebra(self, other)

    def __add__(self, other):
        self._check(other)
        return type(self)(self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.algebra, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return self.scaled(Fraction(-1))

    def scaled(self, a):
        a = Fraction(a)
        return type(self)(self.algebra, tuple(a * c for c in self.coeffs))


class AlgebraVector(_Coefficients, FrozenRecord):
    __slots__ = _fields = ("algebra", "coeffs")

    def is_zero(self):
        return not any(self.coeffs)


class DualVector(_Coefficients, FrozenRecord):
    __slots__ = _fields = ("algebra", "coeffs")

    def is_nondegenerate(self):
        return any(self.coeffs)


def _same_algebra(a, b):
    if a.algebra is not b.algebra and a.algebra != b.algebra:
        raise MismatchError(
            f"operands live on different algebras: {a.algebra.name} vs {b.algebra.name}"
        )


def bracket(x, y):
    """Lie bracket [x, y] from the non-zero structure constants."""
    _same_algebra(x, y)
    alg = x.algebra
    den, nz = alg.integer_structure
    out = [ZERO] * alg.dim
    for i, xi in enumerate(x.coeffs):
        if not xi:
            continue
        rows = nz[i]
        for j, yj in enumerate(y.coeffs):
            if not yj:
                continue
            f = xi * yj
            for k, v in rows[j]:
                out[k] += f * v
    return AlgebraVector(alg, tuple(c / den for c in out))


def pairing(xi, x):
    """Dual-basis pairing <xi, x> = sum_i xi_i x_i."""
    _same_algebra(xi, x)
    return sum((a * b for a, b in zip(xi.coeffs, x.coeffs)), ZERO)


def coadjoint(z, xi):
    """ad*_z xi under the convention <ad*_z xi, y> = -<xi, [z, y]>.

    With this sign, z -> ad*_z is a Lie algebra representation on the dual.
    In coordinates (ad*_z xi)_j = -sum_a z_a sum_i c_aj^i xi_i.
    """
    _same_algebra(z, xi)
    return z.algebra.dual(coadjoint_matrix(z).apply(xi.coeffs))


def coadjoint_matrix(z):
    """Matrix of ad*_z acting on dual coordinates: entry (j, i) is
    -sum_a z_a c_aj^i, summed in integers over the non-zero constants only."""
    alg = z.algebra
    den, nz = alg.integer_structure
    z_den, z_ints = common_denominator(z.coeffs)
    nums = {}
    for a, za in enumerate(z_ints):
        if za:
            for j, consts in enumerate(nz[a]):
                for i, v in consts:
                    nums[(j, i)] = nums.get((j, i), 0) - za * v
    return OperatorMatrix.from_numerators(alg.dim, alg.dim, den * z_den,
                                          {key: v for key, v in nums.items() if v})


def antisymmetry_residual(algebra):
    """max |c_ij^k + c_ji^k|; zero for a genuine bracket. Summed in integers
    over the non-zero constants of each pair i <= j that has one."""
    den, nz = algebra.integer_structure
    worst = 0
    for i, row in enumerate(nz):
        for j in range(i, algebra.dim):
            if row[j] or nz[j][i]:
                sums = dict(row[j])
                for k, v in nz[j][i]:
                    sums[k] = sums.get(k, 0) + v
                worst = max(worst, max(map(abs, sums.values())))
    return Fraction(worst, den)


def jacobi_residual(algebra, with_witness=False):
    """Max absolute Jacobi sum over all index quadruples (i, j, l, k).

    The sum S(i,j,l,k) = sum_m c_ij^m c_ml^k + c_jl^m c_mi^k + c_li^m c_mj^k
    is T(i,j,l,k) + T(j,l,i,k) + T(l,i,j,k) with T(x,y,z,k) = sum_m
    c_xy^m c_mz^k, computed once in integer numerators over the common
    denominator of the constants and only over non-zero brackets, and kept
    as the non-zero slices T(x,y,z,.). S(i,j,l,.) is zero unless one of its
    three slices is kept, so only those triples are summed; every other
    quadruple is measured as 0, so input that is not antisymmetric is
    measured too. The witness is the lexicographically smallest quadruple
    attaining the maximum (None when the residual is zero).
    """
    n = algebra.dim
    den, nz = algebra.integer_structure
    slices = {}  # (x, y, z): [T(x, y, z, k) for k < n], non-zero
    for x, row in enumerate(nz):
        for y in itertools.compress(range(n), row):
            by_z = {}
            for m, v in row[y]:
                for z in itertools.compress(range(n), nz[m]):
                    t = by_z.get(z)
                    if t is None:
                        t = by_z[z] = [0] * n
                    for k, w in nz[m][z]:
                        t[k] += v * w
            slices.update(((x, y, z), t) for z, t in by_z.items() if any(t))
    zero = [0] * n
    best = 0
    witness = None
    for i, j, l in sorted({triple for x, y, z in slices
                           for triple in ((x, y, z), (z, x, y), (y, z, x))}):
        sums = [abs(a + b + c) for a, b, c in zip(slices.get((i, j, l), zero),
                                                   slices.get((j, l, i), zero),
                                                   slices.get((l, i, j), zero))]
        top = max(sums)
        if top > best:
            best = top
            witness = (i, j, l, sums.index(top))
    worst = Fraction(best, den * den)
    if with_witness:
        return worst, witness
    return worst


def killing_gram(algebra):
    """Killing form Gram matrix B_ij = tr(ad_i ad_j) = sum_mk c_im^k c_jk^m,
    summed in integers over the non-zero constants."""
    den, nz = algebra.integer_structure
    n = algebra.dim
    # ad[i][(m, k)] = c_im^k
    ad = [{(m, k): v for m in range(n) for k, v in nz[i][m]} for i in range(n)]
    nums = {}
    for i in range(n):
        for j in range(i, n):
            s = sum(v * ad[j].get((k, m), 0) for (m, k), v in ad[i].items())
            if s:
                nums[(i, j)] = nums[(j, i)] = s
    return OperatorMatrix.from_numerators(n, n, den * den, nums)


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


class LieAutomorphism(FrozenRecord):
    """Validated linear automorphism, stored with its exact inverse."""

    __slots__ = _fields = ("algebra", "matrix", "inverse", "label")
    # an automorphism compares and hashes by identity (its matrices are
    # unhashable), which is what induced_tensor_map's cache keys on
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def apply(self, x):
        return self.algebra.vector(self.matrix.apply(x.coeffs))

    def apply_inverse(self, x):
        return self.algebra.vector(self.inverse.apply(x.coeffs))


def make_automorphism(algebra, matrix, label):
    """Validate and wrap a candidate automorphism matrix (an OperatorMatrix).

    Checks exact invertibility and the bracket homomorphism A[e_i,e_j] =
    [Ae_i, Ae_j] on every basis pair (i, j) at once, as A C = C (A x A),
    where column (i, j) of the dim x dim^2 matrix C is [e_i, e_j]; raises
    ValidationError with the smallest failing pair as witness.
    """
    n = algebra.dim
    if matrix.shape != (n, n):
        raise MismatchError("automorphism matrix shape does not match the algebra")
    inverse = matrix.solve(OperatorMatrix.identity(n))
    if inverse is None:
        raise ValidationError(f"matrix for {label!r} is singular")
    den, nz = algebra.integer_structure
    brackets = OperatorMatrix.from_numerators(n, n * n, den, {
        (p, a * n + b): v for a in range(n) for b in range(n) for p, v in nz[a][b]})
    lhs, rhs = matrix @ brackets, brackets @ kron(matrix, matrix)
    if lhs != rhs:
        i, j = divmod(min(c for _, c in (lhs - rhs).nums), n)
        left, right = lhs.column(i * n + j), rhs.column(i * n + j)
        raise ValidationError(
            f"{label!r} is not a bracket homomorphism: "
            f"A[{algebra.basis_labels[i]},{algebra.basis_labels[j]}] = {_show(left)} "
            f"but [A{algebra.basis_labels[i]},A{algebra.basis_labels[j]}] = {_show(right)}",
            witness=(i, j, left, right),
        )
    return LieAutomorphism(algebra, matrix, inverse, label)


def _show(coeffs):
    """Coefficients as "(p, p/q, ...)" for a message."""
    return f"({', '.join(map(format_scalar, coeffs))})"


# ---------------------------------------------------------------------------
# Built-in algebras
# ---------------------------------------------------------------------------

# The sl/su bases are built as sparse Gaussian-integer matrices
# {(row, col): (re, im)}; matrix_basis keeps them as built.


def _sl_basis(n):
    labels = []
    mats = []
    for k in range(n - 1):
        labels.append(f"H{k + 1}")
        mats.append({(k, k): (1, 0), (k + 1, k + 1): (-1, 0)})
    for i in range(n):
        for j in range(n):
            if i != j:
                labels.append(f"E{i + 1}{j + 1}")
                mats.append({(i, j): (1, 0)})
    return labels, mats


def _su_basis(n):
    labels = []
    mats = []
    for k in range(n - 1):
        labels.append(f"iH{k + 1}")
        mats.append({(k, k): (0, 1), (k + 1, k + 1): (0, -1)})
    for i in range(n):
        for j in range(i + 1, n):
            labels.append(f"A{i + 1}{j + 1}")
            mats.append({(i, j): (1, 0), (j, i): (-1, 0)})
            labels.append(f"S{i + 1}{j + 1}")
            mats.append({(i, j): (0, 1), (j, i): (0, 1)})
    return labels, mats


def _sparse_commutator(a, b):
    """ab - ba of two sparse Gaussian matrices."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for (r, k), (p, q) in x.items():
            for (kk, c), (u, v) in y.items():
                if k == kk:
                    re_, im = out.get((r, c), (0, 0))
                    out[(r, c)] = (re_ + sign * (p * u - q * v), im + sign * (p * v + q * u))
    return out


def _coordinates(n, basis, mats):
    """The coordinates of each sparse n x n Gaussian matrix of mats in the
    sparse basis, as the columns of an OperatorMatrix.

    Entry (r, c) of a matrix is written as rows 2(rn + c) (real part) and
    2(rn + c) + 1 (imaginary part) of an integer column, and one ``solve``
    of the basis columns against the columns of mats gives the coordinates.
    """
    def columns(group):
        return OperatorMatrix.from_numerators(2 * n * n, len(group), 1, {
            (2 * (r * n + c) + part, j): v
            for j, mat in enumerate(group) for (r, c), z in mat.items()
            for part, v in enumerate(z) if v})

    solution = columns(basis).solve(columns(mats))
    if solution is None:
        raise ValidationError("matrix does not lie in the algebra's span")
    return solution


def _structure_from_matrices(name, labels, n, mats):
    """Assemble structure constants by decomposing commutators in the basis:
    the numerators of the solve are those of c_ij^k for i < j."""
    dim = len(mats)
    pairs = list(itertools.combinations(range(dim), 2))
    coords = _coordinates(n, mats, [_sparse_commutator(mats[i], mats[j]) for i, j in pairs])
    nums = {}
    for (k, col), v in coords.nums.items():
        i, j = pairs[col]
        nums[(i, j, k)] = v
        nums[(j, i, k)] = -v
    return LieAlgebra(name, dim, (coords.den, _nonzero_table(dim, nums)), tuple(labels),
                      matrix_basis=(n, tuple(mats)))


def _so3():
    nums = {}
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        nums[(i, j, k)] = 1
        nums[(j, i, k)] = -1
    return LieAlgebra("so3", 3, (1, _nonzero_table(3, nums)), ("e1", "e2", "e3"))


def _abelian(n):
    return LieAlgebra(f"abelian({n})", n, (1, _nonzero_table(n, {})),
                      tuple(f"e{i + 1}" for i in range(n)))


MAX_BUILTIN_DIM = 1024  # a builtin's dim x dim structure table: about 10^6 entries


def builtin_algebra(name):
    """Construct a built-in algebra by name (so3, sl2, sl3, su2, abelian(4), ...)
    of dimension at most MAX_BUILTIN_DIM."""
    return _builtin(name.strip().lower())


def _family_size(key, digits, dim):
    """The n of a builtin family, once its dimension dim(n) >= n is checked
    against MAX_BUILTIN_DIM, before anything is allocated; a numeral longer
    than the bound's is over it unread."""
    if (len(digits.lstrip("0")) > len(str(MAX_BUILTIN_DIM))
            or dim(int(digits)) > MAX_BUILTIN_DIM):
        raise FormatError(f"builtin {key!r} exceeds the dimension bound {MAX_BUILTIN_DIM}")
    return int(digits)


@functools.lru_cache(maxsize=None)
def _builtin(key):
    if key == "so3":
        return _so3()
    m = re.fullmatch(r"abelian\((\d+)\)|abelian(\d+)", key)
    if m:
        n = _family_size(key, m.group(1) or m.group(2), lambda n: n)
        if n < 1:
            raise FormatError("abelian dimension must be >= 1")
        return _abelian(n)
    m = re.fullmatch(r"sl(\d+)|sln\((\d+)\)", key)
    if m:
        n = _family_size(key, m.group(1) or m.group(2), lambda n: n * n - 1)
        if n < 2:
            raise FormatError("sl(n) needs n >= 2")
        labels, mats = _sl_basis(n)
        if n == 2:
            labels = ["h", "x", "y"]
        return _structure_from_matrices(f"sl{n}", labels, n, mats)
    m = re.fullmatch(r"su(\d+)|sun\((\d+)\)", key)
    if m:
        n = _family_size(key, m.group(1) or m.group(2), lambda n: n * n - 1)
        if n < 2:
            raise FormatError("su(n) needs n >= 2")
        labels, mats = _su_basis(n)
        return _structure_from_matrices(f"su{n}", labels, n, mats)
    raise FormatError(f"unknown builtin algebra {key!r}")


# ---------------------------------------------------------------------------
# Built-in automorphisms
# ---------------------------------------------------------------------------


def _map_matrix_from_realization(algebra, mat_map, label):
    n, basis = algebra.matrix_basis
    matrix = _coordinates(n, basis, [mat_map(m) for m in basis])
    return make_automorphism(algebra, matrix, label)


def builtin_automorphism(algebra, kind):
    """Build and validate a named automorphism.

    kinds: "identity", "negate_transpose" (sl/su families), "inverse_mirror"
    (rejected on non-abelian algebras with a witness), "permutation:<digits>"
    (conjugation by a permutation matrix on sl/su families).
    """
    kind = kind.strip().lower().replace("-", "_")
    if kind == "identity":
        return make_automorphism(algebra, OperatorMatrix.identity(algebra.dim), "identity")
    if kind == "inverse_mirror":
        # X -> -X reverses brackets, so validation fails whenever some
        # [e_i, e_j] != 0; the error message carries the witness pair.
        return make_automorphism(algebra, -OperatorMatrix.identity(algebra.dim),
                                 "inverse_mirror")
    if kind == "negate_transpose":
        if algebra.matrix_basis is None:
            raise FormatError(
                f"negate_transpose needs a matrix realization; {algebra.name} has none"
            )
        return _map_matrix_from_realization(
            algebra,
            lambda mat: {(c, r): (-re_, -im) for (r, c), (re_, im) in mat.items()},
            "negate_transpose",
        )
    m = re.fullmatch(r"permutation:(\d+)", kind)
    if m:
        digits = m.group(1)
        if algebra.matrix_basis is None:
            raise FormatError(
                f"permutation automorphisms need a matrix realization; {algebra.name} has none"
            )
        n = algebra.matrix_basis[0]
        if sorted(digits) != [str(d) for d in range(1, n + 1)]:
            raise FormatError(f"permutation {digits!r} is not a permutation of 1..{n}")
        perm = [int(d) - 1 for d in digits]
        # conjugation by the permutation matrix moves entry (a, b) to
        # (perm[a], perm[b])
        return _map_matrix_from_realization(
            algebra,
            lambda mat: {(perm[a], perm[b]): z for (a, b), z in mat.items()},
            f"permutation:{digits}",
        )
    raise FormatError(f"unknown automorphism kind {kind!r}")


def weyl_mirrors(n):
    """All n! permutation-conjugation automorphisms of sl(n), validated."""
    if not 2 <= n <= 5:
        raise FormatError("weyl_mirrors supports 2 <= n <= 5")
    algebra = builtin_algebra(f"sl{n}")
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        digits = "".join(str(d) for d in perm)
        auto = builtin_automorphism(algebra, f"permutation:{digits}")
        if any(auto.matrix == m.matrix for m in out):
            raise ValidationError(f"duplicate Weyl mirror for {digits}")
        out.append(auto)
    return out


# ---------------------------------------------------------------------------
# JSON interfaces (all indices 0-based)
# ---------------------------------------------------------------------------


def algebra_to_json(algebra):
    den, nz = algebra.integer_structure
    triples = [[i, j, k, format_scalar(Fraction(v, den))]
               for i, row in enumerate(nz) for j, consts in enumerate(row) for k, v in consts]
    return {
        "name": algebra.name,
        "dim": algebra.dim,
        "structure_constants": triples,
        "basis_labels": list(algebra.basis_labels),
    }


def algebra_from_json(data):
    try:
        name = str(data["name"])
        dim = parse_int(data["dim"], "algebra dim")
        triples = data["structure_constants"]
        labels = data["basis_labels"]
    except (KeyError, TypeError) as exc:
        raise FormatError("algebra JSON needs name/dim/structure_constants/basis_labels") from exc
    labels = tuple(str(s) for s in parse_list(labels, "basis_labels"))
    if dim < 1 or len(labels) != dim:
        raise FormatError("basis_labels length must equal dim")
    constants = {}
    for item in parse_list(triples, "structure_constants"):
        try:
            i, j, k, v = parse_list(item, "structure constant entry")
        except ValueError as exc:
            raise FormatError(f"bad structure constant entry {item!r}") from exc
        i, j, k = (parse_int(x, "structure constant index") for x in (i, j, k))
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise FormatError(f"structure constant index out of range in {item!r}")
        if (i, j, k) in constants:
            raise FormatError(f"a second structure constant entry for {[i, j, k]}")
        constants[(i, j, k)] = parse_scalar(v)
    constants = {key: c for key, c in constants.items() if c}
    den, nums = common_denominator(constants.values())
    return LieAlgebra(name, dim, (den, _nonzero_table(dim, dict(zip(constants, nums)))), labels)


def automorphism_to_json(auto):
    return {
        "algebra": auto.algebra.name,
        "matrix": [[format_scalar(v) for v in row] for row in auto.matrix.to_dense()],
        "label": auto.label,
    }


def automorphism_from_json(data, algebra):
    try:
        rows = data["matrix"]
        label = str(data.get("label", "unnamed"))
    except (KeyError, TypeError) as exc:
        raise FormatError("automorphism JSON needs a matrix field") from exc
    rows = [parse_list(row, "automorphism matrix row")
            for row in parse_list(rows, "automorphism matrix")]
    # a ragged or non-square matrix is a shape mismatch, not a format error
    if len(rows) != algebra.dim or any(len(row) != algebra.dim for row in rows):
        raise MismatchError("automorphism matrix shape does not match the algebra")
    matrix = OperatorMatrix.from_dense([[parse_scalar(v) for v in row] for row in rows])
    return make_automorphism(algebra, matrix, label)
