"""Symmetric tensor algebra over a Lie algebra, with multiset bases.

A degree-k basis element is a non-decreasing tuple of k basis indices
(0-based). Tensors are sparse maps from such multisets to Fractions, kept in
normal form (no zero coefficients), so equality is plain map equality.

Evaluation treats a tensor as a symmetric multilinear functional through the
coordinate identification e_i <-> e_i*: a basis element (i_1..i_k) evaluates
on (X_1..X_k) as (1/k!) * sum over permutations of prod_t (X_{sigma(t)})_{i_t}.
With this normalization eval(e_i^{(k)}, e_i..e_i) = 1 and the pairing between
values on basis arguments and coefficients is diagonal up to the multiset
multiplicity factor k!/prod(m_a!).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

from .errors import FormatError, MismatchError
from .linalg import (
    ZERO,
    ONE,
    OperatorMatrix,
    common_denominator,
    format_scalar,
    parse_int,
    parse_scalar,
)
from .records import Record


def multisets(dim, k):
    """All non-decreasing index tuples of length k over range(dim), lex order."""
    return list(itertools.combinations_with_replacement(range(dim), k))


def sym_basis(algebra, k):
    """Multiset basis of the degree-k symmetric power; count C(dim+k-1, k)."""
    if k < 0:
        raise MismatchError("degree must be >= 0")
    return multisets(algebra.dim, k)


def sym_dim(dim, k):
    return comb(dim + k - 1, k)


def multiplicity_factor(multiset):
    """k! divided by the product of index multiplicities' factorials."""
    k = len(multiset)
    f = factorial(k)
    run = 1
    for a, b in zip(multiset, multiset[1:]):
        if a == b:
            run += 1
        else:
            f //= factorial(run)
            run = 1
    f //= factorial(run)
    return f


class SymTensor(Record):
    # coeffs: sorted index tuple -> Fraction, zero-free
    __slots__ = _fields = ("algebra", "degree", "coeffs")

    def __post_init__(self):
        for key in self.coeffs:
            if len(key) != self.degree or tuple(sorted(key)) != tuple(key):
                raise MismatchError(f"bad multiset key {key!r} for degree {self.degree}")

    def __add__(self, other):
        _same(self, other)
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            s = out.get(key, ZERO) + v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return SymTensor(self.algebra, self.degree, out)

    def __sub__(self, other):
        return self + other.scaled(Fraction(-1))

    def __neg__(self):
        return self.scaled(Fraction(-1))

    def scaled(self, a):
        a = Fraction(a)
        if not a:
            return SymTensor(self.algebra, self.degree, {})
        return SymTensor(self.algebra, self.degree, {k: a * v for k, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def terms(self):
        return sorted(self.coeffs.items())

    def max_abs(self):
        return max((abs(v) for v in self.coeffs.values()), default=ZERO)

    def to_json(self):
        return {
            "degree": self.degree,
            "terms": [[list(key), format_scalar(v)] for key, v in self.terms()],
        }


def zero_tensor(algebra, degree):
    return SymTensor(algebra, degree, {})


def basis_tensor(algebra, multiset):
    multiset = tuple(multiset)
    return SymTensor(algebra, len(multiset), {multiset: ONE})


def unit_tensor(algebra):
    return SymTensor(algebra, 0, {(): ONE})


def from_vector(x):
    """Degree-1 tensor with the same coordinates as the algebra vector."""
    coeffs = {}
    for i, c in enumerate(x.coeffs):
        if c:
            coeffs[(i,)] = c
    return SymTensor(x.algebra, 1, coeffs)


def tensor_from_json(algebra, data):
    try:
        degree = parse_int(data["degree"], "tensor degree")
        raw = data["terms"]
    except (KeyError, TypeError) as exc:
        raise FormatError("tensor JSON needs degree and terms") from exc
    coeffs = {}
    for item in raw:
        key, v = item
        key = tuple(parse_int(i, "tensor index") for i in key)
        if any(not 0 <= i < algebra.dim for i in key):
            raise FormatError(f"tensor index out of range in {item!r}")
        if tuple(sorted(key)) != key:
            raise FormatError(f"tensor multiset {key!r} is not sorted")
        val = parse_scalar(v)
        if val:
            coeffs[key] = coeffs.get(key, ZERO) + val
    return SymTensor(algebra, degree, {k: v for k, v in coeffs.items() if v})


def _same(a, b):
    if a.algebra != b.algebra:
        raise MismatchError("tensors live on different algebras")
    if a.degree != b.degree:
        raise MismatchError(f"degree mismatch {a.degree} vs {b.degree}")


def sym_product(s1, s2):
    """Symmetric product: multiset merge with coefficient product."""
    if s1.algebra != s2.algebra:
        raise MismatchError("tensors live on different algebras")
    out = {}
    for k1, v1 in s1.coeffs.items():
        for k2, v2 in s2.coeffs.items():
            key = tuple(sorted(k1 + k2))
            s = out.get(key, ZERO) + v1 * v2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return SymTensor(s1.algebra, s1.degree + s2.degree, out)


def eval_tensor(s, args):
    """Evaluate as a symmetric multilinear functional (see module docstring)."""
    if len(args) != s.degree:
        raise MismatchError(f"need {s.degree} arguments, got {len(args)}")
    for x in args:
        if x.algebra != s.algebra:
            raise MismatchError("argument from a different algebra")
    k = s.degree
    if k == 0:
        return s.coeffs.get((), ZERO)
    total = ZERO
    kfact = factorial(k)
    for key, coeff in s.coeffs.items():
        acc = ZERO
        for perm in itertools.permutations(range(k)):
            prod = ONE
            for t in range(k):
                f = args[perm[t]].coeffs[key[t]]
                if not f:
                    prod = ZERO
                    break
                prod *= f
            acc += prod
        if acc:
            total += coeff * acc / kfact
    return total


def tensor_from_values(algebra, k, value_fn):
    """Reconstruct the degree-k tensor whose eval on basis arguments matches.

    value_fn takes a multiset (index tuple) and returns the evaluation on the
    corresponding basis vectors; the inversion is diagonal with the multiset
    multiplicity factor.
    """
    coeffs = {}
    for key in multisets(algebra.dim, k):
        v = value_fn(key)
        if v:
            coeffs[key] = v * multiplicity_factor(key)
    return SymTensor(algebra, k, coeffs)


def _combine(s, images, scale, degree):
    """The degree-`degree` tensor sum_t c_t images[t] / scale, over the terms
    c_t of s in order; each image is a {multiset: integer} map."""
    s_den, s_ints = common_denominator(s.coeffs.values())
    out = {}
    for x, image in zip(s_ints, images):
        for key, v in image.items():
            out[key] = out.get(key, 0) + x * v
    scale *= s_den
    return SymTensor(s.algebra, degree, {key: Fraction(v, scale) for key, v in out.items() if v})


def _columns(matrix, keys):
    """Column c of matrix as its (keys[r], numerator) terms in row order,
    keys[r] the multiset that row r stands for: every image built from them
    lists its terms in the order the reports have always seen."""
    cols = [[] for _ in range(matrix.cols)]
    for (r, c), v in sorted(matrix.nums.items()):
        cols[c].append((keys[r], v))
    return cols


def _power_images(matrix, keys):
    """(den, images): den is the matrix's denominator and images[t] the
    {multiset: integer} image of keys[t] under the degree-k power, over
    den ** k: the merge of its factors' integer columns."""
    cols = _columns(matrix, multisets(matrix.rows, 1))
    memo = {(): {(): 1}}

    def image(key):
        if key not in memo:
            out = {}
            for prefix, v in image(key[:-1]).items():
                for factor, w in cols[key[-1]]:
                    merged = tuple(sorted(prefix + factor))
                    out[merged] = out.get(merged, 0) + v * w
            memo[key] = {m: v for m, v in out.items() if v}
        return memo[key]

    return matrix.den, [image(key) for key in keys]


def apply_linear_map(s, matrix):
    """Image of s under the degree-k power of a linear map on the algebra.

    matrix is an OperatorMatrix; each factor e_i of a basis multiset is
    replaced by the i-th matrix column and the products are re-expanded.
    """
    den, images = _power_images(matrix, list(s.coeffs))
    return _combine(s, images, den ** s.degree, s.degree)


def symmetric_power_matrix(algebra, matrix, k):
    """Matrix of the degree-k power map in sym_basis order."""
    basis = multisets(algebra.dim, k)
    index = {key: r for r, key in enumerate(basis)}
    den, images = _power_images(matrix, basis)
    nums = {(index[key], c): v for c, image in enumerate(images) for key, v in image.items()}
    return OperatorMatrix.from_numerators(len(basis), len(basis), den ** k, nums)
