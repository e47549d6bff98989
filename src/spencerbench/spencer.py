"""Degree-raising operators on the symmetric algebra of a Lie algebra.

Two operators live here:

* the classical prolongation  s -> sum_i sum_j e_i . (s with [e_i, -] applied
  to the j-th factor), summed over the stored basis;
* the constraint-coupled operator delta^lam, determined by a generator rule
  (a symmetrized double-bracket pairing against a dual vector lam) plus a
  Leibniz extension.

The generator rule produces a quadratic form on test vectors; it is turned
back into a degree-2 tensor through an identification of the symmetric power
with its dual. Two identifications are supported:

* "basis":   e_i <-> e_i*, the coordinate identification (default);
* "killing": v <-> B(v, -) with B the Killing form (semisimple algebras
  only). Automorphisms are B-orthogonal, which makes the operator natural
  under automorphism transport; the coordinate identification does not have
  this property unless the automorphism matrix is orthogonal.

The rule is one integer matrix, delta_1 itself (Sym^2 x n, column m is
delta(e_m)); the classical prolongation's rule is a table of the same shape,
and one Leibniz kernel extends either from its columns.

Both Leibniz conventions are implemented. UNSIGNED extends the generator rule
as an even derivation and is order-independent. PAPER_SIGNED inserts a sign
(-1)^p when the rule walks past a degree-p left factor; on a commutative
product that recipe depends on the factor ordering, so it is applied to the
canonical sorted factorization, and a separate audit measures the order
dependence instead of hiding it.

Whether (delta^lam)^2 = 0 is treated as a measurement, never an assumption:
nilpotency_report multiplies the assembled matrices and reports the exact
residuals per degree.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction

from .errors import DegenerateInputError, MismatchError
from .liealg import bracket, killing_gram, pairing
from .linalg import OperatorMatrix, common_denominator
from .records import Record
from .symtensor import (
    _columns,
    _combine,
    apply_linear_map,
    from_vector,
    multisets,
    sym_dim,
    symmetric_power_matrix,
    tensor_from_values,
    zero_tensor,
)


class LeibnizConvention(str, enum.Enum):
    UNSIGNED = "unsigned"
    PAPER_SIGNED = "paper-signed"


class Identification(str, enum.Enum):
    BASIS = "basis"
    KILLING = "killing"


@functools.lru_cache(maxsize=8)
def _killing_inverse(algebra):
    inv = killing_gram(algebra).solve(OperatorMatrix.identity(algebra.dim))
    if inv is None:
        raise DegenerateInputError(
            f"Killing form of {algebra.name} is singular; "
            "the killing identification needs a semisimple algebra"
        )
    return inv


def _quadratic_table(n, den, terms):
    """The Sym^2 x n integer OperatorMatrix over den whose column m is the sum
    of v e_i e_j over the terms (i, j, m, v); e_i e_j = e_j e_i, so the
    ordered pairs (i, j) and (j, i) add up."""
    index = {key: r for r, key in enumerate(multisets(n, 2))}
    nums = {}
    for i, j, m, v in terms:
        key = (index[(i, j) if i <= j else (j, i)], m)
        nums[key] = nums.get(key, 0) + v
    return OperatorMatrix.from_numerators(
        len(index), n, den, {key: v for key, v in nums.items() if v})


def classical_prolongation(s):
    """Basis-summed prolongation, degree k -> k+1 (zero on degree 0): the
    unsigned Leibniz extension of e_m -> sum_i e_i . [e_i, e_m]."""
    den, nz = s.algebra.integer_structure
    n = s.algebra.dim
    table = _quadratic_table(
        n, den, ((i, p, m, v) for m in range(n) for i in range(n) for p, v in nz[i][m]))
    cols = _columns(table, multisets(n, 2))
    return _combine(s, [_image(cols, key, False) for key in s.coeffs], table.den, s.degree + 1)


def _jacobi_values(lam, v):
    """Same quadratic form computed through the bracket-rewritten formula."""
    algebra = v.algebra
    basis = algebra.basis_vectors()
    values = {}
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            w1, w2 = basis[i], basis[j]
            val = pairing(lam, bracket(w2, bracket(w1, v))) + pairing(
                lam, bracket(bracket(w1, w2), v)
            ) / 2
            values[(i, j)] = val
    return values


def _reconstruct(algebra, values, identification):
    tensor = tensor_from_values(algebra, 2, lambda key: values[key])
    if identification == Identification.KILLING:
        tensor = apply_linear_map(tensor, _killing_inverse(algebra))
    return tensor


@functools.lru_cache(maxsize=8)
def _generator_table(lam, identification):
    """delta^lam on the generators, delta_1 itself: the Sym^2 x n integer
    OperatorMatrix whose column m is delta(e_m).

    Under the basis identification the coefficient of e_i e_j in delta(e_m)
    is lam([e_i,[e_j,e_m]]) + lam([e_j,[e_i,e_m]]) for i < j and
    lam([e_i,[e_i,e_m]]) for i = j, all over c_den^2 lam_den. They come for
    every m at once from L[a][p] = lam([e_a, e_p]): lam([e_i,[e_j,e_m]]) =
    sum_p c_jm^p L[i][p]. Under the killing identification the table is the
    degree-2 power of B^{-1} times that matrix.
    """
    algebra = lam.algebra
    n = algebra.dim
    lam_den, lam_ints = common_denominator(lam.coeffs)
    c_den, nz = algebra.integer_structure
    # lam_br[a][p] = L[a][p], in numerators over c_den * lam_den
    lam_br = [[sum(v * lam_ints[q] for q, v in nz[a][p]) for p in range(n)] for a in range(n)]
    table = _quadratic_table(n, c_den * c_den * lam_den, (
        (i, j, m, sum(v * lam_br[i][p] for p, v in nz[j][m]))
        for i in range(n) for j in range(n) for m in range(n)))
    if identification == Identification.KILLING:
        table = symmetric_power_matrix(algebra, _killing_inverse(algebra), 2) @ table
    return table


def delta_lambda_generator(lam, v, identification=Identification.BASIS):
    """Image of a degree-1 element under the constraint-coupled operator:
    delta_lambda on from_vector(v)."""
    return delta_lambda(lam, from_vector(v), identification=identification)


def jacobi_form_generator(lam, v, identification=Identification.BASIS):
    """Generator rule computed via the rewritten double-bracket expression."""
    if lam.algebra != v.algebra:
        raise MismatchError("lam and v live on different algebras")
    identification = Identification(identification)
    return _reconstruct(v.algebra, _jacobi_values(lam, v), identification)


def _image(cols, seq, signed):
    """Leibniz extension of a generator table to the product of the factors in
    seq, as {multiset: integer}.

    cols[m] lists the (index pair, integer) terms of the image of e_m: the
    columns (_columns) of a Sym^2 x n table, _generator_table for delta^lam
    or the structure constants for the classical prolongation. Leibniz rule:
    the t-th factor is replaced by its generator image, whose index pair is
    merged into the sorted remaining factors. The signed rule's left-to-right
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


def delta_lambda(lam, s, convention=LeibnizConvention.UNSIGNED,
                 identification=Identification.BASIS):
    """Constraint-coupled operator on a tensor of any degree >= 1.

    Degree-0 input maps to zero. Each basis multiset is factorized in sorted
    index order; UNSIGNED is independent of that order, PAPER_SIGNED is made
    single-valued by it (see signed_leibniz_welldefinedness).
    """
    if lam.algebra != s.algebra:
        raise MismatchError("lam and s live on different algebras")
    signed = LeibnizConvention(convention) is LeibnizConvention.PAPER_SIGNED
    identification = Identification(identification)
    if s.degree == 0 or not s.coeffs:
        return zero_tensor(s.algebra, s.degree + 1)
    table = _generator_table(lam, identification)
    cols = _columns(table, multisets(table.cols, 2))
    return _combine(s, [_image(cols, key, signed) for key in s.coeffs], table.den, s.degree + 1)


def delta_matrix(lam, k, convention=LeibnizConvention.UNSIGNED,
                 identification=Identification.BASIS):
    """Matrix of delta^lam from degree k to k+1 in sym_basis order."""
    if k < 0:
        raise MismatchError("degree must be >= 0")
    dim = lam.algebra.dim
    signed = LeibnizConvention(convention) is LeibnizConvention.PAPER_SIGNED
    identification = Identification(identification)
    if k == 0:
        return OperatorMatrix.zero(dim, 1)
    table = _generator_table(lam, identification)
    cols = _columns(table, multisets(dim, 2))
    codomain_index = {key: r for r, key in enumerate(multisets(dim, k + 1))}
    nums = {
        (codomain_index[row_key], c): v
        for c, key in enumerate(multisets(dim, k))
        for row_key, v in _image(cols, key, signed).items()
    }
    return OperatorMatrix.from_numerators(sym_dim(dim, k + 1), sym_dim(dim, k), table.den, nums)


def delta_matrix_to_json(matrix, k):
    data = matrix.to_json()
    data["domain_degree"] = k
    data["codomain_degree"] = k + 1
    return data


class NilpotencyReport(Record):
    # residuals: [(degree k, max |entry| of delta_{k+1} @ delta_k)];
    # witness: (degree, multiset) of a nonzero composite column, or None;
    # matrices: delta_k for k < K
    __slots__ = _fields = ("convention", "identification", "residuals", "holds", "witness",
                           "composites", "matrices")
    _factories = {"composites": list, "matrices": list}

    def to_json(self):
        return {
            "convention": self.convention.value,
            "identification": self.identification.value,
            "residuals": [[k, str(r)] for k, r in self.residuals],
            "holds": self.holds,
            "witness": None
            if self.witness is None
            else {"degree": self.witness[0], "multiset": list(self.witness[1])},
        }


def nilpotency_report(lam, K, convention=LeibnizConvention.UNSIGNED,
                      identification=Identification.BASIS):
    """Measure delta^2 degree by degree up to the truncation K (K >= 2).

    The verdict is whatever the matrix products say; nothing is assumed.
    """
    if K < 2:
        raise MismatchError("nilpotency audit needs K >= 2")
    algebra = lam.algebra
    mats = [delta_matrix(lam, k, convention, identification) for k in range(K)]
    residuals = []
    composites = []
    witness = None
    for k in range(K - 1):
        comp = mats[k + 1] @ mats[k]
        composites.append(comp)
        residuals.append((k, comp.max_abs()))
        if witness is None and not comp.is_zero():
            col = min(c for (_, c) in comp.entries)
            witness = (k, multisets(algebra.dim, k)[col])
    holds = all(r == 0 for _, r in residuals)
    return NilpotencyReport(
        LeibnizConvention(convention),
        Identification(identification),
        residuals,
        holds,
        witness,
        composites,
        mats,
    )


class OrderingWitness(Record):
    # forward: the factor sequence used by the canonical rule
    __slots__ = _fields = ("multiset", "forward", "reverse", "difference_max")

    def to_json(self):
        return {
            "multiset": list(self.multiset),
            "forward": list(self.forward),
            "reverse": list(self.reverse),
            "difference_max": str(self.difference_max),
        }


def signed_leibniz_welldefinedness(lam, k, identification=Identification.BASIS):
    """Order-dependence audit of the signed rule at degree k >= 2.

    Applies the signed splitting to the sorted factor sequence and to its
    reverse; returns a witness for every multiset where the two disagree.
    An empty list means the signed rule is order-independent there.
    """
    if k < 2:
        raise MismatchError("the ordering audit needs degree >= 2")
    table = _generator_table(lam, Identification(identification))
    cols = _columns(table, multisets(table.cols, 2))
    witnesses = []
    for key in multisets(lam.algebra.dim, k):
        forward = key
        reverse = tuple(reversed(key))
        a = _image(cols, forward, True)
        b = _image(cols, reverse, True)
        gap = max((abs(a.get(m, 0) - b.get(m, 0)) for m in a.keys() | b.keys()), default=0)
        if gap:
            witnesses.append(OrderingWitness(key, forward, reverse, Fraction(gap, table.den)))
    return witnesses
