"""The constraint-coupled operator delta^lam on the symmetric algebra of a
Lie algebra, determined by a generator rule (a symmetrized double-bracket
pairing against a dual vector lam) plus a Leibniz extension.

The generator rule produces a quadratic form on test vectors; it is turned
back into a degree-2 tensor through an identification of the symmetric power
with its dual. Two identifications are supported:

* "basis":   e_i <-> e_i*, the coordinate identification (default);
* "killing": v <-> B(v, -) with B the Killing form (semisimple algebras
  only). Automorphisms are B-orthogonal, which makes the operator natural
  under automorphism transport; the coordinate identification does not have
  this property unless the automorphism matrix is orthogonal.

The rule is one integer matrix, delta_1 itself (Sym^2 x n, column m is
delta(e_m)). delta_matrix extends the rule through index tables that depend
only on the dimension, the degree and the convention (_leibniz_tables), so
every lam shares them; the signed-rule audit reads the paper-signed delta_k
that the nilpotency report already holds.

Both Leibniz conventions are implemented. UNSIGNED extends the generator rule
as an even derivation and is order-independent. PAPER_SIGNED inserts a sign
(-1)^p when the rule walks past a degree-p left factor; on a commutative
product that recipe depends on the factor ordering, so it is applied to the
canonical sorted factorization, and a separate audit measures the order
dependence instead of hiding it.

Whether (delta^lam)^2 = 0 is treated as a measurement, never an assumption:
nilpotency_report reads the exact residual of each delta_{k+1} delta_k row
by row from the two factors (linalg.composite_residuals), builds no product
at a degree whose residual is 0, and multiplies once, at the first degree
whose residual is not, to name a witness column.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction

from .errors import DegenerateInputError, MismatchError
from .liealg import killing_gram
from .linalg import OperatorMatrix, common_denominator, composite_residuals
from .records import Record
from .symtensor import multisets, sym_dim, symmetric_power_matrix


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
    index = {key: r for r, key in enumerate(multisets(n, 2))}
    nums = {}
    for i in range(n):
        for j in range(n):
            r = index[(i, j) if i <= j else (j, i)]  # e_i e_j = e_j e_i
            for m in range(n):
                nums[r, m] = nums.get((r, m), 0) + sum(v * lam_br[i][p] for p, v in nz[j][m])
    table = OperatorMatrix.from_numerators(
        len(index), n, c_den * c_den * lam_den, {key: v for key, v in nums.items() if v})
    if identification == Identification.KILLING:
        table = symmetric_power_matrix(algebra, _killing_inverse(algebra), 2) @ table
    return table


@functools.lru_cache(maxsize=16)
def _leibniz_tables(n, k, signed):
    """(terms, mul): the Leibniz rule on S^k of an n-dimensional algebra as
    index tables, which do not depend on the generator table.

    terms[c] lists (s, m, rest) for column c of S^k: replacing the factor e_m
    of the c-th multiset by its generator image leaves the multiset rest of
    S^{k-1}, with s the sum of the signs of the positions that do so (the
    multiplicity of e_m when unsigned, (-1)^t summed over its positions t
    when signed; terms with s = 0 are dropped). mul[rest][q] is the S^{k+1}
    row of rest times the q-th multiset of S^2.
    """
    rests = multisets(n, k - 1)
    rest_index = {key: i for i, key in enumerate(rests)}
    terms = []
    for key in multisets(n, k):
        merged = {}
        for t, m in enumerate(key):
            term = (m, rest_index[key[:t] + key[t + 1:]])
            merged[term] = merged.get(term, 0) + (-1 if signed and t % 2 else 1)
        terms.append([(s, m, rest) for (m, rest), s in merged.items() if s])
    index = {key: r for r, key in enumerate(multisets(n, k + 1))}
    pairs = multisets(n, 2)
    mul = [[index[tuple(sorted(rest + pair))] for pair in pairs] for rest in rests]
    return terms, mul


def delta_matrix(lam, k, convention=LeibnizConvention.UNSIGNED,
                 identification=Identification.BASIS):
    """Matrix of delta^lam from degree k to k+1 in sym_basis order: the
    generator table's integer columns read through _leibniz_tables, which
    every lam on the same algebra shares."""
    if k < 0:
        raise MismatchError("degree must be >= 0")
    dim = lam.algebra.dim
    signed = LeibnizConvention(convention) is LeibnizConvention.PAPER_SIGNED
    identification = Identification(identification)
    if k == 0:
        return OperatorMatrix.zero(dim, 1)
    table = _generator_table(lam, identification)
    gens = [[] for _ in range(dim)]
    for (q, m), v in table.nums.items():
        gens[m].append((q, v))
    terms, mul = _leibniz_tables(dim, k, signed)
    nums = {}
    for c, column in enumerate(terms):
        acc = {}
        for s, m, rest in column:
            rows = mul[rest]
            for q, v in gens[m]:
                r = rows[q]
                acc[r] = acc.get(r, 0) + s * v
        nums.update(((r, c), v) for r, v in acc.items() if v)
    return OperatorMatrix.from_numerators(sym_dim(dim, k + 1), sym_dim(dim, k), table.den, nums)


def delta_matrix_to_json(matrix, k):
    data = matrix.to_json()
    data["domain_degree"] = k
    data["codomain_degree"] = k + 1
    return data


class NilpotencyReport(Record):
    # residuals: [(degree k, max |entry| of delta_{k+1} delta_k)];
    # witness: (degree, multiset) of a nonzero composite column, or None;
    # matrices: delta_k for k < K
    __slots__ = _fields = ("convention", "identification", "residuals", "holds", "witness",
                           "matrices")

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

    The verdict is whatever the exact residuals say; nothing is assumed.
    Each delta_{k+1} delta_k is read from its factors, each delta_k split
    into rows once, and only the first composite that is not zero is
    built, for the lowest column of its witness.
    """
    if K < 2:
        raise MismatchError("nilpotency audit needs K >= 2")
    mats = [delta_matrix(lam, k, convention, identification) for k in range(K)]
    residuals = list(enumerate(composite_residuals(mats)))
    witness = None
    k = next((k for k, r in residuals if r), None)
    if k is not None:
        col = min(c for _, c in (mats[k + 1] @ mats[k]).nums)
        witness = (k, multisets(lam.algebra.dim, k)[col])
    holds = witness is None
    return NilpotencyReport(
        LeibnizConvention(convention),
        Identification(identification),
        residuals,
        holds,
        witness,
        mats,
    )


class OrderingWitness(Record):
    # multiset: the sorted factor word, read forward and reversed
    __slots__ = _fields = ("multiset", "difference_max")

    def to_json(self):
        return {
            "multiset": list(self.multiset),
            "forward": list(self.multiset),
            "reverse": list(reversed(self.multiset)),
            "difference_max": str(self.difference_max),
        }


def signed_leibniz_welldefinedness(delta, k, dim):
    """Order-dependence audit of the signed rule at degree k >= 2, read off
    delta, the paper-signed delta_k of a dim-dimensional algebra: a witness
    for every multiset whose sorted factor word and its reversal have
    different signed images. An empty list means the signed rule is
    order-independent there.

    Reversing a word of k factors moves the t-th factor to position
    k - 1 - t, so its sign (-1)^t becomes (-1)^(k-1-t) = (-1)^(k-1) (-1)^t:
    the reversed image is (-1)^(k-1) times the forward one, which is column
    c of delta. At odd k the two images are equal; at even k they differ by
    twice that column, so every non-zero column is a witness, with
    difference_max = 2 max_r |delta[r, c]|.
    """
    if k < 2:
        raise MismatchError("the ordering audit needs degree >= 2")
    if delta.shape != (sym_dim(dim, k + 1), sym_dim(dim, k)):
        raise MismatchError(f"delta_{k} of a {dim}-dimensional algebra cannot be {delta.shape}")
    if k % 2:
        return []
    gaps = {}
    for (_, c), v in delta.nums.items():
        gaps[c] = max(gaps.get(c, 0), abs(v))
    keys = multisets(dim, k)
    return [OrderingWitness(keys[c], Fraction(2 * gaps[c], delta.den)) for c in sorted(gaps)]
