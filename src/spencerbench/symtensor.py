"""Multiset bases of the symmetric powers of a Lie algebra, and the
factorwise powers of its linear maps.

A degree-k basis element is a non-decreasing tuple of k basis indices
(0-based); every matrix on a symmetric power lists its rows and columns in
the lex order of multisets.
"""

from __future__ import annotations

import itertools
from math import comb

from .errors import MismatchError
from .linalg import OperatorMatrix


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


def symmetric_power_matrix(algebra, matrix, k):
    """Matrix of the degree-k power map in sym_basis order: each factor e_i
    of a basis multiset is replaced by the i-th column of matrix and the
    products are re-expanded."""
    basis = multisets(algebra.dim, k)
    index = {key: r for r, key in enumerate(basis)}
    den, images = _power_images(matrix, basis)
    nums = {(index[key], c): v for c, image in enumerate(images) for key, v in image.items()}
    return OperatorMatrix.from_numerators(len(basis), len(basis), den ** k, nums)
