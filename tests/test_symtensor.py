import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_eval,
    oracle_power_map,
    oracle_reconstruct,
    oracle_sum,
    oracle_sym_product,
)
from spencerbench.liealg import builtin_algebra
from spencerbench.linalg import OperatorMatrix
from spencerbench.symtensor import multisets, sym_basis, sym_dim, symmetric_power_matrix

F = Fraction
SO3 = builtin_algebra("so3")


def small_fraction(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def random_tensor(rng, algebra, degree, sparsity=3):
    keys = multisets(algebra.dim, degree)
    coeffs = {}
    for key in rng.sample(keys, min(sparsity, len(keys))):
        v = small_fraction(rng)
        if v:
            coeffs[key] = v
    return coeffs


# hypothesis strategy: sparse degree-d tensors over so3
def tensors(degree):
    keys = multisets(3, degree)
    return st.dictionaries(
        st.sampled_from(keys),
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(lambda f: f != 0),
        max_size=4,
    )


def test_basis_counts():
    assert sym_basis(SO3, 0) == [()]
    assert len(sym_basis(SO3, 2)) == 6
    assert multisets(3, 2) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert len(multisets(2, 3)) == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_dimension_matches_enumeration(n, k):
    # brute-force enumeration oracle: count sorted tuples directly
    count = sum(
        1
        for tpl in itertools.product(range(n), repeat=k)
        if tuple(sorted(tpl)) == tpl
    )
    assert sym_dim(n, k) == count == comb(n + k - 1, k)


# --- the oracle's own laws: product, evaluation, reconstruction -------------


def test_product_merges_multisets():
    e1, e2 = {(0,): F(1)}, {(1,): F(1)}
    assert oracle_sym_product(e1, e2) == {(0, 1): F(1)}
    assert oracle_sym_product(e1, e2) == oracle_sym_product(e2, e1)


def test_product_bilinear_hand_oracle():
    e1, e2 = {(0,): F(1)}, {(1,): F(1)}
    p = oracle_sym_product(oracle_sum((1, e1), (1, e2)), e1)
    assert p == {(0, 0): F(1), (0, 1): F(1)}


@settings(max_examples=60, deadline=None)
@given(tensors(1), tensors(2), tensors(1))
def test_product_associative(a, b, c):
    assert (oracle_sym_product(oracle_sym_product(a, b), c)
            == oracle_sym_product(a, oracle_sym_product(b, c)))


@settings(max_examples=60, deadline=None)
@given(tensors(2), tensors(2))
def test_product_commutative(a, b):
    assert oracle_sym_product(a, b) == oracle_sym_product(b, a)


@settings(max_examples=60, deadline=None)
@given(tensors(1), tensors(1), tensors(2))
def test_product_distributes(a, b, c):
    assert oracle_sym_product(oracle_sum((1, a), (1, b)), c) == oracle_sum(
        (1, oracle_sym_product(a, c)), (1, oracle_sym_product(b, c)))


def test_eval_examples():
    e1, e2 = SO3.basis_vector(0), SO3.basis_vector(1)
    assert oracle_eval({(0, 0): F(1)}, [e1, e1]) == 1
    assert oracle_eval({(0, 1): F(1)}, [e1, e2]) == F(1, 2)
    assert oracle_eval({(0, 1): F(1)}, [e2, e1]) == F(1, 2)


def test_eval_permutation_invariance_random():
    rng = random.Random(2024)
    vectors = [
        SO3.vector([small_fraction(rng) for _ in range(3)]) for _ in range(3)
    ]
    for _ in range(100):
        s = random_tensor(rng, SO3, 3, sparsity=4)
        base = oracle_eval(s, vectors)
        for perm in itertools.permutations(vectors):
            assert oracle_eval(s, list(perm)) == base


def test_eval_multilinear():
    rng = random.Random(5)
    s = random_tensor(rng, SO3, 2, sparsity=4)
    x = SO3.vector([1, 2, 3])
    y = SO3.vector([0, 1, -1])
    z = SO3.vector([2, 0, 1])
    lhs = oracle_eval(s, [x + y.scaled(3), z])
    assert lhs == oracle_eval(s, [x, z]) + 3 * oracle_eval(s, [y, z])


def test_multiplicity_factor():
    # the reconstruction scales a unit value by k! / prod(m_a!)
    for key, factor in (((0, 0), 1), ((0, 1), 2), ((0, 0, 1), 3), ((0, 1, 2), factorial(3))):
        assert oracle_reconstruct(SO3, {key: F(1)}) == {key: F(factor)}


def test_values_round_trip():
    # reconstruct a tensor from its basis evaluations; diagonal inversion
    rng = random.Random(11)
    for degree in (1, 2, 3):
        s = random_tensor(rng, SO3, degree, sparsity=5)
        values = {key: oracle_eval(s, [SO3.basis_vector(i) for i in key])
                  for key in multisets(SO3.dim, degree)}
        assert oracle_reconstruct(SO3, values) == s


def test_apply_linear_map_is_functorial_power():
    # the degree-k power of M acts factorwise
    m = OperatorMatrix.from_dense([[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(2)]])
    assert oracle_power_map({(0, 2): F(1)}, m.to_dense()) == {(1, 2): F(2)}
    mat2 = symmetric_power_matrix(SO3, m, 2)
    col = multisets(3, 2).index((0, 2))
    expect = {r for (r, c) in mat2.entries if c == col}
    assert expect == {multisets(3, 2).index((1, 2))}


def test_power_matrix_multiplicative():
    rng = random.Random(9)
    a = tuple(tuple(F(rng.randint(-2, 2)) for _ in range(3)) for _ in range(3))
    b = tuple(tuple(F(rng.randint(-2, 2)) for _ in range(3)) for _ in range(3))
    ab = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )
    for k in (0, 1, 2, 3):
        lhs = (symmetric_power_matrix(SO3, OperatorMatrix.from_dense(a), k)
               @ symmetric_power_matrix(SO3, OperatorMatrix.from_dense(b), k))
        assert lhs == symmetric_power_matrix(SO3, OperatorMatrix.from_dense(ab), k)


# --- the integer power-map kernel against the dict oracle ---------------------


AB4 = builtin_algebra("abelian(4)")
ENTRY = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def linear_maps(draw, n):
    """Rational n x n matrices: sparse, dense (no zero entry) or singular (the
    last row a rational combination of the others)."""
    kind = draw(st.sampled_from(["any", "dense", "singular"]))
    entry = ENTRY.filter(lambda f: f != 0) if kind == "dense" else ENTRY
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if kind == "singular":
        mix = draw(st.lists(ENTRY, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((w * row[c] for w, row in zip(mix, rows)), F(0)) for c in range(n)]
    return tuple(tuple(row) for row in rows)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([SO3, AB4]).flatmap(
    lambda alg: st.tuples(st.just(alg), linear_maps(alg.dim), st.integers(0, 4))))
def test_power_matrix_matches_symtensor_oracle(case):
    alg, m, k = case
    basis = multisets(alg.dim, k)
    want = {}
    for c, key in enumerate(basis):
        for row_key, v in oracle_power_map({key: F(1)}, m).items():
            want[(basis.index(row_key), c)] = v
    assert symmetric_power_matrix(alg, OperatorMatrix.from_dense(m), k).entries == want


@settings(max_examples=60, deadline=None)
@given(linear_maps(3), st.integers(0, 4).flatmap(lambda d: st.tuples(
    st.just(d), st.dictionaries(st.sampled_from(multisets(3, d)), ENTRY, max_size=5))))
def test_apply_linear_map_matches_symtensor_oracle(m, case):
    # the power matrix applied to a sparse tensor, entry by entry
    d, s = case
    keys = multisets(3, d)
    image = oracle_sum(*((v * s.get(keys[c], 0), {keys[r]: F(1)}) for (r, c), v
                         in symmetric_power_matrix(SO3, OperatorMatrix.from_dense(m), d).entries.items()))
    assert image == oracle_power_map(s, m)
