import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spencerbench.errors import FormatError, MismatchError
from spencerbench.liealg import builtin_algebra
from spencerbench.linalg import OperatorMatrix
from spencerbench.symtensor import (
    SymTensor,
    apply_linear_map,
    basis_tensor,
    eval_tensor,
    from_vector,
    multiplicity_factor,
    multisets,
    sym_basis,
    sym_dim,
    sym_product,
    symmetric_power_matrix,
    tensor_from_json,
    tensor_from_values,
    unit_tensor,
    zero_tensor,
)

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
    return SymTensor(algebra, degree, coeffs)


# hypothesis strategy: sparse degree-d tensors over so3
def tensors(degree):
    keys = multisets(3, degree)
    return st.dictionaries(
        st.sampled_from(keys),
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(lambda f: f != 0),
        max_size=4,
    ).map(lambda d: SymTensor(SO3, degree, d))


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


def test_product_merges_multisets():
    e1 = basis_tensor(SO3, (0,))
    e2 = basis_tensor(SO3, (1,))
    p = sym_product(e1, e2)
    assert p.coeffs == {(0, 1): F(1)}
    assert sym_product(e1, e2) == sym_product(e2, e1)


def test_product_bilinear_hand_oracle():
    e1 = basis_tensor(SO3, (0,))
    e2 = basis_tensor(SO3, (1,))
    p = sym_product(e1 + e2, e1)
    assert p.coeffs == {(0, 0): F(1), (0, 1): F(1)}


@settings(max_examples=60, deadline=None)
@given(tensors(1), tensors(2), tensors(1))
def test_product_associative(a, b, c):
    assert sym_product(sym_product(a, b), c) == sym_product(a, sym_product(b, c))


@settings(max_examples=60, deadline=None)
@given(tensors(2), tensors(2))
def test_product_commutative(a, b):
    assert sym_product(a, b) == sym_product(b, a)


@settings(max_examples=60, deadline=None)
@given(tensors(1), tensors(1), tensors(2))
def test_product_distributes(a, b, c):
    assert sym_product(a + b, c) == sym_product(a, c) + sym_product(b, c)


def test_eval_examples():
    e1, e2 = SO3.basis_vector(0), SO3.basis_vector(1)
    assert eval_tensor(basis_tensor(SO3, (0, 0)), [e1, e1]) == 1
    assert eval_tensor(basis_tensor(SO3, (0, 1)), [e1, e2]) == F(1, 2)
    assert eval_tensor(basis_tensor(SO3, (0, 1)), [e2, e1]) == F(1, 2)


def test_eval_permutation_invariance_random():
    rng = random.Random(2024)
    vectors = [
        SO3.vector([small_fraction(rng) for _ in range(3)]) for _ in range(3)
    ]
    for _ in range(100):
        s = random_tensor(rng, SO3, 3, sparsity=4)
        base = eval_tensor(s, vectors)
        for perm in itertools.permutations(vectors):
            assert eval_tensor(s, list(perm)) == base


def test_eval_multilinear():
    rng = random.Random(5)
    s = random_tensor(rng, SO3, 2, sparsity=4)
    x = SO3.vector([1, 2, 3])
    y = SO3.vector([0, 1, -1])
    z = SO3.vector([2, 0, 1])
    lhs = eval_tensor(s, [x + y.scaled(3), z])
    assert lhs == eval_tensor(s, [x, z]) + 3 * eval_tensor(s, [y, z])


def test_multiplicity_factor():
    assert multiplicity_factor((0, 0)) == 1
    assert multiplicity_factor((0, 1)) == 2
    assert multiplicity_factor((0, 0, 1)) == 3
    assert multiplicity_factor((0, 1, 2)) == factorial(3)


def test_values_round_trip():
    # reconstruct a tensor from its basis evaluations; diagonal inversion
    rng = random.Random(11)
    for degree in (1, 2, 3):
        s = random_tensor(rng, SO3, degree, sparsity=5)
        rebuilt = tensor_from_values(
            SO3,
            degree,
            lambda key: eval_tensor(s, [SO3.basis_vector(i) for i in key]),
        )
        assert rebuilt == s


def test_normal_form_uniqueness():
    a = SymTensor(SO3, 2, {(0, 1): F(1)})
    b = sym_product(basis_tensor(SO3, (0,)), basis_tensor(SO3, (1,)))
    assert a == b
    assert (a - b).is_zero()
    with pytest.raises(MismatchError):
        SymTensor(SO3, 2, {(1, 0): F(1)})


def test_arity_mismatch():
    with pytest.raises(MismatchError):
        eval_tensor(basis_tensor(SO3, (0, 1)), [SO3.basis_vector(0)])


def test_from_vector_and_unit():
    v = SO3.vector([1, 0, -2])
    t = from_vector(v)
    assert t.coeffs == {(0,): F(1), (2,): F(-2)}
    assert unit_tensor(SO3).coeffs == {(): F(1)}
    assert zero_tensor(SO3, 3).is_zero()


def test_apply_linear_map_is_functorial_power():
    # the degree-k power of M acts factorwise
    m = OperatorMatrix.from_dense([[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(2)]])
    s = basis_tensor(SO3, (0, 2))
    out = apply_linear_map(s, m)
    assert out.coeffs == {(1, 2): F(2)}
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


def test_json_round_trip():
    rng = random.Random(13)
    s = random_tensor(rng, SO3, 2, sparsity=4)
    again = tensor_from_json(SO3, s.to_json())
    assert again == s


@pytest.mark.parametrize(
    "data",
    [{"degree": 2.0, "terms": []}, {"degree": True, "terms": []},
     {"degree": 2, "terms": [[[0, 1.0], "1"]]}, {"degree": 2, "terms": [[[0, 1], 0.5]]}],
    ids=["float-degree", "bool-degree", "float-index", "float-coefficient"],
)
def test_json_non_integer_or_inexact_number_is_format_error(data):
    with pytest.raises(FormatError):
        tensor_from_json(SO3, data)


# --- the integer power-map kernel against the SymTensor-product oracle --------


def oracle_apply_linear_map(s, matrix):
    """Factorwise power by SymTensor products: each factor e_i becomes the
    degree-1 tensor of column i, multiplied in one factor at a time."""
    dim = s.algebra.dim
    cols = [SymTensor(s.algebra, 1, {(r,): matrix[r][c] for r in range(dim) if matrix[r][c]})
            for c in range(dim)]
    out = zero_tensor(s.algebra, s.degree)
    for key, coeff in s.coeffs.items():
        term = SymTensor(s.algebra, 0, {(): coeff})
        for i in key:
            term = sym_product(term, cols[i])
        out = out + term
    return out


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
        for row_key, v in oracle_apply_linear_map(basis_tensor(alg, key), m).coeffs.items():
            want[(basis.index(row_key), c)] = v
    assert symmetric_power_matrix(alg, OperatorMatrix.from_dense(m), k).entries == want


@settings(max_examples=60, deadline=None)
@given(linear_maps(3), st.integers(0, 4).flatmap(
    lambda d: st.dictionaries(st.sampled_from(multisets(3, d)), ENTRY, max_size=5)
    .map(lambda c: SymTensor(SO3, d, {key: v for key, v in c.items() if v}))))
def test_apply_linear_map_matches_symtensor_oracle(m, s):
    assert apply_linear_map(s, OperatorMatrix.from_dense(m)) == oracle_apply_linear_map(s, m)
