import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    algebra_from_dense,
    dense_matrix_basis,
    dense_structure,
    oracle_inverse,
    oracle_rref,
)
from spencerbench.errors import FormatError, MismatchError, ValidationError
from spencerbench.liealg import (
    _coordinates,
    _sl_basis,
    algebra_from_json,
    algebra_to_json,
    antisymmetry_residual,
    automorphism_from_json,
    automorphism_to_json,
    bracket,
    builtin_algebra,
    builtin_automorphism,
    coadjoint,
    coadjoint_matrix,
    jacobi_residual,
    killing_gram,
    make_automorphism,
    pairing,
    weyl_mirrors,
)
from spencerbench.linalg import OperatorMatrix

F = Fraction


BUILTINS = ["so3", "sl2", "sl3", "sl4", "sl5", "su2", "su3", "su4", "abelian(1)", "abelian(4)"]


@pytest.fixture(scope="module")
def so3():
    return builtin_algebra("so3")


@pytest.fixture(scope="module")
def sl2():
    return builtin_algebra("sl2")


def test_builtin_validity():
    for name in ("so3", "sl2", "sl3", "su2", "abelian(4)"):
        alg = builtin_algebra(name)
        assert antisymmetry_residual(alg) == 0
        assert jacobi_residual(alg) == 0


def test_so3_bracket_table(so3):
    e1, e2, e3 = so3.basis_vectors()
    assert bracket(e1, e2).coeffs == e3.coeffs
    assert bracket(e2, e3).coeffs == e1.coeffs
    assert bracket(e3, e1).coeffs == e2.coeffs
    assert bracket(e1, e1).is_zero()


def test_sl2_relations(sl2):
    h, x, y = sl2.basis_vectors()
    assert bracket(h, x) == x.scaled(2)
    assert bracket(h, y) == y.scaled(-2)
    assert bracket(x, y) == h


def test_abelian_brackets_vanish():
    ab = builtin_algebra("abelian(3)")
    for a in ab.basis_vectors():
        for b in ab.basis_vectors():
            assert bracket(a, b).is_zero()


def test_bracket_bilinear_antisymmetric(so3):
    rng = random.Random(7)
    for _ in range(30):
        x = so3.vector([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)])
        y = so3.vector([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)])
        assert bracket(x, y) == -bracket(y, x)
        assert bracket(x + y, y) == bracket(x, y)  # [y, y] = 0


def test_corrupted_constants_nonzero_jacobi(so3):
    # a single corrupted entry (antisymmetric partner left untouched) breaks
    # the Jacobi sum; note that a *consistent* rescale of one cyclic pair
    # would not, since diagonal rescalings of so3 stay Lie algebras
    data = algebra_to_json(so3)
    flipped = [
        [i, j, k, "2" if (i, j, k) == (0, 1, 2) else v]
        for i, j, k, v in data["structure_constants"]
    ]
    data["structure_constants"] = flipped
    bad = algebra_from_json(data)
    assert antisymmetry_residual(bad) != 0
    residual, witness = jacobi_residual(bad, with_witness=True)
    assert residual != 0 and witness is not None

    # consistent rescale: still a Lie algebra (scaled cyclic family)
    rescaled = [
        [i, j, k, {"(0, 1, 2)": "2", "(1, 0, 2)": "-2"}.get(str((i, j, k)), v)]
        for i, j, k, v in data["structure_constants"]
    ]
    both = algebra_from_json({**data, "structure_constants": rescaled})
    assert antisymmetry_residual(both) == 0 and jacobi_residual(both) == 0


def oracle_jacobi(c, n):
    """Dense n^5 Fraction Jacobi loop: (worst, witness, all maximizers)."""
    sums = {}
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for k in range(n):
                    s = F(0)
                    for m in range(n):
                        s += (
                            c[i][j][m] * c[m][l][k]
                            + c[j][l][m] * c[m][i][k]
                            + c[l][i][m] * c[m][j][k]
                        )
                    sums[(i, j, l, k)] = abs(s)
    worst = max(sums.values())
    if not worst:
        return worst, None, []
    tied = sorted(q for q, s in sums.items() if s == worst)
    return worst, tied[0], tied


def raw_algebra(c):
    return algebra_from_dense("raw", c)


@st.composite
def raw_constants(draw):
    """Rational constants of dim 1-4 with no antisymmetry imposed."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=5))
    return [[draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)] for _ in range(n)]


@given(raw_constants())
def test_jacobi_residual_matches_dense_oracle(c):
    worst, witness, _ = oracle_jacobi(c, len(c))
    assert jacobi_residual(raw_algebra(c), with_witness=True) == (worst, witness)


def oracle_coadjoint(z, xi):
    """The bracket-based coadjoint: -<xi, [z, e_j]> for every basis vector e_j."""
    alg = z.algebra
    return alg.dual([-pairing(xi, bracket(z, alg.basis_vector(j))) for j in range(alg.dim)])


def dense_sl3_from_json():
    """sl3 after a dense rational basis change f_i = sum_j A[j][i] e_j (A = L U),
    written as algebra JSON and loaded back."""
    sl3 = builtin_algebra("sl3")
    n, c = sl3.dim, dense_structure(sl3)
    rng = random.Random(61)
    low = [[F(1) if r == k else F(rng.choice([-2, -1, 1, 2])) if r > k else F(0)
            for k in range(n)] for r in range(n)]
    up = [[F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3])) if r == k
           else F(rng.choice([-1, 1])) if r < k else F(0) for k in range(n)] for r in range(n)]
    a = [[sum(low[r][m] * up[m][k] for m in range(n)) for k in range(n)] for r in range(n)]
    ainv = oracle_inverse(a)
    triples = []
    for i in range(n):
        for j in range(n):
            bra = [sum(a[p][i] * a[q][j] * c[p][q][l] for p in range(n) for q in range(n))
                   for l in range(n)]
            for k in range(n):
                v = sum(ainv[k][l] * bra[l] for l in range(n))
                if v:
                    triples.append([i, j, k, str(v)])
    return algebra_from_json({"name": "sl3-dense", "dim": n, "structure_constants": triples,
                              "basis_labels": [f"f{i + 1}" for i in range(n)]})


COADJOINT_ALGEBRAS = [builtin_algebra(name) for name in ("so3", "sl3", "su3")] + [
    dense_sl3_from_json()
]
RATIONAL_ENTRY = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4,
                                                       max_denominator=5))


@st.composite
def coadjoint_cases(draw):
    """(z, xi) with rational coefficients on a builtin, the dense sl3 or raw
    constants that are not antisymmetric."""
    alg = draw(st.one_of(st.sampled_from(COADJOINT_ALGEBRAS), raw_constants().map(raw_algebra)))
    coeffs = st.lists(RATIONAL_ENTRY, min_size=alg.dim, max_size=alg.dim)
    return alg.vector(draw(coeffs)), alg.dual(draw(coeffs))


@given(coadjoint_cases())
def test_coadjoint_matches_bracket_oracle(case):
    z, xi = case
    alg = z.algebra
    assert coadjoint(z, xi) == oracle_coadjoint(z, xi)
    columns = [oracle_coadjoint(z, alg.dual_basis_vector(m)).coeffs for m in range(alg.dim)]
    assert coadjoint_matrix(z) == OperatorMatrix.from_dense(list(zip(*columns)))


def test_dense_sl3_from_json_is_a_lie_algebra():
    alg = COADJOINT_ALGEBRAS[-1]
    assert antisymmetry_residual(alg) == 0 and jacobi_residual(alg) == 0
    assert any(c.denominator > 1 for plane in dense_structure(alg) for row in plane for c in row)


def test_jacobi_witness_is_smallest_of_tied_quadruples(so3):
    data = algebra_to_json(so3)
    data["structure_constants"] = [
        [i, j, k, "2" if (i, j, k) == (0, 1, 2) else v]
        for i, j, k, v in data["structure_constants"]
    ]
    bad = algebra_from_json(data)
    worst, witness, tied = oracle_jacobi(dense_structure(bad), bad.dim)
    assert (worst, witness) == (1, (0, 0, 1, 1))
    assert len(tied) >= 5
    assert jacobi_residual(bad, with_witness=True) == (F(1), (0, 0, 1, 1))


def test_pairing_examples(so3):
    e1 = so3.basis_vector(0)
    e3s = so3.dual_basis_vector(2)
    assert pairing(e3s, so3.basis_vector(2)) == 1
    assert pairing(e3s, e1) == 0
    xi = so3.dual([2, 3, 0])
    assert pairing(xi, so3.vector([1, 1, 0])) == 5


def test_coadjoint_examples(so3):
    e1 = so3.basis_vector(0)
    e3s = so3.dual_basis_vector(2)
    assert coadjoint(e1, e3s) == so3.dual([0, -1, 0])
    assert coadjoint(so3.zero_vector(), e3s) == so3.dual([0, 0, 0])
    ab = builtin_algebra("abelian(3)")
    assert coadjoint(ab.basis_vector(0), ab.dual([1, 2, 3])) == ab.dual([0, 0, 0])


def _dense(m):
    """An OperatorMatrix as a tuple of Fraction rows."""
    return tuple(tuple(row) for row in m.to_dense())


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


@pytest.mark.parametrize("name", ["so3", "sl2"])
def test_coadjoint_is_a_representation(name):
    alg = builtin_algebra(name)
    for i in range(alg.dim):
        for j in range(alg.dim):
            z, w = alg.basis_vector(i), alg.basis_vector(j)
            lhs = _dense(coadjoint_matrix(bracket(z, w)))
            cz, cw = _dense(coadjoint_matrix(z)), _dense(coadjoint_matrix(w))
            rhs = _mat_sub(_mat_mul(cz, cw), _mat_mul(cw, cz))
            assert lhs == rhs


def test_mismatched_algebras_raise(so3, sl2):
    with pytest.raises(MismatchError):
        bracket(so3.basis_vector(0), sl2.basis_vector(0))
    with pytest.raises(MismatchError):
        pairing(so3.dual_basis_vector(0), sl2.basis_vector(0))


def test_vectors_and_dual_vectors_do_not_mix(so3):
    v, xi = so3.vector([1, 2, 3]), so3.dual([1, 0, 0])
    for combine in (lambda: v + xi, lambda: v - xi, lambda: xi + v, lambda: xi - v):
        with pytest.raises(MismatchError, match="do not add or subtract"):
            combine()
    assert v + v == so3.vector([2, 4, 6]) and xi - xi == so3.dual([0, 0, 0])
    assert -v == v.scaled(-1) and type(-xi) is type(xi)


def test_negate_transpose_on_sl2(sl2):
    auto = builtin_automorphism(sl2, "negate_transpose")
    h, x, y = sl2.basis_vectors()
    assert auto.apply(h) == -h
    assert auto.apply(x) == -y
    assert auto.apply(y) == -x


def test_identity_automorphism(so3):
    auto = builtin_automorphism(so3, "identity")
    assert auto.matrix == auto.inverse == OperatorMatrix.identity(3)


def test_inverse_mirror_rejected_on_nonabelian(so3):
    with pytest.raises(ValidationError) as err:
        builtin_automorphism(so3, "inverse_mirror")
    # witness pair: negation reverses the first nonvanishing bracket
    assert err.value.witness is not None
    i, j, lhs, rhs = err.value.witness
    assert (i, j) == (0, 1)
    assert lhs == tuple(-v for v in rhs)


def test_bracket_check_runs_on_every_pair():
    # [b, a] = c but [a, b] = 0: constants that are not antisymmetric, on
    # which -I preserves every bracket [e_i, e_j] with i < j
    skewed = algebra_from_json({"name": "skewed", "dim": 3, "basis_labels": ["a", "b", "c"],
                                "structure_constants": [[1, 0, 2, "1"]]})
    with pytest.raises(ValidationError, match=r"A\[b,a\] = .* but \[Ab,Aa\]") as err:
        builtin_automorphism(skewed, "inverse_mirror")
    assert err.value.witness == (1, 0, (F(0), F(0), F(-1)), (F(0), F(0), F(1)))


def oracle_bracket_witness(alg, matrix):
    """The first pair (i, j) in row-major order with A[e_i, e_j] != [Ae_i, Ae_j],
    from bracket() on every pair, with both sides; None when there is none."""
    cols = [alg.vector(matrix.column(c)) for c in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = matrix.apply(bracket(alg.basis_vector(i), alg.basis_vector(j)).coeffs)
            rhs = bracket(cols[i], cols[j]).coeffs
            if lhs != rhs:
                return (i, j, lhs, rhs)
    return None


@st.composite
def candidate_automorphisms(draw):
    """(algebra, matrix): raw constants with no antisymmetry imposed, and an
    integer matrix that is often a signed permutation."""
    alg = raw_algebra(draw(raw_constants()))
    n = alg.dim
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
        dense = [[F(signs[c]) if perm[c] == r else F(0) for c in range(n)] for r in range(n)]
    else:
        dense = [[F(draw(st.integers(-2, 2))) for _ in range(n)] for _ in range(n)]
    return alg, OperatorMatrix.from_dense(dense)


@given(candidate_automorphisms())
def test_bracket_check_matches_the_pairwise_oracle(case):
    alg, matrix = case
    if matrix.solve(OperatorMatrix.identity(alg.dim)) is None:
        return
    witness = oracle_bracket_witness(alg, matrix)
    if witness is None:
        assert make_automorphism(alg, matrix, "candidate").matrix == matrix
    else:
        with pytest.raises(ValidationError) as err:
            make_automorphism(alg, matrix, "candidate")
        assert err.value.witness == witness


def test_inverse_mirror_fine_on_abelian():
    ab = builtin_algebra("abelian(3)")
    auto = builtin_automorphism(ab, "inverse_mirror")
    assert auto.matrix == auto.inverse == -OperatorMatrix.identity(3)


def test_automorphism_bracket_invariant_all_pairs(sl2):
    for kind in ("identity", "negate_transpose", "permutation:21"):
        auto = builtin_automorphism(sl2, kind)
        for i in range(sl2.dim):
            for j in range(sl2.dim):
                a, b = sl2.basis_vector(i), sl2.basis_vector(j)
                assert auto.apply(bracket(a, b)) == bracket(auto.apply(a), auto.apply(b))


def test_automorphism_inverse_exact(sl2):
    auto = builtin_automorphism(sl2, "negate_transpose")
    prod = _mat_mul(_dense(auto.matrix), _dense(auto.inverse))
    assert prod == tuple(
        tuple(F(1) if i == j else F(0) for j in range(3)) for i in range(3)
    )


def test_pairing_transport_compatibility(sl2):
    # <xi o A^-1, A x> = <xi, x>
    auto = builtin_automorphism(sl2, "negate_transpose")
    rng = random.Random(3)
    for _ in range(20):
        xi = sl2.dual([F(rng.randint(-4, 4)) for _ in range(3)])
        x = sl2.vector([F(rng.randint(-4, 4)) for _ in range(3)])
        xi_t = sl2.dual(
            tuple(
                sum(xi.coeffs[i] * auto.inverse.get(i, j) for i in range(3))
                for j in range(3)
            )
        )
        assert pairing(xi_t, auto.apply(x)) == pairing(xi, x)


@pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 24)])
def test_weyl_mirror_counts(n, count):
    mirrors = weyl_mirrors(n)
    assert len(mirrors) == count
    distinct = [m.matrix for i, m in enumerate(mirrors)
                if all(m.matrix != o.matrix for o in mirrors[:i])]
    assert len(distinct) == count


def test_weyl_mirrors_range_check():
    with pytest.raises(FormatError):
        weyl_mirrors(1)
    with pytest.raises(FormatError):
        weyl_mirrors(6)


def test_killing_gram_so3(so3):
    gram = _dense(killing_gram(so3))
    assert gram == tuple(
        tuple(F(-2) if i == j else F(0) for j in range(3)) for i in range(3)
    )


def test_killing_gram_invariant_under_automorphism(sl2):
    # B(Ax, Ay) = B(x, y) for every validated automorphism
    gram = _dense(killing_gram(sl2))
    for kind in ("negate_transpose", "permutation:21"):
        a = _dense(builtin_automorphism(sl2, kind).matrix)
        lhs = _mat_mul(_mat_mul(tuple(zip(*a)), gram), a)
        assert lhs == gram


def oracle_killing_gram(algebra):
    """B_ij = sum_mk c_im^k c_jk^m, a dense Fraction loop over every constant."""
    c, n = dense_structure(algebra), algebra.dim
    return tuple(tuple(sum((c[i][m][k] * c[j][k][m] for m in range(n) for k in range(n)), F(0))
                       for j in range(n)) for i in range(n))


@given(st.one_of(st.sampled_from(COADJOINT_ALGEBRAS), raw_constants().map(raw_algebra)))
def test_killing_gram_matches_dense_oracle(alg):
    gram = killing_gram(alg)
    assert _dense(gram) == oracle_killing_gram(alg)
    assert gram == OperatorMatrix.from_dense(oracle_killing_gram(alg))


@pytest.mark.parametrize(
    "matrix",
    [[["1", "0", "0"], ["0", "1"], ["0", "0", "1"]],
     [["1", "0", "0"], ["0", "1", "0"]],
     [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]],
     ["100", "010", "001"],
     "100010001",
     7],
    ids=["ragged", "short", "wide", "string-rows", "string", "int"],
)
def test_automorphism_json_of_the_wrong_shape_is_an_input_error(sl2, matrix):
    with pytest.raises((FormatError, MismatchError)):
        automorphism_from_json({"matrix": matrix, "label": "bad"}, sl2)


def test_algebra_json_round_trip(sl2):
    again = algebra_from_json(algebra_to_json(sl2))
    assert again.dim == sl2.dim
    assert dense_structure(again) == dense_structure(sl2)
    assert again.basis_labels == sl2.basis_labels


def assert_round_trip(alg):
    """algebra_to_json is byte-identical after a round trip, and the reloaded
    algebra is equal to the original and hashes equal, also when the triples
    are read in reverse order."""
    data = json.dumps(algebra_to_json(alg))
    for step in (1, -1):
        loaded = json.loads(data)
        loaded["structure_constants"] = loaded["structure_constants"][::step]
        again = algebra_from_json(loaded)
        assert json.dumps(algebra_to_json(again)) == data
        assert again == alg and hash(again) == hash(alg)


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_json_round_trip_is_exact(name):
    assert_round_trip(builtin_algebra(name))


@given(raw_constants())
def test_raw_json_round_trip_is_exact(c):
    alg = raw_algebra(c)
    assert_round_trip(alg)
    assert dense_structure(alg) == tuple(tuple(tuple(map(F, row)) for row in plane) for plane in c)


def test_algebra_json_rejects_a_repeated_entry_and_stores_no_zero(so3):
    # a zero constant is not stored, and a second entry for the same
    # (i, j, k) is an input error, not a replacement
    data = algebra_to_json(so3)
    constants = data["structure_constants"] + [[0, 0, 1, "0"], [2, 2, 2, "0"]]
    again = algebra_from_json({**data, "structure_constants": constants})
    assert again == so3 and again.integer_structure == so3.integer_structure
    for repeat in ([0, 1, 2, "5"], [0, 1, 2, "1"], [0, 0, 1, "0"]):
        with pytest.raises(FormatError, match="a second structure constant entry for"):
            algebra_from_json({**data, "structure_constants": constants + [repeat]})


def oracle_antisymmetry(c, n):
    """max |c[i][j][k] + c[j][i][k]| over every index triple, in Fractions."""
    return max(abs(c[i][j][k] + c[j][i][k])
               for i in range(n) for j in range(n) for k in range(n))


@given(raw_constants())
def test_antisymmetry_residual_matches_dense_oracle(c):
    assert antisymmetry_residual(raw_algebra(c)) == oracle_antisymmetry(c, len(c))


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_integer_structure_is_canonical(name):
    alg = builtin_algebra(name)
    den, nz = alg.integer_structure
    assert type(den) is int and den > 0
    assert len(nz) == alg.dim and all(len(row) == alg.dim for row in nz)
    nums = [v for row in nz for consts in row for _, v in consts]
    assert all(type(v) is int and v != 0 for v in nums)
    assert gcd(den, *nums) == 1
    for row in nz:
        for consts in row:
            keys = [k for k, _ in consts]
            assert keys == sorted(set(keys)) and all(0 <= k < alg.dim for k in keys)
    if alg.matrix_basis is not None:
        n, mats = alg.matrix_basis
        assert len(mats) == alg.dim
        for mat in mats:
            for (r, c), z in mat.items():
                assert 0 <= r < n and 0 <= c < n
                assert all(type(v) is int for v in z) and z != (0, 0)


def test_automorphism_json_round_trip(sl2):
    auto = builtin_automorphism(sl2, "negate_transpose")
    again = automorphism_from_json(automorphism_to_json(auto), sl2)
    assert again.matrix == auto.matrix and again.inverse == auto.inverse


def test_bad_json_rejected():
    with pytest.raises(FormatError):
        algebra_from_json({"name": "x", "dim": 2, "basis_labels": ["a"]})
    with pytest.raises(FormatError):
        builtin_algebra("e8")


def test_su2_negate_transpose_is_valid_automorphism():
    # the compact-form involution is realized as entrywise conjugation,
    # which on anti-Hermitian matrices equals X -> -X^T
    su2 = builtin_algebra("su2")
    auto = builtin_automorphism(su2, "negate_transpose")
    for i in range(su2.dim):
        for j in range(su2.dim):
            a, b = su2.basis_vector(i), su2.basis_vector(j)
            assert auto.apply(bracket(a, b)) == bracket(auto.apply(a), auto.apply(b))


def _gauss_mat_mul(a, b):
    n = len(a)
    return [
        [
            (
                sum((a[i][k][0] * b[k][j][0] - a[i][k][1] * b[k][j][1] for k in range(n)), F(0)),
                sum((a[i][k][0] * b[k][j][1] + a[i][k][1] * b[k][j][0] for k in range(n)), F(0)),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


@pytest.mark.parametrize("name", ["sl2", "sl3", "su2", "su3", "sl4"])
def test_structure_constants_rebuild_every_commutator(name):
    alg = builtin_algebra(name)
    mats, structure = dense_matrix_basis(alg), dense_structure(alg)
    n = len(mats[0])
    for i in range(alg.dim):
        for j in range(alg.dim):
            ab, ba = _gauss_mat_mul(mats[i], mats[j]), _gauss_mat_mul(mats[j], mats[i])
            lhs = [
                [(ab[r][c][0] - ba[r][c][0], ab[r][c][1] - ba[r][c][1]) for c in range(n)]
                for r in range(n)
            ]
            rhs = [
                [
                    (
                        sum((structure[i][j][k] * mats[k][r][c][0] for k in range(alg.dim)), F(0)),
                        sum((structure[i][j][k] * mats[k][r][c][1] for k in range(alg.dim)), F(0)),
                    )
                    for c in range(n)
                ]
                for r in range(n)
            ]
            assert lhs == rhs, (name, i, j)


def test_identity_is_outside_sl3_span():
    identity = {(r, r): (1, 0) for r in range(3)}
    with pytest.raises(ValidationError, match="does not lie in the algebra's span"):
        _coordinates(3, _sl_basis(3)[1], [identity])


@st.composite
def basis_combinations(draw):
    """(n, sparse basis, integer coefficient columns) on sl3, su3 or sl4."""
    alg = builtin_algebra(draw(st.sampled_from(["sl3", "su3", "sl4"])))
    columns = draw(st.lists(st.lists(st.integers(-6, 6), min_size=alg.dim, max_size=alg.dim),
                            min_size=1, max_size=4))
    return (*alg.matrix_basis, columns)


@given(basis_combinations())
def test_integer_combinations_decompose_back_to_their_coefficients(case):
    n, basis, columns = case
    mats = []
    for coeffs in columns:
        mat = {}
        for a, basis_mat in zip(coeffs, basis):
            for key, (re_, im) in basis_mat.items():
                old_re, old_im = mat.get(key, (0, 0))
                mat[key] = (old_re + a * re_, old_im + a * im)
        mats.append(mat)
    coords = _coordinates(n, basis, mats)
    assert coords.shape == (len(basis), len(columns))
    assert [coords.column(j) for j in range(len(columns))] == [tuple(map(F, c)) for c in columns]


# --- the Fraction construction of the builtins, kept as an oracle -------------
# Builtins are built on Gaussian integers; this is the construction they
# replaced: dense (re, im) Fraction matrices, Fraction commutators and one
# Fraction RREF of [basis | images].


def _oracle_elementary(n, i, j, re_=F(1), im=F(0)):
    return tuple(
        tuple((re_, im) if (r, c) == (i, j) else (F(0), F(0)) for c in range(n)) for r in range(n)
    )


def _oracle_add(a, b):
    return tuple(tuple((x[0] + y[0], x[1] + y[1]) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _oracle_basis(name):
    n = int(name[2:])
    labels, mats = [], []
    for k in range(n - 1):
        if name.startswith("sl"):
            labels.append(f"H{k + 1}")
            mats.append(_oracle_add(_oracle_elementary(n, k, k),
                                    _oracle_elementary(n, k + 1, k + 1, F(-1))))
        else:
            labels.append(f"iH{k + 1}")
            mats.append(_oracle_add(_oracle_elementary(n, k, k, F(0), F(1)),
                                    _oracle_elementary(n, k + 1, k + 1, F(0), F(-1))))
    if name.startswith("sl"):
        for i, j in itertools.permutations(range(n), 2):
            labels.append(f"E{i + 1}{j + 1}")
            mats.append(_oracle_elementary(n, i, j))
    else:
        for i, j in itertools.combinations(range(n), 2):
            labels.append(f"A{i + 1}{j + 1}")
            mats.append(_oracle_add(_oracle_elementary(n, i, j),
                                    _oracle_elementary(n, j, i, F(-1))))
            labels.append(f"S{i + 1}{j + 1}")
            mats.append(_oracle_add(_oracle_elementary(n, i, j, F(0), F(1)),
                                    _oracle_elementary(n, j, i, F(0), F(1))))
    return (("h", "x", "y") if name == "sl2" else tuple(labels)), tuple(mats)


def _oracle_flatten(mat):
    return [part for row in mat for z in row for part in z]


def _oracle_decompose(mats, images):
    dim = len(mats)
    reduced, pivots = oracle_rref(list(zip(*([_oracle_flatten(m) for m in mats]
                                      + [_oracle_flatten(m) for m in images]))))
    assert pivots == list(range(dim))
    return [tuple(reduced[p][dim + j] for p in range(dim)) for j in range(len(images))]


def _oracle_structure(mats):
    dim = len(mats)
    structure = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    pairs = list(itertools.combinations(range(dim), 2))
    commutators = []
    for i, j in pairs:
        ab, ba = _gauss_mat_mul(mats[i], mats[j]), _gauss_mat_mul(mats[j], mats[i])
        commutators.append([[(x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rb)]
                            for ra, rb in zip(ab, ba)])
    for (i, j), sol in zip(pairs, _oracle_decompose(mats, commutators)):
        for k, c in enumerate(sol):
            structure[i][j][k] = c
            structure[j][i][k] = -c
    return tuple(tuple(tuple(row) for row in plane) for plane in structure)


def _oracle_automorphism(mats, mat_map):
    cols = _oracle_decompose(mats, [mat_map(m) for m in mats])
    return tuple(tuple(col[r] for col in cols) for r in range(len(mats)))


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "su2", "su3", "su4"])
def test_integer_builtin_matches_the_fraction_construction(name):
    labels, mats = _oracle_basis(name)
    alg = builtin_algebra(name)
    assert alg.basis_labels == labels
    assert dense_matrix_basis(alg) == mats
    assert dense_structure(alg) == _oracle_structure(mats)


@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "su2", "su3", "su4"])
def test_integer_negate_transpose_matches_the_fraction_construction(name):
    _, mats = _oracle_basis(name)
    n = len(mats[0])

    def neg_transpose(mat):
        return tuple(tuple((-mat[j][i][0], -mat[j][i][1]) for j in range(n)) for i in range(n))

    auto = builtin_automorphism(builtin_algebra(name), "negate_transpose")
    assert _dense(auto.matrix) == _oracle_automorphism(mats, neg_transpose)


def test_integer_weyl_mirrors_match_the_fraction_construction():
    _, mats = _oracle_basis("sl3")
    autos = weyl_mirrors(3)
    assert len(autos) == 6
    for auto in autos:
        perm = [int(d) - 1 for d in auto.label.split(":")[1]]

        def conjugate(mat):
            moved = {(perm[a], perm[b]): z for a, row in enumerate(mat) for b, z in enumerate(row)}
            return tuple(tuple(moved[(i, j)] for j in range(3)) for i in range(3))

        assert _dense(auto.matrix) == _oracle_automorphism(mats, conjugate), auto.label
