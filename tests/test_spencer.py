import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spencerbench.mirror as mirror_mod
from oracles import algebra_from_dense, dense_structure, oracle_delta_matrix, oracle_inverse
from spencerbench.cli import main
from spencerbench.errors import DegenerateInputError, MismatchError
from spencerbench.liealg import bracket, builtin_algebra, pairing
from spencerbench.linalg import OperatorMatrix
from spencerbench.spencer import (
    Identification,
    LeibnizConvention,
    _generator_table,
    _leibniz_tables,
    _reconstruct,
    classical_prolongation,
    delta_lambda,
    delta_lambda_generator,
    delta_matrix,
    jacobi_form_generator,
    nilpotency_report,
    signed_leibniz_welldefinedness,
)
from spencerbench.symtensor import (
    SymTensor,
    basis_tensor,
    eval_tensor,
    from_vector,
    multisets,
    sym_product,
)

F = Fraction
SO3 = builtin_algebra("so3")
SL2 = builtin_algebra("sl2")
SL3 = builtin_algebra("sl3")


# --- independent oracle helpers (coded against raw structure constants) ----


def oracle_bracket(alg, x, y):
    c = dense_structure(alg)
    out = [F(0)] * alg.dim
    for k in range(alg.dim):
        acc = F(0)
        for i in range(alg.dim):
            for j in range(alg.dim):
                acc += x[i] * y[j] * c[i][j][k]
        out[k] = acc
    return out


def oracle_value(alg, lam, w1, w2, v):
    """(1/2)(<lam,[w1,[w2,v]]> + <lam,[w2,[w1,v]]>) from raw constants."""
    a = oracle_bracket(alg, w1, oracle_bracket(alg, w2, v))
    b = oracle_bracket(alg, w2, oracle_bracket(alg, w1, v))
    return (
        sum(l * c for l, c in zip(lam, a)) + sum(l * c for l, c in zip(lam, b))
    ) / 2


def unit(alg, i):
    return [F(1) if j == i else F(0) for j in range(alg.dim)]


def rand_lambda(rng, alg):
    while True:
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(alg.dim)]
        if any(coeffs):
            return alg.dual(coeffs)


# --- classical prolongation -------------------------------------------------


def test_classical_prolongation_so3_e3_vanishes():
    out = classical_prolongation(from_vector(SO3.basis_vector(2)))
    assert out.is_zero()


def test_classical_prolongation_abelian__zero():
    ab = builtin_algebra("abelian(3)")
    s = basis_tensor(ab, (0, 1))
    assert classical_prolongation(s).is_zero()


def test_classical_prolongation_sl2_x():
    # h . [h,x] + x . [x,x] + y . [y,x] = 2 h.x - h.y
    out = classical_prolongation(from_vector(SL2.basis_vector(1)))
    assert out.coeffs == {(0, 1): F(2), (0, 2): F(-1)}


def test_classical_prolongation_linear_degree_raising():
    rng = random.Random(4)
    s = basis_tensor(SO3, (0, 2))
    t = basis_tensor(SO3, (1, 1))
    a, b = F(3), F(-2)
    lhs = classical_prolongation(s.scaled(a) + t.scaled(b))
    rhs = classical_prolongation(s).scaled(a) + classical_prolongation(t).scaled(b)
    assert lhs == rhs
    assert lhs.degree == 3
    assert classical_prolongation(basis_tensor(SO3, ())).is_zero()


def oracle_classical_prolongation(s):
    """sum_i sum_j e_i . (s with [e_i, -] applied to the j-th factor), by
    brackets and SymTensor products, one basis multiset at a time."""
    algebra = s.algebra
    out = SymTensor(algebra, s.degree + 1, {})
    basis = algebra.basis_vectors()
    for key, coeff in s.coeffs.items():
        for i, e_i in enumerate(basis):
            for j in range(len(key)):
                replaced = bracket(e_i, basis[key[j]])
                if replaced.is_zero():
                    continue
                rest = SymTensor(algebra, s.degree - 1, {key[:j] + key[j + 1:]: coeff})
                pair = {}
                for m, c in enumerate(replaced.coeffs):
                    if c:
                        ms = tuple(sorted((i, m)))
                        pair[ms] = pair.get(ms, F(0)) + c
                factor = SymTensor(algebra, 2, {k: v for k, v in pair.items() if v})
                out = out + sym_product(rest, factor)
    return out


@st.composite
def raw_algebras(draw):
    """Rational constants of dim 1-4 with no antisymmetry imposed."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=5))
    return algebra_from_dense("raw", [[draw(st.lists(entry, min_size=n, max_size=n))
                                       for _ in range(n)] for _ in range(n)])


@st.composite
def prolongation_inputs(draw):
    alg = draw(st.one_of(st.sampled_from([SO3, SL3, builtin_algebra("su3")]), raw_algebras()))
    degree = draw(st.integers(0, 3))
    coeffs = draw(st.dictionaries(
        st.sampled_from(multisets(alg.dim, degree)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda f: f != 0),
        max_size=4,
    ))
    return SymTensor(alg, degree, coeffs)


@settings(max_examples=60, deadline=None)
@given(prolongation_inputs())
def test_classical_prolongation_matches_bracket_oracle(s):
    assert classical_prolongation(s) == oracle_classical_prolongation(s)


# --- generator rule ---------------------------------------------------------


def test_generator_frozen_values_so3():
    lam = SO3.dual_basis_vector(2)
    d = delta_lambda_generator(lam, SO3.basis_vector(2))
    assert d.coeffs == {(0, 0): F(-1), (1, 1): F(-1)}
    e1, e2 = SO3.basis_vector(0), SO3.basis_vector(1)
    assert eval_tensor(d, [e1, e1]) == -1
    assert eval_tensor(d, [e1, e2]) == 0


def test_generator_eval_matches_oracle_everywhere():
    rng = random.Random(21)
    for alg in (SO3, SL2):
        for _ in range(10):
            lam = rand_lambda(rng, alg)
            for v_i in range(alg.dim):
                d = delta_lambda_generator(lam, alg.basis_vector(v_i))
                for i in range(alg.dim):
                    for j in range(alg.dim):
                        got = eval_tensor(
                            d, [alg.basis_vector(i), alg.basis_vector(j)]
                        )
                        want = oracle_value(
                            alg, lam.coeffs, unit(alg, i), unit(alg, j), unit(alg, v_i)
                        )
                        assert got == want


def test_generator_linear_in_lambda():
    rng = random.Random(22)
    lam1, lam2 = rand_lambda(rng, SO3), rand_lambda(rng, SO3)
    v = SO3.vector([1, -2, 3])
    lhs = delta_lambda_generator(lam1.scaled(2) + lam2.scaled(-3), v)
    rhs = delta_lambda_generator(lam1, v).scaled(2) + delta_lambda_generator(lam2, v).scaled(-3)
    assert lhs == rhs
    assert delta_lambda_generator(SO3.dual([0, 0, 0]), v).is_zero()


def test_generator_output_symmetric():
    rng = random.Random(23)
    for alg in (SO3, SL2, SL3):
        lam = rand_lambda(rng, alg)
        for v in alg.basis_vectors():
            d = delta_lambda_generator(lam, v)
            for i in range(alg.dim):
                for j in range(alg.dim):
                    a = eval_tensor(d, [alg.basis_vector(i), alg.basis_vector(j)])
                    b = eval_tensor(d, [alg.basis_vector(j), alg.basis_vector(i)])
                    assert a == b


def test_jacobi_form_frozen_values():
    lam = SO3.dual_basis_vector(2)
    d = jacobi_form_generator(lam, SO3.basis_vector(2))
    e1 = SO3.basis_vector(0)
    assert eval_tensor(d, [e1, e1]) == -1
    assert jacobi_form_generator(SO3.dual([0, 0, 0]), e1).is_zero()


@pytest.mark.parametrize("alg", [SO3, SL2, SL3], ids=lambda a: a.name)
def test_jacobi_form_equals_constructive(alg):
    rng = random.Random(24)
    lams = [alg.dual_basis_vector(i) for i in range(alg.dim)]
    lams += [rand_lambda(rng, alg) for _ in range(5)]
    for lam in lams:
        for v in alg.basis_vectors():
            assert delta_lambda_generator(lam, v) == jacobi_form_generator(lam, v)


def bracket_generator_values(lam, v):
    """The generator rule as double brackets, one basis pair at a time."""
    basis = v.algebra.basis_vectors()
    values = {}
    for i in range(v.algebra.dim):
        for j in range(i, v.algebra.dim):
            w1, w2 = basis[i], basis[j]
            values[(i, j)] = (
                pairing(lam, bracket(w1, bracket(w2, v)))
                + pairing(lam, bracket(w2, bracket(w1, v)))
            ) / 2
    return values


def dense_basis_change(alg, rng):
    """alg in the basis f_i = sum_j A[j][i] e_j for a dense rational A = L U."""
    n = alg.dim
    low = [[F(1) if r == k else F(rng.choice([-2, -1, 1, 2])) if r > k else F(0)
            for k in range(n)] for r in range(n)]
    up = [[F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3])) if r == k
           else F(rng.choice([-1, 1])) if r < k else F(0) for k in range(n)] for r in range(n)]
    a = [[sum(low[r][m] * up[m][k] for m in range(n)) for k in range(n)] for r in range(n)]
    ainv = oracle_inverse(a)
    c = dense_structure(alg)
    structure = []
    for i in range(n):
        plane = []
        for j in range(n):
            bra = [sum(a[p][i] * a[q][j] * c[p][q][l] for p in range(n) for q in range(n))
                   for l in range(n)]
            plane.append(tuple(sum(ainv[k][l] * bra[l] for l in range(n)) for k in range(n)))
        structure.append(tuple(plane))
    return algebra_from_dense(alg.name + "-dense", structure,
                              tuple(f"f{i + 1}" for i in range(n)))


SL3_DENSE = dense_basis_change(SL3, random.Random(31))


@pytest.mark.parametrize("ident", list(Identification), ids=lambda i: i.value)
@pytest.mark.parametrize(
    "alg", [SO3, SL2, SL3, builtin_algebra("su3"), SL3_DENSE], ids=lambda a: a.name
)
def test_generator_table_matches_bracket_oracle(alg, ident):
    rng = random.Random(32)
    int_lam = alg.dual([rng.randint(-9, 9) for _ in range(alg.dim)])
    pairs = multisets(alg.dim, 2)
    for lam in (int_lam, rand_lambda(rng, alg)):
        table = _generator_table(lam, ident)
        assert isinstance(table, OperatorMatrix) and table.shape == (len(pairs), alg.dim)
        assert table == delta_matrix(lam, 1, identification=ident)
        for m in range(alg.dim):
            oracle = _reconstruct(alg, bracket_generator_values(lam, alg.basis_vector(m)), ident)
            assert {pairs[r]: v for (r, c), v in table.entries.items() if c == m} == oracle.coeffs
            assert delta_lambda_generator(lam, alg.basis_vector(m), ident) == oracle


# --- Leibniz extensions -----------------------------------------------------


def test_degree_one_conventions_agree():
    lam = SO3.dual_basis_vector(2)
    s = from_vector(SO3.vector([1, 2, 3]))
    for conv in LeibnizConvention:
        assert delta_lambda(lam, s, conv) == delta_lambda_generator(
            lam, SO3.vector([1, 2, 3])
        )


def test_unsigned_on_square_factor():
    lam = SO3.dual_basis_vector(2)
    s = basis_tensor(SO3, (2, 2))  # e3 . e3
    expected = sym_product(
        delta_lambda_generator(lam, SO3.basis_vector(2)), basis_tensor(SO3, (2,))
    ).scaled(2)
    assert delta_lambda(lam, s, LeibnizConvention.UNSIGNED) == expected


def test_signed_on_square_factor_cancels():
    lam = SO3.dual_basis_vector(2)
    s = basis_tensor(SO3, (2, 2))
    assert delta_lambda(lam, s, LeibnizConvention.PAPER_SIGNED).is_zero()


def test_unsigned_is_a_derivation():
    rng = random.Random(25)
    lam = rand_lambda(rng, SO3)
    for _ in range(20):
        keys1 = multisets(3, 1)
        keys2 = multisets(3, 2)
        s1 = basis_tensor(SO3, rng.choice(keys1)).scaled(F(rng.randint(1, 5)))
        s2 = basis_tensor(SO3, rng.choice(keys2)).scaled(F(rng.randint(1, 5)))
        lhs = delta_lambda(lam, sym_product(s1, s2))
        rhs = sym_product(delta_lambda(lam, s1), s2) + sym_product(
            s1, delta_lambda(lam, s2)
        )
        assert lhs == rhs


def test_degree_zero_maps_to_zero():
    lam = SO3.dual_basis_vector(2)
    assert delta_lambda(lam, basis_tensor(SO3, ())).is_zero()


# --- matrices ---------------------------------------------------------------


def test_delta_matrix_k0_zero():
    lam = SO3.dual_basis_vector(2)
    m = delta_matrix(lam, 0)
    assert m.shape == (3, 1) and m.is_zero()


def test_delta_matrix_columns_match_generator():
    lam = SO3.dual_basis_vector(2)
    m = delta_matrix(lam, 1)
    assert m.shape == (6, 3)
    sets2 = multisets(3, 2)
    for c in range(3):
        col = m.column(c)
        d = delta_lambda_generator(lam, SO3.basis_vector(c))
        for r, key in enumerate(sets2):
            assert col[r] == d.coeffs.get(key, F(0))


def oracle_delta_unsigned(gens, seq):
    """Even-derivation extension by SymTensor products, one factor at a time."""
    alg = gens[0].algebra
    out = SymTensor(alg, len(seq) + 1, {})
    for t in range(len(seq)):
        term = gens[seq[t]]
        for i in seq[:t] + seq[t + 1 :]:
            term = sym_product(term, basis_tensor(alg, (i,)))
        out = out + term
    return out


def oracle_delta_signed(gens, seq):
    """Left-to-right signed splitting by SymTensor products."""
    alg = gens[0].algebra
    if len(seq) == 1:
        return gens[seq[0]]
    head, rest = seq[0], seq[1:]
    first = sym_product(gens[head], basis_tensor(alg, tuple(sorted(rest))))
    second = sym_product(basis_tensor(alg, (head,)), oracle_delta_signed(gens, rest))
    return first - second


ORACLES = {
    LeibnizConvention.UNSIGNED: oracle_delta_unsigned,
    LeibnizConvention.PAPER_SIGNED: oracle_delta_signed,
}


@pytest.mark.parametrize("conv", list(LeibnizConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("alg", [SO3, SL2, SL3], ids=lambda a: a.name)
def test_delta_matrix_columns_match_symtensor_oracle(alg, conv):
    rng = random.Random(29)
    lam = rand_lambda(rng, alg)
    gens = [delta_lambda_generator(lam, v) for v in alg.basis_vectors()]
    for k in (1, 2, 3):
        m = delta_matrix(lam, k, conv)
        rows = multisets(alg.dim, k + 1)
        cols = {}
        for (r, c), v in m.entries.items():
            cols.setdefault(c, {})[rows[r]] = v
        domain = multisets(alg.dim, k)
        for c, key in enumerate(domain):
            assert cols.get(c, {}) == ORACLES[conv](gens, key).coeffs
        # delta_lambda on a random tensor is sum_c coeff_c * column_c
        coeffs = {c: F(rng.choice([-5, -2, 1, 3]), rng.randint(1, 4))
                  for c in rng.sample(range(len(domain)), min(4, len(domain)))}
        s = SymTensor(alg, k, {domain[c]: v for c, v in coeffs.items()})
        want = SymTensor(alg, k + 1, {})
        for c, v in coeffs.items():
            want = want + SymTensor(alg, k + 1, cols.get(c, {})).scaled(v)
        assert delta_lambda(lam, s, conv) == want


def test_delta_matrix_linear_in_lambda():
    lam = SO3.dual_basis_vector(2)
    for k in (0, 1, 2):
        assert delta_matrix(lam.scaled(2), k) == delta_matrix(lam, k).scaled(2)


def test_sign_flip_identity_all_degrees_both_conventions():
    rng = random.Random(26)
    for alg in (SO3, SL2):
        lam = rand_lambda(rng, alg)
        for conv in LeibnizConvention:
            for k in range(5):
                assert delta_matrix(-lam, k, conv) == delta_matrix(lam, k, conv).scaled(-1)


# --- nilpotency audit vs dense oracle ---------------------------------------


def dense_product(a, b):
    """Independent dense matrix product (row lists of Fractions)."""
    n, m, p = a.rows, b.rows, b.cols
    da, db = a.to_dense(), b.to_dense()
    return [
        [sum(da[i][k] * db[k][j] for k in range(m)) for j in range(p)] for i in range(n)
    ]


@pytest.mark.parametrize("conv", list(LeibnizConvention), ids=lambda c: c.value)
def test_nilpotency_report_matches_dense_oracle(conv):
    rng = random.Random(27)
    for alg, K in ((SO3, 4), (SL2, 4), (SL3, 3)):
        lam = rand_lambda(rng, alg)
        report = nilpotency_report(lam, K, conv)
        mats = [delta_matrix(lam, k, conv) for k in range(K)]
        for idx, (k, residual) in enumerate(report.residuals):
            oracle = dense_product(mats[k + 1], mats[k])
            assert report.composites[idx].to_dense() == oracle
            flat = [abs(v) for row in oracle for v in row]
            assert residual == (max(flat) if flat else F(0))


def test_nilpotency_trivial_cases():
    assert nilpotency_report(SO3.dual([0, 0, 0]), 4).holds
    ab = builtin_algebra("abelian(3)")
    assert nilpotency_report(ab.dual([1, 2, 3]), 4).holds


def test_nilpotency_measured_failure_so3():
    # measured outcome for the cyclic algebra with lam = e3*: the coupled
    # operator does not square to zero under either convention
    lam = SO3.dual_basis_vector(2)
    for conv in LeibnizConvention:
        rep = nilpotency_report(lam, 4, conv)
        assert not rep.holds
        assert rep.witness is not None


def test_nilpotency_requires_k2():
    with pytest.raises(MismatchError):
        nilpotency_report(SO3.dual_basis_vector(2), 1)


# --- signed-rule ordering audit ----------------------------------------------


def analytic_cross_difference(lam, a, b):
    """2 (delta(e_a) . e_b  -  e_a . delta(e_b)), the two-ordering gap."""
    da = delta_lambda_generator(lam, SO3.basis_vector(a))
    db = delta_lambda_generator(lam, SO3.basis_vector(b))
    return (
        sym_product(da, basis_tensor(SO3, (b,)))
        - sym_product(basis_tensor(SO3, (a,)), db)
    ).scaled(2)


def test_ordering_witnesses_match_analytic_formula():
    lam = SO3.dual_basis_vector(2)
    witnesses = {w.multiset for w in signed_leibniz_welldefinedness(lam, 2)}
    expected = set()
    for a, b in multisets(3, 2):
        if a == b:
            continue  # identical orderings, no gap possible
        if not analytic_cross_difference(lam, a, b).is_zero():
            expected.add((a, b))
    assert witnesses == expected
    # the cross terms cancel for (e1, e2) even though both factors have
    # nonzero delta: delta(e1).e2 = e1.e2.e3 = e1.delta(e2)
    assert (0, 1) not in witnesses
    assert witnesses == {(0, 2), (1, 2)}


def test_ordering_audit_trivial_cases():
    assert signed_leibniz_welldefinedness(SO3.dual([0, 0, 0]), 2) == []
    ab = builtin_algebra("abelian(3)")
    assert signed_leibniz_welldefinedness(ab.dual([1, 1, 1]), 3) == []


# --- identification modes ----------------------------------------------------


def test_killing_mode_rescales_so3_generators():
    # the cyclic algebra's Killing Gram is -2 I, so the two reconstructions
    # differ by the factor 1/4 in degree 2
    lam = SO3.dual_basis_vector(2)
    v = SO3.basis_vector(2)
    basis_t = delta_lambda_generator(lam, v, Identification.BASIS)
    killing_t = delta_lambda_generator(lam, v, Identification.KILLING)
    assert killing_t == basis_t.scaled(F(1, 4))


def test_killing_mode_rejects_abelian():
    ab = builtin_algebra("abelian(3)")
    with pytest.raises(DegenerateInputError):
        delta_lambda_generator(ab.dual([1, 0, 0]), ab.basis_vector(0), Identification.KILLING)


def test_float_stress_matches_rational(monkeypatch=None):
    # float shadow of the operator matrix entries stays within 1e-10
    rng = random.Random(99)
    sl4 = builtin_algebra("sl4")
    lam = rand_lambda(rng, sl4)
    m = delta_matrix(lam, 1)
    scale = F(rng.randint(2, 7), rng.randint(2, 7))
    m2 = delta_matrix(lam.scaled(scale), 1)
    for (r, c), v in m2.entries.items():
        assert abs(float(v) - float(scale) * float(m.get(r, c))) < 1e-10


def test_delta_matrix_fully_linear_in_lambda():
    # general linear combinations, both conventions, degrees <= 4
    rng = random.Random(28)
    lam1, lam2 = rand_lambda(rng, SO3), rand_lambda(rng, SO3)
    a, b = F(3, 2), F(-5, 7)
    combo = lam1.scaled(a) + lam2.scaled(b)
    for conv in LeibnizConvention:
        for k in range(5):
            lhs = delta_matrix(combo, k, conv)
            rhs = delta_matrix(lam1, k, conv).scaled(a) + delta_matrix(lam2, k, conv).scaled(b)
            assert lhs == rhs


# --- delta assembly from the Leibniz index tables ---------------------------

# the deltas of the operators ladder: sl3/su3 up to degree 3, the rank-1
# algebras and an abelian one a degree further
DELTA_ALGEBRAS = {"so3": 4, "sl2": 4, "su2": 4, "abelian(3)": 4, "sl3": 3, "su3": 3}


@st.composite
def delta_inputs(draw):
    name = draw(st.sampled_from(sorted(DELTA_ALGEBRAS)))
    alg = builtin_algebra(name)
    k = draw(st.integers(0, DELTA_ALGEBRAS[name]))
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    lam = alg.dual(draw(st.lists(coeff, min_size=alg.dim, max_size=alg.dim)))
    return lam, k, draw(st.sampled_from(list(LeibnizConvention))), draw(
        st.sampled_from(list(Identification)))


@settings(max_examples=80, deadline=None)
@given(delta_inputs())
def test_delta_matrix_matches_the_term_by_term_oracle(inputs):
    lam, k, conv, ident = inputs
    try:
        expected = oracle_delta_matrix(lam, k, conv, ident)
    except DegenerateInputError:
        # the killing identification is defined for semisimple algebras only
        assert ident is Identification.KILLING and k > 0
        with pytest.raises(DegenerateInputError):
            delta_matrix(lam, k, conv, ident)
        return
    assert delta_matrix(lam, k, conv, ident) == expected


def test_mirror_command_fills_each_leibniz_table_once(capsys):
    """delta^lam, delta^{lam o A^-1} and delta^{lam o A} share one table per
    degree: 9 deltas at K = 4, 3 tables."""
    for cached in (_leibniz_tables, mirror_mod._mapped_delta, mirror_mod._transported_delta):
        cached.cache_clear()
    code = main(["mirror", "--builtin", "sl3", "--lambda=1,2,3,4,5,6,7,8", "--K", "4",
                 "--transform", "weyl:231"])
    capsys.readouterr()
    assert code == 0
    info = _leibniz_tables.cache_info()
    assert (info.hits, info.misses) == (6, 3)
