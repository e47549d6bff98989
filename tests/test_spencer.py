import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spencerbench.spencer as spencer_mod
from oracles import (
    algebra_from_dense,
    apply_delta_matrix,
    dense_structure,
    oracle_delta_matrix,
    oracle_eval,
    oracle_inverse,
    oracle_jacobi_generator,
    oracle_ordering_witnesses,
    oracle_reconstruct,
    oracle_sum,
    oracle_sym_product,
)
from spencerbench.cli import main
from spencerbench.errors import DegenerateInputError, MismatchError
from spencerbench.liealg import bracket, builtin_algebra, pairing
from spencerbench.linalg import OperatorMatrix
from spencerbench.spencer import (
    Identification,
    LeibnizConvention,
    _generator_table,
    _leibniz_tables,
    delta_matrix,
    nilpotency_report,
    signed_leibniz_welldefinedness,
)
from spencerbench.symtensor import multisets, sym_dim

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


def generator(lam, m, identification=Identification.BASIS):
    """delta^lam(e_m): column m of delta_matrix(lam, 1)."""
    return apply_delta_matrix(lam, {(m,): F(1)}, identification=identification)


# --- generator rule ---------------------------------------------------------


def test_generator_frozen_values_so3():
    lam = SO3.dual_basis_vector(2)
    d = generator(lam, 2)
    assert d == {(0, 0): F(-1), (1, 1): F(-1)}
    e1, e2 = SO3.basis_vector(0), SO3.basis_vector(1)
    assert oracle_eval(d, [e1, e1]) == -1
    assert oracle_eval(d, [e1, e2]) == 0


def test_generator_eval_matches_oracle_everywhere():
    rng = random.Random(21)
    for alg in (SO3, SL2):
        for _ in range(10):
            lam = rand_lambda(rng, alg)
            for v_i in range(alg.dim):
                d = generator(lam, v_i)
                for i in range(alg.dim):
                    for j in range(alg.dim):
                        got = oracle_eval(d, [alg.basis_vector(i), alg.basis_vector(j)])
                        want = oracle_value(
                            alg, lam.coeffs, unit(alg, i), unit(alg, j), unit(alg, v_i)
                        )
                        assert got == want


def test_generator_linear_in_lambda():
    rng = random.Random(22)
    lam1, lam2 = rand_lambda(rng, SO3), rand_lambda(rng, SO3)
    v = {(0,): F(1), (1,): F(-2), (2,): F(3)}
    lhs = apply_delta_matrix(lam1.scaled(2) + lam2.scaled(-3), v)
    rhs = oracle_sum((2, apply_delta_matrix(lam1, v)), (-3, apply_delta_matrix(lam2, v)))
    assert lhs == rhs
    assert apply_delta_matrix(SO3.dual([0, 0, 0]), v) == {}


def test_jacobi_form_frozen_values():
    lam = SO3.dual_basis_vector(2)
    d = oracle_jacobi_generator(lam, SO3.basis_vector(2))
    e1 = SO3.basis_vector(0)
    assert oracle_eval(d, [e1, e1]) == -1
    assert oracle_jacobi_generator(SO3.dual([0, 0, 0]), e1) == {}


@pytest.mark.parametrize("alg", [SO3, SL2, SL3], ids=lambda a: a.name)
def test_jacobi_form_equals_constructive(alg):
    rng = random.Random(24)
    lams = [alg.dual_basis_vector(i) for i in range(alg.dim)]
    lams += [rand_lambda(rng, alg) for _ in range(5)]
    for lam in lams:
        for m, v in enumerate(alg.basis_vectors()):
            assert generator(lam, m) == oracle_jacobi_generator(lam, v)


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
            oracle = oracle_reconstruct(
                alg, bracket_generator_values(lam, alg.basis_vector(m)), ident)
            assert {pairs[r]: v for (r, c), v in table.entries.items() if c == m} == oracle
            assert generator(lam, m, ident) == oracle


# --- Leibniz extensions -----------------------------------------------------


def test_degree_one_conventions_agree():
    lam = SO3.dual_basis_vector(2)
    s = {(0,): F(1), (1,): F(2), (2,): F(3)}
    for conv in LeibnizConvention:
        assert apply_delta_matrix(lam, s, conv) == oracle_jacobi_generator(
            lam, SO3.vector([1, 2, 3])
        )


def test_unsigned_on_square_factor():
    lam = SO3.dual_basis_vector(2)
    s = {(2, 2): F(1)}  # e3 . e3
    expected = oracle_sum((2, oracle_sym_product(generator(lam, 2), {(2,): F(1)})))
    assert apply_delta_matrix(lam, s, LeibnizConvention.UNSIGNED) == expected


def test_signed_on_square_factor_cancels():
    lam = SO3.dual_basis_vector(2)
    s = {(2, 2): F(1)}
    assert apply_delta_matrix(lam, s, LeibnizConvention.PAPER_SIGNED) == {}


# the derivation property on the operators ladder's algebras; coefficients
# p/q are built from two integers, since st.fractions draws about ten times
# slower and this property runs 2000 times in CI
DERIVATION_ALGEBRAS = [builtin_algebra(name) for name in ("so3", "sl2", "sl3", "su3")]
COEFF = st.builds(F, st.integers(-6, 6), st.integers(1, 7))
FACTORS = {(alg, d): st.dictionaries(st.sampled_from(multisets(alg.dim, d)), COEFF.filter(bool),
                                     min_size=1, max_size=3)
           for alg in DERIVATION_ALGEBRAS for d in (1, 2)}


@st.composite
def derivation_inputs(draw):
    alg = draw(st.sampled_from(DERIVATION_ALGEBRAS))
    lam = alg.dual(draw(st.lists(COEFF, min_size=alg.dim, max_size=alg.dim)))
    d1, d2 = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
    return lam, draw(FACTORS[alg, d1]), draw(FACTORS[alg, d2])


@settings(deadline=None)
@given(derivation_inputs())
def test_unsigned_is_a_derivation(inputs):
    lam, s1, s2 = inputs
    lhs = apply_delta_matrix(lam, oracle_sym_product(s1, s2))
    rhs = oracle_sum((1, oracle_sym_product(apply_delta_matrix(lam, s1), s2)),
                     (1, oracle_sym_product(s1, apply_delta_matrix(lam, s2))))
    assert lhs == rhs


def test_degree_zero_maps_to_zero():
    lam = SO3.dual_basis_vector(2)
    assert apply_delta_matrix(lam, {(): F(1)}) == {}


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
        d = oracle_jacobi_generator(lam, SO3.basis_vector(c))
        for r, key in enumerate(sets2):
            assert col[r] == d.get(key, F(0))


def oracle_delta_unsigned(gens, seq):
    """Even-derivation extension by symmetric products, one factor at a time."""
    terms = []
    for t in range(len(seq)):
        term = gens[seq[t]]
        for i in seq[:t] + seq[t + 1 :]:
            term = oracle_sym_product(term, {(i,): F(1)})
        terms.append((1, term))
    return oracle_sum(*terms)


def oracle_delta_signed(gens, seq):
    """Left-to-right signed splitting by symmetric products."""
    if len(seq) == 1:
        return gens[seq[0]]
    head, rest = seq[0], seq[1:]
    first = oracle_sym_product(gens[head], {tuple(sorted(rest)): F(1)})
    second = oracle_sym_product({(head,): F(1)}, oracle_delta_signed(gens, rest))
    return oracle_sum((1, first), (-1, second))


ORACLES = {
    LeibnizConvention.UNSIGNED: oracle_delta_unsigned,
    LeibnizConvention.PAPER_SIGNED: oracle_delta_signed,
}


@pytest.mark.parametrize("conv", list(LeibnizConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("alg", [SO3, SL2, SL3], ids=lambda a: a.name)
def test_delta_matrix_columns_match_symtensor_oracle(alg, conv):
    rng = random.Random(29)
    lam = rand_lambda(rng, alg)
    gens = [generator(lam, m) for m in range(alg.dim)]
    for k in (1, 2, 3):
        m = delta_matrix(lam, k, conv)
        rows = multisets(alg.dim, k + 1)
        cols = {}
        for (r, c), v in m.entries.items():
            cols.setdefault(c, {})[rows[r]] = v
        domain = multisets(alg.dim, k)
        for c, key in enumerate(domain):
            assert cols.get(c, {}) == ORACLES[conv](gens, key)
        # delta^lam of a random tensor is sum_c coeff_c * column_c
        coeffs = {c: F(rng.choice([-5, -2, 1, 3]), rng.randint(1, 4))
                  for c in rng.sample(range(len(domain)), min(4, len(domain)))}
        s = {domain[c]: v for c, v in coeffs.items()}
        want = oracle_sum(*((v, cols.get(c, {})) for c, v in coeffs.items()))
        assert apply_delta_matrix(lam, s, conv) == want


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
        for k, residual in report.residuals:
            oracle = dense_product(mats[k + 1], mats[k])
            composite = report.matrices[k + 1] @ report.matrices[k]
            assert composite.to_dense() == oracle
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


# K per algebra: sl3's delta_3 delta_2 is too big for the dense oracle
NILPOTENCY_K = {"so3": 4, "sl2": 4, "sl3": 3, "abelian(3)": 4}


@st.composite
def nilpotency_inputs(draw):
    name = draw(st.sampled_from(sorted(NILPOTENCY_K)))
    alg = builtin_algebra(name)
    entry = st.one_of(st.integers(-6, 6).map(F),
                      st.fractions(min_value=-6, max_value=6, max_denominator=7))
    # lam = 0 on a semisimple algebra is abelian too: delta^2 = 0 and no witness
    coeffs = draw(st.one_of(st.just([0] * alg.dim),
                            st.lists(entry, min_size=alg.dim, max_size=alg.dim)))
    # the killing identification is defined for semisimple algebras only
    idents = [Identification.BASIS] if name.startswith("abelian") else list(Identification)
    return (alg.dual(coeffs), NILPOTENCY_K[name], draw(st.sampled_from(list(LeibnizConvention))),
            draw(st.sampled_from(idents)))


@settings(deadline=None)
@example((SO3.dual([0, 0, 0]), 4, LeibnizConvention.UNSIGNED, Identification.KILLING))
@example((builtin_algebra("abelian(3)").dual([1, 2, 3]), 4, LeibnizConvention.PAPER_SIGNED,
          Identification.BASIS))
@given(nilpotency_inputs())
def test_nilpotency_residuals_and_witness_match_the_dense_product(inputs):
    """Each residual is max |delta_{k+1} delta_k| of the dense product, and
    the witness is the lowest non-zero column of the first non-zero one."""
    lam, K, conv, ident = inputs
    report = nilpotency_report(lam, K, conv, ident)
    mats = [delta_matrix(lam, k, conv, ident) for k in range(K)]
    expected, witness = [], None
    for k in range(K - 1):
        product = dense_product(mats[k + 1], mats[k])
        expected.append((k, max((abs(v) for row in product for v in row), default=F(0))))
        columns = [c for c in range(mats[k].cols) if any(row[c] for row in product)]
        if witness is None and columns:
            witness = (k, multisets(lam.algebra.dim, k)[columns[0]])
    assert report.residuals == expected
    assert report.witness == witness
    assert report.holds is (witness is None) is all(r == 0 for _, r in expected)
    assert report.matrices == mats


@pytest.mark.parametrize("lam, witness_degree", [
    ("1,2,3,4,5,6,7,8", 1), ("1/2,-2,3,0,5/3,-6,7,-8", 1), ("0,0,0,0,0,0,0,0", None)])
def test_spencer_command_builds_one_composite_at_most_at_its_witness(
        lam, witness_degree, monkeypatch, capsys):
    """sl3 at K = 4: every delta_{k+1} delta_k is read from its factors, no
    difference is made, and the only product is the witness degree's."""
    built = []

    def counting(name):
        method = getattr(OperatorMatrix, name)

        def run(a, b):
            built.append((name, a.shape, b.shape))
            return method(a, b)
        return run

    for name in ("__matmul__", "__sub__"):
        monkeypatch.setattr(OperatorMatrix, name, counting(name))
    assert main(["spencer", "--builtin", "sl3", f"--lambda={lam}", "--K", "4",
                 "--allow-degenerate"]) == 0
    report = json.loads(capsys.readouterr().out)["nilpotency"]
    if witness_degree is None:
        assert report["witness"] is None and built == []
    else:
        assert report["witness"]["degree"] == witness_degree
        w = witness_degree
        shapes = [(sym_dim(8, j + 1), sym_dim(8, j)) for j in (w + 1, w)]
        assert built == [("__matmul__", *shapes)]


def test_nilpotency_requires_k2():
    with pytest.raises(MismatchError):
        nilpotency_report(SO3.dual_basis_vector(2), 1)


# --- signed-rule ordering audit ----------------------------------------------


def ordering_audit(lam, k, identification=Identification.BASIS):
    """The ordering audit read off the paper-signed delta_k of lam."""
    delta = delta_matrix(lam, k, LeibnizConvention.PAPER_SIGNED, identification)
    return signed_leibniz_welldefinedness(delta, k, lam.algebra.dim)


def analytic_cross_difference(lam, a, b):
    """2 (delta(e_a) . e_b  -  e_a . delta(e_b)), the two-ordering gap."""
    da, db = generator(lam, a), generator(lam, b)
    return oracle_sum((2, oracle_sym_product(da, {(b,): F(1)})),
                      (-2, oracle_sym_product({(a,): F(1)}, db)))


def test_ordering_witnesses_match_analytic_formula():
    lam = SO3.dual_basis_vector(2)
    witnesses = {w.multiset for w in ordering_audit(lam, 2)}
    expected = set()
    for a, b in multisets(3, 2):
        if a == b:
            continue  # identical orderings, no gap possible
        if analytic_cross_difference(lam, a, b):
            expected.add((a, b))
    assert witnesses == expected
    # the cross terms cancel for (e1, e2) even though both factors have
    # nonzero delta: delta(e1).e2 = e1.e2.e3 = e1.delta(e2)
    assert (0, 1) not in witnesses
    assert witnesses == {(0, 2), (1, 2)}


def test_ordering_audit_trivial_cases():
    assert ordering_audit(SO3.dual([0, 0, 0]), 2) == []
    ab = builtin_algebra("abelian(3)")
    assert ordering_audit(ab.dual([1, 1, 1]), 3) == []


def test_ordering_audit_rejects_a_degree_or_shape_it_cannot_read():
    delta_2 = delta_matrix(SO3.dual_basis_vector(2), 2, LeibnizConvention.PAPER_SIGNED)
    with pytest.raises(MismatchError):
        signed_leibniz_welldefinedness(delta_2, 1, SO3.dim)
    with pytest.raises(MismatchError):
        signed_leibniz_welldefinedness(delta_2, 3, 3)
    with pytest.raises(MismatchError):
        signed_leibniz_welldefinedness(delta_2, 2, 4)


AUDIT_ALGEBRAS = ("so3", "sl2", "su2", "sl3", "su3", "abelian(3)")


@st.composite
def audit_inputs(draw):
    name = draw(st.sampled_from(AUDIT_ALGEBRAS))
    alg = builtin_algebra(name)
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    lam = alg.dual(draw(st.lists(coeff, min_size=alg.dim, max_size=alg.dim)))
    # the killing identification needs a semisimple algebra
    idents = [Identification.BASIS] if name == "abelian(3)" else list(Identification)
    return lam, draw(st.integers(2, 4)), draw(st.sampled_from(idents))


@settings(deadline=None)
@given(audit_inputs())
def test_ordering_audit_matches_the_forward_reverse_oracle(inputs):
    """The audit read off delta_k equals _image run on every sorted word and
    its reversal: no witness at odd k, and at even k one per non-zero column
    with twice its largest entry."""
    lam, k, ident = inputs
    witnesses = ordering_audit(lam, k, ident)
    assert [w.to_json() for w in witnesses] == oracle_ordering_witnesses(lam, k, ident)


# --- identification modes ----------------------------------------------------


def test_killing_mode_rescales_so3_generators():
    # the cyclic algebra's Killing Gram is -2 I, so the two reconstructions
    # differ by the factor 1/4 in degree 2
    lam = SO3.dual_basis_vector(2)
    basis_t = generator(lam, 2, Identification.BASIS)
    killing_t = generator(lam, 2, Identification.KILLING)
    assert killing_t == oracle_sum((F(1, 4), basis_t))


def test_killing_mode_rejects_abelian():
    ab = builtin_algebra("abelian(3)")
    with pytest.raises(DegenerateInputError):
        generator(ab.dual([1, 0, 0]), 0, Identification.KILLING)


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


@settings(deadline=None)
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
    _leibniz_tables.cache_clear()
    code = main(["mirror", "--builtin", "sl3", "--lambda=1,2,3,4,5,6,7,8", "--K", "4",
                 "--transform", "weyl:231"])
    capsys.readouterr()
    assert code == 0
    info = _leibniz_tables.cache_info()
    assert (info.hits, info.misses) == (6, 3)


@pytest.mark.parametrize("argv, degrees", [
    (["--builtin", "su3", "--lambda=1,2,3,4,5,6,7,8", "--K", "3"], [0, 1, 2]),
    (["--builtin", "so3", "--lambda=1,-2,3", "--K", "6"], [0, 1, 2, 3, 4, 5]),
], ids=["su3-K3", "so3-K6"])
def test_paper_signed_spencer_builds_each_delta_once(monkeypatch, capsys, argv, degrees):
    """The ordering audit reads the nilpotency report's delta_k, so the
    paper-signed spencer command builds each delta_k once."""
    built = []
    original = spencer_mod.delta_matrix

    def counting_delta(lam, k, *args):
        built.append(k)
        return original(lam, k, *args)

    monkeypatch.setattr(spencer_mod, "delta_matrix", counting_delta)
    code = main(["spencer", *argv, "--convention", "paper-signed"])
    assert code == 0 and capsys.readouterr().out
    assert built == degrees
