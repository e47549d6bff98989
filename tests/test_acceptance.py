"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is exact (rational equality) unless a float tolerance
is stated inline. Contested identities are asserted as the *measured*
outcome, never as an assumed one.
"""

import json
import random
import time
from fractions import Fraction

from oracles import (
    apply_delta_matrix,
    oracle_eval,
    oracle_jacobi_generator,
    oracle_row_space,
    oracle_sum,
    oracle_sym_product,
)
from spencerbench.bundle import (
    cartan_residual,
    compatibility_functional_terms,
    constraint_distribution,
    grid_bundle,
    transversality_report,
)
from spencerbench.cli import main as cli_main
from spencerbench.cohomology import (
    build_complex,
    ce_model,
    d_squared_residual,
    kunneth_diagnostic,
    mirror_invariance_check,
)
from spencerbench.liealg import (
    antisymmetry_residual,
    bracket,
    builtin_algebra,
    builtin_automorphism,
    jacobi_residual,
    pairing,
    weyl_mirrors,
)
from spencerbench.mirror import (
    TRANSPORT_LITERAL,
    automorphism_mirror,
    intertwining_check,
    mirror_lambda,
    sign_mirror,
)
from spencerbench.spencer import (
    Identification,
    LeibnizConvention,
    delta_matrix,
    nilpotency_report,
    signed_leibniz_welldefinedness,
)
from spencerbench.symtensor import multisets

F = Fraction


def ok(n, text):
    print(f"\nACCEPTANCE {n:02d} PASS  {text}")


def rand_lambda(rng, alg):
    while True:
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(alg.dim)]
        if any(coeffs):
            return alg.dual(coeffs)


def delta_columns(lam):
    """delta^lam(e_m) for each m: the columns of delta_matrix(lam, 1)."""
    return [apply_delta_matrix(lam, {(m,): F(1)}) for m in range(lam.algebra.dim)]


def double_bracket(lam, i, j, v):
    """The unsymmetrized generator value lam([e_j,[e_i,v]]) + lam([[e_i,e_j],v]) / 2."""
    e = v.algebra.basis_vectors()
    return (pairing(lam, bracket(e[j], bracket(e[i], v)))
            + pairing(lam, bracket(bracket(e[i], e[j]), v)) / 2)


def test_criterion_01_algebra_validity():
    t0 = time.time()
    for name in ("so3", "sl2", "sl3", "su2", "abelian(2)", "abelian(3)", "abelian(4)"):
        alg = builtin_algebra(name)
        assert antisymmetry_residual(alg) == 0, name
        assert jacobi_residual(alg) == 0, name
    elapsed = time.time() - t0
    assert elapsed < 1.0
    ok(1, f"antisymmetry and Jacobi residuals exactly 0 for all builtins ({elapsed:.2f}s)")


def test_criterion_02_generator_formula_equivalence():
    t0 = time.time()
    algs = [builtin_algebra(n) for n in ("so3", "sl2", "sl3")]
    rng = random.Random(20250809)
    lams = {alg.name: [alg.dual_basis_vector(i) for i in range(alg.dim)] for alg in algs}
    for i in range(100):
        alg = algs[i % 3]
        lams[alg.name].append(rand_lambda(rng, alg))
    checked = 0
    for alg in algs:
        for lam in lams[alg.name]:
            for d, v in zip(delta_columns(lam), alg.basis_vectors()):
                # tensor equality pins equality of values on every test pair
                assert d == oracle_jacobi_generator(lam, v)
                checked += 1
    # and spot-check the triple-level statement explicitly on the smallest algebra
    so3 = algs[0]
    lam = lams["so3"][-1]
    for d, v in zip(delta_columns(lam), so3.basis_vectors()):
        j = oracle_jacobi_generator(lam, v)
        for a in so3.basis_vectors():
            for b in so3.basis_vectors():
                assert oracle_eval(d, [a, b]) == oracle_eval(j, [a, b])
    elapsed = time.time() - t0
    assert elapsed < 5.0
    ok(2, f"delta_matrix(lam, 1) = Jacobi form on all basis triples + 100 seeded duals "
          f"({checked} exact column comparisons, {elapsed:.2f}s)")


def test_criterion_03_generator_output_symmetry():
    rng = random.Random(3)
    for name in ("so3", "sl2", "sl3"):
        alg = builtin_algebra(name)
        lams = [alg.dual_basis_vector(i) for i in range(alg.dim)]
        lams.append(rand_lambda(rng, alg))
        for lam in lams:
            for d, v in zip(delta_columns(lam), alg.basis_vectors()):
                for i in range(alg.dim):
                    for j in range(alg.dim):
                        # a == b only through the Jacobi identity
                        a, b = double_bracket(lam, i, j, v), double_bracket(lam, j, i, v)
                        assert a == b
                        entry = d.get((min(i, j), max(i, j)), F(0))
                        assert entry == a * (2 if i != j else 1)
    ok(3, "generator value symmetric in the ordered test pair on every basis pair, "
          "and equal to the delta_matrix entry up to the multiplicity, exact")


def test_criterion_04_sign_mirror_operator_identity():
    rng = random.Random(4)
    for name in ("so3", "sl2"):
        alg = builtin_algebra(name)
        for lam in (alg.dual_basis_vector(0), rand_lambda(rng, alg)):
            for conv in LeibnizConvention:
                for k in range(5):  # degrees 0..4
                    assert delta_matrix(-lam, k, conv) == delta_matrix(lam, k, conv).scaled(-1)
    ok(4, "operator matrices negate with the dual vector, degrees <= 4, both conventions")


def test_criterion_05_involution_and_kernel_invariance():
    rng = random.Random(5)
    so3 = builtin_algebra("so3")
    for _ in range(25):
        lam = rand_lambda(rng, so3)
        assert mirror_lambda(sign_mirror(), mirror_lambda(sign_mirror(), lam)) == lam
    b_plus = grid_bundle((4, 4), so3, None, [0, 0, 1])
    b_minus = grid_bundle((4, 4), so3, None, [0, 0, -1])
    for site in b_plus.sites():
        a = oracle_row_space(constraint_distribution(b_plus, site))
        b = oracle_row_space(constraint_distribution(b_minus, site))
        assert a == b
    ok(5, "sign mirror is a bit-exact involution; mirrored constraint kernels canonicalize equal")


def test_criterion_06_sign_chain_map_commutation():
    t0 = time.time()
    so3 = builtin_algebra("so3")
    t2 = ce_model(builtin_algebra("abelian(2)"), "torus2")
    c = build_complex(t2, so3, so3.dual_basis_vector(2), 4, LeibnizConvention.UNSIGNED)
    rep = mirror_invariance_check(c, sign_mirror())
    assert rep.commutation_holds
    assert all(r == 0 for r in rep.commutation_residuals)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    ok(6, f"sign chain map commutes exactly on torus(2) x so3, K=4, unsigned ({elapsed:.2f}s)")


def test_criterion_07_automorphism_intertwining():
    # The transported-operator identity closes exactly under the inverse
    # transport with the Killing-form identification (automorphisms are
    # orthogonal for the Killing pairing). Under the coordinate
    # identification the identity is provably unattainable for the
    # non-orthogonal mirrors; that residual is reported as documentation.
    sl2 = builtin_algebra("sl2")
    nt = builtin_automorphism(sl2, "negate_transpose")
    lam2 = sl2.dual_basis_vector(0)
    for k in (1, 2, 3):
        rep, _ = intertwining_check(automorphism_mirror(nt), lam2, k,
                                    identification=Identification.KILLING)
        assert rep.residual == 0, ("sl2", k)

    sl3 = builtin_algebra("sl3")
    rng = random.Random(7)
    lam3 = rand_lambda(rng, sl3)
    paper_residuals = {}
    coordinate_residuals = {}
    for auto in weyl_mirrors(3):
        for k in (1, 2, 3):
            rep, literal = intertwining_check(automorphism_mirror(auto), lam3, k,
                                              identification=Identification.KILLING)
            assert rep.residual == 0, (auto.label, k)
            if k == 1:
                assert literal.transport == TRANSPORT_LITERAL
                paper_residuals[auto.label] = literal.residual
        coordinate_residuals[auto.label] = intertwining_check(
            automorphism_mirror(auto), lam3, 1, identification=Identification.BASIS
        )[0].residual
    # the literal transport separates exactly on the non-involutive 3-cycles
    assert paper_residuals["permutation:231"] != 0
    assert paper_residuals["permutation:312"] != 0
    for label in ("permutation:123", "permutation:132", "permutation:213",
                  "permutation:321"):
        assert paper_residuals[label] == 0
    documented_gap = sum(1 for v in coordinate_residuals.values() if v != 0)
    ok(7, "inverse-transport residual exactly 0 for negate_transpose(sl2) and all 6 "
          f"Weyl mirrors (k<=3, Killing identification); literal transport nonzero on "
          f"both 3-cycles; coordinate-identification gap documented on {documented_gap} mirrors")


def test_criterion_08_mirror_invariance_of_characteristics():
    so3 = builtin_algebra("so3")
    sl2 = builtin_algebra("sl2")
    sl3 = builtin_algebra("sl3")
    ab2 = builtin_algebra("abelian(2)")
    t2 = ce_model(builtin_algebra("abelian(2)"), "torus2")
    pairs = []

    def timed_check(instance, transform):
        t0 = time.time()
        rep = mirror_invariance_check(instance, transform)
        elapsed = time.time() - t0
        assert elapsed < 30.0
        assert rep.commutation_holds
        return rep, elapsed

    # trivial-dual instances exercise every mirror kind with D^2 = 0
    c_so3 = build_complex(t2, so3, so3.dual([0, 0, 0]), 4,
                          identification=Identification.KILLING)
    rep, el = timed_check(c_so3, sign_mirror())
    assert rep.dims_equal
    pairs.append(("so3/sign", el))

    c_sl2 = build_complex(t2, sl2, sl2.dual([0, 0, 0]), 4,
                          identification=Identification.KILLING)
    rep, el = timed_check(
        c_sl2, automorphism_mirror(builtin_automorphism(sl2, "negate_transpose"))
    )
    assert rep.dims_equal
    pairs.append(("sl2/negate_transpose", el))

    c_sl3 = build_complex(t2, sl3, sl3.dual([0] * 8), 3,
                          identification=Identification.KILLING)
    for auto in weyl_mirrors(3):
        rep, el = timed_check(c_sl3, automorphism_mirror(auto))
        assert rep.dims_equal
        pairs.append((f"sl3/{auto.label}", el))

    # nonzero dual with a vanishing coupled operator: abelian fiber
    c_ab = build_complex(t2, ab2, ab2.dual([1, 0]), 4)
    rep, el = timed_check(c_ab, sign_mirror())
    assert rep.dims_equal
    pairs.append(("abelian2/sign", el))

    # measured non-complex member: commutation still exact, dims withheld
    c_bad = build_complex(t2, so3, so3.dual_basis_vector(2), 4)
    rep, el = timed_check(c_bad, sign_mirror())
    assert rep.dims_equal is None and rep.flags
    worst = max(el for _, el in pairs)
    ok(8, f"dims and Euler characteristics equal for the whole mirror family whenever "
          f"D^2 = 0 ({len(pairs)} pairs, worst {worst:.2f}s)")


def dense_product(a, b):
    da, db = a.to_dense(), b.to_dense()
    return [
        [sum(da[i][k] * db[k][j] for k in range(b.rows)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


def test_criterion_09_nilpotency_audit_vs_oracle():
    rng = random.Random(9)
    verdicts = []
    for name, K in (("so3", 4), ("sl2", 4), ("sl3", 3)):
        alg = builtin_algebra(name)
        for _ in range(5):
            lam = rand_lambda(rng, alg)
            for conv in LeibnizConvention:
                rep = nilpotency_report(lam, K, conv)
                mats = [delta_matrix(lam, k, conv) for k in range(K)]
                for k, residual in rep.residuals:
                    oracle = dense_product(mats[k + 1], mats[k])
                    composite = rep.matrices[k + 1] @ rep.matrices[k]
                    assert composite.to_dense() == oracle
                    flat = [abs(v) for row in oracle for v in row]
                    assert residual == (max(flat) if flat else F(0))
                verdicts.append(rep.holds)
    failures = sum(1 for v in verdicts if not v)
    ok(9, f"30 reports match the dense matrix-product oracle entry-for-entry "
          f"(measured verdict: nilpotency fails in {failures}/30 runs)")


def ordering_witnesses(lam):
    """The degree-2 ordering witnesses read off the paper-signed nilpotency
    report's delta_2, as the spencer command reads them."""
    delta_2 = nilpotency_report(lam, 3, LeibnizConvention.PAPER_SIGNED).matrices[2]
    return {w.multiset for w in signed_leibniz_welldefinedness(delta_2, 2, lam.algebra.dim)}


def test_criterion_10_signed_rule_ordering_audit():
    so3 = builtin_algebra("so3")
    rng = random.Random(10)
    for lam in (so3.dual_basis_vector(2), rand_lambda(rng, so3)):
        witnesses = ordering_witnesses(lam)
        gens = [oracle_jacobi_generator(lam, v) for v in so3.basis_vectors()]
        assert gens == delta_columns(lam)
        expected = set()
        for a, b in multisets(3, 2):
            if a == b:
                continue
            gap = oracle_sum((2, oracle_sym_product(gens[a], {(b,): F(1)})),
                             (-2, oracle_sym_product({(a,): F(1)}, gens[b])))
            if gap:
                expected.add((a, b))
        assert witnesses == expected
    # frozen instance: the gap cancels on (e1, e2) despite nonzero factors
    base = ordering_witnesses(so3.dual_basis_vector(2))
    assert base == {(0, 2), (1, 2)}
    ok(10, "ordering witnesses equal the analytic cross-term gap 2(d(a).b - a.d(b)), "
           "including the cancelling pair")


def test_criterion_11_transversality_diagnostic():
    t0 = time.time()
    so3 = builtin_algebra("so3")
    b = grid_bundle((8, 8), so3, None, [0, 0, 1])
    rep = transversality_report(b)
    assert len(rep.per_site) == 64
    for dims in rep.per_site.values():
        assert dims == (4, 2, 5)
    assert rep.full_sum and not rep.zero_intersection
    ab1 = builtin_algebra("abelian(1)")
    rep1 = transversality_report(grid_bundle((8, 8), ab1, None, [1]))
    assert rep1.zero_intersection and rep1.full_sum
    elapsed = time.time() - t0
    assert elapsed < 5.0
    ok(11, f"8x8 grid: dim(D&V) = 2 = dim(g)-1 at every site, dim(D+V) = dim T; "
           f"line fiber satisfies strong transversality ({elapsed:.2f}s)")


def test_criterion_12_cartan_residual_calibration():
    so3 = builtin_algebra("so3")
    flat = grid_bundle((4, 4), so3, None, [0, 0, 1])
    assert cartan_residual(flat).max_abs == 0
    assert compatibility_functional_terms(flat) == (F(0), F(0))

    rng = random.Random(12)
    site0 = (rng.randrange(4), rng.randrange(4))
    bump = [F(rng.randint(1, 3)), F(0), F(0)]
    sites = [(i, j) for i in range(4) for j in range(4)]
    lf = {s: [F(0), F(0), F(1)] for s in sites}
    lf[site0] = [bump[0], bump[1], F(1) + bump[2]]
    b = grid_bundle((4, 4), so3, None, lf)
    rep = cartan_residual(b)

    # independent lattice-sum oracle: central differences coded directly
    oracle_field = {}
    for s in sites:
        for axis in range(2):
            sp = ((s[0] + (axis == 0)) % 4, (s[1] + (axis == 1)) % 4)
            sm = ((s[0] - (axis == 0)) % 4, (s[1] - (axis == 1)) % 4)
            oracle_field[(s, axis)] = tuple(
                (p - m) * 2 for p, m in zip(lf[sp], lf[sm])
            )
    assert rep.field == oracle_field
    first, _ = compatibility_functional_terms(b)
    oracle_energy = sum(
        sum(v * v for v in coeffs) for coeffs in oracle_field.values()
    ) * F(1, 16) / 2
    assert first == oracle_energy
    ok(12, "flat constant data exactly 0; seeded one-site bump equals the "
           "independent lattice-sum oracle, exact rational equality")


def test_criterion_13_kunneth_diagnostic():
    t0 = time.time()
    so3 = builtin_algebra("so3")
    t2 = ce_model(builtin_algebra("abelian(2)"), "torus2")
    c0 = build_complex(t2, so3, so3.dual([0, 0, 0]), 4)
    rep0 = kunneth_diagnostic(c0)
    assert rep0.matches
    for name, lam in (("abelian(2)", [1, 0]), ("abelian(3)", [2, -1, 3])):
        ab = builtin_algebra(name)
        c = build_complex(t2, ab, ab.dual(lam), 3)
        rep = kunneth_diagnostic(c)
        assert rep.matches

    # the cyclic-algebra run with the coupled dual is measured to not be a
    # complex (D^2 != 0), so the tensor-product comparison has no D^2 = 0
    # case there; the diagnostic must say so rather than fabricate dims
    c_bad = build_complex(t2, so3, so3.dual_basis_vector(2), 4,
                          LeibnizConvention.UNSIGNED)
    assert d_squared_residual(c_bad) != 0
    rep_bad = kunneth_diagnostic(c_bad)
    assert rep_bad.matches is None
    assert rep_bad.flags and "not applicable" in rep_bad.flags[0]
    elapsed = time.time() - t0
    assert elapsed < 30.0
    ok(13, f"product-formula dims match exactly for the trivial-dual and abelian runs; "
           f"the coupled so3 run is measured non-complex and honestly flagged ({elapsed:.2f}s)")


def test_criterion_14_weyl_mirror_counts():
    from math import factorial

    for n in (2, 3, 4):
        mirrors = weyl_mirrors(n)
        assert len(mirrors) == factorial(n)
        distinct = [m.matrix for i, m in enumerate(mirrors)
                    if all(m.matrix != o.matrix for o in mirrors[:i])]
        assert len(distinct) == factorial(n)
    ok(14, "n! validated pairwise-distinct permutation mirrors for n = 2, 3, 4")


def test_criterion_15_cli_determinism(tmp_path):
    argvs = [
        ["complex", "--builtin", "so3", "--lambda", "0,0,1", "--K", "4",
         "--mirror", "sign", "--seed", "42"],
        ["spencer", "--builtin", "sl2", "--lambda", "1,2,3", "--K", "3",
         "--convention", "paper-signed", "--seed", "42"],
        ["bundle", "--builtin", "so3", "--grid", "4,4", "--lambda", "0,0,1"],
    ]
    for i, argv in enumerate(argvs):
        out1 = tmp_path / f"a{i}.json"
        out2 = tmp_path / f"b{i}.json"
        assert cli_main(argv + ["--out", str(out1)]) == cli_main(argv + ["--out", str(out2)])
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2 and b1
        json.loads(b1)  # and it is valid JSON
    ok(15, "identical command lines produce byte-identical valid JSON reports")
