import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spencerbench.linalg as linalg_mod
from oracles import (
    dense_structure,
    oracle_cartan,
    oracle_constraint_row,
    oracle_equivariance_residual,
    oracle_first_term,
    oracle_inverse,
    oracle_kernel,
    oracle_row_space,
    oracle_rref,
    oracle_site_dims,
)
from spencerbench.bundle import (
    bundle_from_json,
    bundle_to_json,
    cartan_residual,
    compatibility_functional_terms,
    constraint_distribution,
    equivariance_residual,
    grid_bundle,
    transversality_report,
)
from spencerbench.errors import DegenerateInputError, FormatError, MismatchError
from spencerbench.linalg import OperatorMatrix
from spencerbench.liealg import (
    algebra_from_json,
    bracket,
    builtin_algebra,
    builtin_automorphism,
    pairing,
)

F = Fraction
SO3 = builtin_algebra("so3")
AB1 = builtin_algebra("abelian(1)")


def flat_so3(shape=(4, 4)):
    return grid_bundle(shape, SO3, None, [0, 0, 1])


# --- constraint kernels --------------------------------------------------------


def test_constraint_distribution_flat_so3():
    b = flat_so3()
    basis = constraint_distribution(b, (0, 0))
    assert len(basis) == 4  # n + dim(g) - 1
    # kernel of (0, 0 | 0, 0, 1) on R^2 + g: base directions free, e3 cut
    for vec in basis:
        assert vec[4] == 0
    spanned = oracle_row_space(basis)
    expected = oracle_row_space(
        [
            (F(1), F(0), F(0), F(0), F(0)),
            (F(0), F(1), F(0), F(0), F(0)),
            (F(0), F(0), F(1), F(0), F(0)),
            (F(0), F(0), F(0), F(1), F(0)),
        ]
    )
    assert spanned == expected


def test_degenerate_site_rejected():
    lf = {s: [F(0), F(0), F(1)] for s in [(i, j) for i in range(3) for j in range(3)]}
    lf[(1, 2)] = [F(0), F(0), F(0)]
    b = grid_bundle((3, 3), SO3, None, lf)
    with pytest.raises(DegenerateInputError):
        constraint_distribution(b, (1, 2))
    with pytest.raises(DegenerateInputError):
        transversality_report(b)


def test_a_degenerate_site_leaves_the_other_kernels_readable():
    # lam = 0 at one site: constraint_distribution raises at that site only
    lf = {(i, j): [F(1), F(i), F(-j)] for i in range(3) for j in range(4)}
    lf[(2, 1)] = [F(0), F(0), F(0)]
    b = grid_bundle((3, 4), SO3, [SO3.vector([1, 0, 2]), SO3.zero_vector()], lf)
    with pytest.raises(DegenerateInputError, match=re.escape("(2, 1)")):
        constraint_distribution(b, (2, 1))
    for site in [(0, 0), (2, 0), (2, 2)]:
        assert constraint_distribution(b, site) == oracle_kernel(
            [oracle_constraint_row(b, site)], 2 + 3)
    with pytest.raises(DegenerateInputError, match=re.escape("[(2, 1)]")):
        transversality_report(b)


def test_one_site_operator_per_distinct_site_value():
    const = grid_bundle((12, 12), SO3, [SO3.vector([1, 0, F(1, 2)]), SO3.vector([0, -1, 2])],
                        [F(1), F(-2, 3), F(3)])
    assert len(const._operators) == 1
    sites = [[i, j] for i in range(12) for j in range(12)]
    data = {"grid": [12, 12],
            "lambda_field": [[s, [1, s[0], f"{s[1]}/7"]] for s in sites],
            "omega_base": [[s, 0, ["1", "0", "-1"]] for s in sites[::2]]}
    distinct = bundle_from_json(data, SO3)
    assert len(distinct._operators) == 144
    assert transversality_report(distinct).per_site == {
        site: oracle_site_dims(distinct, site) for site in distinct.sites()}


def test_equal_values_written_as_different_literals_share_a_site_class():
    # the class keys are the reduced numerators and denominators, so "1/2"
    # and "2/4" (and 3 and "6/2", -1 and "-2/2") are one value; "1/3" is another
    data = {"grid": [2, 2],
            "lambda_field": [[[0, 0], ["1/2", 3, "-1"]], [[0, 1], ["2/4", "6/2", "-2/2"]],
                             [[1, 0], ["1/2", "3", -1]], [[1, 1], ["1/3", 3, -1]]],
            "omega_base": [[[0, 0], 1, ["1/2", 0, 0]], [[0, 1], 1, ["2/4", "0/5", 0]],
                           [[1, 0], 1, ["1/2", 0, 0]], [[1, 1], 1, ["1/2", 0, 0]]]}
    b = bundle_from_json(data, SO3)
    cls, reps = b._site_classes
    assert cls == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    assert reps == [(0, 0), (1, 1)]


def test_generic_functional_has_corank_one():
    rng = random.Random(41)
    for _ in range(5):
        lam = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        if not any(lam):
            lam[0] = F(1)
        omega = [
            SO3.vector([F(rng.randint(-3, 3)) for _ in range(3)]) for _ in range(2)
        ]
        b = grid_bundle((3, 3), SO3, omega, lam)
        assert len(constraint_distribution(b, (0, 0))) == 2 + 3 - 1


def test_sign_flip_leaves_constraint_kernel_unchanged():
    b_plus = flat_so3()
    b_minus = grid_bundle((4, 4), SO3, None, [0, 0, -1])
    for site in b_plus.sites():
        a = oracle_row_space(constraint_distribution(b_plus, site))
        c = oracle_row_space(constraint_distribution(b_minus, site))
        assert a == c


def test_automorphism_mirror_transports_dims_and_flatness_field():
    # lam -> lam o A^{-1} per site and omega -> A omega: the constraint row
    # (lam(omega_a) | lam) maps to (lam(omega_a) | lam o A^{-1}), so every
    # site keeps its dims, and A[x, y] = [Ax, Ay] carries each Cartan
    # residual r to r o A^{-1}
    sl3 = builtin_algebra("sl3")
    auto = builtin_automorphism(sl3, "permutation:231")

    def pull_back(coeffs):
        return tuple(sum((c * auto.inverse.get(i, j) for i, c in enumerate(coeffs)), F(0))
                     for j in range(sl3.dim))

    rng = random.Random(47)
    sites = [(i, j) for i in range(3) for j in range(4)]
    lf = {s: [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(8)] for s in sites}
    for coeffs in lf.values():
        coeffs[rng.randrange(8)] = F(rng.randint(1, 5))  # non-degenerate at every site
    omega = {s: [sl3.vector([F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(8)])
                 for _ in range(2)] for s in sites}
    b = grid_bundle((3, 4), sl3, omega, lf)
    b_mirror = grid_bundle((3, 4), sl3, {s: [auto.apply(w) for w in omega[s]] for s in sites},
                           {s: pull_back(lf[s]) for s in sites})

    assert transversality_report(b_mirror).per_site == transversality_report(b).per_site
    field = cartan_residual(b).field
    mirrored = cartan_residual(b_mirror).field
    assert mirrored.keys() == field.keys()
    assert all(mirrored[key] == pull_back(r) for key, r in field.items())
    assert any(any(r) for r in field.values())


# --- transversality -------------------------------------------------------------


def test_transversality_so3_model():
    rep = transversality_report(flat_so3())
    for dims in rep.per_site.values():
        assert dims == (4, 2, 5)
        # rank-nullity: dim(D+V) = dim D + dim V - dim(D&V)
        d, inter, total = dims
        assert total == d + 3 - inter
    assert not rep.zero_intersection
    assert rep.full_sum


def test_default_second_energy_names_a_degenerate_site():
    lf = {(i, j): [F(1), F(i), F(-j)] for i in range(3) for j in range(4)}
    lf[(2, 1)] = [F(0), F(0), F(0)]
    b = grid_bundle((3, 4), SO3, [SO3.vector([1, 0, 2]), SO3.zero_vector()], lf)
    with pytest.raises(DegenerateInputError,
                       match=re.escape("degenerate dual value at sites [(2, 1)]")):
        compatibility_functional_terms(b)


def test_transversality_abelian_line_fiber():
    b = grid_bundle((4, 4), AB1, None, [1])
    rep = transversality_report(b)
    for dims in rep.per_site.values():
        assert dims == (2, 0, 3)
    assert rep.zero_intersection and rep.full_sum


# --- flatness residual -----------------------------------------------------------


def test_cartan_residual_constant_flat_zero():
    assert cartan_residual(flat_so3()).max_abs == 0


def test_cartan_residual_e3_connection_zero():
    b = grid_bundle((4, 4), SO3, [SO3.basis_vector(2), SO3.zero_vector()], [0, 0, 1])
    assert cartan_residual(b).max_abs == 0


def test_cartan_residual_e1_connection_nonzero():
    b = grid_bundle((4, 4), SO3, [SO3.basis_vector(0), SO3.zero_vector()], [0, 0, 1])
    rep = cartan_residual(b)
    assert rep.max_abs == 1
    # the algebraic term is ad*_{e1} e3* = -e2* at every site
    assert rep.field[((0, 0), 0)] == (F(0), F(-1), F(0))


def test_cartan_residual_linear_in_lambda():
    rng = random.Random(42)
    sites = [(i, j) for i in range(3) for j in range(3)]
    lf1 = {s: [F(rng.randint(-4, 4)) for _ in range(3)] for s in sites}
    lf2 = {s: [F(rng.randint(-4, 4)) for _ in range(3)] for s in sites}
    omega = [SO3.basis_vector(0), SO3.basis_vector(1)]
    a, bq = F(3), F(-2)
    mixed = {s: [a * x + bq * y for x, y in zip(lf1[s], lf2[s])] for s in sites}
    r1 = cartan_residual(grid_bundle((3, 3), SO3, omega, lf1))
    r2 = cartan_residual(grid_bundle((3, 3), SO3, omega, lf2))
    rm = cartan_residual(grid_bundle((3, 3), SO3, omega, mixed))
    for key in rm.field:
        expect = tuple(a * x + bq * y for x, y in zip(r1.field[key], r2.field[key]))
        assert rm.field[key] == expect


def test_cartan_residual_sign_equivariance():
    rng = random.Random(43)
    sites = [(i, j) for i in range(3) for j in range(3)]
    lf = {s: [F(rng.randint(-4, 4)) for _ in range(3)] for s in sites}
    omega = [SO3.basis_vector(2), SO3.basis_vector(0)]
    plus = cartan_residual(grid_bundle((3, 3), SO3, omega, lf))
    minus = cartan_residual(
        grid_bundle((3, 3), SO3, omega, {s: [-x for x in lf[s]] for s in sites})
    )
    for key in plus.field:
        assert minus.field[key] == tuple(-x for x in plus.field[key])


def test_central_difference_needs_three_sites():
    b = grid_bundle((2, 4), SO3, None, [0, 0, 1])
    with pytest.raises(MismatchError):
        cartan_residual(b)


# --- compatibility energies ------------------------------------------------------


def test_functional_compatible_data_zero():
    assert compatibility_functional_terms(flat_so3()) == (F(0), F(0))


def test_functional_perturbation_matches_lattice_oracle():
    # bump one site of the constant field by e1* on a 4x4 grid (h = 1/4)
    sites = [(i, j) for i in range(4) for j in range(4)]
    lf = {s: [F(0), F(0), F(1)] for s in sites}
    lf[(1, 1)] = [F(1), F(0), F(1)]
    b = grid_bundle((4, 4), SO3, None, lf)
    first, second = compatibility_functional_terms(b)

    # independent lattice-sum oracle, coded directly from the definition
    vol = F(1, 16)
    energy = F(0)
    for s in sites:
        for axis in range(2):
            plus = lf[(s[0] + (axis == 0)) % 4, (s[1] + (axis == 1)) % 4]
            minus = lf[(s[0] - (axis == 0)) % 4, (s[1] - (axis == 1)) % 4]
            # flat connection: the residual is just the central difference
            diff = [(p - m) * 2 for p, m in zip(plus, minus)]  # 1/(2h) = 2
            energy += sum(d * d for d in diff)
    assert first == energy * vol / 2
    assert first == F(1, 2)
    assert second == 0  # the distribution target defaults to the kernel itself


def test_functional_second_term_measures_misalignment():
    # force the distribution target to a subspace whose image annihilator
    # misses the dual value
    b = flat_so3()
    target = {
        site: [
            (F(0), F(0), F(1), F(0), F(0)),  # omega maps this to e1
        ]
        for site in b.sites()
    }
    first, second = compatibility_functional_terms(b, target)
    assert first == 0
    # annihilator of span{e1} contains e3*, so the distance is still zero
    assert second == 0
    target2 = {
        site: [(F(0), F(0), F(0), F(0), F(1))] for site in b.sites()  # image e3
    }
    _, second2 = compatibility_functional_terms(b, target2)
    # annihilator of span{e3} is span{e1*, e2*}; distance from e3* is 1
    assert second2 == sum(F(1, 16) for _ in b.sites()) * 1


# --- sampled fiber-action law -----------------------------------------------------


def test_equivariance_below_tolerance_so3():
    r = equivariance_residual(flat_so3((3, 3)))
    assert 0 < r < 1e-8


def test_equivariance_zero_step_exact():
    r = equivariance_residual(flat_so3((3, 3)), steps=(0.0,))
    assert r == 0.0


def test_equivariance_abelian_exact_zero():
    b = grid_bundle((3,), AB1, None, [1])
    assert equivariance_residual(b) == 0.0


def test_equivariance_order_floor():
    with pytest.raises(MismatchError):
        equivariance_residual(flat_so3((3, 3)), order=2)


# --- JSON -------------------------------------------------------------------------


def test_bundle_json_round_trip():
    rng = random.Random(44)
    sites = [(i, j) for i in range(3) for j in range(3)]
    lf = {s: [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for s in sites}
    lf = {s: v if any(v) else [F(1), F(0), F(0)] for s, v in lf.items()}
    omega = {s: [SO3.vector([1, 0, 0]), SO3.vector([0, F(1, 2), 0])] for s in sites}
    b = grid_bundle((3, 3), SO3, omega, lf)
    again = bundle_from_json(bundle_to_json(b), SO3)
    assert again.shape == b.shape
    for s in sites:
        assert again.lam_field[s] == b.lam_field[s]
        assert again.omega[s] == b.omega[s]


def test_bundle_json_constant_shorthand():
    data = {
        "grid": [3, 3],
        "algebra": "so3",
        "omega_base": {"constant": [["0", "0", "1"], ["1", "0", "0"]]},
        "lambda_field": {"constant": ["0", "0", "1"]},
    }
    b = bundle_from_json(data, SO3)
    assert b.omega[(0, 0)][0] == SO3.vector([0, 0, 1])
    assert b.lam_field[(2, 2)] == SO3.dual([0, 0, 1])


def test_bundle_json_missing_lambda():
    with pytest.raises(FormatError):
        bundle_from_json({"grid": [3]}, SO3)


def test_bundle_json_for_another_algebra_is_rejected():
    # su3 and sl3 both have dimension 8: only the file's algebra key tells
    # the fields apart; a file without the key loads under either
    su3, sl3 = builtin_algebra("su3"), builtin_algebra("sl3")
    data = bundle_to_json(grid_bundle((3, 3), su3, None, list(range(1, 9))))
    assert data["algebra"] == "su3"
    assert bundle_from_json(data, su3).lam_field[(2, 2)] == su3.dual(list(range(1, 9)))
    with pytest.raises(FormatError, match=re.escape("algebra 'su3', not 'sl3'")):
        bundle_from_json(data, sl3)
    del data["algebra"]
    assert bundle_from_json(data, sl3).lam_field[(2, 2)] == sl3.dual(list(range(1, 9)))


# --- per-site work once per distinct site value ----------------------------------


def mixed_so3_bundle():
    """so3 on a 3x4 grid whose (lam, omega) values repeat at some sites only."""
    rng = random.Random(45)
    lams = [[F(1, 2), F(-2), F(3)], [F(0), F(1), F(-1, 3)], [F(2), F(0), F(0)]]
    omegas = [[SO3.vector([1, 0, F(1, 2)]), SO3.vector([0, -1, 2])],
              [SO3.zero_vector(), SO3.vector([F(2, 3), 1, 0])]]
    sites = [(i, j) for i in range(3) for j in range(4)]
    lf = {s: rng.choice(lams) for s in sites}
    omega = {s: rng.choice(omegas) for s in sites}
    lf[(2, 3)] = [F(5), F(-1, 4), F(1)]  # a value seen at one site only
    values = {(tuple(lf[s]), tuple(v.coeffs for v in omega[s])) for s in sites}
    assert 1 < len(values) < len(sites)
    return grid_bundle((3, 4), SO3, omega, lf), lf, omega


def test_constraint_distribution_is_fraction_tuples_of_the_oracle_kernel():
    b, _, _ = mixed_so3_bundle()
    n, dim_g = b.n_axes, b.algebra.dim
    for site in b.sites():
        row = oracle_constraint_row(b, site)
        basis = constraint_distribution(b, site)
        assert type(basis) is list
        assert all(type(vec) is tuple and len(vec) == n + dim_g for vec in basis)
        assert all(type(v) is F for vec in basis for v in vec)
        assert basis == oracle_kernel([row], n + dim_g)


def oracle_distance_sq(bundle, site, basis):
    """Squared distance from lam(site) to the annihilator of omega(span basis),
    by the normal equations of the annihilator basis solved with the RREF."""
    lam = bundle.lam_field[site].coeffs
    n, dim_g = bundle.n_axes, bundle.algebra.dim
    images = [[vec[n + r] + sum((vec[a] * bundle.omega[site][a].coeffs[r] for a in range(n)), F(0))
               for r in range(dim_g)] for vec in basis]
    ann = oracle_kernel(images, dim_g)
    gram = [[sum((x * y for x, y in zip(p, q)), F(0)) for q in ann]
            + [sum((x * y for x, y in zip(p, lam)), F(0))] for p in ann]
    red, _ = oracle_rref(gram)
    coef = [red_row[-1] for red_row in red[:len(ann)]]
    proj = [sum((c * p[r] for c, p in zip(coef, ann)), F(0)) for r in range(dim_g)]
    return sum(((x - y) ** 2 for x, y in zip(lam, proj)), F(0))


def test_shared_site_work_matches_per_site_oracle():
    b, lf, omega = mixed_so3_bundle()
    rep = transversality_report(b)
    for site in b.sites():
        assert rep.per_site[site] == oracle_site_dims(b, site)

    field = cartan_residual(b).field
    energy = F(0)
    for site in b.sites():
        for a in range(2):
            step = [int(a == 0), int(a == 1)]
            plus = lf[((site[0] + step[0]) % 3, (site[1] + step[1]) % 4)]
            minus = lf[((site[0] - step[0]) % 3, (site[1] - step[1]) % 4)]
            half_m = F(b.shape[a], 2)
            lam = SO3.dual(lf[site])
            coad = [-pairing(lam, bracket(omega[site][a], e)) for e in SO3.basis_vectors()]
            expect = tuple((p - m) * half_m + c for p, m, c in zip(plus, minus, coad))
            assert field[(site, a)] == expect
            energy += sum(v * v for v in expect)

    vol = F(1, 12)
    second = sum(oracle_distance_sq(b, s, constraint_distribution(b, s)) for s in b.sites())
    assert compatibility_functional_terms(b) == (energy * vol / 2, second * vol)
    assert second == 0 and energy != 0


def test_supplied_target_is_used_after_shared_kernels():
    b, _, _ = mixed_so3_bundle()
    assert compatibility_functional_terms(b)[1] == 0  # the default target first
    target = {site: [(F(0), F(0), F(0), F(1), F(0)), (F(1), F(0), F(0), F(0), F(1))]
              for site in b.sites()}
    expect = sum(oracle_distance_sq(b, s, target[s]) for s in b.sites()) * F(1, 12)
    _, second = compatibility_functional_terms(b, target)
    assert second == expect and second != 0


def test_empty_target_leaves_the_whole_dual_as_annihilator():
    # omega(span {}) = 0, whose annihilator is all of g*: every distance is 0
    b, _, _ = mixed_so3_bundle()
    target = {site: [] for site in b.sites()}
    assert all(oracle_distance_sq(b, s, []) == 0 for s in b.sites())
    assert compatibility_functional_terms(b, target)[1] == 0


@pytest.mark.parametrize("vecs, site_shown", [
    ([(F(1), F(0))], "(0, 0)"),  # too short
    ([(F(1), F(0), F(0), F(0), F(0), F(0))], "(0, 0)"),  # too long
    (None, "(2, 1)"),  # no basis at one site
])
def test_supplied_target_is_checked_site_by_site(vecs, site_shown):
    b = flat_so3((3, 3))
    good = (F(0), F(0), F(1), F(0), F(0))
    if vecs is None:
        target = {site: [good] for site in b.sites() if site != (2, 1)}
    else:
        target = {site: vecs if site == (0, 0) else [good] for site in b.sites()}
    with pytest.raises(MismatchError, match=re.escape(site_shown)):
        compatibility_functional_terms(b, target)


def test_default_target_is_measured_without_a_solve(monkeypatch):
    # the default target is the constraint distribution D itself, where the
    # distance is 0 by the definition of D; a target off D still solves
    calls = []
    original = OperatorMatrix.solve

    def counting_solve(self, rhs):
        calls.append(1)
        return original(self, rhs)

    monkeypatch.setattr(OperatorMatrix, "solve", counting_solve)
    b, _, _ = mixed_so3_bundle()
    assert compatibility_functional_terms(b)[1] == 0
    assert calls == []
    target = {site: [(F(0), F(0), F(0), F(1), F(0)), (F(1), F(0), F(0), F(0), F(1))]
              for site in b.sites()}
    assert compatibility_functional_terms(b, target)[1] != 0
    assert len(calls) > 0


def test_cartan_residual_alone_builds_no_constraint_kernel(monkeypatch):
    # the flatness residual reads only omega and lam, and transversality and
    # the default second energy follow from D = H + ker lam: none of them
    # eliminates a kernel; constraint_distribution eliminates one per call
    calls = []
    original = OperatorMatrix.kernel

    def counting_kernel(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(OperatorMatrix, "kernel", counting_kernel)
    b, _, _ = mixed_so3_bundle()
    assert cartan_residual(b).max_abs == oracle_cartan(b)[1]
    transversality_report(b)
    assert compatibility_functional_terms(b)[1] == 0
    assert calls == []
    constraint_distribution(b, (0, 0))
    constraint_distribution(b, (0, 0))
    assert len(calls) == 2


def test_constraint_column_is_formed_once_per_site_class(monkeypatch):
    # transversality and the default second energy form no product; an
    # explicit target forms omega @ lam once per site class, and its
    # membership test once per site and call
    calls = []
    original = OperatorMatrix.__matmul__

    def counting_matmul(self, other):
        calls.append((self.shape, other.shape))
        return original(self, other)

    b, _, _ = mixed_so3_bundle()
    # the oracle's kernel of each site's row: inside D, so the test proves 0
    target = {s: oracle_kernel([oracle_constraint_row(b, s)], 2 + 3) for s in b.sites()}
    monkeypatch.setattr(OperatorMatrix, "__matmul__", counting_matmul)
    transversality_report(b)
    assert compatibility_functional_terms(b)[1] == 0
    assert calls == []
    assert compatibility_functional_terms(b, target)[1] == 0
    assert compatibility_functional_terms(b, target)[1] == 0
    classes, sites = len(b._operators), len(b.sites())
    assert calls.count(((5, 3), (3, 1))) == classes  # omega @ lam
    assert calls.count(((4, 5), (5, 1))) == 2 * sites  # target @ column
    assert len(calls) == classes + 2 * sites


def test_bundle_json_parses_each_coefficient_literal_once(monkeypatch):
    parsed = []
    original = linalg_mod.parse_scalar
    monkeypatch.setattr(linalg_mod, "parse_scalar", lambda v: parsed.append(v) or original(v))
    sites = [[i, j] for i in range(3) for j in range(3)]
    data = {
        "grid": [3, 3],
        "omega_base": [[s, a, ["1", "0", "-1/2"]] for s in sites for a in range(2)],
        "lambda_field": [[s, [1, "0", "-1/2"]] for s in sites],
    }
    b = bundle_from_json(data, SO3)
    assert b.omega[(2, 2)][1] == SO3.vector([1, 0, F(-1, 2)])
    assert b.lam_field[(1, 0)] == SO3.dual([1, 0, F(-1, 2)])
    assert sorted(parsed, key=repr) == ["-1/2", "0", "1", 1]


@pytest.mark.parametrize("later", [True, 1.0, [1]])
def test_bundle_json_rejects_a_non_literal_after_an_equal_literal(later):
    rows = [[[i, j], [1, 0, 0]] for i in range(3) for j in range(3)]
    assert bundle_from_json({"grid": [3, 3], "lambda_field": rows}, SO3).lam_field[(2, 2)]
    rows[-1][1] = [later, 0, 0]
    with pytest.raises(FormatError, match="bad rational literal"):
        bundle_from_json({"grid": [3, 3], "lambda_field": rows}, SO3)


def test_constant_field_eliminations_do_not_grow_with_the_grid(monkeypatch):
    # both elimination routines: _rref (kernels, solves) and _sparse_rank
    # (ranks). The default diagnostics eliminate nothing on any grid
    calls = []
    for name in ("_rref", "_sparse_rank"):
        def counting(*args, _original=getattr(linalg_mod, name), **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(linalg_mod, name, counting)
    for shape in ((3, 3), (12, 12)):
        b = grid_bundle(shape, SO3, [SO3.vector([1, 0, 2]), SO3.vector([0, F(1, 2), 0])],
                        [F(1), F(-2, 3), F(3)])
        transversality_report(b)
        cartan_residual(b)
        compatibility_functional_terms(b)
        equivariance_residual(b)
        assert calls == []


# --- integer residuals and the float series against their definitions ------------


small_rationals = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7, 12]))


def changed_basis(name, seed):
    """The builtin algebra in the basis f_i = sum_p a[p][i] e_p for a random
    invertible integer matrix a: dense coadjoint matrices and rational
    structure constants, so every float sum has several non-zero terms."""
    alg = builtin_algebra(name)
    n, c = alg.dim, dense_structure(alg)
    rng = random.Random(seed)
    inv = None
    while inv is None:
        a = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        inv = oracle_inverse(a)
    triples = []
    for i in range(n):
        for j in range(n):
            bra = [sum((a[p][i] * a[q][j] * c[p][q][m] for p in range(n) for q in range(n)), F(0))
                   for m in range(n)]
            for k in range(n):
                v = sum((inv[k][m] * bra[m] for m in range(n)), F(0))
                if v:
                    triples.append([i, j, k, str(v)])
    return algebra_from_json({"name": f"{name}-dense", "dim": n, "structure_constants": triples,
                              "basis_labels": [f"f{i + 1}" for i in range(n)]})


FIELD_ALGEBRAS = [builtin_algebra("so3"), builtin_algebra("sl2"), builtin_algebra("sl3"),
                  changed_basis("so3", 1), changed_basis("sl2", 2), changed_basis("sl3", 3)]
# the float law also on su3 (series rows with several non-zero products,
# where a compensated sum moves the last bits, as on the changed bases), on
# su2 and on an abelian fiber (law exactly 0.0)
FLOAT_LAW_ALGEBRAS = FIELD_ALGEBRAS + [builtin_algebra("su2"), builtin_algebra("su3"),
                                       builtin_algebra("abelian(3)")]


@st.composite
def site_resolved_fields(draw, algebras=FIELD_ALGEBRAS):
    """A random site-resolved bundle: rational lambda values with mixed
    denominators, drawn from a pool so that some repeat, and a connection
    that is zero at some sites and rational or integer at others."""
    alg = draw(st.sampled_from(algebras))
    shape = draw(st.sampled_from([(3, 3), (3, 4), (4, 3), (5, 4), (3, 3, 3)]))
    sites = list(itertools.product(*(range(m) for m in shape)))
    vector = st.lists(small_rationals, min_size=alg.dim, max_size=alg.dim)
    pool = draw(st.lists(vector, min_size=1, max_size=len(sites)))
    pool = [v if any(v) else [F(1)] + v[1:] for v in pool]
    lam = {s: draw(st.sampled_from(pool)) for s in sites}
    integer = st.lists(st.integers(-3, 3).map(F), min_size=alg.dim, max_size=alg.dim)
    sample = st.one_of(st.none(), vector, integer)
    omega = {}
    for s in sites:
        axes = [draw(sample) for _ in shape]
        if any(v is not None for v in axes):
            omega[s] = [alg.vector(v or [0] * alg.dim) for v in axes]
    return grid_bundle(shape, alg, omega, lam)


@settings(deadline=None)
@given(site_resolved_fields())
def test_integer_cartan_report_and_first_term_match_fraction_oracle(b):
    field, worst = oracle_cartan(b)
    rep = cartan_residual(b)
    assert rep.field == field
    assert rep.max_abs == worst
    first, _ = compatibility_functional_terms(b)
    assert first == oracle_first_term(field, b.cell_volume())


@settings(deadline=None)
@given(site_resolved_fields(FLOAT_LAW_ALGEBRAS),
       st.sampled_from([(0.1, 0.2), (0.2, 0.1), (0.3,), (0.0,)]), st.sampled_from([4, 5, 8]))
def test_equivariance_residual_is_the_float_series_bit_for_bit(b, steps, order):
    law = equivariance_residual(b, order=order, steps=steps)
    assert law == oracle_equivariance_residual(b, order=order, steps=steps)
    if b.algebra.name.startswith("abelian"):
        assert law == 0.0


# transversality on both sides of dim g = 1: D meets V trivially only there
TRANSVERSALITY_ALGEBRAS = FIELD_ALGEBRAS + [AB1, builtin_algebra("abelian(2)")]


@settings(deadline=None)
@given(site_resolved_fields(TRANSVERSALITY_ALGEBRAS))
def test_every_constraint_distribution_is_the_oracle_kernel_of_its_row(b):
    tangent = b.n_axes + b.algebra.dim
    for site in b.sites():
        expect = oracle_kernel([oracle_constraint_row(b, site)], tangent)
        assert constraint_distribution(b, site) == expect


@settings(deadline=None)
@given(site_resolved_fields(TRANSVERSALITY_ALGEBRAS))
def test_transversality_dims_match_the_stacked_oracle_rank(b):
    rep = transversality_report(b)
    dims = {site: oracle_site_dims(b, site) for site in b.sites()}
    assert rep.per_site == dims
    assert rep.zero_intersection == all(inter == 0 for _, inter, _ in dims.values())
    assert rep.full_sum == all(total == b.n_axes + b.algebra.dim for *_, total in dims.values())


@settings(max_examples=30, deadline=None)
@given(site_resolved_fields(), st.randoms(use_true_random=False))
def test_supplied_targets_match_the_distance_oracle(b, rng):
    # per site, a target inside the annihilator (combinations of the
    # constraint kernel: the membership test proves 0) or a random one
    # (mostly outside it: the normal equations are solved)
    tangent = b.n_axes + b.algebra.dim
    target = {}
    for site in b.sites():
        count = rng.randint(0, 3)
        if rng.random() < 0.5:
            kernel = constraint_distribution(b, site)
            target[site] = [
                tuple(sum((rng.randint(-2, 2) * vec[c] for vec in kernel), F(0))
                      for c in range(tangent))
                for _ in range(count)]
        else:
            target[site] = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(tangent))
                            for _ in range(count)]
    expect = sum((oracle_distance_sq(b, s, target[s]) for s in b.sites()), F(0))
    assert compatibility_functional_terms(b, target)[1] == expect * b.cell_volume()
