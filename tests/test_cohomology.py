import functools
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spencerbench.cohomology as cohomology_mod
import spencerbench.linalg as linalg_mod
from oracles import (
    algebra_from_dense,
    oracle_block_matrix,
    oracle_ce_model,
    oracle_components,
    oracle_diagonal_block_shapes,
    oracle_total_differentials,
    oracle_total_residuals,
)
from spencerbench.cli import main
from spencerbench.cohomology import (
    DGAModel,
    _block_max_abs,
    _ce_differentials,
    _rank_nullity,
    build_complex,
    ce_model,
    chain_map_matrix,
    classes_equal,
    cohomology_report,
    commutation_residuals,
    cup_product,
    cup_well_defined,
    d_squared_residual,
    kunneth_diagnostic,
    mirror_invariance_check,
    segment_offsets,
)
from spencerbench.errors import FormatError, MismatchError
from spencerbench.liealg import (
    builtin_algebra,
    builtin_automorphism,
    jacobi_residual,
    weyl_mirrors,
)
from spencerbench.linalg import OperatorMatrix, kron, rank_bareiss, read_once, residual_max_abs
from spencerbench.mirror import automorphism_mirror, mirror_lambda, sign_mirror
from spencerbench.spencer import Identification, LeibnizConvention, delta_matrix
from spencerbench.symtensor import sym_dim

F = Fraction
SO3 = builtin_algebra("so3")
SL2 = builtin_algebra("sl2")
SL3 = builtin_algebra("sl3")


# --- base models -------------------------------------------------------------


def torus_model(n):
    """The n-torus base of ``complex --torus n``: the CE model of abelian(n)."""
    return ce_model(builtin_algebra(f"abelian({n})"), f"torus{n}")


def constants(n, brackets):
    """Dense constants c[i][j][k] with [e_i, e_j] = sum v e_k over the (k, v)
    of brackets[(i, j)], and [e_j, e_i] its negative."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), terms in brackets.items():
        for k, v in terms:
            c[i][j][k], c[j][i][k] = v, -v
    return c


def heisenberg(pairs):
    """The Heisenberg algebra of dimension 2 pairs + 1: [x_p, y_p] = z."""
    n = 2 * pairs + 1
    return constants(n, {(2 * p, 2 * p + 1): [(n - 1, 1)] for p in range(pairs)})


BETTI_S3 = [1, 0, 0, 1]
BETTI_S3_S5 = [1, 0, 0, 1, 0, 1, 0, 0, 1]
CE_DIMS = {"so3": BETTI_S3, "sl2": BETTI_S3, "su2": BETTI_S3, "sl3": BETTI_S3_S5,
           "su3": BETTI_S3_S5, "heisenberg": [1, 2, 2, 1],
           **{f"abelian({n})": [comb(n, k) for k in range(n + 1)] for n in range(1, 5)}}


@pytest.mark.parametrize("name", sorted(CE_DIMS))
def test_ce_model_matches_the_oracle_and_its_cohomology(name):
    alg = (algebra_from_dense(name, heisenberg(1)) if name == "heisenberg"
           else builtin_algebra(name))
    model = ce_model(alg, name)
    oracle = oracle_ce_model(alg, name)
    assert model == oracle and model.product == oracle.product
    assert all(m.is_zero() for m in model.diff) == name.startswith("abelian")
    assert model.d_squared_residual() == 0
    assert model.de_rham_dims() == CE_DIMS[name]


@st.composite
def antisymmetric_constants(draw, max_dim=5):
    n = draw(st.integers(1, max_dim))
    values = st.sampled_from([0, 0, 0, 1, -1, 2])
    return constants(n, {(i, j): [(k, draw(values)) for k in range(n)]
                         for i, j in itertools.combinations(range(n), 2)})


@settings(deadline=None)
@example(constants(3, {(0, 1): [(2, 1)], (1, 2): [(0, 1)], (2, 0): [(1, 1)]}))  # so3
@example(constants(3, {(0, 1): [(1, 2)], (0, 2): [(2, -2)], (1, 2): [(0, 1)]}))  # sl2
@example(heisenberg(2))
@example(constants(3, {(0, 1): [(0, 1)], (1, 2): [(1, 1)]}))  # Jacobi sum -e1
@given(antisymmetric_constants())
def test_ce_model_matches_the_oracle_on_random_constants(c):
    # d^2 is a derivation, so it vanishes iff it vanishes on the generators,
    # where d^2 e^m reads the Jacobi sums of the constants
    alg = algebra_from_dense("random", c)
    model, oracle = ce_model(alg, "random"), oracle_ce_model(alg, "random")
    assert model == oracle and model.product == oracle.product
    assert (model.d_squared_residual() == 0) == (jacobi_residual(alg) == 0)


def combine(terms):
    """sum u x over the pairs (u, x) of terms, x an element Counter({(degree,
    index): coeff})."""
    out = Counter()
    for u, x in terms:
        for key, v in x.items():
            out[key] += u * v
    return out


@settings(deadline=None)
@example(constants(3, {(0, 1): [(2, 1)], (1, 2): [(0, 1)], (2, 0): [(1, 1)]}))  # so3
@example(constants(3, {(0, 1): [(0, 1)], (1, 2): [(1, 1)]}))  # Jacobi sum -e1
@example(heisenberg(2))
@example(constants(6, {(i, j): [(k, (i + 2 * j + k) % 3 - 1) for k in range(6)]
                       for i, j in itertools.combinations(range(6), 2)}))
@given(antisymmetric_constants(max_dim=6))
def test_ce_model_obeys_the_exterior_algebra_laws_on_random_constants(c):
    # on basis elements x, y, z, read bilinearly from the product table and
    # the matrices of d with no sign rule of their own: 1 is the unit, each x
    # pairs with some y into the top degree, x y = (-1)^(|x||y|) y x,
    # (x y) z = x (y z), and d(x y) = dx y + (-1)^|x| x dy, which holds
    # without Jacobi because d is extended from the generators as a
    # derivation (Counter equality ignores zero coefficients)
    model = ce_model(algebra_from_dense("random", c), "random")
    top = model.top_degree
    basis = [(i, a) for i, labels in enumerate(model.basis) for a in range(len(labels))]
    prod = {(x, y): Counter({(x[0] + y[0], t): v
                             for t, v in model.multiply(*x, *y).items()})
            for x in basis for y in basis if x[0] + y[0] <= top}
    d = {(i, a): Counter({(i + 1, r): v for r, v in enumerate(model.diff[i].column(a)) if v})
         if i < top else Counter() for i, a in basis}
    for x in basis:
        assert prod[((0, 0), x)] == prod[(x, (0, 0))] == Counter({x: 1})
        assert any(prod[(x, y)] for y in basis if x[0] + y[0] == top)
    for (x, y), xy in prod.items():
        sign = (-1) ** x[0]
        assert xy == combine([(sign ** y[0], prod[(y, x)])])
        assert combine((u, d[w]) for w, u in xy.items()) == combine(
            [(u, prod[(w, y)]) for w, u in d[x].items() if w[0] + y[0] <= top]
            + [(sign * u, prod[(x, w)]) for w, u in d[y].items() if x[0] + w[0] <= top])
        for z in basis:
            if x[0] + y[0] + z[0] <= top:
                assert combine((u, prod[(w, z)]) for w, u in xy.items()) == combine(
                    (u, prod[(x, w)]) for w, u in prod[(y, z)].items())


def test_sl4_cohomology_by_rank_nullity_on_the_bitmask_differentials():
    # H*(sl4) has Poincare polynomial (1 + t^3)(1 + t^5)(1 + t^7); the 15
    # maps of d alone, with no product table (3^15 rows) and no d^2 read
    masks, _, diff = _ce_differentials(builtin_algebra("sl4"))
    assert [len(row) for row in masks] == [comb(15, k) for k in range(16)]
    assert sum(len(m.entries) for m in diff) == 179008
    assert _rank_nullity([len(row) for row in masks], diff) == [
        1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_torus_model_dims_and_cohomology(n):
    t = torus_model(n)
    assert t.dims() == [comb(n, k) for k in range(n + 1)]
    assert all(m.is_zero() for m in t.diff)
    assert t.de_rham_dims() == [comb(n, k) for k in range(n + 1)]
    assert t.d_squared_residual() == 0


def test_torus_range_check(capsys):
    # the CLI keeps --torus to 1..4; ce_model itself takes any abelian(n)
    for n in ("0", "5"):
        assert main(["complex", "--builtin", "so3", "--lambda", "0,0,1", "--torus", n]) == 2
        assert capsys.readouterr().err == f"input error: --torus must be in 1..4, got {n}\n"


def test_torus_product_signs():
    t2 = torus_model(2)
    # dx1 ^ dx2 = vol, dx2 ^ dx1 = -vol, dx1 ^ dx1 = 0
    assert t2.multiply(1, 0, 1, 1) == {0: F(1)}
    assert t2.multiply(1, 1, 1, 0) == {0: F(-1)}
    assert t2.multiply(1, 0, 1, 0) == {}
    assert t2.multiply(0, 0, 1, 1) == {1: F(1)}


def test_dga_json_round_trip():
    t2 = torus_model(2)
    again = DGAModel.from_json(t2.to_json())
    assert again.basis == t2.basis
    assert again.product == t2.product
    assert [m.to_json() for m in again.diff] == [m.to_json() for m in t2.diff]


def test_ce_su3_json_round_trip_keeps_the_product_table():
    # DGAModel equality skips the product, so the table is compared by itself
    model = ce_model(builtin_algebra("su3"), "ce(su3)")
    again = DGAModel.from_json(json.loads(json.dumps(model.to_json())))
    assert again == model
    assert len(again.product) == len(model.product) == 3 ** 8
    assert again.product == model.product


@pytest.mark.parametrize(
    "product",
    [
        [[0, 0]],  # wrong arity
        [[0, 0, 0, 0, [], 1]],
        [[0, 0, 0, 0, 7]],  # table is not a list
        [["x", 0, 0, 0, []]],  # non-integer field
        [[0, 0, 0, 0, [["y", "1"]]]],
        [[0, 0, 0, 0, [[0]]]],  # table entry without a coefficient
        [[1, 0, 2, 0, []]],  # i + j above the top degree
        [[3, 0, 0, 0, []]],
        [[-1, 0, 1, 0, []]],
        [[0, 1, 1, 0, []]],  # a out of range
        [[1, 0, 1, 5, [[0, "1"]]]],  # b out of range
        [[0, 0, 1, 0, [[9, "1"]]]],  # c out of range in degree i + j
        7,
        [[0, 0, 0, 0, [[0, "1"]]], [0, 0, 1, 0, [[0, "1/0"]]]],  # bad literal after a good one
        [[0, 0, 0, 0, [[0, [1]]]]],  # unhashable coefficient
        [[0.0, 0, 1, 0, [[0, "1"]]]],  # a float degree
        [[0, 0, True, 0, [[0, "1"]]]],  # a bool degree
        [[0, 0, 1, 0, [[0.0, "1"]]]],  # a float index in degree i + j
        [[0, 0, 1, 0, [[0, 0.5]]]],  # a float coefficient
        [[0, 0, 0, 0, [[0, 1]]], [0, 0, 1, 0, [[0, True]]]],  # True after an equal 1
    ],
)
def test_dga_json_malformed_product_is_format_error(product):
    data = torus_model(2).to_json()
    data["product"] = product
    with pytest.raises(FormatError):
        DGAModel.from_json(data)


@pytest.mark.parametrize("basis", ["ab", [["a"], "x"]], ids=["basis-string", "row-string"])
def test_dga_json_basis_rows_must_be_lists(basis):
    data = {"name": "m", "basis": [["a"], ["x"]], "diff": [{"rows": 1, "cols": 1, "entries": []}]}
    assert DGAModel.from_json(data).basis == (("a",), ("x",))
    data["basis"] = basis
    with pytest.raises(FormatError, match="must be a list"):
        DGAModel.from_json(data)


def test_dga_json_second_product_row_for_a_key_is_format_error():
    data = torus_model(2).to_json()
    data["product"].append([1, 0, 1, 1, [[0, "2"]]])  # dx1 ^ dx2 again
    with pytest.raises(FormatError, match="a second row for"):
        DGAModel.from_json(data)


def test_dga_json_repeated_index_in_a_product_row_is_format_error():
    data = torus_model(2).to_json()
    data["product"] = [[1, 0, 1, 1, [[0, "1"], [0, "2"]]]]
    with pytest.raises(FormatError, match="index 0 appears twice"):
        DGAModel.from_json(data)


def test_dga_json_second_diff_entry_for_a_position_is_format_error():
    data = {"name": "m", "basis": [["a"], ["x"]],
            "diff": [{"rows": 1, "cols": 1, "entries": [[0, 0, "1"]]}]}
    assert DGAModel.from_json(data).diff[0].to_dense() == [[F(1)]]
    data["diff"][0]["entries"].append([0, 0, "5"])  # a later value does not replace it
    with pytest.raises(FormatError, match=r"a second entry for \[0, 0\]"):
        DGAModel.from_json(data)


def test_dga_json_parses_each_coefficient_literal_once(monkeypatch):
    import spencerbench.linalg as linalg_mod

    parsed = []
    original = linalg_mod.parse_scalar
    monkeypatch.setattr(linalg_mod, "parse_scalar", lambda v: parsed.append(v) or original(v))
    t3 = torus_model(3)
    again = DGAModel.from_json(t3.to_json())
    assert again.product == t3.product
    assert sorted(parsed) == ["-1", "1"]


def _drop_last_diff(data):
    data["diff"].pop()


def _add_diff(data):
    data["diff"].append({"rows": 1, "cols": 1, "entries": []})


def _set_diff_field(index, name, value):
    def edit(data):
        data["diff"][index][name] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set_diff_field(0, "rows", 3),
        _set_diff_field(0, "cols", 2),
        _set_diff_field(1, "rows", 2),
        _set_diff_field(1, "cols", 1),
        _drop_last_diff,
        _add_diff,
    ],
    ids=["d0-rows", "d0-cols", "d1-rows", "d1-cols", "too-few", "too-many"],
)
def test_dga_json_diff_shapes_checked_against_basis(edit):
    data = torus_model(2).to_json()
    edit(data)
    with pytest.raises(FormatError):
        DGAModel.from_json(data)


# --- assembly ----------------------------------------------------------------


def test_lam_zero_differentials_vanish():
    c = build_complex(torus_model(2), SO3, SO3.dual([0, 0, 0]), 3)
    assert all(m.is_zero() for m in c.differentials)


def test_block_assembly_matches_delta_matrices():
    # oracle: entries of D^1 must be Koszul-signed copies of the delta
    # matrices in the expected segments, with the d-block zero on the torus
    lam = SO3.dual_basis_vector(2)
    K = 3
    c = build_complex(torus_model(2), SO3, lam, K)
    d1 = c.differentials[1]
    deltas = [delta_matrix(lam, j) for j in range(K)]
    # degree-1 basis: (0, "1", S^1) then (1, dx_a, S^0)
    # degree-2 basis: (0, "1", S^2), (1, dx_a, S^1), (2, vol, S^0)
    s1, s2 = sym_dim(3, 1), sym_dim(3, 2)
    for r in range(s2):
        for col in range(s1):
            assert d1.get(r, col) == deltas[1].get(r, col)  # (+1)^0 block
    # the (1, dx_a) segments carry sign (-1)^1
    off_c = s1
    off_r = s2
    for a in range(2):
        for r in range(s1):
            for col in range(1):
                assert d1.get(off_r + a * s1 + r, off_c + a) == -deltas[0].get(r, col)
    assert d_squared_residual(c) != 0  # measured: the coupled operator fails


def test_cohomology_dims_lam_zero_counting_oracle():
    c = build_complex(torus_model(2), SO3, SO3.dual([0, 0, 0]), 3)
    rep = cohomology_report(c)
    expected = [
        sum(comb(2, i) * sym_dim(3, k - i) for i in range(min(k, 2) + 1))
        for k in range(3)
    ]
    assert rep.dims == expected == [1, 5, 13]
    assert rep.euler == 1 - 5 + 13


def test_abelian_full_dims():
    ab = builtin_algebra("abelian(2)")
    c = build_complex(torus_model(1), ab, ab.dual_basis_vector(0), 2)
    rep = cohomology_report(c)
    assert rep.dims == [len(c.bases[0]), len(c.bases[1])]
    assert d_squared_residual(c) == 0


def test_noncomplex_flagged_dims_withheld():
    c = build_complex(torus_model(2), SO3, SO3.dual_basis_vector(2), 4)
    rep = cohomology_report(c)
    assert rep.dims is None and rep.euler is None
    assert rep.flags and "withheld" in rep.flags[0]
    assert rep.d_squared != 0


def test_rank_paths_agree_on_differentials():
    # rational row reduction vs integer fraction-free elimination
    lam = SL2.dual([1, 2, -1])
    c = build_complex(torus_model(2), SL2, lam, 3)
    for m in c.differentials:
        assert m.rank() == m.rank_bareiss()


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", ["so3", "sl2", "abelian(2)"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diagonal_block_shapes_match_the_built_blocks(n, name, K):
    # the diagonal space Omega^k x S^k is segment k of degree 2k, where
    # build_complex keeps d_k x I and (-1)^k I x delta_k as Kronecker factors;
    # they map it into Omega^{k+1} x S^k and Omega^k x S^{k+1}, so the
    # diagonal spaces form no complex
    alg = builtin_algebra(name)
    dga = torus_model(n)
    lam = alg.dual_basis_vector(0)
    shapes = oracle_diagonal_block_shapes(dga, lam, K)
    c = build_complex(dga, alg, lam, 2 * len(shapes) - 1)
    for k, (d_shape, delta_shape) in enumerate(shapes):
        built = {row: kron(a, b).shape for (row, col), [(_, a, b)] in c.kron_blocks[2 * k].items()
                 if col == k}
        assert built.pop(k + 1, (0, delta_shape[1])) == d_shape
        assert built == {k: delta_shape}
    assert len(shapes) == min(K, n + 1)
    if K > n:
        assert shapes[n][0][0] == 0  # no d block rows at the top degree
    if (n, name, K) == (2, "so3", 3):
        # Omega^1 x S^1 has dim 2*3; its images split over two bigraded pieces
        assert shapes[1] == ((1 * 3, 2 * 3), (2 * 6, 2 * 3))


def test_truncation_guard():
    with pytest.raises(MismatchError):
        build_complex(torus_model(2), SO3, SO3.dual_basis_vector(2), 0)


# --- cup products ------------------------------------------------------------


@pytest.fixture(scope="module")
def flat_complex():
    return build_complex(torus_model(2), SO3, SO3.dual([0, 0, 0]), 3)


def basis_rep(c, degree, i, a, ms):
    vec = [F(0)] * len(c.bases[degree])
    vec[c.bases[degree].index((i, a, ms))] = F(1)
    return tuple(vec)


def test_cup_unit_law(flat_complex):
    c = flat_complex
    unit = basis_rep(c, 0, 0, 0, ())
    other = basis_rep(c, 1, 1, 0, ())  # dx1 x 1
    degree, out = cup_product(c, 0, unit, 1, other)
    assert degree == 1 and out == other


def test_cup_torus_classes(flat_complex):
    c = flat_complex
    dx = basis_rep(c, 1, 1, 0, ())
    dy = basis_rep(c, 1, 1, 1, ())
    degree, out = cup_product(c, 1, dx, 1, dy)
    assert degree == 2 and any(out)
    assert not classes_equal(c, 2, out, tuple(F(0) for _ in out))
    _, zero = cup_product(c, 1, dx, 1, dx)
    assert not any(zero)


def test_cup_graded_commutative(flat_complex):
    c = flat_complex
    dx = basis_rep(c, 1, 1, 0, ())
    dy = basis_rep(c, 1, 1, 1, ())
    _, ab = cup_product(c, 1, dx, 1, dy)
    _, ba = cup_product(c, 1, dy, 1, dx)
    assert ab == tuple(-v for v in ba)  # odd form degrees anticommute
    # mixed element with even tensor factor commutes
    s = basis_rep(c, 1, 0, 0, (0,))  # 1 x e1, tensor degree 1, form degree 0
    _, st = cup_product(c, 1, s, 1, dx)
    _, ts = cup_product(c, 1, dx, 1, s)
    assert st == ts


def test_cup_rejects_nonclosed():
    lam = SL2.dual([1, 0, 0])
    c = build_complex(torus_model(2), SL2, lam, 3)
    vec = [F(0)] * len(c.bases[1])
    vec[c.bases[1].index((0, 0, (1,)))] = F(1)  # 1 x x is not closed here
    assert not all(v == 0 for v in c.differentials[1].apply(tuple(vec)))
    with pytest.raises(MismatchError):
        cup_product(c, 1, tuple(vec), 1, tuple(vec))


def test_cup_class_stable_under_boundaries(flat_complex):
    c = flat_complex
    dx = basis_rep(c, 1, 1, 0, ())
    dy = basis_rep(c, 1, 1, 1, ())
    assert cup_well_defined(c, 1, dx, 1, dy)


def test_cup_class_moves_with_a_boundary():
    # d(1) = a and a . b = ab: moving b by the boundary a moves b . b = 0 to
    # ab, which no boundary reaches (the only boundaries in degree 2 are a x e1)
    dga = DGAModel("d1-is-a", (("1",), ("a", "b"), ("ab",)),
                   (OperatorMatrix.from_dense([[1], [0]]), OperatorMatrix.zero(1, 2)),
                   {(1, 0, 1, 1): {0: F(1)}})
    ab1 = builtin_algebra("abelian(1)")
    c = build_complex(dga, ab1, ab1.dual([0]), 3)
    b = basis_rep(c, 1, 1, 1, ())
    assert cup_product(c, 1, b, 1, b)[1] == (F(0),) * len(c.bases[2])
    assert not cup_well_defined(c, 1, b, 1, b)


# --- mirror comparisons -------------------------------------------------------


def test_sign_mirror_exact_commutation_and_dims():
    c = build_complex(torus_model(2), SO3, SO3.dual([0, 0, 0]), 3)
    rep = mirror_invariance_check(c, sign_mirror())
    assert rep.commutation_holds
    assert rep.dims_equal


def test_sign_mirror_commutes_even_without_nilpotency():
    c = build_complex(torus_model(2), SO3, SO3.dual_basis_vector(2), 4)
    rep = mirror_invariance_check(c, sign_mirror())
    assert rep.commutation_holds
    assert rep.dims_equal is None  # both sides flagged, dims withheld


def test_identity_automorphism_mirror_trivial():
    c = build_complex(
        torus_model(2), SL2, SL2.dual([1, 2, 3]), 3,
        identification=Identification.KILLING,
    )
    auto = builtin_automorphism(SL2, "identity")
    k = 2
    psi = chain_map_matrix(c, automorphism_mirror(auto), k)
    assert psi == OperatorMatrix.identity(len(c.bases[k]))
    rep = mirror_invariance_check(c, automorphism_mirror(auto))
    assert rep.commutation_holds


def test_weyl_mirror_commutation_killing_mode():
    lam = builtin_algebra("sl3").dual([0] * 8)
    c = build_complex(
        torus_model(2), builtin_algebra("sl3"), lam, 3,
        identification=Identification.KILLING,
    )
    for auto in weyl_mirrors(3)[:4]:
        rep = mirror_invariance_check(c, automorphism_mirror(auto))
        assert rep.commutation_holds
        assert rep.dims_equal
        # chain maps are isomorphisms: square and full rank
        for k in range(c.K):
            psi = chain_map_matrix(c, automorphism_mirror(auto), k)
            assert psi.rows == psi.cols == len(c.bases[k])
            assert psi.rank() == psi.rows


def test_nontrivial_weyl_mirror_with_nonzero_lambda():
    # nonzero dual vector, killing identification: commutation is exact even
    # though the complex itself fails nilpotency (flagged, dims withheld)
    sl3 = builtin_algebra("sl3")
    lam = sl3.dual([1, 0, 2, 0, 0, -1, 0, 3])
    c = build_complex(
        torus_model(2), sl3, lam, 2, identification=Identification.KILLING
    )
    auto = weyl_mirrors(3)[3]
    rep = mirror_invariance_check(c, automorphism_mirror(auto))
    assert rep.commutation_holds


def test_coordinate_identification_commutation_residual_reported():
    # under the coordinate pairing the automorphism chain map fails to
    # commute for non-orthogonal mirrors; the residual must be visible
    sl3 = builtin_algebra("sl3")
    lam = sl3.dual([1, 2, 3, 4, 5, 6, 7, 8])
    c = build_complex(torus_model(2), sl3, lam, 2, identification=Identification.BASIS)
    auto = builtin_automorphism(sl3, "permutation:231")
    rep = mirror_invariance_check(c, automorphism_mirror(auto))
    assert not rep.commutation_holds
    assert any(r != 0 for r in rep.commutation_residuals)


def test_sign_vs_negated_complex_direct():
    # rebuilt-with-negated-dual complex equals the sign of the original blocks
    lam = SO3.dual_basis_vector(2)
    c1 = build_complex(torus_model(2), SO3, lam, 3)
    c2 = build_complex(torus_model(2), SO3, -lam, 3)
    rep1 = cohomology_report(c1)
    rep2 = cohomology_report(c2)
    assert rep1.flags == rep2.flags
    assert rep1.dims == rep2.dims  # both withheld here
    for m1, m2 in zip(c1.differentials, c2.differentials):
        diff = m1 + m2  # delta blocks negate; d blocks vanish on the torus
        assert all(
            key[0] < len(c1.bases) for key in diff.entries
        )


# --- product-formula diagnostic ----------------------------------------------


def test_kunneth_lam_zero_matches():
    c = build_complex(torus_model(2), SO3, SO3.dual([0, 0, 0]), 3)
    rep = kunneth_diagnostic(c)
    assert rep.matches
    assert [row[1] for row in rep.per_degree] == [1, 5, 13]


def test_kunneth_abelian_matches():
    ab = builtin_algebra("abelian(3)")
    c = build_complex(torus_model(2), ab, ab.dual([1, 1, 0]), 3)
    rep = kunneth_diagnostic(c)
    assert rep.matches


def test_kunneth_not_applicable_without_nilpotency():
    c = build_complex(torus_model(2), SO3, SO3.dual_basis_vector(2), 3)
    rep = kunneth_diagnostic(c)
    assert rep.matches is None
    assert rep.flags and "not applicable" in rep.flags[0]


def test_kunneth_independent_rank_oracle():
    # recompute the delta-side dims with the second (integer) rank path
    ab = builtin_algebra("abelian(2)")
    lam = ab.dual([3, -2])
    c = build_complex(torus_model(2), ab, lam, 3)
    rep = kunneth_diagnostic(c)
    base = c.dga.de_rham_dims()
    prev = 0
    delta_h = []
    for j in range(c.K):
        rank = c.delta_matrices[j].rank_bareiss()
        delta_h.append(sym_dim(2, j) - rank - prev)
        prev = rank
    for k, total_dim, formula_dim in rep.per_degree:
        oracle = sum(
            base[i] * delta_h[k - i] for i in range(min(k, 2) + 1) if k - i < len(delta_h)
        )
        assert formula_dim == oracle
        assert total_dim == oracle


# --- a base model with a non-zero differential ----------------------------------


def test_ce_so3_base_with_nonzero_differential():
    dga = ce_model(SO3, "ce(so3)")
    assert any(not m.is_zero() for m in dga.diff)
    assert dga.d_squared_residual() == 0
    assert dga.de_rham_dims() == [1, 0, 0, 1]  # H*(so3) = H*(S^3)
    ab = builtin_algebra("abelian(2)")
    c = build_complex(dga, ab, ab.dual([1, -2]), 4)
    assert any(not m.is_zero() for m in c.differentials)
    assert d_squared_residual(c) == 0
    rep = cohomology_report(c)
    assert rep.dims == [1, 2, 3, 5]  # Betti(S^3) convolved with dim Sym^j(R^2)
    kun = kunneth_diagnostic(c)
    assert kun.matches
    assert [row[1] for row in kun.per_degree] == [1, 2, 3, 5]
    mi = mirror_invariance_check(c, sign_mirror())
    assert mi.commutation_holds and mi.dims_equal


def test_ce_so3_with_sl3_fiber_splits_the_top_differential():
    # lambda = 0: D = d x 1 is one copy of the CE differential per multiset,
    # so the top differential falls apart into many components
    c = build_complex(ce_model(SO3, "ce(so3)"), SL3, SL3.dual([0] * 8), 6)
    assert d_squared_residual(c) == 0
    # Betti(so3) = (1, 0, 0, 1) convolved with dim Sym^j(sl3) = C(j + 7, 7)
    betti = [1, 0, 0, 1]
    expected = [sum(betti[i] * comb(k - i + 7, 7) for i in range(min(k, 3) + 1))
                for k in range(6)]
    assert expected == [1, 8, 36, 121, 338, 828]
    assert cohomology_report(c).dims == expected
    top = c.differentials[-1]
    assert top.rank() == 990  # rank 3 of d on CE^1(so3) times dim Sym^4(sl3) = 330
    # the independent cross-check, one component at a time
    blocks = oracle_components(top)
    assert len(blocks) > 1
    assert sum(rank_bareiss(block) for block in blocks) == 990


def test_koszul_sign_cancels_cross_terms_of_d_squared():
    # with d != 0 and delta != 0, D^2 = d^2 x 1 + 1 x delta^2 holds only when
    # the mixed terms d x delta cancel, i.e. the delta block carries (-1)^i
    dga = ce_model(SO3, "ce(so3)")
    lam = SO3.dual([1, -2, 3])
    K = 4
    c = build_complex(dga, SO3, lam, K)
    assert d_squared_residual(c) != 0  # delta^2 != 0 on so3
    for k in range(K - 1):
        rows, n_rows = segment_offsets(dga, SO3.dim, k + 2)
        cols, n_cols = segment_offsets(dga, SO3.dim, k)
        want = oracle_block_matrix(n_rows, n_cols, [
            (rows[i], start, kron(OperatorMatrix.identity(len(dga.basis[i])),
                                  c.delta_matrices[k - i + 1] @ c.delta_matrices[k - i]))
            for i, start in cols.items()])
        assert c.differentials[k + 1] @ c.differentials[k] == want


def test_d_squared_sums_the_koszul_cross_block_from_its_two_terms():
    # d(1) = 100 a makes max |d_0 x delta_1| = 100 max |delta_1| larger than
    # every other block of D^2 D^1, so the residual is exact only if the two
    # cross terms, with signs +1 and -1, are added and cancel
    dga = DGAModel("d0-is-100a", (("1",), ("a", "b"), ("ab",)),
                   (OperatorMatrix.from_dense([[100], [0]]), OperatorMatrix.zero(1, 2)))
    c = build_complex(dga, SO3, SO3.dual([1, -2, 3]), 3)
    d_squared = (c.delta_matrices[2] @ c.delta_matrices[1]).max_abs()
    assert 0 < d_squared < 100 * c.delta_matrices[1].max_abs()
    assert d_squared_residual(c) == d_squared == oracle_total_residuals(c)[0]


def swap_base_maps():
    """Swap of the two one-form generators of torus2, with the induced
    orientation flip in degree 2: an invertible chain map of the base."""
    return {
        0: OperatorMatrix.identity(1),
        1: OperatorMatrix.from_dense([[F(0), F(1)], [F(1), F(0)]]),
        2: OperatorMatrix.from_dense([[F(-1)]]),
    }


def sl2_killing_complex():
    sl2 = builtin_algebra("sl2")
    return build_complex(
        torus_model(2), sl2, sl2.dual([1, 0, 0]), 3,
        identification=Identification.KILLING,
    )


def test_user_supplied_base_map_composes_into_chain_map():
    # the mirror comparison accepts the swap per degree and commutation
    # stays exact
    c = sl2_killing_complex()
    base_maps = swap_base_maps()
    auto = builtin_automorphism(c.algebra, "negate_transpose")
    rep = mirror_invariance_check(c, automorphism_mirror(auto), base_maps=base_maps)
    assert rep.commutation_holds
    psi = chain_map_matrix(c, automorphism_mirror(auto), 2, base_maps)
    assert psi.rank() == len(c.bases[2])


def test_sign_mirror_composes_with_base_maps():
    # psi = kron(base_maps[i], (-1)^j I) on each segment Omega^i x S^j, the
    # same construction as for an automorphism mirror
    c = sl2_killing_complex()
    base_maps = swap_base_maps()
    for k in range(c.K + 1):
        offsets, total = segment_offsets(c.dga, c.algebra.dim, k)
        want = oracle_block_matrix(total, total, [
            (start, start, kron(base_maps[i], OperatorMatrix.identity(
                sym_dim(c.algebra.dim, k - i)).scaled((-1) ** (k - i))))
            for i, start in offsets.items()])
        psi = chain_map_matrix(c, sign_mirror(), k, base_maps)
        assert psi == want
        if k >= 1:
            assert psi != chain_map_matrix(c, sign_mirror(), k)
    rep = mirror_invariance_check(c, sign_mirror(), base_maps=base_maps)
    assert rep.commutation_holds
    assert all(r == 0 for r in rep.commutation_residuals)


@pytest.mark.parametrize("name", ["su3", "so3"])
def test_chain_map_rejects_an_automorphism_of_another_algebra(name):
    # an sl3 mirror on an su3 complex (same dimension) or an so3 complex
    alg = builtin_algebra(name)
    c = build_complex(torus_model(1), alg, alg.dual_basis_vector(0), 2)
    transform = automorphism_mirror(builtin_automorphism(SL3, "permutation:231"))
    with pytest.raises(MismatchError):
        chain_map_matrix(c, transform, 2)


def test_chain_map_rejects_a_base_map_of_the_wrong_shape():
    c = sl2_killing_complex()
    base_maps = swap_base_maps()
    base_maps[1] = OperatorMatrix.identity(3)
    with pytest.raises(MismatchError):
        chain_map_matrix(c, sign_mirror(), 2, base_maps)


def test_chain_map_needs_a_base_map_in_every_form_degree():
    c = sl2_killing_complex()
    base_maps = swap_base_maps()
    del base_maps[1]
    with pytest.raises(MismatchError):
        chain_map_matrix(c, sign_mirror(), 2, base_maps)
    with pytest.raises(MismatchError):
        mirror_invariance_check(c, sign_mirror(), base_maps=base_maps)


# --- the factored residuals against total-size products ---------------------------


MIRROR_KINDS = {
    "so3": ["sign", "identity"],
    "sl2": ["sign", "identity", "negate_transpose", "permutation:21"],
    "sl3": ["sign", "identity", "negate_transpose", "permutation:231"],
}


@functools.lru_cache(maxsize=None)
def base_model(name):
    return ce_model(SO3, "ce(so3)") if name == "ce(so3)" else torus_model(int(name[-1]))


def diagonal_base_maps(dga):
    """diag(1, 2, ..., |Omega^i|) in every form degree: invertible, and on
    CE(so3) not a chain map (d e^1 lands on e^2 e^3, which it scales by 3)."""
    return {i: OperatorMatrix.from_dense([[F(r + 1) if r == c else F(0) for c in range(n)]
                                          for r in range(n)])
            for i, n in enumerate(dga.dims())}


BASE_MAPS = {
    "none": lambda dga: None,
    "identity": lambda dga: {i: OperatorMatrix.identity(n) for i, n in enumerate(dga.dims())},
    "swap": lambda dga: swap_base_maps(),
    "not-a-chain-map": diagonal_base_maps,
}


@st.composite
def complex_cases(draw):
    base = draw(st.sampled_from(["torus1", "torus2", "torus3", "ce(so3)"]))
    name = draw(st.sampled_from(sorted(MIRROR_KINDS)))
    K = draw(st.integers(1, 3 if name == "sl3" else 4))
    convention = draw(st.sampled_from([c.value for c in LeibnizConvention]))
    identification = draw(st.sampled_from([i.value for i in Identification]))
    lam = tuple(draw(st.lists(st.integers(-3, 3), min_size=builtin_algebra(name).dim,
                              max_size=builtin_algebra(name).dim)))
    kind = draw(st.sampled_from(MIRROR_KINDS[name]))
    maps = ["none", "identity"] + {"torus2": ["swap"], "ce(so3)": ["not-a-chain-map"]}.get(base, [])
    return base, name, K, convention, identification, lam, kind, draw(st.sampled_from(maps))


@settings(deadline=None)
@example(("ce(so3)", "sl3", 3, "unsigned", "killing", (1, -2, 0, 3, 1, 0, -1, 2),
          "permutation:231", "not-a-chain-map"))
@example(("ce(so3)", "so3", 4, "paper-signed", "basis", (1, -2, 3), "sign", "not-a-chain-map"))
@example(("torus2", "sl2", 4, "unsigned", "basis", (1, 2, 3), "negate_transpose", "swap"))
@example(("torus3", "sl3", 3, "unsigned", "basis", (1, 2, 3, 4, 5, 6, 7, 8),
          "permutation:231", "none"))
@given(complex_cases())
def test_factored_residuals_match_total_size_products(case):
    base, name, K, convention, identification, lam, kind, maps = case
    alg, dga = builtin_algebra(name), base_model(base)
    transform = (sign_mirror() if kind == "sign"
                 else automorphism_mirror(builtin_automorphism(alg, kind)))
    base_maps = BASE_MAPS[maps](dga)
    instance = build_complex(dga, alg, alg.dual(lam), K, convention, identification)
    d_squared, commutation = oracle_total_residuals(instance, transform, base_maps)
    assert d_squared_residual(instance) == d_squared
    mirrored = build_complex(dga, alg, mirror_lambda(transform, instance.lam), K,
                             convention, identification)
    assert commutation_residuals(instance, mirrored, transform, base_maps) == commutation
    if maps == "not-a-chain-map" and K >= 2:
        # the d blocks of psi D - D' psi carry F_2 d_1 - d_1 F_1 != 0
        assert any(commutation)
    assert instance.differentials == oracle_total_differentials(instance, oracle_block_matrix)


@pytest.mark.parametrize("base, name, maps", [("torus2", "sl2", "swap"),
                                             ("ce(so3)", "so3", "not-a-chain-map")])
def test_sign_mirror_with_base_maps_shares_a_factor_in_every_block(base, name, maps,
                                                                   monkeypatch):
    # T_j = (-1)^j I and the identity of a d block are one factor up to its
    # sign, so no block falls through to the build at block size
    def refuse(factor):
        raise AssertionError("built a block at block size")

    monkeypatch.setattr(cohomology_mod, "_matrix", refuse)
    alg, dga = builtin_algebra(name), base_model(base)
    base_maps = BASE_MAPS[maps](dga)
    instance = build_complex(dga, alg, alg.dual(range(1, alg.dim + 1)), 3)
    mirrored = build_complex(dga, alg, mirror_lambda(sign_mirror(), instance.lam), 3)
    got = commutation_residuals(instance, mirrored, sign_mirror(), base_maps)
    assert got == oracle_total_residuals(instance, sign_mirror(), base_maps)[1]


def random_matrix(rng, rows, cols):
    return OperatorMatrix.from_dense([[F(rng.randint(-4, 4), rng.randint(1, 3))
                                       for _ in range(cols)] for _ in range(rows)])


def test_block_max_abs_builds_only_terms_that_share_no_factor(monkeypatch):
    rng = random.Random(7)
    a1, a2 = random_matrix(rng, 2, 3), random_matrix(rng, 2, 3)
    b1, b2 = random_matrix(rng, 3, 2), random_matrix(rng, 3, 2)
    built = []
    monkeypatch.setattr(cohomology_mod, "kron", lambda a, b: built.append(1) or kron(a, b))

    def oracle(terms):
        return oracle_block_matrix(6, 6, [(0, 0, kron(a, b).scaled(c))
                                          for c, a, b in terms]).max_abs()

    for terms, kron_calls in [
        ([(2, a1, b1), (-1, a2, b2)], 2),  # no shared factor: built at block size
        ([(2, a1, b1), (F(-1, 3), a1, b2)], 0),  # shared left factor
        ([(2, a1, b1), (-1, a2, b1)], 0),  # shared right factor
        ([(1, a1, b1), (-1, a1, b1)], 0),  # the Koszul cross block: coefficients cancel
        ([(2, a1, b1), (F(1, 2), a1, b1)], 0),  # shared factors: coefficients add to 5/2
        ([(F(-5, 2), a2, b2)], 0),  # one term: |c| max|A| max|B|
    ]:
        built.clear()
        assert _block_max_abs(terms) == oracle(terms)
        assert len(built) == kron_calls
    assert _block_max_abs([(1, a1, b1), (-1, a1, b1)]) == 0


def test_a_residual_reader_reads_each_term_list_once_up_to_its_sign(monkeypatch):
    rng = random.Random(11)
    a, b = random_matrix(rng, 3, 2), random_matrix(rng, 3, 2)
    reads = []
    monkeypatch.setattr(linalg_mod, "residual_max_abs",
                        lambda terms, split: reads.append(1) or residual_max_abs(terms, split))
    read = read_once()
    plus = oracle_block_matrix(3, 2, [(0, 0, a), (0, 0, b)]).max_abs()
    minus = oracle_block_matrix(3, 2, [(0, 0, a), (0, 0, b.scaled(-1))]).max_abs()
    assert plus != minus
    assert read([(1, a), (1, b)]) == plus
    assert read([(-1, a), (-1, b)]) == plus  # the same list up to its sign
    assert read([(1, a), (-1, b)]) == minus  # another list of the same factors
    assert len(reads) == 2
    assert read([(F(-5, 2), a)]) == F(5, 2) * a.max_abs()  # one matrix: no row read
    assert len(reads) == 2


@pytest.mark.parametrize("argv", [
    ["complex", "--builtin", "sl3", "--lambda=1,-2,3,0,2,-1,1,2", "--K", "4", "--torus", "3",
     "--mirror", "weyl:231"],
    ["complex", "--builtin", "so3", "--lambda=0,0,1", "--K", "4", "--mirror", "sign"],
], ids=["sl3-top-rung", "so3-sign"])
def test_the_residuals_of_a_complex_build_no_product_difference_or_block_sum(
        argv, monkeypatch, capsys):
    inside = []

    def guarded(name, method):
        def run(*args, **kwargs):
            assert not inside, f"{inside[-1]} called OperatorMatrix.{name}"
            return method(*args, **kwargs)
        return run

    for name in ("__matmul__", "__sub__"):
        monkeypatch.setattr(OperatorMatrix, name, guarded(name, getattr(OperatorMatrix, name)))
    monkeypatch.setattr(OperatorMatrix, "from_blocks",
                        classmethod(guarded("from_blocks", OperatorMatrix.from_blocks.__func__)))
    calls = []

    def entered(name, residual):
        def run(*args, **kwargs):
            calls.append(name)
            inside.append(name)
            try:
                return residual(*args, **kwargs)
            finally:
                inside.pop()
        return run

    for name in ("d_squared_residual", "commutation_residuals"):
        monkeypatch.setattr(cohomology_mod, name, entered(name, getattr(cohomology_mod, name)))
    assert main(argv) == 0
    # D^2 of the complex and of its mirror, and one commutation check
    assert sorted(calls) == ["commutation_residuals", "d_squared_residual", "d_squared_residual"]
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["d_squared_residual"] != "0"


def test_a_mirrored_complex_splits_each_factor_into_rows_once(monkeypatch, capsys):
    """On the cohomology top rung, D^2 of the complex and of its mirror and
    the commutation check share one reader: every matrix any read takes is
    split into rows once, however many reads take it."""
    matrices, reads, added = {}, Counter(), []

    def counting(terms, split):
        before = len(split)
        out = residual_max_abs(terms, split)
        added.append(len(split) - before)
        taken = {id(m): m for c, a, b in terms if c for m in (a, b) if m is not None}
        matrices.update(taken)
        reads.update(taken.keys())
        return out

    monkeypatch.setattr(linalg_mod, "residual_max_abs", counting)
    assert main(["complex", "--builtin", "sl3", "--lambda=1,-2,3,0,2,-1,1,2", "--K", "4",
                 "--torus", "3", "--mirror", "weyl:231"]) == 0
    capsys.readouterr()
    assert max(reads.values()) > 1  # delta_j: in delta_{j+1} delta_j and delta_j delta_{j-1}
    assert sum(added) == len(matrices)


@pytest.mark.parametrize("argv", [
    ["complex", "--builtin", "so3", "--lambda=0,0,1", "--K", "4", "--mirror", "sign"],
    ["complex", "--builtin", "sl3", "--lambda=1,-1/2,2,3,-5,1/3,4,7", "--K", "3",
     "--torus", "1", "--identification", "killing", "--mirror", "weyl:231"],
], ids=["so3-sign", "sl3-weyl"])
def test_a_run_whose_d_squared_is_not_zero_assembles_no_total_matrix(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("assembled a total-size matrix")

    monkeypatch.setattr(cohomology_mod, "_assemble", refuse)
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["d_squared_residual"] != "0" and report["report"]["dims"] == []
    assert report["mirror"]["commutation_holds"]
