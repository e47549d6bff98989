import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spencerbench.mirror as mirror_mod
from oracles import oracle_sign_residual
from spencerbench.cli import main
from spencerbench.errors import MismatchError
from spencerbench.liealg import builtin_algebra, builtin_automorphism, killing_gram, weyl_mirrors
from spencerbench.linalg import OperatorMatrix
from spencerbench.mirror import (
    TRANSPORT_INVERSE,
    TRANSPORT_LITERAL,
    automorphism_mirror,
    induced_tensor_map,
    intertwining_check,
    mirror_lambda,
    sign_mirror,
)
from spencerbench.spencer import Identification, LeibnizConvention, delta_matrix
from spencerbench.symtensor import (
    basis_tensor,
    eval_tensor,
    multisets,
    sym_dim,
)

F = Fraction
SO3 = builtin_algebra("so3")
SL2 = builtin_algebra("sl2")
SL3 = builtin_algebra("sl3")
SU3 = builtin_algebra("su3")


def rand_lambda(rng, alg):
    while True:
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(alg.dim)]
        if any(coeffs):
            return alg.dual(coeffs)


# --- dual transport ----------------------------------------------------------


def test_sign_mirror_negates():
    lam = SO3.dual_basis_vector(2)
    assert mirror_lambda(sign_mirror(), lam) == -lam


def test_sign_mirror_involution():
    rng = random.Random(31)
    for _ in range(20):
        lam = rand_lambda(rng, SO3)
        assert mirror_lambda(sign_mirror(), mirror_lambda(sign_mirror(), lam)) == lam


def test_automorphism_transport_sl2_example():
    # negate-transpose sends h* to -h* under the contragredient transport
    auto = builtin_automorphism(SL2, "negate_transpose")
    lam = SL2.dual_basis_vector(0)
    out = mirror_lambda(automorphism_mirror(auto), lam)
    assert out == SL2.dual([-1, 0, 0])


def test_transport_directions_differ_for_noninvolutive():
    auto = builtin_automorphism(SL3, "permutation:231")
    rng = random.Random(32)
    lam = rand_lambda(rng, SL3)
    inv = mirror_lambda(automorphism_mirror(auto), lam, TRANSPORT_INVERSE)
    lit = mirror_lambda(automorphism_mirror(auto), lam, TRANSPORT_LITERAL)
    assert inv != lit
    # transported-by-inverse then transported-literal returns lam
    assert mirror_lambda(automorphism_mirror(auto), inv, TRANSPORT_LITERAL) == lam


def test_transport_preserves_nondegeneracy():
    rng = random.Random(33)
    auto = builtin_automorphism(SL3, "permutation:312")
    for _ in range(10):
        lam = rand_lambda(rng, SL3)
        assert mirror_lambda(sign_mirror(), lam).is_nondegenerate()
        assert mirror_lambda(automorphism_mirror(auto), lam).is_nondegenerate()


def test_transport_linear_in_lambda():
    auto = builtin_automorphism(SL2, "negate_transpose")
    t = automorphism_mirror(auto)
    a, b = SL2.dual([1, 2, 3]), SL2.dual([0, -1, 4])
    assert mirror_lambda(t, a + b) == mirror_lambda(t, a) + mirror_lambda(t, b)


# --- induced tensor maps -----------------------------------------------------


def test_identity_gives_identity_both_modes():
    auto = builtin_automorphism(SL2, "identity")
    for ident in Identification:
        for k in (0, 1, 2, 3):
            assert induced_tensor_map(auto, k, ident) == OperatorMatrix.identity(
                sym_dim(3, k)
            )


def test_degree_zero_is_one_by_one():
    auto = builtin_automorphism(SL2, "negate_transpose")
    m = induced_tensor_map(auto, 0)
    assert m == OperatorMatrix.identity(1)


def test_functoriality_on_weyl_pairs():
    mirrors = weyl_mirrors(3)
    a, b = mirrors[3], mirrors[4]  # the two 3-cycles
    composed_matrix = OperatorMatrix(SL3.dim, SL3.dim, {
        (i, j): sum(a.matrix.get(i, k) * b.matrix.get(k, j) for k in range(SL3.dim))
        for i in range(SL3.dim) for j in range(SL3.dim)
    })
    match = [m for m in mirrors if m.matrix == composed_matrix]
    assert len(match) == 1
    for ident in Identification:
        for k in (1, 2):
            lhs = induced_tensor_map(a, k, ident) @ induced_tensor_map(b, k, ident)
            assert lhs == induced_tensor_map(match[0], k, ident)


def test_mirror_command_builds_each_power_map_once(monkeypatch, capsys):
    # degrees 1..3 each need the maps of degree k and k + 1, for two transports
    builds = []
    original = mirror_mod.symmetric_power_matrix

    def counting(*args):
        builds.append(args[2])
        return original(*args)

    monkeypatch.setattr(mirror_mod, "symmetric_power_matrix", counting)
    induced_tensor_map.cache_clear()
    code = main(["mirror", "--builtin", "sl3", "--lambda=1,2,3,4,5,6,7,8", "--K", "4",
                 "--transform", "weyl:231"])
    induced_tensor_map.cache_clear()
    capsys.readouterr()
    assert code == 0
    assert sorted(builds) == [1, 2, 3, 4]



def test_mirror_command_builds_each_delta_and_mapped_delta_once(monkeypatch, capsys):
    """Degrees 1..3, two transports: delta^lam_k and T_{k+1} delta^lam_k
    once per degree, delta^lam'_k and delta^lam'_k T_k once per transport,
    so 9 deltas and 9 products in mirror instead of 12 of each."""
    deltas, products = [], []
    original_delta, original_matmul = mirror_mod.delta_matrix, OperatorMatrix.__matmul__

    def counting_delta(lam, k, *args):
        deltas.append((lam.coeffs, k))
        return original_delta(lam, k, *args)

    def counting_matmul(a, b):
        if sys._getframe(1).f_globals["__name__"] == mirror_mod.__name__:
            products.append((a.shape, b.shape))
        return original_matmul(a, b)

    monkeypatch.setattr(mirror_mod, "delta_matrix", counting_delta)
    monkeypatch.setattr(OperatorMatrix, "__matmul__", counting_matmul)
    mirror_mod._mapped_delta.cache_clear()
    code = main(["mirror", "--builtin", "sl3", "--lambda=1,2,3,4,5,6,7,8", "--K", "4",
                 "--transform", "weyl:231"])
    capsys.readouterr()
    assert code == 0
    assert len(deltas) == len(set(deltas)) == 9
    assert sorted(k for _, k in deltas) == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert len(products) == 9
    assert mirror_mod._mapped_delta.cache_info()[:2] == (3, 3)  # (hits, misses)
    mirror_mod._mapped_delta.cache_clear()

def killing_eval(alg, s, args):
    """Evaluation against the Killing pairing: arguments hit B first."""
    gram = killing_gram(alg)
    mapped = [
        alg.vector(tuple(sum(gram.get(r, c) * x.coeffs[c] for c in range(alg.dim))
                         for r in range(alg.dim)))
        for x in args
    ]
    return eval_tensor(s, mapped)


@pytest.mark.parametrize("ident", list(Identification), ids=lambda i: i.value)
def test_degree_one_eval_transport_oracle(ident):
    # eval_mode(map(A,1) s, X) == eval_mode(s, A^{-1} X) for each pairing mode
    auto = builtin_automorphism(SL3, "permutation:231")
    m = induced_tensor_map(auto, 1, ident)
    sets1 = multisets(SL3.dim, 1)
    for c, key in enumerate(sets1):
        s = basis_tensor(SL3, key)
        image_coeffs = {sets1[r]: v for (r, cc), v in m.entries.items() if cc == c}
        from spencerbench.symtensor import SymTensor

        image = SymTensor(SL3, 1, image_coeffs)
        for x in SL3.basis_vectors():
            pre = auto.apply_inverse(x)
            if ident is Identification.KILLING:
                assert killing_eval(SL3, image, [x]) == killing_eval(SL3, s, [pre])
            else:
                assert eval_tensor(image, [x]) == eval_tensor(s, [pre])


# --- intertwining ------------------------------------------------------------


def test_identity_intertwines_trivially():
    rng = random.Random(35)
    auto = builtin_automorphism(SL2, "identity")
    lam = rand_lambda(rng, SL2)
    for ident in Identification:
        rep = intertwining_check(automorphism_mirror(auto), lam, 1, identification=ident)
        assert rep.holds and rep.residual == 0


def test_sl2_negate_transpose_exact_zero_both_modes():
    auto = builtin_automorphism(SL2, "negate_transpose")
    lam = SL2.dual_basis_vector(0)
    for ident in Identification:
        for k in (1, 2, 3):
            rep = intertwining_check(automorphism_mirror(auto), lam, k, identification=ident)
            assert rep.residual == 0, (ident, k)


def test_weyl_mirrors_exact_zero_killing_mode():
    rng = random.Random(36)
    lam = rand_lambda(rng, SL3)
    for auto in weyl_mirrors(3):
        for k in (1, 2):
            rep = intertwining_check(
                automorphism_mirror(auto), lam, k, identification=Identification.KILLING
            )
            assert rep.residual == 0, (auto.label, k)


def test_coordinate_mode_obstruction_is_visible():
    # with the coordinate pairing the transported-operator identity fails
    # for the non-orthogonal mirrors; the residual is reported, not hidden
    lam = SL3.dual([1, 2, 3, 4, 5, 6, 7, 8])
    auto = builtin_automorphism(SL3, "permutation:231")
    rep = intertwining_check(automorphism_mirror(auto), lam, 1,
                             identification=Identification.BASIS)
    assert rep.residual != 0 and not rep.holds


def test_paper_transport_separates_noninvolutive():
    lam = SL3.dual([1, 2, 3, 4, 5, 6, 7, 8])
    for label in ("permutation:231", "permutation:312"):
        auto = builtin_automorphism(SL3, label)
        rep = intertwining_check(automorphism_mirror(auto), lam, 1, transport=TRANSPORT_LITERAL,
                                 identification=Identification.KILLING)
        assert rep.residual != 0
    # involutive mirrors cannot tell the transports apart
    auto = builtin_automorphism(SL3, "permutation:213")
    rep = intertwining_check(automorphism_mirror(auto), lam, 1, transport=TRANSPORT_LITERAL,
                             identification=Identification.KILLING)
    assert rep.residual == 0


def test_intertwining_needs_degree_one():
    auto = builtin_automorphism(SL2, "identity")
    with pytest.raises(MismatchError):
        intertwining_check(automorphism_mirror(auto), SL2.dual([1, 0, 0]), 0)
    with pytest.raises(MismatchError):
        intertwining_check(sign_mirror(), SL2.dual([1, 0, 0]), 0)


@pytest.mark.parametrize("alg", [SO3, SL3, SU3], ids=["so3", "sl3", "su3"])
def test_sign_mirror_intertwines_exactly(alg):
    # T_j = (-1)^j I and lam' = -lam: the residual is (-1)^{k+1}(delta^lam + delta^{-lam})
    lam = alg.dual(range(1, alg.dim + 1))
    for k in (1, 2, 3):
        rep = intertwining_check(sign_mirror(), lam, k)
        assert rep.holds and rep.residual == 0, k


@settings(max_examples=80, deadline=None)
@given(alg=st.sampled_from([SO3, SL2, SL3, SU3]), k=st.integers(1, 3),
       convention=st.sampled_from(list(LeibnizConvention)),
       ident=st.sampled_from(list(Identification)), data=st.data())
def test_sign_intertwining_matches_the_direct_comparison(alg, k, convention, ident, data):
    entry = st.one_of(st.integers(-9, 9).map(F),
                      st.fractions(min_value=-9, max_value=9, max_denominator=7))
    lam = alg.dual(data.draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim)))
    rep = intertwining_check(sign_mirror(), lam, k, convention, identification=ident)
    assert rep.residual == oracle_sign_residual(lam, k, convention, ident)
    assert rep.holds is (rep.residual == 0)


def test_tensor_map_rejects_an_automorphism_of_another_algebra():
    transform = automorphism_mirror(builtin_automorphism(SL3, "permutation:231"))
    with pytest.raises(MismatchError):
        transform.tensor_map(SU3, 2)
    with pytest.raises(MismatchError):
        intertwining_check(transform, SU3.dual(range(1, 9)), 1)


# --- chain-map sign ----------------------------------------------------------


@pytest.mark.parametrize("ident", list(Identification))
@pytest.mark.parametrize("alg", [SO3, SL3], ids=["so3", "sl3"])
def test_sign_tensor_map_is_the_signed_identity(alg, ident):
    # delta^{-lam} = -delta^lam, so (-1)^j I on S^j intertwines the two
    lam = alg.dual_basis_vector(0)
    maps = [sign_mirror().tensor_map(alg, j, ident) for j in range(6)]
    for j, m in enumerate(maps):
        assert m == OperatorMatrix.identity(sym_dim(alg.dim, j)).scaled((-1) ** j)
    for j in range(1, 5):
        assert maps[j + 1] @ delta_matrix(lam, j, identification=ident) == (
            delta_matrix(-lam, j, identification=ident) @ maps[j])


@pytest.mark.parametrize("ident", list(Identification))
def test_automorphism_tensor_map_is_the_shared_induced_map(ident):
    for auto in weyl_mirrors(3):
        transform = automorphism_mirror(auto)
        for j in range(4):
            assert transform.tensor_map(SL3, j, ident) is induced_tensor_map(auto, j, ident)
