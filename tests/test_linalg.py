import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import spencerbench.linalg as linalg_mod
from oracles import oracle_kernel, oracle_place_block, oracle_rref, oracle_solve
from spencerbench.errors import FormatError
from spencerbench.liealg import builtin_algebra
from spencerbench.linalg import (
    OperatorMatrix,
    _rref,
    in_column_span,
    kron,
    rank_bareiss,
    read_once,
    residual_is_zero,
    residual_max_abs,
)
from spencerbench.spencer import delta_matrix

F = Fraction


def dense_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


def test_matmul_matches_dense():
    rng = random.Random(0)
    a = [[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(3)]
    b = [[F(rng.randint(-3, 3)) for _ in range(5)] for _ in range(4)]
    sa, sb = OperatorMatrix.from_dense(a), OperatorMatrix.from_dense(b)
    assert (sa @ sb).to_dense() == dense_mul(a, b)


def oracle_product(a, b):
    """Fraction triple loop over the dense forms; kept independent of @."""
    da, db = a.to_dense(), b.to_dense()
    out = {}
    for i in range(a.rows):
        for j in range(b.cols):
            s = F(0)
            for k in range(a.cols):
                s += da[i][k] * db[k][j]
            if s:
                out[(i, j)] = s
    return out


@st.composite
def product_pairs(draw):
    """Factors with mixed denominators, empty shapes and forced cancellation;
    one factor may be c * I (c negative or rational, 0 x 0 included), the
    case that ``@`` turns into a scaling."""
    n, m, p = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=9))
    scalar_side = draw(st.sampled_from([None, "left", "right"]))
    if scalar_side == "left":
        n = m
    elif scalar_side == "right":
        p = m
    a = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(n)]
    b = [draw(st.lists(entry, min_size=p, max_size=p)) for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        # column 1 of a is a multiple of column 0 and row 1 of b the matching
        # negative multiple of row 0, so their contributions cancel exactly
        t = draw(entry)
        for row in a:
            row[1] = t * row[0]
        b[1] = [-x / t for x in b[0]] if t else b[1]
    if scalar_side is not None:
        c = draw(st.fractions(min_value=-6, max_value=6, max_denominator=9).filter(bool))
        scalar = [[c if i == j else F(0) for j in range(m)] for i in range(m)]
        a, b = (scalar, b) if scalar_side == "left" else (a, scalar)
    return (OperatorMatrix(n, m, {(i, k): v for i, row in enumerate(a) for k, v in enumerate(row) if v}),
            OperatorMatrix(m, p, {(k, j): v for k, row in enumerate(b) for j, v in enumerate(row) if v}))


@given(product_pairs())
def test_matmul_matches_triple_loop_oracle(pair):
    a, b = pair
    product = a @ b
    assert product.shape == (a.rows, b.cols)
    assert product.entries == oracle_product(a, b)
    assert all(product.entries.values())


@pytest.mark.parametrize("c", [F(1), F(-1), F(-3, 7), F(5, 2)])
def test_matmul_by_a_scalar_identity_is_a_scaling(c):
    rng = random.Random(3)
    m = OperatorMatrix.from_dense([[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4)]
                                   for _ in range(3)])
    assert m @ OperatorMatrix.identity(4).scaled(c) == m.scaled(c)
    assert OperatorMatrix.identity(3).scaled(c) @ m == m.scaled(c)
    assert (OperatorMatrix.identity(0) @ OperatorMatrix.zero(0, 2)).shape == (0, 2)
    # square, one non-zero per row, but not c * I: the full product
    swap = OperatorMatrix.from_dense([[F(0), F(1)], [F(1), F(0)]])
    assert swap.identity_scale() is None
    assert OperatorMatrix.from_dense([[F(2), F(0)], [F(0), F(3)]]).identity_scale() is None
    assert OperatorMatrix.identity(3).scaled(c).identity_scale() == c
    assert OperatorMatrix.identity(0).identity_scale() == 1


def test_matmul_stores_no_cancelled_entry():
    a = OperatorMatrix(1, 2, {(0, 0): F(1, 2), (0, 1): F(1, 3)})
    b = OperatorMatrix(2, 2, {(0, 0): F(2, 3), (1, 0): F(-1), (0, 1): F(5, 7)})
    product = a @ b
    assert product.entries == {(0, 1): F(5, 14)}
    assert (OperatorMatrix.zero(0, 3) @ OperatorMatrix.zero(3, 2)).shape == (0, 2)
    assert (OperatorMatrix.zero(2, 0) @ OperatorMatrix.zero(0, 4)).entries == {}


# --- the fused residual kernel against the triple-loop oracle -------------------


@st.composite
def residual_terms(draw):
    """1-4 (c, A, B) terms whose products are n x p, with mixed denominators,
    empty shapes and zero rows and columns: dense factors, zero factors, c * I
    factors on either side, B None (the term c A) and zero coefficients; a
    last term may cancel one term, or the whole sum, exactly."""
    n, p = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=9))
    coeff = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6))
    nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)

    def dense(rows, cols):
        return OperatorMatrix.from_dense(
            [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
        ) if rows else OperatorMatrix.zero(0, cols)

    terms = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.integers(0, 5))
        form = draw(st.sampled_from(["product", "left-scalar", "right-scalar", "zero-left",
                                     "zero-right", "single"]))
        a, b = {
            "product": lambda: (dense(n, m), dense(m, p)),
            "left-scalar": lambda: (OperatorMatrix.identity(n).scaled(draw(nonzero)), dense(n, p)),
            "right-scalar": lambda: (dense(n, p), OperatorMatrix.identity(p).scaled(draw(nonzero))),
            "zero-left": lambda: (OperatorMatrix.zero(n, m), dense(m, p)),
            "zero-right": lambda: (dense(n, m), OperatorMatrix.zero(m, p)),
            "single": lambda: (dense(n, p), None),
        }[form]()
        terms.append((draw(coeff), a, b))
    cancel = draw(st.sampled_from([None, "term", "sum", "sum-by-identity"]))
    if cancel == "term":
        # the first term again, split as (-c / t) (t A) B: only it cancels
        c, a, b = terms[0]
        t = draw(nonzero)
        terms.append((-c / t, a.scaled(t), b))
    elif cancel is not None:
        total = OperatorMatrix(n, p, oracle_combination(terms))
        terms.append((-1, total, OperatorMatrix.identity(p) if cancel == "sum-by-identity" else None))
    return terms


def oracle_combination(terms):
    """sum c P over the terms as a Fraction dict, P the triple-loop product
    (or A itself when B is None)."""
    out = {}
    for c, a, b in terms:
        for key, v in (a.entries if b is None else oracle_product(a, b)).items():
            out[key] = out.get(key, F(0)) + c * v
    return {key: v for key, v in out.items() if v}


@given(residual_terms())
def test_residual_max_abs_matches_the_triple_loop_oracle(terms):
    got = residual_max_abs(terms)
    assert type(got) is Fraction
    assert got == max(map(abs, oracle_combination(terms).values()), default=F(0))


@given(residual_terms())
def test_residual_is_zero_matches_residual_max_abs(terms):
    assert residual_is_zero(terms) is (residual_max_abs(terms) == 0)


def test_residual_is_zero_stops_at_the_first_non_zero_row(monkeypatch):
    # rows 0 and 2 of a - a cancel and row 1 does not; the rows of the sum
    # are read in order and row 2 is never accumulated
    a = OperatorMatrix.from_dense([[F(1), F(2)], [F(3), F(4)], [F(5), F(6)]])
    b = OperatorMatrix.from_dense([[F(1), F(2)], [F(3), F(5)], [F(5), F(6)]])
    peaks = []
    row_peaks = linalg_mod._row_peaks

    def recording(terms, split):
        den, rows = row_peaks(terms, split)
        return den, (peaks.append(p) or p for p in rows)

    monkeypatch.setattr(linalg_mod, "_row_peaks", recording)
    assert residual_is_zero([(1, a, None), (-1, b, None)]) is False
    assert peaks == [0, 1]
    peaks.clear()
    assert residual_max_abs([(1, a, None), (-1, b, None)]) == 1
    assert peaks == [0, 1, 0]
    with pytest.raises(ValueError):
        residual_is_zero([(1, a, None), (1, a, a)])  # checked before a row is read


def test_a_reader_keeps_a_zero_verdict_as_0_and_a_non_zero_one_as_no_number(monkeypatch):
    rng = random.Random(3)
    a = OperatorMatrix.from_dense([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                                   for _ in range(2)])
    b = OperatorMatrix.from_dense([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                                   for _ in range(3)])
    reads = []
    for name in ("residual_max_abs", "residual_is_zero"):
        kernel = getattr(linalg_mod, name)
        monkeypatch.setattr(linalg_mod, name, lambda terms, split, name=name, kernel=kernel:
                            reads.append(name) or kernel(terms, split))
    read, ab = read_once(), a @ b
    zero = [(1, (a, b)), (-1, ab)]
    assert read(zero, zero_test=True) is True
    assert read(zero) == 0  # the verdict is the exact value 0: no second read
    assert read([(-1, (a, b)), (1, ab)], zero_test=True) is True  # the same list, signed
    assert reads == ["residual_is_zero"]
    nonzero = [(1, (a, b))]
    assert read(nonzero, zero_test=True) is False
    assert read(nonzero, zero_test=True) is False
    assert reads == ["residual_is_zero"] * 2
    assert read(nonzero) == ab.max_abs()  # no number was kept: read in full
    assert read(nonzero) == ab.max_abs() and read(nonzero, zero_test=True) is False
    assert reads == ["residual_is_zero"] * 2 + ["residual_max_abs"]
    # one matrix is tested by its entries, with no row read
    assert read([(F(-5, 2), a)], zero_test=True) is False
    assert read([(0, a)], zero_test=True) is True
    assert read([(1, OperatorMatrix.zero(2, 3))], zero_test=True) is True
    assert len(reads) == 3


def test_residual_max_abs_on_empty_cancelled_and_mismatched_terms():
    rng = random.Random(5)
    a = OperatorMatrix.from_dense([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                                   for _ in range(2)])
    b = OperatorMatrix.from_dense([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                                   for _ in range(3)])
    assert residual_max_abs([]) == 0
    assert residual_max_abs([(1, a, b), (-1, a @ b, None)]) == 0
    assert residual_max_abs([(F(-3, 2), a, b)]) == (a @ b).max_abs() * F(3, 2)
    assert residual_max_abs([(1, OperatorMatrix.zero(2, 3), OperatorMatrix.zero(3, 0))]) == 0
    split = {}
    assert residual_max_abs([(1, a, b)], split) == (a @ b).max_abs()
    assert set(split) == {id(a), id(b)}
    with pytest.raises(ValueError):
        residual_max_abs([(1, a, b), (1, a, None)])  # 2 x 4 and 2 x 3
    with pytest.raises(ValueError):
        residual_max_abs([(1, a, a)])  # 3 columns against 2 rows


# --- the Fraction-dict matrix operations, kept as oracles -----------------------
# OperatorMatrix once stored {(r, c): Fraction}; these are its operations on
# such dicts, kept independent of the integer numerator/denominator form.


def oracle_add(a, b):
    out = dict(a)
    for key, v in b.items():
        s = out.get(key, F(0)) + v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def oracle_scaled(a, s):
    s = F(s)
    return {key: s * v for key, v in a.items()} if s else {}


def oracle_sub(a, b):
    return oracle_add(a, oracle_scaled(b, -1))


def oracle_kron(a, b, b_rows, b_cols):
    return {(ra * b_rows + rb, ca * b_cols + cb): va * vb
            for (ra, ca), va in a.items() for (rb, cb), vb in b.items()}


def oracle_max_abs(a):
    return max((abs(v) for v in a.values()), default=F(0))


def assert_canonical(m):
    """den > 0, no stored zero, and gcd(den, every numerator) == 1."""
    assert m.den > 0
    assert all(m.nums.values())
    assert gcd(m.den, *m.nums.values()) == 1
    assert all(0 <= r < m.rows and 0 <= c < m.cols for r, c in m.nums)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def fraction_dicts(draw, rows, cols):
    """Sparse {(r, c): Fraction} with mixed denominators and no stored zero."""
    cells = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                          max_size=rows * cols)) if rows and cols else []
    return {cell: v for cell in cells if (v := draw(rationals))}


@st.composite
def same_shape_pairs(draw):
    """(rows, cols, a, b); b sometimes cancels part of a exactly."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    a = draw(fraction_dicts(rows, cols))
    b = draw(fraction_dicts(rows, cols))
    for key in a:
        if draw(st.booleans()):
            b[key] = -a[key]
    return rows, cols, a, b


@given(same_shape_pairs(), rationals)
def test_sum_difference_scaled_match_fraction_dict_oracles(pair, s):
    rows, cols, a, b = pair
    ma, mb = OperatorMatrix(rows, cols, a), OperatorMatrix(rows, cols, b)
    results = {
        "add": (ma + mb, oracle_add(a, b)),
        "sub": (ma - mb, oracle_sub(a, b)),
        "neg": (-ma, oracle_scaled(a, -1)),
        "scaled": (ma.scaled(s), oracle_scaled(a, s)),
    }
    for name, (got, want) in results.items():
        assert got.shape == (rows, cols), name
        assert got.entries == want, name
        assert_canonical(got)
    assert ma.max_abs() == oracle_max_abs(a)
    assert (ma + mb).max_abs() == oracle_max_abs(oracle_add(a, b))
    assert ma.to_dense() == [[a.get((r, c), F(0)) for c in range(cols)] for r in range(rows)]


@given(st.data())
def test_kron_matches_fraction_dict_oracle(data):
    ar, ac, br, bc = (data.draw(st.integers(0, 3)) for _ in range(4))
    a, b = data.draw(fraction_dicts(ar, ac)), data.draw(fraction_dicts(br, bc))
    got = kron(OperatorMatrix(ar, ac, a), OperatorMatrix(br, bc, b))
    assert got.shape == (ar * br, ac * bc)
    assert got.entries == oracle_kron(a, b, br, bc)
    assert_canonical(got)


@given(st.data())
def test_from_blocks_matches_fraction_dict_oracle(data):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    blocks, want = [], {}
    for _ in range(data.draw(st.integers(1, 4))):
        br, bc = data.draw(st.integers(0, rows)), data.draw(st.integers(0, cols))
        ro, co = data.draw(st.integers(0, rows - br)), data.draw(st.integers(0, cols - bc))
        block = data.draw(fraction_dicts(br, bc))
        if data.draw(st.booleans()):
            # cancel whatever the earlier blocks put under this one
            block.update({(r - ro, c - co): -v for (r, c), v in want.items()
                          if ro <= r < ro + br and co <= c < co + bc})
        blocks.append((ro, co, OperatorMatrix(br, bc, block)))
        want = oracle_place_block(want, block, ro, co)
    got = OperatorMatrix.from_blocks(rows, cols, blocks)
    assert got.shape == (rows, cols)
    assert got.entries == want
    assert_canonical(got)
    for ro, co in [(rows, 0), (0, cols), (-1, 0), (0, -1)]:
        with pytest.raises(IndexError):
            OperatorMatrix.from_blocks(rows, cols, blocks + [(ro, co, OperatorMatrix.zero(1, 1))])


@given(same_shape_pairs(), st.integers(1, 30))
def test_one_matrix_over_any_denominator_is_one_canonical_form(pair, m):
    rows, cols, a, b = pair
    direct = OperatorMatrix(rows, cols, a)
    den = direct.den * m
    routes = [
        OperatorMatrix.from_numerators(rows, cols, den,
                                       {k: (v * den).numerator for k, v in a.items()}),
        direct.scaled(F(m, 7)).scaled(F(7, m)),
        (direct + OperatorMatrix(rows, cols, b)) - OperatorMatrix(rows, cols, b),
        OperatorMatrix.from_json(direct.to_json()),
        OperatorMatrix.from_blocks(rows, cols, [(0, 0, direct.scaled(F(m, 7))),
                                                (0, 0, direct.scaled(1 - F(m, 7)))]),
    ]
    if rows:  # a dense list of no rows has no column count
        routes.append(OperatorMatrix.from_dense(direct.to_dense()))
    for again in routes:
        assert again == direct
        assert (again.den, again.nums) == (direct.den, direct.nums)
        assert again.to_json() == direct.to_json()


def test_max_abs_and_get_are_over_the_denominator():
    m = OperatorMatrix(2, 2, {(0, 0): F(1, 6), (1, 1): F(-3, 4)})
    assert (m.den, m.nums) == (12, {(0, 0): 2, (1, 1): -9})
    assert m.max_abs() == F(3, 4)
    assert m.get(1, 1) == F(-3, 4) and m.get(0, 1) == 0
    assert (m - m).den == 1 and (m - m).is_zero()


def test_rank_two_ways_agree():
    rng = random.Random(1)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [
            [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        m = OperatorMatrix.from_dense(dense)
        assert m.rank() == rank_bareiss(dense)


def test_kernel_is_kernel_and_canonical():
    dense = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    m = OperatorMatrix.from_dense(dense)
    basis = m.kernel_basis()
    assert len(basis) == 3 - m.rank() == 2
    for vec in basis:
        assert all(v == 0 for v in m.apply(vec))
    # scaling the functional leaves the canonical kernel unchanged
    m2 = OperatorMatrix.from_dense([[F(-7) * x for x in dense[0]]])
    assert m2.kernel_basis() == OperatorMatrix.from_dense([dense[0]]).kernel_basis()
    assert m2.kernel_basis() == oracle_kernel([dense[0]], 3)


def column(values):
    return OperatorMatrix(len(values), 1, {(r, 0): F(v) for r, v in enumerate(values)})


def test_invert_and_solve():
    a = OperatorMatrix.from_dense([[F(2), F(1)], [F(1), F(1)]])
    inv = a.solve(OperatorMatrix.identity(2))
    assert a @ inv == OperatorMatrix.identity(2)
    assert inv.to_dense() == [[F(1), F(-1)], [F(-1), F(2)]]
    assert OperatorMatrix.from_dense([[F(1), F(2)], [F(2), F(4)]]).solve(
        OperatorMatrix.identity(2)) is None
    x = OperatorMatrix.from_dense([[F(2), F(0)], [F(0), F(3)]]).solve(column([4, 9]))
    assert x == column([2, 3])
    assert OperatorMatrix.from_dense([[F(1)], [F(1)]]).solve(column([1, 2])) is None
    with pytest.raises(ValueError):
        a.solve(column([1, 2, 3]))


def test_kron_shapes_and_values():
    a = OperatorMatrix.from_dense([[F(1), F(2)]])
    b = OperatorMatrix.identity(2)
    k = kron(a, b)
    assert k.shape == (2, 4)
    assert k.get(0, 0) == 1 and k.get(1, 3) == 2 and k.get(0, 1) == 0


def test_in_column_span():
    m = OperatorMatrix.from_dense([[F(1), F(0)], [F(0), F(1)], [F(0), F(0)]])
    assert in_column_span(m, (F(3), F(-2), F(0)))
    assert not in_column_span(m, (F(0), F(0), F(1)))


def test_json_round_trip():
    m = OperatorMatrix.from_dense([[F(1, 2), F(0)], [F(0), F(-3)]])
    again = OperatorMatrix.from_json(m.to_json())
    assert again == m


def test_shape_mismatch_raises():
    a = OperatorMatrix.identity(2)
    b = OperatorMatrix.zero(3, 3)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b


@pytest.mark.parametrize(
    "entries",
    [[[0, 0]], [[0, 0, "1", "2"]], [[2, 0, "1"]], [[0, -1, "1"]], [["a", 0, "1"]], [7], None,
     [[1.0, 0, "1"]], [[0, True, "1"]], [[0, 0, 0.25]], [[0, 0, False]],
     [[0, 0, "1"], [0, 0, "2"]], [[0, 0, "1"], [0, 0, "1"]]],  # a second entry replaces nothing
)
def test_from_json_malformed_entry_is_format_error(entries):
    with pytest.raises(FormatError):
        OperatorMatrix.from_json({"rows": 2, "cols": 2, "entries": entries})


@pytest.mark.parametrize(
    "data",
    [{"rows": 2.9, "cols": "2", "entries": [[1.5, 0, 0.25]]},
     {"rows": 2.9, "cols": 2, "entries": []}, {"rows": 2, "cols": "2", "entries": []},
     {"rows": True, "cols": 2, "entries": []}],
    ids=["all-fields", "float-rows", "string-cols", "bool-rows"],
)
def test_from_json_non_integer_shape_is_format_error(data):
    # a float is not truncated and a string is not converted
    with pytest.raises(FormatError):
        OperatorMatrix.from_json(data)


@pytest.mark.parametrize("key", [(5, 5), (2, 0), (0, 2), (-1, 0), (0, -1)])
@pytest.mark.parametrize("value", [F(1), F(0)])
def test_constructor_rejects_a_key_outside_the_shape(key, value):
    with pytest.raises(IndexError):
        OperatorMatrix(2, 2, {key: value})
    assert OperatorMatrix(2, 2, {(1, 1): value}).to_dense()[1][1] == value


# --- properties of the one exact elimination ----------------------------------


entries = st.one_of(
    st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


@st.composite
def rational_matrices(draw, square=False):
    """Up to 7x7 rational matrices; some rows are combinations of earlier ones."""
    rows = draw(st.integers(1, 7))
    cols = rows if square else draw(st.integers(1, 7))
    dense = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    for r in range(1, rows):
        if draw(st.booleans()):
            a, b = draw(entries), draw(entries)
            p, q = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            dense[r] = [a * x + b * y for x, y in zip(dense[p], dense[q])]
    return dense


def mat_vec(dense, vec):
    return [sum((a * x for a, x in zip(row, vec)), F(0)) for row in dense]


@given(rational_matrices())
def test_rref_matches_fraction_oracle(dense):
    # row k of the integer elimination is the k-th RREF row times its pivot
    # entry
    cols = len(dense[0])
    rows, pivots = _rref(OperatorMatrix.from_dense(dense))
    reduced = [[F(row.get(c, 0), row[pc]) for c in range(cols)]
               for row, pc in zip(rows, pivots)]
    reduced += [[F(0)] * cols for _ in range(len(dense) - len(pivots))]
    assert (reduced, pivots) == oracle_rref(dense)


@given(rational_matrices())
def test_rank_matches_bareiss_and_kernel_is_complement(dense):
    m = OperatorMatrix.from_dense(dense)
    rank = m.rank()
    assert rank == m.rank_bareiss() == rank_bareiss(dense)
    basis = m.kernel_basis()
    assert len(basis) == m.cols - rank
    for vec in basis:
        assert not any(m.apply(vec))


@given(rational_matrices(), st.data())
def test_solve_holds_when_multiplied_back(dense, data):
    cols = len(dense[0])
    x = data.draw(st.lists(entries, min_size=cols, max_size=cols))
    m = OperatorMatrix.from_dense(dense)
    rhs = column(mat_vec(dense, x))
    sol = m.solve(rhs)
    assert sol is not None and m @ sol == rhs
    other = data.draw(st.lists(entries, min_size=len(dense), max_size=len(dense)))
    sol = m.solve(column(other))
    consistent = rank_bareiss([row + [b] for row, b in zip(dense, other)]) == rank_bareiss(dense)
    assert (sol is not None) == consistent
    if sol is not None:
        assert m @ sol == column(other)


@given(rational_matrices(square=True))
def test_inverse_holds_when_multiplied_back(dense):
    n = len(dense)
    m = OperatorMatrix.from_dense(dense)
    inv = m.solve(OperatorMatrix.identity(n))
    assert (inv is not None) == (rank_bareiss(dense) == n)
    if inv is not None:
        assert m @ inv == OperatorMatrix.identity(n) == inv @ m


@given(rational_matrices(), st.data())
def test_in_column_span_matches_bareiss_on_augmented(dense, data):
    vec = data.draw(st.lists(entries, min_size=len(dense), max_size=len(dense)))
    augmented = [row + [v] for row, v in zip(dense, vec)]
    expected = rank_bareiss(augmented) == rank_bareiss(dense)
    assert in_column_span(OperatorMatrix.from_dense(dense), vec) == expected


# --- solve and transpose against the shared Fraction oracle ----------------------


def as_matrix(rows, cols, dense):
    return OperatorMatrix(rows, cols, {(r, c): v for r, row in enumerate(dense)
                                       for c, v in enumerate(row)})


@st.composite
def linear_systems(draw):
    """(A, B) as dense rows with 0-6 rows and columns and 0-3 right-hand
    sides: square singular or non-singular A, consistent B = A X, or any B."""
    rows = draw(st.integers(0, 6))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 6))
    width = draw(st.integers(0, 3))
    a = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        # the last row a rational combination of the others: singular when square
        mix = draw(st.lists(entries, min_size=rows - 1, max_size=rows - 1))
        a[-1] = [sum((w * row[c] for w, row in zip(mix, a)), F(0)) for c in range(cols)]
    if draw(st.booleans()):
        x = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(cols)]
        b = [[sum((row[k] * x[k][j] for k in range(cols)), F(0)) for j in range(width)]
             for row in a]
    else:
        b = [draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(rows)]
    return rows, cols, width, a, b


@given(linear_systems())
def test_solve_matches_fraction_oracle(system):
    rows, cols, width, a, b = system
    ma, mb = as_matrix(rows, cols, a), as_matrix(rows, width, b)
    sol = ma.solve(mb)
    want = oracle_solve(a, b, cols, width)
    assert (sol is None) == (want is None)
    if sol is not None:
        assert sol.shape == (cols, width)
        assert sol.to_dense() == want
        assert_canonical(sol)
        assert ma @ sol == mb
    if rows == cols:
        inv = ma.solve(OperatorMatrix.identity(rows))
        assert (inv is not None) == (rank_bareiss(a) == rows)


@given(st.data())
def test_transpose_is_a_canonical_involution_and_reverses_products(data):
    n, m, p = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = data.draw(fraction_dicts(n, m))
    b = data.draw(fraction_dicts(m, p))
    ma, mb = OperatorMatrix(n, m, a), OperatorMatrix(m, p, b)
    t = ma.transpose()
    assert t.shape == (m, n)
    assert t.entries == {(c, r): v for (r, c), v in a.items()}
    assert_canonical(t)
    assert t.transpose() == ma
    assert (ma @ mb).transpose() == mb.transpose() @ ma.transpose()


@st.composite
def rank_test_matrices(draw):
    """Random rational matrices with dependent rows, and block-diagonal ones
    with their rows and columns permuted; either may have 0 rows or 0 columns."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        dense = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
        for r in range(1, rows):
            if draw(st.booleans()):
                a, b = draw(entries), draw(entries)
                p, q = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
                dense[r] = [a * x + b * y for x, y in zip(dense[p], dense[q])]
        return OperatorMatrix(rows, cols, {(r, c): v for r, row in enumerate(dense)
                                           for c, v in enumerate(row)})
    blocks = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3))
    rows, cols = sum(r for r, _ in blocks), sum(c for _, c in blocks)
    row_perm = draw(st.permutations(range(rows)))
    col_perm = draw(st.permutations(range(cols)))
    out = {}
    r0 = c0 = 0
    for br, bc in blocks:
        block = [draw(st.lists(entries, min_size=bc, max_size=bc)) for _ in range(br)]
        if br > 1 and draw(st.booleans()):
            block[-1] = [2 * x - y for x, y in zip(block[0], block[1])]
        for r, row in enumerate(block):
            for c, v in enumerate(row):
                out[(row_perm[r0 + r], col_perm[c0 + c])] = v
        r0, c0 = r0 + br, c0 + bc
    return OperatorMatrix(rows, cols, out)


@given(rank_test_matrices())
def test_sparse_rank_matches_bareiss_and_full_reduction(m):
    _, full = _rref(m)
    assert m.rank() == m.rank_bareiss() == len(full)


@st.composite
def fill_in_matrices(draw):
    """Matrices that fill in under a poor pivot order: an n x n diagonal
    block with one (arrowhead) to three (dense border) full rows and full
    columns attached, rows and columns permuted, some rows replaced by
    combinations of two others, and sometimes a zero on the diagonal. The
    entries come from a hypothesis-controlled Random, which keeps the draws
    few."""
    n = draw(st.integers(0, 12))
    rows, cols = n + draw(st.integers(1, 3)), n + draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))

    def nonzero():
        return F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.choice([1, 1, 2, 3, 6]))

    dense = [[F(0)] * cols for _ in range(rows)]
    for i in range(n):
        dense[i][i] = nonzero() if rng.random() < 0.9 else F(0)
    for r in range(n, rows):
        dense[r] = [nonzero() for _ in range(cols)]
    for c in range(n, cols):
        for r in range(rows):
            dense[r][c] = nonzero()
    for r in range(2, rows):
        if rng.random() < 0.25:
            a, b = nonzero(), nonzero()
            p, q = rng.randrange(r), rng.randrange(r)
            dense[r] = [a * x + b * y for x, y in zip(dense[p], dense[q])]
    row_perm = draw(st.permutations(range(rows)))
    col_perm = draw(st.permutations(range(cols)))
    return OperatorMatrix(rows, cols, {(row_perm[r], col_perm[c]): v
                                       for r, row in enumerate(dense)
                                       for c, v in enumerate(row)})


@given(fill_in_matrices())
def test_sparse_rank_matches_bareiss_on_matrices_built_to_fill_in(m):
    assert m.rank() == m.rank_bareiss()
    assert m.transpose().rank() == m.rank()


def assert_kernel_and_solve_match_the_oracles(m, data):
    """kernel() against oracle_kernel, and solve() of a drawn right-hand side,
    consistent or not, against oracle_solve."""
    a = m.to_dense()
    assert m.kernel_basis() == oracle_kernel(a, m.cols)
    assert_canonical(m.kernel())
    width = data.draw(st.integers(0, 2))
    if data.draw(st.booleans()):  # consistent: B = A X
        x = [data.draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(m.cols)]
        b = [[sum((row[k] * x[k][j] for k in range(m.cols)), F(0)) for j in range(width)]
             for row in a]
    else:
        b = [data.draw(st.lists(entries, min_size=width, max_size=width)) for _ in range(m.rows)]
    sol = m.solve(as_matrix(m.rows, width, b))
    want = oracle_solve(a, b, m.cols, width)
    assert (sol is None) == (want is None)
    if sol is not None:
        assert sol.to_dense() == want
        assert_canonical(sol)


@given(fill_in_matrices(), st.data())
def test_kernel_and_solve_match_the_oracles_on_matrices_built_to_fill_in(m, data):
    assert_kernel_and_solve_match_the_oracles(m, data)


def test_rank_does_not_reach_the_rref(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rank() must not reach the RREF path")

    m = OperatorMatrix.from_dense([[F(1), F(2), F(0)], [F(2), F(4), F(0)], [F(0), F(0), F(3)]])
    monkeypatch.setattr(linalg_mod, "_rref", refuse)
    assert m.rank() == 2


def test_sl3_delta_3_has_full_column_rank():
    # sl3 delta_3 at lambda = (1, ..., 8): 330 x 120; the sparse rank takes
    # about 0.1 s of this test, rank_bareiss the rest
    sl3 = builtin_algebra("sl3")
    m = delta_matrix(sl3.dual(list(range(1, 9))), 3)
    assert m.shape == (330, 120)
    assert m.rank() == m.rank_bareiss() == 120


def test_sl3_delta_3_kernel_and_solve_take_under_a_second():
    # about 0.2 s each on sparse rows; a dense elimination of the same
    # matrix takes 2.2-2.9 s
    sl3 = builtin_algebra("sl3")
    m = delta_matrix(sl3.dual(list(range(1, 9))), 3)
    x = OperatorMatrix(120, 1, {(i, 0): F(i % 7 - 3, i % 4 + 1) for i in range(120)})
    b = m @ x
    start = time.perf_counter()
    assert m.kernel().shape == (0, 120)
    middle = time.perf_counter()
    assert m.solve(b) == x
    end = time.perf_counter()
    assert middle - start < 1 and end - middle < 1


# --- integer kernels, and block-diagonal inputs ---------------------------------


@given(rational_matrices())
def test_kernel_basis_reads_the_canonical_integer_kernel(dense):
    m = OperatorMatrix.from_dense(dense)
    kernel = m.kernel()
    assert_canonical(kernel)
    assert kernel.shape == (m.cols - m.rank(), m.cols)
    assert (m @ kernel.transpose()).is_zero()
    basis = m.kernel_basis()
    assert type(basis) is list
    assert all(type(vec) is tuple and len(vec) == m.cols for vec in basis)
    assert all(type(v) is F for vec in basis for v in vec)
    assert basis == oracle_kernel(dense, m.cols)
    assert basis == [tuple(row) for row in kernel.to_dense()]


@given(rank_test_matrices(), st.data())
def test_split_elimination_matches_the_whole_matrix_oracles(m, data):
    # block-diagonal inputs with shuffled rows and columns, zero rows and
    # columns with no non-zero: each row meets only its own block's rows
    a = m.to_dense()
    red, pivots = oracle_rref(a)
    rref_rows, rref_pivots = _rref(m)
    assert rref_pivots == pivots
    assert [[F(row.get(c, 0), row[pc]) for c in range(m.cols)]
            for row, pc in zip(rref_rows, rref_pivots)] == red[:len(pivots)]
    assert m.rank() == m.rank_bareiss() == len(pivots)
    assert_kernel_and_solve_match_the_oracles(m, data)
