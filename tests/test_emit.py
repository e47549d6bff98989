"""The report emitter writes exactly the bytes of
json.dumps(report, indent=2, sort_keys=True) and a newline, whatever the
report holds, and the matrix entries it prints are the rationals that
format_scalar renders."""

import contextlib
import io
import json
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from spencerbench.cli import _LONG, _emit, _render
from spencerbench.linalg import OperatorMatrix, format_scalar

# strings that look like the separators _render rewrites, or need escaping
TRICKY = ["],", "[", "]", "],\n  [", "\"", "\\", "\\\"],", "é", "λ∘A", "\x00", "\x1f", "\t",
          " ", "\U0001d4e2", ""]
STRINGS = st.one_of(st.sampled_from(TRICKY), st.text(max_size=12))
SCALARS = st.one_of(
    STRINGS,
    st.integers(),
    st.integers(min_value=-10 ** 60, max_value=10 ** 60),
    st.floats(),  # NaN and the infinities included: both encoders spell them the same
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6).map(float),  # as --mode float prints
    st.booleans(),
    st.none(),
)


def lengthened(items):
    """items repeated past the cut-off (drawing _LONG items one by one is
    slow, and the emitter does not look at which items repeat)."""
    return (items * _LONG)[:_LONG + len(items)]


# past the cut-off: scalars, non-empty scalar lists, one with an empty inner
# list, and small dicts (lengthened once, so that nested ones stay small)
SCALAR_LISTS = st.lists(st.lists(SCALARS, min_size=1, max_size=4), min_size=1, max_size=6)
LONG_LISTS = st.one_of(
    st.lists(SCALARS, min_size=1, max_size=8).map(lengthened),
    SCALAR_LISTS.map(lengthened),
    st.tuples(SCALAR_LISTS.map(lengthened), st.integers(0, _LONG)).map(
        lambda t: t[0][:t[1]] + [[]] + t[0][t[1]:]),
    st.lists(st.dictionaries(STRINGS, SCALARS, max_size=2), min_size=1, max_size=3).map(
        lengthened),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(STRINGS, children, max_size=5),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
        LONG_LISTS,
    )


JSON_VALUES = st.recursive(st.one_of(SCALARS, LONG_LISTS), containers, max_leaves=40)


def emitted(report):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(SimpleNamespace(out=None), report)
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_emit_writes_the_bytes_of_json_dumps_indent_2(value):
    assert emitted(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_emit_matches_json_dumps_on_the_edge_cases():
    entries = [[r, c, f"{r}/{c + 1}"] for r in range(_LONG) for c in range(2)]
    for value in ([], {}, [[]] * _LONG, [[], []], list(range(_LONG)), list(range(_LONG - 1)),
                  {"a": [], "b": {}, "entries": entries},
                  {"entries": entries[:3] + [[]] + entries[3:]},
                  {"x": ["],\n      [" * 3] * _LONG, "y": [["]", "[", "],"]] * _LONG}):
        assert emitted(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_long_lists_take_the_encoder_path():
    # a report holding a matrix goes through _render's entry-list path; one
    # without a long list of scalar lists is left to json.dumps whole
    matrix = {"rows": 2, "cols": 2, "entries": [[0, 1, "1/2"]] * _LONG}
    assert _render({"matrices": [matrix], "k": 1}, "") is not None
    assert _render(list(range(_LONG)), "") is None
    assert _render({"a": [1, 2], "b": {"c": None}}, "") is None


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                       st.fractions(max_denominator=30), max_size=12))
def test_operator_matrix_entries_are_format_scalar_strings(values):
    m = OperatorMatrix(4, 5, values)
    assert m.to_json()["entries"] == [[r, c, format_scalar(Fraction(v))]
                                      for (r, c), v in sorted(values.items()) if v]
