import ast
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spencerbench.cli import _float_mode, _parse_transform, main
from spencerbench.linalg import OperatorMatrix
from spencerbench.errors import FormatError
from spencerbench.liealg import MAX_BUILTIN_DIM, algebra_to_json, builtin_algebra


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_algebra_builtin_ok(capsys):
    code, out = run(capsys, "algebra", "--builtin", "so3")
    report = json.loads(out)
    assert code == 0
    assert report["jacobi_residual"] == "0" and report["valid"]


def test_algebra_sl3_dim(capsys):
    code, out = run(capsys, "algebra", "--builtin", "sl3")
    assert code == 0
    assert json.loads(out)["dim"] == 8


def cap_address_space():
    # 1 GiB: a builtin that allocates its table before the bound check
    # raises MemoryError instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("name", [f"abelian({10 ** 12})", "sl1000000", "su1000000"])
def test_an_oversized_builtin_exits_2_before_allocating(name):
    src = Path(__file__).resolve().parents[1] / "src"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spencerbench.cli", "algebra", "--builtin", name],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert proc.stderr == (
        f"input error: builtin {name!r} exceeds the dimension bound {MAX_BUILTIN_DIM}\n")


def test_builtin_dimension_bound_is_inclusive():
    # dim abelian(n) = n and dim sl(n) = dim su(n) = n^2 - 1; a numeral too
    # long for the bound is rejected without being read
    assert MAX_BUILTIN_DIM == 1024
    assert builtin_algebra("abelian(1024)").dim == 1024
    for name in ("abelian(1025)", "sl33", "su33", "sln(33)", "abelian" + "9" * 5000):
        with pytest.raises(FormatError, match="exceeds the dimension bound 1024"):
            builtin_algebra(name)
    assert builtin_algebra("abelian(0003)").dim == 3


def test_algebra_bad_file_exit_one_with_witness(tmp_path, capsys):
    data = algebra_to_json(builtin_algebra("so3"))
    data["structure_constants"] = [
        [i, j, k, "2" if (i, j, k) == (0, 1, 2) else v]
        for i, j, k, v in data["structure_constants"]
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "algebra", "--file", str(path))
    report = json.loads(out)
    assert code == 1
    assert report["jacobi_witness"] is not None
    assert report["valid"] is False


def test_algebra_malformed_json_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(capsys, "algebra", "--file", str(path))
    assert code == 2


def test_spencer_emits_matrices_and_report(capsys):
    code, out = run(
        capsys, "spencer", "--builtin", "so3", "--lambda", "0,0,1", "--K", "3"
    )
    report = json.loads(out)
    assert code == 0  # diagnostics are data, not failures
    assert len(report["matrices"]) == 3
    assert report["matrices"][1]["domain_degree"] == 1
    assert report["nilpotency"]["holds"] is False


def test_spencer_assert_nilpotent_fails(capsys):
    code, _ = run(
        capsys, "spencer", "--builtin", "so3", "--lambda", "0,0,1",
        "--K", "3", "--assert-nilpotent",
    )
    assert code == 1
    code, _ = run(
        capsys, "spencer", "--builtin", "abelian(3)", "--lambda", "1,0,0",
        "--K", "3", "--assert-nilpotent",
    )
    assert code == 0


def test_spencer_degenerate_lambda_exit_two(capsys):
    code, _ = run(capsys, "spencer", "--builtin", "so3", "--lambda", "0,0,0")
    assert code == 2
    code, out = run(
        capsys, "spencer", "--builtin", "so3", "--lambda", "0,0,0",
        "--allow-degenerate",
    )
    assert code == 0
    assert json.loads(out)["nilpotency"]["holds"] is True


def test_spencer_paper_signed_includes_witnesses(capsys):
    code, out = run(
        capsys, "spencer", "--builtin", "so3", "--lambda", "0,0,1",
        "--K", "3", "--convention", "paper-signed",
    )
    report = json.loads(out)
    assert code == 0
    assert report["ordering_witnesses"]


def test_mirror_sign_checks(capsys):
    code, out = run(
        capsys, "mirror", "--builtin", "so3", "--lambda", "0,0,1",
        "--transform", "sign",
    )
    report = json.loads(out)
    assert code == 0
    assert report["involution_exact"] and report["delta_sign_identity"]


def test_mirror_weyl_reports_both_transports(capsys):
    code, out = run(
        capsys, "mirror", "--builtin", "sl3", "--lambda", "1,2,3,4,5,6,7,8",
        "--transform", "weyl:231", "--K", "2", "--assert-intertwining",
    )
    report = json.loads(out)
    assert code == 0  # inverse transport holds in the default identification
    inverse = [c for c in report["intertwining"] if c["transport"] == "inverse"]
    paper = [c for c in report["intertwining"] if c["transport"] == "literal"]
    assert all(c["residual"] == "0" for c in inverse)
    assert any(c["residual"] != "0" for c in paper)


def test_complex_full_pipeline(capsys):
    code, out = run(
        capsys, "complex", "--builtin", "so3", "--lambda", "0,0,1",
        "--K", "4", "--mirror", "sign", "--seed", "7",
    )
    report = json.loads(out)
    assert code == 0
    assert report["report"]["flags"]  # measured: not a complex for this dual
    assert report["mirror"]["commutation_holds"] is True


def test_complex_lam_zero_dims(capsys):
    code, out = run(
        capsys, "complex", "--builtin", "so3", "--lambda", "0,0,0",
        "--allow-degenerate", "--K", "3", "--seed", "3",
    )
    report = json.loads(out)
    assert code == 0
    assert report["report"]["dims"] == [1, 5, 13]
    assert report["kunneth"]["matches"] is True


def test_complex_grading_option_is_gone(capsys):
    # the total complex is the one grading; --grading is no option any more
    assert main(["complex", "--builtin", "so3", "--lambda", "0,0,1", "--K", "3",
                 "--grading", "diagonal"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "spencerbench: error: unrecognized arguments: --grading diagonal\n")


def test_bundle_report(capsys):
    code, out = run(
        capsys, "bundle", "--builtin", "so3", "--grid", "4,4", "--lambda", "0,0,1",
    )
    report = json.loads(out)
    assert code == 0
    assert report["transversality"]["full_sum"] is True
    assert report["transversality"]["zero_intersection"] is False
    assert report["cartan_residual_max"] == "0"
    assert report["equivariance_below_tolerance"] is True


def test_bundle_abelian_fiber_strong_transversality(capsys):
    code, out = run(
        capsys, "bundle", "--builtin", "abelian(1)", "--grid", "4,4", "--lambda", "1",
    )
    report = json.loads(out)
    assert code == 0
    assert report["transversality"]["zero_intersection"] is True


def test_bundle_degenerate_site_exit_two(tmp_path, capsys):
    code = main(["bundle", "--builtin", "so3", "--grid", "3,3", "--lambda", "0,0,0"])
    err = capsys.readouterr().err
    assert code == 2
    # the bundle names the sites; there is no flag that would let them through
    assert "degenerate dual value at sites [(0, 0), (0, 1), (0, 2), (1, 0)]..." in err
    assert "allow-degenerate" not in err
    assert main(["bundle", "--builtin", "so3", "--grid", "3,3", "--lambda", "0,0,0",
                 "--allow-degenerate"]) == 2
    assert "unrecognized arguments: --allow-degenerate" in capsys.readouterr().err


def test_bundle_file_with_zero_lambda_names_the_sites(tmp_path, capsys):
    data = {"grid": [3, 3], "algebra": "so3", "lambda_field": {"constant": ["0", "0", "0"]}}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code = main(["bundle", "--builtin", "so3", "--bundle-file", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "degenerate dual value at sites [(0, 0), (0, 1), (0, 2), (1, 0)]..." in err


def test_determinism_byte_identical(capsys):
    argv = [
        "complex", "--builtin", "sl2", "--lambda", "1,0,0", "--K", "3",
        "--mirror", "negate-transpose", "--seed", "11",
        "--identification", "killing",
    ]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2 and out1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["algebra", "--builtin", "sl2", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["dim"] == 3


def test_float_mode_renders_numbers(capsys):
    code, out = run(
        capsys, "algebra", "--builtin", "so3", "--mode", "float",
    )
    report = json.loads(out)
    assert code == 0
    assert report["jacobi_residual"] == 0.0


def test_float_mode_leaves_names_and_labels_alone(tmp_path, capsys):
    # an algebra named "7" with labels "1", "2", "3/2": names that read as
    # rationals stay strings, the measured values become floats
    data = algebra_to_json(builtin_algebra("so3"))
    data["name"], data["basis_labels"] = "7", ["1", "2", "3/2"]
    path = tmp_path / "seven.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "algebra", "--file", str(path), "--mode", "float")
    report = json.loads(out)
    assert code == 0
    assert report["name"] == "7" and report["basis_labels"] == ["1", "2", "3/2"]
    assert report["jacobi_residual"] == 0.0 and report["antisymmetry_residual"] == 0.0
    code, out = run(capsys, "spencer", "--file", str(path), "--lambda=1,2,3", "--K", "3",
                    "--mode", "float")
    report = json.loads(out)
    assert code == 0
    assert report["algebra"] == "7" and report["lambda"] == [1.0, 2.0, 3.0]
    assert report["convention"] == "unsigned"
    assert report["nilpotency"]["residuals"] == [[0, 0.0], [1, 24.0]]


def fraction_float(text):
    """The float mode's reading of one string by Fraction alone."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        return text


@given(st.one_of(
    st.builds("{}/{}".format, st.integers(-10**40, 10**40), st.integers(0, 10**40)),
    st.integers(-10**300, 10**300).map(str),
    st.sampled_from(["-0", "-0/7", "3/0", "0/-5", "+5", " 3/4", "3/ 4", "1_0", "1e3", "1.5",
                     "--5", "-", "/", "", "e1", "\u0663/\u0664", "\u00b2", "nan", "inf"]),
    st.text(max_size=6),
))
def test_float_mode_reads_every_string_as_fraction_does(text):
    # the same float bit for bit (repr tells -0.0 and the last bit apart),
    # or the same string left alone
    got, want = _float_mode(text, True), fraction_float(text)
    assert (type(got), repr(got)) == (type(want), repr(want))


def test_out_to_an_unwritable_path_is_an_input_error(tmp_path):
    stderr = assert_input_error("algebra", "--builtin", "so3",
                                "--out", str(tmp_path / "missing" / "x.json"))
    assert "input error: cannot write report:" in stderr


def test_unknown_builtin_exit_two(capsys):
    code, _ = run(capsys, "algebra", "--builtin", "g2")
    assert code == 2


def test_bundle_file_with_degenerate_site_exit_two(tmp_path, capsys):
    sites = [[i, j] for i in range(3) for j in range(3)]
    lam_rows = [[s, ["0", "0", "1"]] for s in sites]
    lam_rows[4][1] = ["0", "0", "0"]  # kill site (1, 1)
    data = {"grid": [3, 3], "algebra": "so3", "lambda_field": lam_rows}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code = main(["bundle", "--builtin", "so3", "--bundle-file", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "(1, 1)" in err  # the offending site index is reported


def test_bundle_file_valid(tmp_path, capsys):
    data = {
        "grid": [3, 3],
        "algebra": "so3",
        "omega_base": {"constant": [["0", "0", "1"], ["0", "0", "0"]]},
        "lambda_field": {"constant": ["0", "0", "1"]},
    }
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "bundle", "--builtin", "so3", "--bundle-file", str(path))
    assert code == 0
    assert json.loads(out)["cartan_residual_max"] == "0"


@pytest.mark.parametrize("flag", [["--grid", "4,4"], ["--lambda=1,0,0"], ["--omega", "garbage"]],
                         ids=["grid", "lambda", "omega"])
def test_bundle_file_rejects_grid_lambda_and_omega(tmp_path, capsys, flag):
    # the file defines the grid and both fields: a flag that would be
    # ignored next to it is an input error, as --builtin with --file is
    data = {"grid": [3, 3], "algebra": "so3", "lambda_field": {"constant": ["0", "0", "1"]}}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "bundle", "--builtin", "so3", "--bundle-file", str(path))[0] == 0
    assert_input_error("bundle", "--builtin", "so3", "--bundle-file", str(path), *flag)


def test_bundle_file_for_another_algebra_exit_two(tmp_path, capsys):
    # an su3 field loads under su3 only, though sl3 has the same dimension
    data = {"grid": [3, 3], "algebra": "su3", "lambda_field": {"constant": list("12345678")}}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "bundle", "--builtin", "su3", "--bundle-file", str(path))
    assert code == 0 and json.loads(out)["algebra"] == "su3"
    stderr = assert_input_error("bundle", "--builtin", "sl3", "--bundle-file", str(path))
    assert "bundle JSON is for algebra 'su3', not 'sl3'" in stderr


_VALID_LAM = [[[i, j], ["0", "0", "1"]] for i in range(2) for j in range(2)]


@pytest.mark.parametrize(
    "field,rows",
    [
        ("lambda_field", [[[0, 0]]]),
        ("omega_base", [[[0, 0]]]),
        ("lambda_field", [[[0, 0], 7]]),
        ("lambda_field", [[[5, 0], ["0", "0", "1"]]] + _VALID_LAM),
        ("omega_base", [[[0, 0], 2, ["1", "0", "0"]]]),
        ("omega_base", [[[0], 0, ["1", "0", "0"]]]),
    ],
)
def test_bundle_file_malformed_row_exit_two(tmp_path, field, rows):
    data = {"grid": [2, 2], "algebra": "so3", "lambda_field": _VALID_LAM, field: rows}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    assert_input_error("bundle", "--builtin", "so3", "--bundle-file", str(path))


@pytest.mark.parametrize(
    "field,row,message",
    [("lambda_field", [[0, 0], ["1", "0", "0"]], "two rows for site (0, 0)"),
     ("omega_base", [[0, 0], 1, ["0", "1", "0"]], "two rows for site (0, 0), axis 1")],
)
def test_bundle_file_duplicate_row_exit_two(tmp_path, capsys, field, row, message):
    # a second row for the same site (and axis) is an input error, not a
    # silent overwrite of the first
    lam = [[[i, j], ["0", "0", "1"]] for i in range(3) for j in range(3)]
    omega = [[[0, 0], 1, ["1", "0", "0"]]]
    data = {"grid": [3, 3], "algebra": "so3", "lambda_field": lam, "omega_base": omega}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "bundle", "--builtin", "so3", "--bundle-file", str(path))[0] == 0
    data[field].append(row)
    path.write_text(json.dumps(data))
    assert main(["bundle", "--builtin", "so3", "--bundle-file", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert_input_error("bundle", "--builtin", "so3", "--bundle-file", str(path))


@pytest.mark.parametrize(
    "fields",
    [{"lambda_field": 7}, {"lambda_field": {"constant": 7}},
     {"lambda_field": {"constant": "123"}}, {"omega_base": 7}, {"omega_base": {"constant": 7}},
     {"omega_base": {"constant": [7, 8]}}, {"omega_base": [[[0, 0], 0, "123"]]},
     {"omega_base": [["00", 0, ["1", "0", "0"]]]}, {"grid": "33"}],
    ids=["lambda-int", "lambda-constant-int", "lambda-constant-string", "omega-int",
         "omega-constant-int", "omega-constant-rows-int", "omega-row-string",
         "omega-site-string", "grid-string"],
)
def test_bundle_file_field_that_is_not_a_list_exit_two(tmp_path, fields):
    # a string is never split into characters where a list is required
    data = {"grid": [3, 3], "algebra": "so3", "lambda_field": {"constant": ["0", "0", "1"]},
            **fields}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    assert_input_error("bundle", "--builtin", "so3", "--bundle-file", str(path))


@pytest.mark.parametrize(
    "fields",
    [{"grid": [3.7, 3]}, {"grid": ["3", True]}, {"grid": ["3", 3]}, {"grid": [3, 3.0]},
     {"lambda_field": {"constant": [0, 0.1, 1]}}, {"lambda_field": {"constant": [0, True, 1]}},
     {"lambda_field": [[[i, j], ["0", "0", "1"]] for i in range(3) for j in range(3)]
      + [[[0.0, 1], ["1", "0", "0"]]]},
     {"omega_base": [[[0, 0], True, ["1", "0", "0"]]]},
     {"omega_base": [[[0, 0], 0, ["1", 0.5, "0"]]]}],
    ids=["float-grid", "string-and-bool-grid", "string-grid", "integral-float-grid", "float-lambda",
         "bool-lambda", "float-site", "bool-axis", "float-omega"],
)
def test_bundle_file_non_integer_or_inexact_number_exit_two(tmp_path, fields):
    # a float is neither truncated to an integer nor read as its binary
    # expansion, and a bool is not an integer
    data = {"grid": [3, 3], "algebra": "so3", "lambda_field": {"constant": ["0", "0", "1"]},
            **fields}
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    assert_input_error("bundle", "--builtin", "so3", "--bundle-file", str(path))


@pytest.mark.parametrize(
    "edit",
    [lambda d: d.update(dim=3.9),
     lambda d: d.update(dim=True, structure_constants=[], basis_labels=["e"]),
     lambda d: d["structure_constants"][0].__setitem__(0, 1.0),
     lambda d: d["structure_constants"][0].__setitem__(2, False),
     lambda d: d["structure_constants"][0].__setitem__(3, 1.0)],
    ids=["float-dim", "bool-dim", "float-index", "bool-index", "float-value"],
)
def test_algebra_file_non_integer_or_inexact_number_exit_two(tmp_path, edit):
    data = algebra_to_json(builtin_algebra("so3"))
    edit(data)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    assert_input_error("algebra", "--file", str(path))


def test_algebra_file_string_basis_labels_exit_two(tmp_path):
    data = algebra_to_json(builtin_algebra("so3"))
    data["basis_labels"] = "abc"
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    assert_input_error("algebra", "--file", str(path))


@pytest.mark.parametrize("value", ["5", "1"], ids=["other-value", "same-value"])
def test_algebra_file_repeated_structure_constant_exit_two(tmp_path, value):
    # a later [i, j, k, v] does not replace an earlier one
    data = {"name": "repeated", "dim": 2, "basis_labels": ["a", "b"],
            "structure_constants": [[0, 1, 1, "1"], [0, 1, 1, value], [1, 0, 1, "-1"]]}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    stderr = assert_input_error("algebra", "--file", str(path))
    assert "a second structure constant entry for [0, 1, 1]" in stderr


@pytest.mark.parametrize("grid", ["abc", "4,"])
def test_bundle_malformed_grid_exit_two(grid):
    assert_input_error("bundle", "--builtin", "so3", "--grid", grid, "--lambda", "0,0,1")


@pytest.mark.parametrize(
    "constants",
    [7, "0121", {"0": [0, 1, 2, "1"]}, [7], ["0121"], [[0, 1, 2]], [{"i": 0}]],
    ids=["int", "string", "dict", "int-entry", "string-entry", "short-entry", "dict-entry"],
)
def test_algebra_file_malformed_constants_exit_two(tmp_path, constants):
    data = algebra_to_json(builtin_algebra("so3"))
    data["structure_constants"] = constants
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    assert_input_error("algebra", "--file", str(path))


@pytest.mark.parametrize("k", ["0", "1"])
def test_mirror_without_an_intertwining_degree_exit_two(k):
    assert_input_error("mirror", "--builtin", "sl3", "--lambda=1,2,3,4,5,6,7,8",
                       "--transform", "weyl:231", "--K", k, "--assert-intertwining")


SINGULAR_KILLING = "input error: Killing form of abelian(2) is singular; "


@pytest.mark.parametrize("K,code,message", [
    ("0", 2, "input error: truncation K must be >= 1\n"),
    ("1", 0, ""),
    ("2", 2, SINGULAR_KILLING),
    ("3", 2, SINGULAR_KILLING),
])
def test_complex_rejects_a_truncation_below_one_and_a_singular_killing_form(K, code, message,
                                                                           capsys):
    # K < 1, and a singular Killing form once a delta block of degree >= 1 exists
    argv = ["complex", "--builtin", "abelian(2)", "--lambda", "0,1", "--K", K,
            "--identification", "killing"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and bool(err) == (code == 2)
    if code == 2:
        assert_input_error(*argv)


def test_complex_assert_mirror_invariant_needs_a_mirror():
    # with no --mirror there is nothing to assert; exit 2 instead of passing
    assert_input_error("complex", "--builtin", "so3", "--lambda", "0,0,1", "--K", "3",
                       "--assert-mirror-invariant")


def test_builtin_and_file_are_exclusive(tmp_path):
    assert_input_error("algebra", "--builtin", "so3", "--file", str(tmp_path / "missing.json"))


def test_complex_ranks_each_differential_once(monkeypatch, capsys):
    # 4 ranks of D and 4 of the mirrored D, 4 of delta and 2 of the base
    calls = []
    original = OperatorMatrix.rank

    def counting(self):
        calls.append(self.shape)
        return original(self)

    monkeypatch.setattr(OperatorMatrix, "rank", counting)
    code = main(["complex", "--builtin", "sl2", "--lambda=0,0,0", "--allow-degenerate",
                 "--K", "4", "--torus", "2", "--mirror", "identity"])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 14


def run_process(*argv):
    """The CLI run as a process: (exit code, stderr)."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "spencerbench.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    return proc.returncode, proc.stderr


def assert_input_error(*argv):
    """The CLI, run as a process, rejects the input: exit 2 and no traceback.
    Returns its stderr."""
    code, stderr = run_process(*argv)
    assert code == 2
    assert "input error" in stderr
    assert "Traceback" not in stderr
    return stderr


# an antisymmetric bracket [a,b] = c, [b,c] = a, [c,a] = a failing Jacobi at
# (0, 1, 2, 2), and the bracket [a,b] = c listed without [b,a] = -c
NON_LIE_FILES = {
    "jacobi": ([[0, 1, 2, "1"], [1, 0, 2, "-1"], [1, 2, 0, "1"], [2, 1, 0, "-1"],
                [2, 0, 0, "1"], [0, 2, 0, "-1"]],
               "antisymmetry residual 0, jacobi residual 1, jacobi witness [0, 1, 2, 2]"),
    "antisymmetry": ([[0, 1, 2, "1"]], "antisymmetry residual 1"),
}


@pytest.mark.parametrize("argv", [
    ["spencer", "--lambda=1,2,3", "--K", "3"],
    ["mirror", "--lambda=1,2,3", "--K", "2", "--transform", "sign", "--identification", "basis"],
    ["complex", "--lambda=1,2,3", "--K", "2", "--torus", "1"],
    ["bundle", "--grid", "3,3", "--lambda=1,2,3"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("failure", sorted(NON_LIE_FILES))
def test_non_lie_file_exits_one_in_every_command(tmp_path, argv, failure):
    triples, message = NON_LIE_FILES[failure]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"name": "bad", "dim": 3, "structure_constants": triples,
                                "basis_labels": ["a", "b", "c"]}))
    code, stderr = run_process(*argv, "--file", str(path))
    assert code == 1
    assert stderr.startswith("invariant failed: 'bad' is not a Lie algebra: ")
    assert message in stderr
    assert "Traceback" not in stderr


# --- published report schemas -------------------------------------------------

import jsonschema

RATIONAL = {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}

COMPLEX_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "grading": {"type": "string", "enum": ["total"]},
        "convention": {"type": "string", "enum": ["unsigned", "paper-signed"]},
        "K": {"type": "integer", "minimum": 1},
        "dims": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "euler": {"type": "integer"},
        "d_squared_residual": RATIONAL,
        "flags": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["grading", "convention", "K", "dims", "euler",
                 "d_squared_residual", "flags"],
    "additionalProperties": False,
}

MATRIX_SCHEMA = {
    "type": "object",
    "properties": {
        "rows": {"type": "integer", "minimum": 0},
        "cols": {"type": "integer", "minimum": 0},
        "entries": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [
                    {"type": "integer"}, {"type": "integer"}, RATIONAL
                ],
                "minItems": 3,
                "maxItems": 3,
            },
        },
        "domain_degree": {"type": "integer"},
        "codomain_degree": {"type": "integer"},
    },
    "required": ["rows", "cols", "entries"],
}


def test_complex_report_schema(capsys):
    _, out = run(
        capsys, "complex", "--builtin", "so3", "--lambda", "0,0,1", "--K", "3",
        "--seed", "1",
    )
    jsonschema.validate(json.loads(out)["report"], COMPLEX_REPORT_SCHEMA)


def test_spencer_matrices_schema(capsys):
    _, out = run(capsys, "spencer", "--builtin", "sl2", "--lambda", "1,0,0", "--K", "3")
    report = json.loads(out)
    for m in report["matrices"]:
        jsonschema.validate(m, MATRIX_SCHEMA)
        assert m["codomain_degree"] == m["domain_degree"] + 1


@pytest.mark.parametrize("transform, message", [
    ("rotate", "unknown automorphism kind 'rotate'"),
    ("weyl:12x", "unknown automorphism kind 'permutation:12x'"),
    ("weyl:1234", "permutation '1234' is not a permutation of 1..3"),
])
def test_mirror_unknown_transform_exit_two(capsys, transform, message):
    code = main(["mirror", "--builtin", "sl3", "--lambda", "1,0,0,0,0,0,0,0", "--K", "2",
                 "--transform", transform])
    assert code == 2
    assert message in capsys.readouterr().err


def test_transform_names_are_normalised_once():
    sl3 = builtin_algebra("sl3")
    assert _parse_transform(sl3, " Sign ").kind == "sign"
    for text, label in (("Negate-Transpose", "negate_transpose"), ("identity", "identity"),
                        ("WEYL:231", "permutation:231"), ("permutation:231", "permutation:231")):
        assert _parse_transform(sl3, text).automorphism.label == label


def test_mirror_inverse_mirror_rejected_exit_one(capsys):
    code = main(["mirror", "--builtin", "so3", "--lambda", "0,0,1",
                 "--transform", "inverse-mirror"])
    err = capsys.readouterr().err
    assert code == 1
    assert "bracket homomorphism" in err  # witness-carrying diagnostic
    # the witness is rendered as rationals, not as Fraction reprs
    assert "A[e1,e2] = (0, 0, -1) but [Ae1,Ae2] = (0, 0, 1)" in err
    assert "Fraction(" not in err


# --- what importing the package and running a command load --------------------

ALGEBRA_MODULES = {"errors", "records", "linalg", "liealg", "cli"}
SPENCER_MODULES = ALGEBRA_MODULES | {"symtensor", "spencer"}
# stdlib modules that cost start-up time and that no command needs:
# dataclasses alone pulls in inspect, ast, dis and tokenize
HEAVY_STDLIB = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
ROOT = Path(__file__).resolve().parents[1]


def _loaded_modules(code):
    """(the spencerbench submodules, the HEAVY_STDLIB modules) that a fresh
    interpreter holds after code. It runs under -S, so that no .pth file of
    site imports a module before the probe does."""
    probe = code + "\nimport sys\nsys.stderr.write(' '.join(sys.modules))\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    return ({m.split(".", 1)[1] for m in loaded if m.startswith("spencerbench.")},
            loaded & HEAVY_STDLIB)


def test_importing_the_package_loads_no_submodule():
    assert _loaded_modules("import spencerbench") == (set(), set())


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["algebra", "--builtin", "sl3"], ALGEBRA_MODULES),
        (["bundle", "--builtin", "so3", "--grid", "3,3", "--lambda", "0,0,1"],
         ALGEBRA_MODULES | {"bundle"}),
        (["spencer", "--builtin", "so3", "--lambda", "0,0,1", "--K", "2"], SPENCER_MODULES),
        (["mirror", "--builtin", "so3", "--lambda", "0,0,1", "--K", "2", "--transform", "sign"],
         SPENCER_MODULES | {"mirror"}),
        (["complex", "--builtin", "so3", "--lambda", "0,0,1", "--K", "2"],
         SPENCER_MODULES | {"mirror", "cohomology"}),
    ],
    ids=["algebra", "bundle", "spencer", "mirror", "complex"],
)
def test_each_command_loads_only_its_modules(argv, expected):
    code = f"from spencerbench import cli\nassert cli.main({argv!r}) == 0"
    assert _loaded_modules(code) == (expected, set())


def _library_op_imports():
    """{op: its spencerbench import statements} for each library op of the
    benchmark's child runner."""
    tree = ast.parse((ROOT / "benchmarks" / "child.py").read_text(encoding="utf-8"))
    return {node.name: "\n".join(ast.unparse(sub) for sub in ast.walk(node)
                                 if isinstance(sub, ast.ImportFrom)
                                 and (sub.module or "").startswith("spencerbench"))
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("lib_")}


STARTUP_PROBES = {
    # the benchmark's set-up snippet
    "setup": "import spencerbench\nspencerbench.builtin_algebra('sl3')",
    **_library_op_imports(),
}


def test_the_startup_probes_cover_the_library_ops_and_see_a_heavy_import():
    assert len(STARTUP_PROBES) > 2 and all(STARTUP_PROBES.values())
    assert _loaded_modules("import dataclasses")[1] >= {"dataclasses", "inspect", "ast"}


@pytest.mark.parametrize("code", STARTUP_PROBES.values(), ids=STARTUP_PROBES.keys())
def test_setup_and_library_ops_load_no_heavy_stdlib_module(code):
    assert _loaded_modules(code)[1] == set()


def test_star_import_binds_every_public_name():
    import importlib

    import spencerbench

    namespace = {}
    exec("from spencerbench import *", namespace)
    for name in spencerbench.__all__:
        owner = spencerbench._SUBMODULE[name]
        module = importlib.import_module(f"spencerbench.{owner}")
        expected = module if name == owner else getattr(module, name)
        assert namespace[name] is expected, name


def test_parser_choices_are_the_enum_values():
    from spencerbench import cli
    from spencerbench.spencer import Identification, LeibnizConvention

    assert cli.CONVENTIONS == tuple(c.value for c in LeibnizConvention)
    assert cli.IDENTIFICATIONS == tuple(i.value for i in Identification)
    parser = cli.build_parser()
    lam = ["--builtin", "so3", "--lambda", "0,0,1"]
    args = parser.parse_args(["spencer", *lam])
    assert args.convention == LeibnizConvention.UNSIGNED.value
    assert args.identification == Identification.BASIS.value
    args = parser.parse_args(["mirror", *lam, "--transform", "sign"])
    assert args.identification == Identification.KILLING.value


# --- the README's CLI examples ------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
FILE_FLAGS = {"--file", "--bundle-file"}


def readme_cli_lines():
    """The ``spencerbench ...`` lines of the README's CLI block, comments
    dropped."""
    block = re.search(r"## CLI\n\n```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [shlex.split(line, comments=True) for line in block.group(1).splitlines()
            if line.startswith("spencerbench ")]


README_EXAMPLES = [argv[1:] for argv in readme_cli_lines() if not FILE_FLAGS & set(argv)]


def test_readme_shows_every_command_on_builtin_input():
    assert {argv[0] for argv in README_EXAMPLES} == {
        "algebra", "spencer", "mirror", "complex", "bundle"}


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_readme_cli_example_runs(argv, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    assert isinstance(json.loads(out), dict)
