"""Self-test of the benchmark on the smoke ladder (so3, K=3, a 4x4 grid).

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import gate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(trace, cwd=ROOT, runner=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, runner, "--workload", "smoke", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    header = json.loads(next(line for line in lines if line.startswith("header "))[7:])
    return lines, header, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    lines, header, result = _lines(_run(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert header["negative_control"] == "caught"
    assert header["inputs_deterministic"] is True
    wanted = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith("metric ") and line.split()[1] == name
                   and line.split()[3] == unit for line in lines)


def test_negative_control_fails():
    op = workloads.make_ops("smoke", 5)[-1]
    goldens = gate.load_goldens()
    report = json.dumps({"parts": [{"ranks": [{"rank": 2, "rank_bareiss": 2}]}]}).encode()
    assert gate.check(op, 0, gate.corrupt(report), goldens)
    doctored = json.dumps({"parts": [{"ranks": [{"rank": 2, "rank_bareiss": 3}]}]}).encode()
    assert "oracle ranks_agree failed" in gate.check(op, 0, doctored, goldens)
    assert gate.check(op, 2, report, goldens)[0].startswith("exit 2")


def test_inputs_are_byte_identical_per_seed_and_recorded():
    goldens = gate.load_goldens()
    for name in workloads.LADDERS:
        first = workloads.make_ops(name, 3)
        second = workloads.make_ops(name, 3 + workloads.INPUT_SETS)
        assert [op.input_digest() for op in first] == [op.input_digest() for op in second]
        assert all(op.input_digest() in goldens for op in first)
    assert [op.input_digest() for op in workloads.make_ops("lattice", 1)] != \
        [op.input_digest() for op in workloads.make_ops("lattice", 2)]


def test_owned_structure_constants_are_lie_algebras():
    for constants in (workloads.so3_constants, workloads.su3_constants,
                      workloads.sl3_constants):
        c = constants()
        n = len(c)
        for i, j, k in itertools.combinations(range(n), 3):
            for m in range(n):
                assert sum(c[j][k][l] * c[i][l][m] + c[k][i][l] * c[j][l][m]
                           + c[i][j][l] * c[k][l][m] for l in range(n)) == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path, runner=str(tmp_path / "benchmarks" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
