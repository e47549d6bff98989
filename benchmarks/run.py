"""spencerbench benchmark: seeded op ladders, one fresh interpreter per op.

    python3 benchmarks/run.py --workload operators --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.

A closed loop with one client: each op of the workload's ladder runs in its
own interpreter, the next only after the previous one is reaped, as a CLI
user pays for it.  Wall time runs from spawn to reap; CPU time and peak RSS
come from ``os.wait4`` for that child alone.  A run of ``reference.py``
brackets every timed op, and times are reported in units of it (see
``end_to_end``).  One warm-up pass of the smoke ladder runs first and is not
timed.  Passes repeat until ``--seconds`` is spent, at least two.  Every
op's output goes through ``gate.check``: exit code, golden digest, oracles.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced replay (``child.py replay``) of the smoke ladder
and the workload's ladder, and prints the per-layer metrics: self time and
counts at the public calls of each layer.  Spans go to
``.bench_out/spans-<workload>-<seed>.json``.

The last line of standard output is the result object; the lines above it
hold the run header, per-op timings and each metric's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402
from spans import self_times  # noqa: E402

OP_TIMEOUT_S = 90
SETUP_REPS = 3  # after the warm-up, and again at the start of every pass
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "top_rung_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "liealg.builtin_algebra.s": "s",
    "liealg.jacobi_residual.s": "s",
    "liealg.antisymmetry_residual.s": "s",
    "liealg.algebra_from_json.s": "s",
    "spencer.delta_matrix.s": "s",
    "spencer.delta_matrix.calls": "count",
    "spencer.delta_matrix.nnz": "count",
    "spencer.nilpotency_report.s": "s",
    "spencer.signed_leibniz_welldefinedness.s": "s",
    "mirror.intertwining_check.s": "s",
    "mirror.intertwining_check.calls": "count",
    "mirror.induced_tensor_map.s": "s",
    "linalg.rank.s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank.cells": "count",
    "linalg.rank_bareiss.s": "s",
    "linalg.kernel_basis.s": "s",
    "linalg.in_column_span.s": "s",
    "linalg.matmul.s": "s",
    "linalg.matmul.calls": "count",
    "cohomology.dga_from_json.s": "s",
    "cohomology.build_complex.s": "s",
    "cohomology.d_squared_residual.s": "s",
    "cohomology.cohomology_report.s": "s",
    "cohomology.kunneth_diagnostic.s": "s",
    "cohomology.cup_product.s": "s",
    "cohomology.mirror_invariance_check.s": "s",
    "bundle.bundle_from_json.s": "s",
    "bundle.transversality_report.s": "s",
    "bundle.cartan_residual.s": "s",
    "bundle.compatibility_functional_terms.s": "s",
    "bundle.equivariance_residual.s": "s",
    "bundle.sites": "count",
    "cli.emit.s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int | str  # "timeout" when the child was killed
    stdout: bytes


def spawn(argv, work):
    """Run one child to completion; wall from spawn to reap, rusage from wait4."""
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
    pidfd = os.pidfd_open(proc.pid)
    ready = []
    try:
        ready, _, _ = select.select([pidfd], [], [], OP_TIMEOUT_S)
    finally:
        # a timed-out or interrupted child is killed, and always reaped
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        os.close(pidfd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if ready else "timeout"
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code, stdout)


class Runner:
    """Runs ops in fresh interpreters and gates their output."""

    def __init__(self, work, goldens):
        self.work = work
        self.goldens = goldens
        self.attempted = 0
        self.failures = []  # [(op id, reasons)]

    def materialise(self, op):
        """Write the op's files; return (argv with paths, op directory)."""
        op_dir = os.path.join(self.work, op.id)
        os.makedirs(op_dir, exist_ok=True)
        paths = {}
        for name, data in op.files.items():
            paths[name] = os.path.join(op_dir, name)
            with open(paths[name], "wb") as fh:
                fh.write(data)
        argv = [paths[a[1:-1]] if a.startswith("{") else a for a in op.argv]
        return argv, op_dir

    def _record(self, op, reasons):
        self.attempted += 1
        if reasons:
            self.failures.append((op.id, reasons))

    def execute(self, op):
        argv, op_dir = self.materialise(op)
        if op.kind == "cli":
            cmd = [sys.executable, "-m", "spencerbench.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "lib", *argv]
        return spawn(cmd, op_dir)

    def reference(self):
        child = spawn([sys.executable, os.path.join(HERE, "reference.py")], self.work)
        if child.exit != 0:
            raise RuntimeError("reference.py failed")
        return child

    def run(self, op):
        """Execute the op and gate its output."""
        child = self.execute(op)
        self._record(op, gate.check(op, child.exit, child.stdout, self.goldens))
        return child

    def replay(self, op):
        """Traced replay in a fresh interpreter; returns (child, replay result or None)."""
        argv, op_dir = self.materialise(op)
        spec = os.path.join(op_dir, "op.json")
        out = os.path.join(op_dir, "replay.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"id": op.id, "kind": op.kind, "argv": argv}, fh)
        child = spawn([sys.executable, os.path.join(HERE, "child.py"), "replay", spec, out],
                      op_dir)
        result = None
        reasons = []
        if child.exit != 0:
            reasons.append(f"replay exited {child.exit}")
        else:
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
            if result["exit"] != 0:
                reasons.append(f"replayed exit {result['exit']}")
            if result["digest"] != self.goldens.get(op.input_digest()):
                reasons.append("replay digest differs from the golden digest")
        self._record(op, reasons)
        return child, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure_setup(names, work, walls):
    """Append SETUP_REPS set-up times: fresh interpreters that import the
    program and build the named builtin algebras."""
    code = "import spencerbench\nfor name in %r:\n    spencerbench.builtin_algebra(name)\n" % names
    for _ in range(SETUP_REPS):
        child = spawn([sys.executable, "-c", code], work)
        if child.exit != 0:
            raise RuntimeError("set-up interpreter failed")
        walls.append(child.wall_s)


def commit_id():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def timed_passes(runner, ops, top, seconds, start, each_pass):
    """Untraced passes until the time is spent; a list of (runs, refs) per pass.

    ``runs`` holds (op id, child, in ladder) for the ladder and for two more
    runs of the top rung, the figure most exposed to bursts of contention,
    placed before each half of the ladder so that bursts hit them
    independently.  ``refs`` holds the runs of ``reference.py`` made before
    the first op and after every op.  ``each_pass`` is called at the start
    of every pass.
    """
    top_op = next(op for op in ops if op.id == top)
    half = len(ops) // 2
    order = [(top_op, False)] + [(op, True) for op in ops[:half]] + \
        [(top_op, False)] + [(op, True) for op in ops[half:]]
    passes = []
    durations = []
    while len(durations) < MIN_PASSES or \
            time.perf_counter() - start + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        each_pass()
        refs = [runner.reference()]
        runs = []
        for op, in_ladder in order:
            runs.append((op.id, runner.run(op), in_ladder))
            refs.append(runner.reference())
        passes.append((runs, refs))
        durations.append(time.perf_counter() - began)
    return passes


def end_to_end(passes, top, setup, ok_frac):
    """End-to-end values (medians) and the samples they summarise.

    Times are in units of a reference run: an op's wall (or CPU) time
    divided by the mean wall (or CPU) time of its pass's reference runs.
    """
    samples = {m: [] for m in END_TO_END}
    for runs, refs in passes:
        ref_wall = statistics.mean(r.wall_s for r in refs)
        ref_cpu = statistics.mean(r.cpu_s for r in refs)
        ladder = [child for _, child, in_ladder in runs if in_ladder]
        samples["wall_ref"].append(sum(c.wall_s for c in ladder) / ref_wall)
        samples["cpu_ref"].append(sum(c.cpu_s for c in ladder) / ref_cpu)
        samples["peak_rss_mb"].append(max(c.rss_mb for c in ladder))
        samples["top_rung_ref"] += [c.wall_s / ref_wall for op_id, c, _ in runs if op_id == top]
    samples["setup_s"] = setup
    samples["ok_frac"] = [ok_frac]
    return {m: statistics.median(v) for m, v in samples.items()}, samples


def traced_pairs(runner, ops, prefix, seconds, start):
    """Alternate an untraced pass and a traced replay until the time is spent.

    Returns the per-layer values of each pair, the spans of every replay and
    the span names whose target the program no longer defines.
    """
    layer_values = []
    spans = []
    missing = set()
    durations = []
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        untraced = sum(runner.run(op).wall_s for op in ops)
        counts = {}
        times = {}
        traced = 0.0
        for i, op in enumerate(prefix + ops):
            child, result = runner.replay(op)
            if i >= len(prefix):
                traced += child.wall_s
            if result is None:
                continue
            missing.update(result["missing"])
            spans.append({"pass": len(durations), "op": op.id, "spans": result["spans"]})
            for name, own in self_times(result["spans"]).items():
                times[name] = times.get(name, 0.0) + own
            for name, value in result["counts"].items():
                counts[name] = counts.get(name, 0) + value
        values = {}
        for metric in PER_LAYER:
            if metric.endswith(".s"):
                values[metric] = times.get(metric[:-2], 0.0)
            elif metric != "trace.overhead_s":
                values[metric] = counts.get(metric, 0)
        values["trace.overhead_s"] = traced - untraced
        layer_values.append(values)
        durations.append(time.perf_counter() - began)
    return layer_values, spans, sorted(missing)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.LADDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spencerbench", "cli.py")):
        sys.stderr.write("run.py: no program source under src/spencerbench\n")
        return 2
    try:
        goldens = gate.load_goldens()
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"run.py: cannot read golden digests: {exc}\n")
        return 2

    load_start = loadavg()
    ops = workloads.make_ops(args.workload, args.seed)
    again = workloads.make_ops(args.workload, args.seed)
    deterministic = [op.input_digest() for op in ops] == [op.input_digest() for op in again]
    warm = workloads.make_ops("smoke", args.seed)
    top = workloads.TOP_RUNG[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        runner = Runner(work, goldens)
        warm_children = [runner.run(op) for op in warm]
        setup = []
        builtins = workloads.BUILTINS[args.workload]
        if not args.trace:
            measure_setup(builtins, work, setup)
        negative = gate.check(warm[-1], warm_children[-1].exit,
                              gate.corrupt(warm_children[-1].stdout), goldens)
        start = time.perf_counter()
        if args.trace:
            prefix = warm if args.workload != "smoke" else []
            layer_values, spans, missing = traced_pairs(runner, ops, prefix, args.seconds,
                                                        start)
        else:
            passes = timed_passes(runner, ops, top, args.seconds, start,
                                  lambda: measure_setup(builtins, work, setup))
        measured_s = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok_frac = (runner.attempted - len(runner.failures)) / runner.attempted
    if args.trace:
        units = PER_LAYER
        samples = {m: [v[m] for v in layer_values] for m in PER_LAYER}
        values = {m: statistics.median(v) for m, v in samples.items()}
    else:
        units = END_TO_END
        values, samples = end_to_end(passes, top, setup, ok_frac)
    correct = deterministic and not runner.failures and bool(negative)
    header = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "input_set": workloads.input_set(args.seed),
        "commit": commit_id(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "measured_s": measured_s,
        "inputs_deterministic": deterministic,
        "negative_control": "caught" if negative else "missed",
        "failures": runner.failures,
    }
    if args.trace:
        header["targets_missing"] = missing
    print("header " + json.dumps(header))
    if not args.trace:
        for op in ops:
            walls, in_ref = [], []
            for runs, refs in passes:
                ref_wall = statistics.mean(r.wall_s for r in refs)
                for op_id, child, _ in runs:
                    if op_id == op.id:
                        walls.append(child.wall_s)
                        in_ref.append(child.wall_s / ref_wall)
            s = summary(walls)
            print(f"op {op.id:34s} wall median {s['median']:.4f} s  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  n {s['n']}  median {statistics.median(in_ref):.4f} ref")
        s = summary([sum(c.wall_s for _, c, in_ladder in runs if in_ladder)
                     for runs, _ in passes])
        print(f"pass wall median {s['median']:.4f} s  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
              f"n {s['n']}")
    for metric, unit in units.items():
        s = summary(samples[metric])
        print(f"metric {metric:44s} {values[metric]:.6g} {unit}  samples: median "
              f"{s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    if args.trace:
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"header": header,
                       "span_fields": ["name", "start", "end", "parent", "op", "self_s"],
                       "replays": spans}, fh)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
