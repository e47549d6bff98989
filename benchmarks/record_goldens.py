"""Record the golden report digests for every input set of every workload.

    python3 benchmarks/record_goldens.py

Runs each op once in a fresh interpreter on the current program and writes
``benchmarks/goldens.json`` (input digest -> report digest).  An op whose
exit code or oracles fail is not recorded, and the script exits 1.  Record
only on a program whose reports are known to be right.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import gate
import run
import workloads


def main():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR)
    goldens = {}
    bad = []
    try:
        runner = run.Runner(work, {})
        for input_set in range(workloads.INPUT_SETS):
            for workload in sorted(workloads.LADDERS):
                for op in workloads.make_ops(workload, input_set):
                    child = runner.execute(op)
                    report_digest = gate.digest(child.stdout)
                    # with the report's own digest as golden, only exit code
                    # and oracles can fail
                    reasons = gate.check(op, child.exit, child.stdout,
                                         {op.input_digest(): report_digest})
                    if reasons:
                        bad.append((workload, input_set, op.id, reasons))
                        continue
                    goldens[op.input_digest()] = report_digest
                print(f"input set {input_set} {workload}: done", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for item in bad:
        print("not recorded:", item, file=sys.stderr)
    with open(gate.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
