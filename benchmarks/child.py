"""One op in a fresh interpreter.

    python3 benchmarks/child.py lib SPEC.json
        run a library op and print its JSON report on stdout
    python3 benchmarks/child.py replay OP.json OUT.json
        replay a CLI or library op in-process with spans recorded around the
        public calls of every layer, and write the report digest, exit code
        and spans to OUT.json

Library ops call the program's public functions the way the CLI would and
emit their report with the CLI's JSON layout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _render(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def lib_ce(spec):
    """Cohomology of a Chevalley-Eilenberg base model with an abelian fiber."""
    from spencerbench import (
        DGAModel, build_complex, builtin_algebra, cohomology_report, cup_product,
        kunneth_diagnostic, mirror_invariance_check, sign_mirror,
    )
    from spencerbench.linalg import in_column_span

    dga = DGAModel.from_json(spec["base"])
    fiber = builtin_algebra(spec["fiber"])
    lam = fiber.dual(spec["lambda"])
    instance = build_complex(dga, fiber, lam, spec["K"])
    report = {
        "base": dga.name,
        "base_betti": dga.de_rham_dims(),
        "fiber": fiber.name,
        "K": spec["K"],
        "cohomology": cohomology_report(instance).to_json(),
        "kunneth": kunneth_diagnostic(instance).to_json(),
        "mirror_sign": mirror_invariance_check(instance, sign_mirror()).to_json(),
    }
    # degree-1 classes: closed vectors outside the image of D^0
    d0, d1 = instance.differentials[0], instance.differentials[1]
    gens = [v for v in d1.kernel_basis() if not in_column_span(d0, v)]
    cups = []
    for p in range(len(gens)):
        for q in range(p, len(gens)):
            degree, product = cup_product(instance, 1, gens[p], 1, gens[q])
            cups.append({"pair": [p, q], "degree": degree,
                         "product": [str(v) for v in product if v]})
    report["cup"] = {"degree_one_classes": len(gens), "products": cups}
    return report


def lib_ranks(spec):
    """rank() and rank_bareiss() of delta_k on each listed algebra."""
    from spencerbench import builtin_algebra, delta_matrix

    parts = []
    for part in spec["parts"]:
        algebra = builtin_algebra(part["algebra"])
        lam = algebra.dual(part["lambda"])
        rows = []
        for k in range(part["kmax"] + 1):
            m = delta_matrix(lam, k)
            rows.append({"k": k, "shape": list(m.shape), "nnz": len(m.entries),
                         "rank": m.rank(), "rank_bareiss": m.rank_bareiss()})
        parts.append({"algebra": algebra.name, "lambda": part["lambda"], "ranks": rows})
    return {"parts": parts}


LIB_OPS = {"ce": lib_ce, "ranks": lib_ranks}


def run_lib(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return _render(LIB_OPS[spec["op"]](spec))


def run_cli(argv):
    """cli.main in-process; returns (exit code, stdout text)."""
    from spencerbench import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def replay(op_path, out_path):
    from spans import Tracer

    with open(op_path, encoding="utf-8") as fh:
        op = json.load(fh)
    tracer = Tracer(op["id"])
    with tracer.span("op"):
        tracer.install()
        if op["kind"] == "cli":
            code, text = run_cli(op["argv"])
        else:
            code, text = 0, run_lib(op["argv"][0])
    if op["kind"] == "cli":
        tracer.add_count("cli.report_bytes", len(text.encode()))
    result = {
        "exit": code,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "spans": tracer.spans,
        "counts": tracer.counts,
        "missing": tracer.missing,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    if argv[:1] == ["lib"] and len(argv) == 2:
        sys.stdout.write(run_lib(argv[1]))
        return 0
    if argv[:1] == ["replay"] and len(argv) == 3:
        replay(argv[1], argv[2])
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
