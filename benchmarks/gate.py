"""Correctness gate for one op's output.

An op passes when it exits with code 0, its report's SHA-256
equals the golden digest recorded for its exact inputs, and every oracle
named on the op holds.  Oracles check facts that are known independently
of the recorded digests.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


def load_goldens(path=GOLDENS):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _algebra_valid(report):
    return report["valid"] is True and report["jacobi_residual"] == "0" \
        and report["antisymmetry_residual"] == "0"


def _nilpotency_fails(report):
    """delta^2 != 0 on sl3/su3 with a non-zero lambda, with a non-zero residual."""
    nil = report["nilpotency"]
    return nil["holds"] is False and any(r != "0" for _, r in nil["residuals"])


def _intertwining_inverse_holds(report):
    """Under the Killing identification the inverse transport intertwines exactly."""
    checks = [c for c in report["intertwining"] if c["transport"] == "inverse"]
    return bool(checks) and all(c["holds"] and c["residual"] == "0" for c in checks)


def _sign_mirror_holds(report):
    return report["involution_exact"] is True and report["delta_sign_identity"] is True


def _dims_withheld(report):
    """D^2 != 0 for a semisimple fiber with lambda != 0, so no dims are claimed."""
    rep = report["report"]
    return rep["d_squared_residual"] != "0" and rep["dims"] == [] \
        and any(f.startswith("not-a-complex") for f in rep["flags"])


def _intersection_dim(report):
    """dim(D & V) = dim g - 1 at every site."""
    trans = report["transversality"]
    sites = trans["per_site"].values()
    return bool(sites) and all(v[1] == trans["fiber_dim"] - 1 for v in sites)


def _ce_dims(report, betti, expected):
    """The base's Betti numbers are the closed-form ones, and the complex's
    dims equal them convolved with the Sym dims of the fiber."""
    coh = report["cohomology"]
    mirror = report["mirror_sign"]
    return report["base_betti"] == betti and coh["dims"] == expected \
        and coh["d_squared_residual"] == "0" \
        and report["kunneth"]["matches"] is True \
        and mirror["dims_equal"] is True and mirror["commutation_holds"] is True


def _ranks_agree(report):
    """rank() equals rank_bareiss() on every matrix, and some delta is non-zero."""
    rows = [r for part in report["parts"] for r in part["ranks"]]
    return all(r["rank"] == r["rank_bareiss"] for r in rows) and any(r["rank"] for r in rows)


ORACLES = {
    "algebra_valid": _algebra_valid,
    "nilpotency_fails": _nilpotency_fails,
    "intertwining_inverse_holds": _intertwining_inverse_holds,
    "sign_mirror_holds": _sign_mirror_holds,
    "dims_withheld": _dims_withheld,
    "intersection_dim": _intersection_dim,
    "ce_dims": _ce_dims,
    "ranks_agree": _ranks_agree,
}


def digest(data):
    return hashlib.sha256(data).hexdigest()


def check(op, exit_code, report_bytes, goldens):
    """List of reasons the op failed; empty when it passed."""
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit {exit_code}, expected 0")
    golden = goldens.get(op.input_digest())
    if golden is None:
        reasons.append("no golden digest for these inputs")
    elif digest(report_bytes) != golden:
        reasons.append("report digest differs from the golden digest")
    if not op.oracles:
        return reasons
    try:
        report = json.loads(report_bytes)
    except ValueError:
        return reasons + ["report is not JSON"]
    for name, kwargs in op.oracles:
        try:
            held = ORACLES[name](report, **kwargs)
        except (KeyError, TypeError, IndexError, AttributeError):
            held = False
        if not held:
            reasons.append(f"oracle {name} failed")
    return reasons


def corrupt(report_bytes):
    """The report with its first digit changed: a negative control for check()."""
    data = bytearray(report_bytes)
    for i, b in enumerate(data):
        if 0x30 <= b <= 0x39:
            data[i] = 0x30 + (b - 0x30 + 1) % 10
            return bytes(data)
    return bytes(data) + b" "
