"""Byte-identity guard: pinned SHA-256 digests of a few fast CLI reports.

Each line reaches a different exact-elimination entry point (rank, kernel,
solve, inverse, column span, basis decomposition). The reduced row echelon
form is unique, so any correct change to the elimination keeps these digests.
"""

import hashlib

import pytest

from spencerbench.cli import main

GOLDEN = [
    (
        # kernel, solve, rref
        ["bundle", "--builtin", "sl3", "--grid", "4,4", "--lambda=1,2,3,4,5,6,7,8"],
        "5abe713abdda056e427f165aea6e306f92c841c1974521aedf5a869a03f49e41",
    ),
    (
        # inverse, basis decomposition
        ["mirror", "--builtin", "sl3", "--lambda=1,2,3,4,5,6,7,8",
         "--transform", "weyl:231", "--K", "3"],
        "81376f6c724c9e18f386b565ae5e70585cbd1aa5e76adcf0e6fd8eee67ed7eab",
    ),
    (
        # rank, kernel, in_column_span
        ["complex", "--builtin", "abelian(3)", "--lambda=1,2,3", "--K", "4",
         "--torus", "3", "--seed", "7"],
        "ba0b0ecf1cf55077cb0f9b9bd13c6e56df0041257185dc1ab64f1f7dc9a51ba9",
    ),
    (
        ["algebra", "--builtin", "su3"],
        "a9636ff09f2d00cd2ff7b1255af8e2e34983e7b87fb469b503181f0c0766f829",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[g[0][0] for g in GOLDEN])
def test_cli_report_digest_is_pinned(argv, digest, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
