"""Byte-identity guard: pinned SHA-256 digests of a few fast CLI reports.

Each line reaches a different use of the one exact elimination (rank, kernel,
solve, inverse, column span, basis decomposition) or assembly path (the
paper-signed delta, a non-zero delta block in the total differential, the
mirror chain maps) or integer kernel (the Jacobi witness among tied
quadruples, generator tables and products over a rational lambda) or
bundle diagnostic (a constant connection, a site-resolved rational field
on three axes, a distinct rational value at every site of an sl3 field,
float rendering, the su3 float law). The reduced row echelon form is
unique, every reported rational is exact and the one reported float is
pinned to its order of operations on every Python version, so any correct
change to these paths keeps the digests. One
command per subcommand is also run as a process under two hash seeds, so
the bytes cannot depend on set or dict order of hashed keys.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spencerbench.cli import main
from spencerbench.liealg import algebra_to_json, builtin_algebra

GOLDEN = [
    (
        # kernel, solve, rank
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
    (
        # paper-signed delta columns and the ordering audit
        ["spencer", "--builtin", "so3", "--lambda=1,2,3", "--K", "4",
         "--convention", "paper-signed"],
        "658ea962ffb320aa7f8e9c578fda8e97fcee0b86b2240b498f34a584398baf0f",
    ),
    (
        # non-zero delta blocks in D^k; D^2 != 0, so dims are withheld
        ["complex", "--builtin", "so3", "--lambda=0,0,1", "--K", "4",
         "--mirror", "sign", "--seed", "7"],
        "827ae6acc24510b65e474594da75f39e18329808c48469ef43242793cf8bb369",
    ),
    (
        # automorphism chain maps, Kunneth and cup products on a complex
        ["complex", "--builtin", "sl2", "--lambda=0,0,0", "--allow-degenerate",
         "--K", "4", "--torus", "2", "--mirror", "identity", "--seed", "7"],
        "d7132ce3692c6f050cb24765dc7fe8f40856afb340bb36e9593158a09cd2ac95",
    ),
    (
        ["complex", "--builtin", "sl2", "--lambda=1,2,3", "--K", "3",
         "--torus", "2", "--mirror", "negate-transpose"],
        "793e11e0deb42ea2ef481cf49c35d1328cc882ba1de8ae16ade5046ea8a8bc0c",
    ),
    (
        # rational lambda through the Killing identification; residuals 1/10, 3/10
        ["spencer", "--builtin", "so3", "--lambda=1/2,-2/3,3/5", "--K", "4",
         "--identification", "killing"],
        "e0ae23e14fd7671b729b258799efee58d5607e199894f5691eb3b8d785b298af",
    ),
    (
        # rational lambda, coordinate identification; residuals 28 and 57
        ["mirror", "--builtin", "sl3", "--lambda=1,-1/2,2,3,-5,1/3,4,7",
         "--transform", "weyl:312", "--identification", "basis", "--K", "2"],
        "32c5cf016e081cfcdb2e2b4dc7f5554ea525a7d3cde0dc2db4d53955f48a512a",
    ),
    (
        # constant non-zero connection: coadjoint term, Cartan residual 5/2,
        # first energy 69/8, 256 sites sharing one kernel
        ["bundle", "--builtin", "so3", "--grid", "16,16", "--lambda=1,-2,3",
         "--omega", "1,0,1/2;0,-1,2"],
        "056928048c647d88f1f54992a9bef61beb1471b2f51c6f02e6950fcf570a5687",
    ),
    (
        # float rendering of the bundle report, equivariance from the coadjoint matrices
        ["bundle", "--builtin", "sl3", "--grid", "6,6", "--lambda=1,2,3,4,5,6,7,8",
         "--mode", "float"],
        "368e76330f20ffc462303e9fba5131da47b33b25449d3651145d01261a50aedb",
    ),
    (
        # Killing inverse, power maps of A and the chain maps together;
        # D^2 residual 49/108, commutation residuals 0, 0, 0
        ["complex", "--builtin", "sl3", "--lambda=1,-1/2,2,3,-5,1/3,4,7", "--K", "3",
         "--torus", "1", "--identification", "killing", "--mirror", "weyl:231"],
        "743b367ec6fe3a988894f7f53b68cf770139451b4e01ee1d4ca31701c551451b",
    ),
    (
        # the float law on su3: a compensated builtin sum (Python 3.12+) would
        # print a different equivariance_residual, so this digest holds only
        # while every series entry is added with + in index order
        ["bundle", "--builtin", "su3", "--grid", "3,3", "--lambda=-8,-7,9,4,-8,-2,3,-1"],
        "f88190b23044c26f2f00fce2496b6a210a9442965c782724e8736ba734312910",
    ),
]

IDS = ["bundle", "mirror", "complex", "algebra", "spencer-paper-signed",
       "complex-so3-sign", "complex-sl2-identity", "complex-sl2-negate-transpose",
       "spencer-so3-killing-rational", "mirror-sl3-basis-rational",
       "bundle-so3-omega", "bundle-sl3-float", "complex-sl3-killing-weyl",
       "bundle-su3-float-law"]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=IDS)
def test_cli_report_digest_is_pinned(argv, digest, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CROSS_PROCESS = ["algebra", "spencer-paper-signed", "mirror", "complex-sl2-identity",
                 "bundle-so3-omega"]


def process_report(argv, hash_seed):
    """The CLI's stdout bytes from a fresh interpreter under PYTHONHASHSEED."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "spencerbench.cli", *argv], capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("name", CROSS_PROCESS)
def test_report_bytes_are_the_same_in_every_process(name):
    # the complex line prints the cup section, the bundle line a constant
    # connection; both processes must give the pinned bytes
    argv, digest = dict(zip(IDS, GOLDEN))[name]
    first, second = (process_report(argv, seed) for seed in ("0", "1"))
    assert first == second
    assert hashlib.sha256(first).hexdigest() == digest


def test_algebra_file_report_digest_is_pinned(tmp_path, capsys):
    # so3 with [e1,e2] = 2e3 but [e2,e1] = -e3: Jacobi residual 1, witness
    # (0, 0, 1, 1), the smallest of several tied quadruples
    data = algebra_to_json(builtin_algebra("so3"))
    data["name"] = "so3-bad"
    data["structure_constants"] = [
        [i, j, k, "2" if (i, j, k) == (0, 1, 2) else v]
        for i, j, k, v in data["structure_constants"]
    ]
    path = tmp_path / "so3-bad.json"
    path.write_text(json.dumps(data))
    code = main(["algebra", "--file", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["jacobi_witness"] == [0, 0, 1, 1]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d562f5d79e52f6e287eb490337bf5747a4d154135c4c71c894e2b77842f8f168"
    )


def test_bundle_file_report_digest_is_pinned(tmp_path, capsys):
    # site-resolved so3 on 4x4x4: five rational lambda values repeat over the
    # sites, and every fifth site carries its own connection on all three axes
    rng = random.Random(51)
    pool = [[f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}" for _ in range(3)] for _ in range(5)]
    pool = [p if any(x[0] != "0" for x in p) else ["1", "0", "0"] for p in pool]
    sites = [[i, j, k] for i in range(4) for j in range(4) for k in range(4)]
    lam = [[s, rng.choice(pool)] for s in sites]
    omega = [[s, a, [str(rng.randint(-2, 2)) for _ in range(3)]]
             for s in sites[::5] for a in range(3)]
    data = {"grid": [4, 4, 4], "algebra": "so3", "omega_base": omega, "lambda_field": lam}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(data))
    code = main(["bundle", "--builtin", "so3", "--bundle-file", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["functional_terms"] == ["17823/128", "0"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bdb9d6859f6c394ddcab17f92ea501ca5effd9b280d950a0ad066a9766853c4a"
    )


def test_sl3_site_resolved_bundle_file_digest_is_pinned(tmp_path, capsys):
    # site-resolved sl3 on 5x4: a distinct rational lambda at every site, with
    # mixed denominators, and a non-zero integer connection on both axes, so
    # the float series runs over 20 distinct values and the Cartan residual
    # mixes the denominators of neighbouring sites with coadjoint terms
    rng = random.Random(61)
    sites = [[i, j] for i in range(5) for j in range(4)]
    lam = [[s, [f"{rng.randint(-6, 6)}/{rng.choice((1, 2, 3, 5, 7))}" for _ in range(7)]
            + [f"{k + 1}/{rng.choice((1, 4, 9))}"]] for k, s in enumerate(sites)]
    omega = [[s, a, [str(rng.randint(1, 2) * rng.choice((-1, 1)) if p == k % 8
                         else rng.randint(-2, 2)) for p in range(8)]]
             for k, s in enumerate(sites) for a in range(2)]
    assert len({tuple(map(Fraction, coeffs)) for _, coeffs in lam}) == len(sites)
    data = {"grid": [5, 4], "algebra": "sl3", "omega_base": omega, "lambda_field": lam}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(data))
    code = main(["bundle", "--builtin", "sl3", "--bundle-file", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["cartan_residual_max"] == "1173/8"
    assert report["functional_terms"] == ["315514211323/127008000", "0"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "02040fd426f1dec57c4f948e7ac47f000ccec6b9be6dee2164c257d615d826cd"
    )
