"""Seeded inputs and op ladders for the spencerbench benchmark.

Every input the program sees is made here from the run's seed: the dual
vectors (lambda), a dense rational basis change of sl3, site-resolved bundle
fields and Chevalley-Eilenberg base models.  Nothing in this file imports
the program, so the inputs stay fixed while the program changes.

The seed picks one of ``INPUT_SETS`` input sets (``seed % INPUT_SETS``).
Each set is drawn from its own ``random.Random``, and the golden report
digests in ``goldens.json`` were recorded for every set.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

INPUT_SETS = 16

NONZERO = [v for v in range(-9, 10) if v]


@dataclass
class Op:
    """One program invocation: a CLI command line or a library op.

    ``argv`` may name files of ``files`` as ``{name}``; the runner substitutes
    their paths.  ``oracles`` lists checks from ``gate.ORACLES`` with their
    arguments.
    """

    id: str
    kind: str  # "cli" or "lib"
    argv: list
    files: dict = field(default_factory=dict)  # name -> bytes
    oracles: list = field(default_factory=list)  # [(oracle name, kwargs)]

    def input_digest(self):
        """SHA-256 over everything the program receives for this op."""
        h = hashlib.sha256()
        h.update(json.dumps([self.id, self.kind, self.argv]).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------


def _int_lambda(rng, dim):
    return [Fraction(rng.choice(NONZERO)) for _ in range(dim)]


def _rational_lambda(rng, dim):
    """Non-zero coordinates p/q with q in 2..7, so none is an integer."""
    out = []
    for _ in range(dim):
        q = rng.randint(2, 7)
        p = rng.choice([v for v in NONZERO if v % q])
        out.append(Fraction(p, q))
    return out


def _csv(values):
    return ",".join(str(v) for v in values)


def _dump(data):
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------------------
# Structure constants the benchmark owns
# ---------------------------------------------------------------------------


def _constants(dim, brackets):
    """Full antisymmetric table c[i][j][k] from {(i, j): {k: c}} with i < j."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), row in brackets.items():
        for k, v in row.items():
            c[i][j][k] = Fraction(v)
            c[j][i][k] = -Fraction(v)
    return c


def so3_constants():
    """[e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2."""
    return _constants(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})


def su3_constants():
    """su3 in the basis X_a = -i lambda_a / 2 (Gell-Mann lambda_1..7) and
    X_8 = -i diag(1, 1, -2) / 2, which is sqrt(3) times the usual one and
    makes every constant rational.

    Entries are (re, im) pairs; coordinates come from the trace form,
    x_a = tr(M X_a) / tr(X_a X_a).
    """
    half = Fraction(1, 2)
    gell_mann = [
        {(0, 1): (1, 0), (1, 0): (1, 0)}, {(0, 1): (0, -1), (1, 0): (0, 1)},
        {(0, 0): (1, 0), (1, 1): (-1, 0)}, {(0, 2): (1, 0), (2, 0): (1, 0)},
        {(0, 2): (0, -1), (2, 0): (0, 1)}, {(1, 2): (1, 0), (2, 1): (1, 0)},
        {(1, 2): (0, -1), (2, 1): (0, 1)}, {(0, 0): (1, 0), (1, 1): (1, 0), (2, 2): (-2, 0)},
    ]
    # -i/2 (re + i im) = (im/2, -re/2)
    mats = [[[(half * g.get((r, c), (0, 0))[1], -half * g.get((r, c), (0, 0))[0])
              for c in range(3)] for r in range(3)] for g in gell_mann]

    def mul(a, b):
        return [[(sum(a[r][k][0] * b[k][c][0] - a[r][k][1] * b[k][c][1] for k in range(3)),
                  sum(a[r][k][0] * b[k][c][1] + a[r][k][1] * b[k][c][0] for k in range(3)))
                 for c in range(3)] for r in range(3)]

    def trace_re(m):
        return sum(m[i][i][0] for i in range(3))

    norms = [trace_re(mul(x, x)) for x in mats]
    brackets = {}
    for i in range(8):
        for j in range(i + 1, 8):
            ab, ba = mul(mats[i], mats[j]), mul(mats[j], mats[i])
            comm = [[(ab[r][c][0] - ba[r][c][0], ab[r][c][1] - ba[r][c][1]) for c in range(3)]
                    for r in range(3)]
            row = {k: trace_re(mul(comm, mats[k])) / norms[k] for k in range(8)}
            brackets[(i, j)] = {k: v for k, v in row.items() if v}
    return _constants(8, brackets)


def sl3_constants():
    """sl3 in the basis E_12, E_13, E_21, E_23, E_31, E_32, H_1, H_2."""
    units = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    diag = [(1, -1, 0), (0, 1, -1)]

    def matrix(a):
        m = [[Fraction(0)] * 3 for _ in range(3)]
        if a < 6:
            r, c = units[a]
            m[r][c] = Fraction(1)
        else:
            for i, v in enumerate(diag[a - 6]):
                m[i][i] = Fraction(v)
        return m

    mats = [matrix(a) for a in range(8)]

    def coords(m):
        out = [m[r][c] for r, c in units]
        # diagonal d = x H_1 + y H_2 with d = (x, y - x, -y)
        out += [m[0][0], -m[2][2]]
        return out

    brackets = {}
    for i in range(8):
        for j in range(i + 1, 8):
            a, b = mats[i], mats[j]
            comm = [[sum(a[r][k] * b[k][c] - b[r][k] * a[k][c] for k in range(3))
                     for c in range(3)] for r in range(3)]
            brackets[(i, j)] = {k: v for k, v in enumerate(coords(comm)) if v}
    return _constants(8, brackets)


def _invert(a):
    n = len(a)
    m = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def dense_sl3_json(rng):
    """sl3 after a dense rational basis change f_i = sum_j A[j][i] e_j.

    A = L U with L unit lower triangular and U upper triangular, both with
    non-zero entries everywhere in their triangle and a half-integer on the
    diagonal of U, so A and its inverse are dense and rational.
    """
    n = 8
    c = sl3_constants()
    low = [[Fraction(1) if r == k else (Fraction(rng.choice([-2, -1, 1, 2])) if r > k else Fraction(0))
            for k in range(n)] for r in range(n)]
    up = [[Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])) if r == k
           else (Fraction(rng.choice([-1, 1])) if r < k else Fraction(0))
           for k in range(n)] for r in range(n)]
    a = [[sum(low[r][m] * up[m][k] for m in range(n)) for k in range(n)] for r in range(n)]
    ainv = _invert(a)
    # [f_i, f_j] = sum_{p,q} A[p][i] A[q][j] c[p][q][l] e_l, and e_l = sum_k Ainv[k][l] f_k
    triples = []
    for i in range(n):
        for j in range(n):
            bra = [sum(a[p][i] * a[q][j] * c[p][q][l] for p in range(n) for q in range(n)
                       if c[p][q][l]) for l in range(n)]
            for k in range(n):
                v = sum(ainv[k][l] * bra[l] for l in range(n))
                if v:
                    triples.append([i, j, k, str(v)])
    return {
        "name": "sl3-dense",
        "dim": n,
        "structure_constants": triples,
        "basis_labels": [f"f{i + 1}" for i in range(n)],
    }


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg base models
# ---------------------------------------------------------------------------


def ce_model_json(name, c):
    """Chevalley-Eilenberg cochains of the Lie algebra with constants c.

    Degree k has the basis e^S for sorted k-subsets S. On generators
    d e^m = -sum_{i<j} c[i][j][m] e^i e^j, extended as a graded derivation.
    Products are wedge products with the merge sign.
    """
    n = len(c)
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    index = [{s: p for p, s in enumerate(row)} for row in subsets]
    d_gen = [{(i, j): -c[i][j][m] for i in range(n) for j in range(i + 1, n) if c[i][j][m]}
             for m in range(n)]
    diff = []
    for k in range(n):
        entries = {}
        for col, s in enumerate(subsets[k]):
            for p, m in enumerate(s):
                rest = s[:p] + s[p + 1:]
                for (i, j), v in d_gen[m].items():
                    if i in rest or j in rest:
                        continue
                    # (-1)^p moves d past p one-forms; then sort the word
                    word = s[:p] + (i, j) + s[p + 1:]
                    key = (index[k + 1][tuple(sorted(word))], col)
                    entries[key] = entries.get(key, 0) + (-1) ** p * _perm_sign(word) * v
        diff.append({
            "rows": len(subsets[k + 1]),
            "cols": len(subsets[k]),
            "entries": [[r, cc, str(v)] for (r, cc), v in sorted(entries.items()) if v],
        })
    product = []
    for i, row_i in enumerate(subsets):
        for j, row_j in enumerate(subsets):
            if i + j > n:
                continue
            for a, sa in enumerate(row_i):
                for b, sb in enumerate(row_j):
                    if set(sa) & set(sb):
                        continue
                    target = index[i + j][tuple(sorted(sa + sb))]
                    product.append([i, a, j, b, [[target, str(_perm_sign(sa + sb))]]])
    labels = [["1" if not s else "e" + "^".join(str(x + 1) for x in s) for s in row]
              for row in subsets]
    return {"name": f"ce({name})", "basis": labels, "diff": diff, "product": product}


def _perm_sign(word):
    inv = sum(1 for x, y in itertools.combinations(word, 2) if x > y)
    return -1 if inv % 2 else 1


# Betti numbers of the Lie algebra cohomology, known in closed form
# (Chevalley & Eilenberg 1948): so3 ~ S^3, su3 ~ S^3 x S^5 rationally.
BETTI = {"so3": [1, 0, 0, 1], "su3": [1, 0, 0, 1, 0, 1, 0, 0, 1]}


def ce_expected_dims(algebra, fiber_dim, K):
    """Betti(base) convolved with the dims of Sym^j of an abelian fiber."""
    betti = BETTI[algebra]
    return [sum(betti[i] * comb(fiber_dim + k - i - 1, k - i)
                for i in range(min(k, len(betti) - 1) + 1)) for k in range(K)]


# ---------------------------------------------------------------------------
# Bundle fields
# ---------------------------------------------------------------------------


def _sites(shape):
    return list(itertools.product(*(range(m) for m in shape)))


def bundle_field_json(rng, algebra, dim, shape):
    """Site-resolved lambda (rational, non-zero) and omega (integer) fields."""
    sites = _sites(shape)
    omega = [[list(s), a, [str(rng.randint(-3, 3)) for _ in range(dim)]]
             for s in sites for a in range(len(shape))]
    lam = [[list(s), [str(v) for v in _rational_lambda(rng, dim)]] for s in sites]
    return {"grid": list(shape), "algebra": algebra, "omega_base": omega, "lambda_field": lam}


# ---------------------------------------------------------------------------
# Ladders
# ---------------------------------------------------------------------------

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "operators": "delta assembly, nilpotency and intertwining products, Jacobi checks "
                 "and large JSON reports; no exact elimination",
    "cohomology": "exact rank and kernel work on non-zero differentials: "
                  "Chevalley-Eilenberg base models, delta ranks, complex assembly",
    "lattice": "many tiny per-site eliminations and coadjoint work; constant fields "
               "repeat per-site work, site-resolved fields do not",
    "smoke": "tiny inputs (so3, K=3, a 4x4 grid) touching every layer; warm-up and self-test",
}

# The op reported as top_rung_ref: the longest of each ladder on the code
# the benchmark was defined on.
TOP_RUNG = {
    "operators": "mirror-sl3-K4-weyl231",
    "cohomology": "complex-sl3-K4-torus3-weyl231",
    "lattice": "bundle-sl3-12x12-file",
    "smoke": "lib-ce-so3-K3",
}

# Builtin algebras the workload's ops construct; set-up time builds them.
BUILTINS = {
    "operators": ["sl3", "su3"],
    "cohomology": ["so3", "sl3", "abelian(2)"],
    "lattice": ["sl3", "so3"],
    "smoke": ["so3", "abelian(2)"],
}


NILPOTENCY_FAILS = ("nilpotency_fails", {})


def operators(rng):
    sl3_int = _csv(_int_lambda(rng, 8))
    sl3_rat = _csv(_rational_lambda(rng, 8))
    su3_int = _csv(_int_lambda(rng, 8))
    dense_int = _csv(_int_lambda(rng, 8))
    mirror_int = _csv(_int_lambda(rng, 8))
    mirror_rat = _csv(_rational_lambda(rng, 8))
    su3_sign = _csv(_int_lambda(rng, 8))
    dense = {"dense.json": _dump(dense_sl3_json(rng))}
    valid = ("algebra_valid", {})
    return [
        Op("algebra-sl3", "cli", ["algebra", "--builtin", "sl3"], oracles=[valid]),
        Op("algebra-sl3-dense", "cli", ["algebra", "--file", "{dense.json}"], dense,
           oracles=[valid]),
        Op("spencer-sl3-K4-int", "cli",
           ["spencer", "--builtin", "sl3", "--lambda=" + sl3_int, "--K", "4"],
           oracles=[NILPOTENCY_FAILS]),
        Op("spencer-sl3-K4-rat", "cli",
           ["spencer", "--builtin", "sl3", "--lambda=" + sl3_rat, "--K", "4"],
           oracles=[NILPOTENCY_FAILS]),
        Op("spencer-su3-K3-signed", "cli",
           ["spencer", "--builtin", "su3", "--lambda=" + su3_int, "--K", "3",
            "--convention", "paper-signed"],
           oracles=[NILPOTENCY_FAILS]),
        Op("spencer-sl3-dense-K3", "cli",
           ["spencer", "--file", "{dense.json}", "--lambda=" + dense_int, "--K", "3"], dense,
           oracles=[NILPOTENCY_FAILS]),
        Op("mirror-sl3-K4-weyl231", "cli",
           ["mirror", "--builtin", "sl3", "--lambda=" + mirror_int, "--K", "4",
            "--transform", "weyl:231"],
           oracles=[("intertwining_inverse_holds", {})]),
        Op("mirror-sl3-K3-negtr-rat", "cli",
           ["mirror", "--builtin", "sl3", "--lambda=" + mirror_rat, "--K", "3",
            "--transform", "negate-transpose"],
           oracles=[("intertwining_inverse_holds", {})]),
        Op("mirror-su3-K3-sign", "cli",
           ["mirror", "--builtin", "su3", "--lambda=" + su3_sign, "--K", "3",
            "--transform", "sign"],
           oracles=[("sign_mirror_holds", {})]),
    ]


def _ce_op(rng, algebra, consts, K):
    spec = {
        "op": "ce",
        "base": ce_model_json(algebra, consts),
        "fiber": "abelian(2)",
        "lambda": [str(v) for v in _int_lambda(rng, 2)],
        "K": K,
    }
    return Op(f"lib-ce-{algebra}-K{K}", "lib", ["{spec.json}"], {"spec.json": _dump(spec)},
              oracles=[("ce_dims", {"betti": BETTI[algebra],
                                   "expected": ce_expected_dims(algebra, 2, K)})])


def _ranks_op(op_id, rng, parts):
    spec = {"op": "ranks", "parts": [
        {"algebra": name, "lambda": [str(v) for v in lam(rng, dim)], "kmax": kmax}
        for name, dim, lam, kmax in parts
    ]}
    return Op(op_id, "lib", ["{spec.json}"], {"spec.json": _dump(spec)},
              oracles=[("ranks_agree", {})])


def cohomology(rng):
    ce_so3 = _ce_op(rng, "so3", so3_constants(), 4)
    ce_su3 = _ce_op(rng, "su3", su3_constants(), 4)
    ranks = _ranks_op("lib-ranks-so3-k8-sl3-k2", rng,
                      [("so3", 3, _int_lambda, 8), ("sl3", 8, _rational_lambda, 2)])
    withheld = ("dims_withheld", {})
    return [
        ce_so3,
        ce_su3,
        ranks,
        Op("complex-sl3-K4-torus3-weyl231", "cli",
           ["complex", "--builtin", "sl3", "--lambda=" + _csv(_int_lambda(rng, 8)), "--K", "4",
            "--torus", "3", "--mirror", "weyl:231"], oracles=[withheld]),
        Op("complex-sl3-rat-torus2", "cli",
           ["complex", "--builtin", "sl3", "--lambda=" + _csv(_rational_lambda(rng, 8)),
            "--torus", "2"], oracles=[withheld]),
    ]


def lattice(rng):
    transversal = ("intersection_dim", {})
    omega = ";".join(_csv(rng.randint(-3, 3) for _ in range(3)) for _ in range(2))
    sl3_field = {"field.json": _dump(bundle_field_json(rng, "sl3", 8, (12, 12)))}
    so3_field = {"field.json": _dump(bundle_field_json(rng, "so3", 3, (6, 6, 6)))}
    return [
        Op("bundle-sl3-12x12-const", "cli",
           ["bundle", "--builtin", "sl3", "--grid", "12,12",
            "--lambda=" + _csv(_int_lambda(rng, 8))],
           oracles=[transversal]),
        Op("bundle-so3-16x16-omega", "cli",
           ["bundle", "--builtin", "so3", "--grid", "16,16",
            "--lambda=" + _csv(_int_lambda(rng, 3)), "--omega=" + omega],
           oracles=[transversal]),
        Op("bundle-sl3-12x12-file", "cli",
           ["bundle", "--builtin", "sl3", "--bundle-file", "{field.json}"], sl3_field,
           oracles=[transversal]),
        Op("bundle-so3-6x6x6-file", "cli",
           ["bundle", "--builtin", "so3", "--bundle-file", "{field.json}"], so3_field,
           oracles=[transversal]),
    ]


def smoke(rng):
    """One tiny op per command and library op, on so3 at K=3 and a 4x4 grid."""
    so3 = {"so3.json": _dump({
        "name": "so3-file", "dim": 3,
        "structure_constants": [[i, j, k, str(v)] for i, plane in enumerate(so3_constants())
                                for j, row in enumerate(plane) for k, v in enumerate(row) if v],
        "basis_labels": ["e1", "e2", "e3"],
    })}
    field_json = {"field.json": _dump(bundle_field_json(rng, "so3", 3, (4, 4)))}
    lam = _csv(_int_lambda(rng, 3))
    return [
        Op("algebra-so3-file", "cli", ["algebra", "--file", "{so3.json}"], so3,
           oracles=[("algebra_valid", {})]),
        Op("spencer-so3-K3-signed", "cli",
           ["spencer", "--builtin", "so3", "--lambda=" + lam, "--K", "3",
            "--convention", "paper-signed"], oracles=[NILPOTENCY_FAILS]),
        Op("mirror-so3-K3-identity", "cli",
           ["mirror", "--builtin", "so3", "--lambda=" + lam, "--K", "3",
            "--transform", "identity"], oracles=[("intertwining_inverse_holds", {})]),
        Op("complex-so3-K3", "cli",
           ["complex", "--builtin", "so3", "--lambda=" + lam, "--K", "3", "--mirror", "sign"],
           oracles=[("dims_withheld", {})]),
        Op("bundle-so3-4x4-file", "cli",
           ["bundle", "--builtin", "so3", "--bundle-file", "{field.json}"], field_json,
           oracles=[("intersection_dim", {})]),
        _ce_op(rng, "so3", so3_constants(), 3),
        _ranks_op("lib-ranks-so3-k3", rng, [("so3", 3, _int_lambda, 3)]),
    ]


LADDERS = {"operators": operators, "cohomology": cohomology, "lattice": lattice, "smoke": smoke}


def input_set(seed):
    return seed % INPUT_SETS


def make_ops(workload, seed):
    """The workload's op ladder for this seed; the same seed gives the same bytes."""
    rng = random.Random(f"{workload}:{input_set(seed)}")
    return LADDERS[workload](rng)
