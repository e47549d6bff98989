"""Command-line front end.

Subcommands: algebra | spencer | mirror | complex | bundle. Reports are JSON,
written to stdout or --out, and are byte-deterministic for a fixed command
line. Exit codes: 0 success, 1 a check asserted via flags failed (or a
structural invariant failed, with a witness in the report), 2 malformed
input or violated precondition.

Contested identities (nilpotency of the coupled operator, strong
transversality of the forward construction) are emitted as data and never
fail the process unless explicitly asserted with a flag.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .errors import (
    DegenerateInputError,
    FormatError,
    MismatchError,
    SpencerbenchError,
    ValidationError,
)

# Each command imports the modules it uses, so that a command loads only
# those. The parser therefore spells its choices out instead of reading
# them from spencer's enums; the tests pin them equal. The first choice of
# each is the default.
CONVENTIONS = ("unsigned", "paper-signed")
IDENTIFICATIONS = ("basis", "killing")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2


def _load_algebra(args):
    from .liealg import algebra_from_json, builtin_algebra

    if args.builtin and args.file:
        raise FormatError("--builtin and --file are mutually exclusive")
    if args.builtin:
        return builtin_algebra(args.builtin)
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot read algebra file: {exc}") from exc
        return algebra_from_json(data)
    raise FormatError("provide --builtin NAME or --file PATH")


def _load_lie_algebra(args):
    """The algebra of every command but `algebra`. The builtins are Lie
    algebras; a --file algebra whose antisymmetry or Jacobi residual is not
    zero raises ValidationError (exit 1) with the residuals and the Jacobi
    witness that `algebra` reports."""
    from .liealg import antisymmetry_residual, jacobi_residual

    algebra = _load_algebra(args)
    if args.file:
        anti = antisymmetry_residual(algebra)
        jac, witness = jacobi_residual(algebra, with_witness=True)
        if anti or jac:
            raise ValidationError(
                f"{algebra.name!r} is not a Lie algebra: antisymmetry residual {anti}, "
                f"jacobi residual {jac}, jacobi witness {list(witness) if jac else None}",
                witness=witness,
            )
    return algebra


def _parse_lambda(algebra, text, allow_degenerate=False):
    from .linalg import parse_scalar

    try:
        coeffs = [parse_scalar(part) for part in text.split(",")]
    except AttributeError as exc:
        raise FormatError("lambda must be a comma-separated coefficient list") from exc
    lam = algebra.dual(coeffs)
    if not lam.is_nondegenerate() and not allow_degenerate:
        raise DegenerateInputError(
            "lambda is degenerate (all coefficients zero); pass --allow-degenerate to proceed"
        )
    return lam


# a list of at least this many scalar lists is rendered through the C
# encoder; containers with no such list inside go through json.dumps(indent=2)
# whole. 32 was not tuned: on CPython 3.11 the encoder path already beats
# json.dumps(indent=2) on a list of 2 entries [r, c, "p/q"] (8.6 against
# 14.0 us) and 32 of them (35 against 120 us), but a smaller cut-off was not
# measured end to end.
_LONG = 32
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _render(value, indent):
    """json.dumps(value, indent=2, sort_keys=True) for value at nesting
    indent, or None when value holds no list of _LONG or more non-empty
    scalar lists (the entries of a matrix).

    json.dumps runs its C encoder only when indent is None, so such a list
    is one indent=None call whose item separator carries the newline and
    the inner indentation, after which the separators between two inner
    lists are rewritten: an encoded string holds no raw newline, so
    "],\n" + indent + "[" occurs nowhere else.
    """
    inner = indent + "  "
    if type(value) is list:
        if len(value) >= _LONG:
            if all(value) and {list} == set(map(type, value)) and _SCALARS.issuperset(
                    map(type, itertools.chain.from_iterable(value))):
                deeper = inner + "  "
                body = json.dumps(value, separators=(",\n" + deeper, ": "))[2:-2].replace(
                    "],\n" + deeper + "[", "\n" + inner + "],\n" + inner + "[\n" + deeper)
                return ("[\n" + inner + "[\n" + deeper + body + "\n" + inner + "]\n"
                        + indent + "]")
        keys, children = None, value
    elif type(value) is dict and all(type(key) is str for key in value):
        keys = sorted(value)
        children = [value[key] for key in keys]
    else:
        return None
    parts = [_render(child, inner) for child in children]
    if all(part is None for part in parts):
        return None
    parts = [json.dumps(child, indent=2, sort_keys=True).replace("\n", "\n" + inner)
             if part is None else part for child, part in zip(children, parts)]
    if keys is None:
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "]"
    return ("{\n" + inner + (",\n" + inner).join(
        json.dumps(key) + ": " + part for key, part in zip(keys, parts)) + "\n" + indent + "}")


def _emit(args, report):
    """Write the bytes of json.dumps(report, indent=2, sort_keys=True) and a
    newline, rendered through _render."""
    text = (_render(report, "") or json.dumps(report, indent=2, sort_keys=True)) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FormatError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


# report keys whose values name things (algebras, bases, options, flags)
# rather than measure them; --mode float leaves them as they are
LABEL_KEYS = frozenset({
    "algebra", "base", "basis_labels", "command", "convention", "flags", "grading",
    "identification", "name", "transform", "transport",
})


def _float_mode(report, enabled):
    """The report with every rational string among its measured values
    rendered as a float when enabled."""
    if not enabled:
        return report
    if isinstance(report, dict):
        return {k: v if k in LABEL_KEYS else _float_mode(v, True) for k, v in report.items()}
    if isinstance(report, list):
        return [_float_mode(v, True) for v in report]
    if isinstance(report, str):
        # the "p" and "p/q" strings of to_json: int true division is
        # correctly rounded, as float(Fraction(report)) is
        num, slash, den = report.partition("/")
        try:
            if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
                return int(num) / int(den) if slash else float(int(num))
            return float(Fraction(report))
        except (ValueError, ZeroDivisionError):
            return report
    return report


def cmd_algebra(args):
    from .liealg import antisymmetry_residual, jacobi_residual

    algebra = _load_algebra(args)
    anti = antisymmetry_residual(algebra)
    jac, witness = jacobi_residual(algebra, with_witness=True)
    report = {
        "command": "algebra",
        "name": algebra.name,
        "dim": algebra.dim,
        "basis_labels": list(algebra.basis_labels),
        "antisymmetry_residual": str(anti),
        "jacobi_residual": str(jac),
        "jacobi_witness": list(witness) if jac != 0 else None,
        "valid": anti == 0 and jac == 0,
    }
    return report, EXIT_OK if report["valid"] else EXIT_CHECK_FAILED


def cmd_spencer(args):
    from .spencer import (
        Identification,
        LeibnizConvention,
        delta_matrix_to_json,
        nilpotency_report,
        signed_leibniz_welldefinedness,
    )

    algebra = _load_lie_algebra(args)
    lam = _parse_lambda(algebra, args.lam, args.allow_degenerate)
    conv = LeibnizConvention(args.convention)
    ident = Identification(args.identification)
    nil = nilpotency_report(lam, args.K, conv, ident)
    report = {
        "command": "spencer",
        "algebra": algebra.name,
        "lambda": [str(c) for c in lam.coeffs],
        "K": args.K,
        "convention": conv.value,
        "identification": ident.value,
        "matrices": [delta_matrix_to_json(m, k) for k, m in enumerate(nil.matrices)],
        "nilpotency": nil.to_json(),
    }
    if conv is LeibnizConvention.PAPER_SIGNED:
        report["ordering_witnesses"] = [
            w.to_json() for k in range(2, args.K)
            for w in signed_leibniz_welldefinedness(nil.matrices[k], k, algebra.dim)
        ]
    return report, EXIT_CHECK_FAILED if args.assert_nilpotent and not nil.holds else EXIT_OK


def _parse_transform(algebra, text):
    """sign, or a builtin automorphism kind (weyl:<digits> names
    permutation:<digits>); builtin_automorphism normalises and checks the
    kind."""
    from .liealg import builtin_automorphism
    from .mirror import automorphism_mirror, sign_mirror

    kind = text.strip().lower()
    if kind == "sign":
        return sign_mirror()
    if kind.startswith("weyl:"):
        kind = "permutation:" + kind[len("weyl:"):]
    return automorphism_mirror(builtin_automorphism(algebra, kind))


def cmd_mirror(args):
    from .mirror import TRANSPORT_INVERSE, intertwining_check, mirror_lambda
    from .spencer import Identification, LeibnizConvention

    algebra = _load_lie_algebra(args)
    lam = _parse_lambda(algebra, args.lam, args.allow_degenerate)
    if args.K < 2:
        raise MismatchError("mirror needs K >= 2")
    transform = _parse_transform(algebra, args.transform)
    conv = LeibnizConvention(args.convention)
    ident = Identification(args.identification)
    report = {
        "command": "mirror",
        "algebra": algebra.name,
        "lambda": [str(c) for c in lam.coeffs],
        "transform": args.transform,
        "convention": conv.value,
        "identification": ident.value,
    }
    checks = [rep for k in range(1, args.K)
              for rep in intertwining_check(transform, lam, k, conv, ident)]
    failed = not all(rep.holds for rep in checks if rep.transport == TRANSPORT_INVERSE)
    if transform.kind == "sign":
        # degree 0 is the zero map on both sides, so degrees 1..K-1 decide
        involution_exact = mirror_lambda(transform, mirror_lambda(transform, lam)) == lam
        report["involution_exact"] = involution_exact
        report["delta_sign_identity"] = not failed
        failed = failed or not involution_exact
    else:
        report["intertwining"] = [rep.to_json() for rep in checks]
        report["mirrored_lambda"] = [
            str(c) for c in mirror_lambda(transform, lam, TRANSPORT_INVERSE).coeffs
        ]
    return report, EXIT_CHECK_FAILED if args.assert_intertwining and failed else EXIT_OK


def cmd_complex(args):
    from . import cohomology as coh
    from .liealg import builtin_algebra
    from .spencer import Identification, LeibnizConvention

    algebra = _load_lie_algebra(args)
    lam = _parse_lambda(algebra, args.lam, args.allow_degenerate)
    conv = LeibnizConvention(args.convention)
    ident = Identification(args.identification)
    transform = _parse_transform(algebra, args.mirror) if args.mirror else None
    if args.assert_mirror_invariant and not args.mirror:
        raise FormatError("--assert-mirror-invariant needs --mirror")
    if not 1 <= args.torus <= 4:
        raise FormatError(f"--torus must be in 1..4, got {args.torus}")
    dga = coh.ce_model(builtin_algebra(f"abelian({args.torus})"), f"torus{args.torus}")
    report = {
        "command": "complex",
        "algebra": algebra.name,
        "lambda": [str(c) for c in lam.coeffs],
        "base": dga.name,
        "seed": args.seed,
    }
    instance = coh.build_complex(dga, algebra, lam, args.K, conv, ident)
    cohrep = coh.cohomology_report(instance)
    report["report"] = cohrep.to_json()
    failed = False
    if transform is not None:
        mi = coh.mirror_invariance_check(instance, transform)
        report["mirror"] = mi.to_json()
        failed = (not mi.commutation_holds) or mi.dims_equal is False
    if cohrep.dims is not None:
        report["kunneth"] = coh.kunneth_diagnostic(instance).to_json()
        report["cup"] = _cup_section(instance)
    return report, EXIT_CHECK_FAILED if args.assert_mirror_invariant and failed else EXIT_OK


def _cup_section(instance):
    """Cup products of the degree-1 cohomology generators, when any exist."""
    from . import cohomology as coh
    from .linalg import in_column_span

    if instance.K < 2:
        return {"pairs": []}
    d0 = instance.differentials[0]
    d1 = instance.differentials[1]
    kernel = d1.kernel_basis() if d1.cols else []
    gens = []
    for vec in kernel:
        if not in_column_span(d0, vec):
            gens.append(vec)
        if len(gens) >= 3:
            break
    pairs = []
    for p in range(len(gens)):
        for q in range(p, len(gens)):
            degree, product = coh.cup_product(instance, 1, gens[p], 1, gens[q])
            nontrivial = any(product) and not coh.classes_equal(
                instance, degree, product, tuple(Fraction(0) for _ in product)
            )
            stable = coh.cup_well_defined(instance, 1, gens[p], 1, gens[q])
            pairs.append(
                {
                    "generators": [p, q],
                    "product_degree": degree,
                    "nontrivial": nontrivial,
                    "class_stable_under_boundaries": stable,
                }
            )
    return {"degree_one_generators": len(gens), "pairs": pairs}


def cmd_bundle(args):
    from . import bundle as bundle_mod
    from .linalg import parse_scalar

    algebra = _load_lie_algebra(args)
    if args.bundle_file:
        for flag, value in (("--grid", args.grid), ("--lambda", args.lam), ("--omega", args.omega)):
            if value is not None:
                raise FormatError(f"--bundle-file and {flag} are mutually exclusive")
        try:
            with open(args.bundle_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FormatError(f"cannot read bundle file: {exc}") from exc
        b = bundle_mod.bundle_from_json(data, algebra)
        shape = b.shape
    else:
        if not args.grid or args.lam is None:
            raise FormatError("provide --grid and --lambda, or --bundle-file")
        try:
            shape = tuple(int(m) for m in args.grid.split(","))
        except ValueError as exc:
            raise FormatError(f"--grid must be comma-separated integers, got {args.grid!r}") from exc
        # a zero lambda reaches the bundle, which names the degenerate sites
        lam = _parse_lambda(algebra, args.lam, allow_degenerate=True)
        omega = None
        if args.omega:
            parts = args.omega.split(";")
            if len(parts) != len(shape):
                raise FormatError("need one omega coefficient list per axis, separated by ';'")
            omega = [
                algebra.vector([parse_scalar(v) for v in part.split(",")]) for part in parts
            ]
        b = bundle_mod.grid_bundle(shape, algebra, omega, lam)
    trans = bundle_mod.transversality_report(b)
    cart = bundle_mod.cartan_residual(b)
    first, second = bundle_mod.compatibility_functional_terms(b)
    equiv = bundle_mod.equivariance_residual(b)
    report = {
        "command": "bundle",
        "algebra": algebra.name,
        "grid": list(shape),
        "transversality": trans.to_json(),
        "cartan_residual_max": str(cart.max_abs),
        "functional_terms": [str(first), str(second)],
        "equivariance_residual": equiv,
        "equivariance_below_tolerance": equiv < 1e-8,
    }
    return report, EXIT_OK


def _common(p, lam=True):
    p.add_argument("--builtin", help="builtin algebra name (so3, sl2, sl3, su2, abelian(3), ...)")
    p.add_argument("--file", help="algebra JSON file")
    p.add_argument("--mode", choices=["rational", "float"], default="rational")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--seed", type=int, default=None, help="echoed in the complex report; no check is randomized")
    if lam:
        p.add_argument("--lambda", dest="lam", required=True,
                       help="comma-separated dual coefficients")
        p.add_argument("--allow-degenerate", action="store_true")
        p.add_argument("--K", type=int, default=4)
        p.add_argument("--convention", choices=CONVENTIONS, default=CONVENTIONS[0])
        p.add_argument("--identification", choices=IDENTIFICATIONS,
                       default=IDENTIFICATIONS[0])


def _algebra_parser(p):
    _common(p, lam=False)
    p.set_defaults(func=cmd_algebra)


def _spencer_parser(p):
    _common(p)
    p.add_argument("--assert-nilpotent", action="store_true")
    p.set_defaults(func=cmd_spencer)


def _mirror_parser(p):
    _common(p)
    p.add_argument("--transform", required=True,
                   help="sign | identity | negate-transpose | weyl:<perm digits>")
    p.add_argument("--assert-intertwining", action="store_true")
    p.set_defaults(func=cmd_mirror)
    # the mirror command defaults to the identification that makes the
    # transported operator identity exact for every validated automorphism
    p.set_defaults(identification="killing")


def _complex_parser(p):
    _common(p)
    p.add_argument("--torus", type=int, default=2, help="base model dimension (1..4)")
    p.add_argument("--mirror", help="optional transform to compare against")
    p.add_argument("--assert-mirror-invariant", action="store_true")
    p.set_defaults(func=cmd_complex)


def _bundle_parser(p):
    _common(p, lam=False)
    p.add_argument("--lambda", dest="lam", help="comma-separated dual coefficients")
    p.add_argument("--grid", help="comma-separated sites per axis, e.g. 8,8")
    p.add_argument("--omega", help="per-axis connection coefficients, ';'-separated lists")
    p.add_argument("--bundle-file", help="GridBundle JSON (site-resolved fields)")
    p.set_defaults(func=cmd_bundle)


# command: (help line, builder of its subparser), in the order of --help
COMMANDS = {
    "algebra": ("validate an algebra's structure constants", _algebra_parser),
    "spencer": ("operator matrices and the nilpotency audit", _spencer_parser),
    "mirror": ("mirror transports and intertwining residuals", _mirror_parser),
    "complex": ("coupled complex, cohomology, mirror comparison", _complex_parser),
    "bundle": ("lattice transversality and flatness diagnostics", _bundle_parser),
}


def build_parser(command=None):
    """The argument parser. When command names a command, only its
    subparser is built: on an argv that starts with that command it prints
    and exits as the parser of every command does, whose choice list its
    usage line spells out."""
    parser = argparse.ArgumentParser(
        prog="spencerbench",
        description="exact diagnostics for constraint-coupled symmetric-algebra "
        "operators, mirror transformations, and their complexes",
    )
    if command in COMMANDS:
        names = [command]
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")
    else:
        names = list(COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_line, build = COMMANDS[name]
        build(sub.add_parser(name, help=help_line))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, matching the input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        report, code = args.func(args)
        _emit(args, _float_mode(report, args.mode == "float"))
        return code
    except (FormatError, DegenerateInputError, MismatchError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except ValidationError as exc:
        sys.stderr.write(f"invariant failed: {exc}\n")
        return EXIT_CHECK_FAILED
    except SpencerbenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
