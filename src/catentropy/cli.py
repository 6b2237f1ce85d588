"""Command-line interface: one subcommand per module plus a self test.

Exit codes: 0 success, 1 self-test failure, 2 parse error, 3 domain
error, 4 internal inconsistency.  ``--json`` emits a canonical envelope
that is byte-identical across runs on the same canonical input.

Each subcommand imports the modules it runs when it runs, so a process
loads only those.  Handlers that use `exact_linalg` import it before
their other catentropy modules: compiled after them, its transient
compile memory (about 4 MB when no bytecode cache is written) lands on a
larger heap and raises the process's peak RSS by about 1 MB.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings
from fractions import Fraction

from . import jsonio
from .errors import (
    CatEntropyError,
    CatEntropyWarning,
    DomainError,
    InternalInconsistency,
    ParseError,
)

#: Copies of ``sl2z_dynamics.Context``, ``twist_zoo.TwistKind`` and
#: ``exact_linalg.MAX_BITS`` / ``MAX_PRECISION_BITS``.  Importing those
#: modules to build the parser would load them for every subcommand;
#: tests/test_cli.py pins each copy to its source.
CONTEXTS = ("a2cy3", "elliptic")
TWIST_KINDS = ("spherical", "ptwist")
MAX_BITS = 1024
MAX_PRECISION_BITS = 4096

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


def _print_envelope(env: dict, as_json: bool, out) -> None:
    if as_json:
        out.write(jsonio.canonical_json(env) + "\n")
        return
    out.write("command: %s\n" % env["command"])
    out.write("inputs digest: %s\n" % env["inputs_digest"])
    for warning in env["warnings"]:
        out.write("warning: %s\n" % warning)
    _print_tree(env["results"], out, indent=0)


def _print_tree(obj, out, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            value = obj[key]
            if isinstance(value, (dict, list, tuple)) and value:
                out.write("%s%s:\n" % (pad, key))
                _print_tree(value, out, indent + 1)
            else:
                out.write("%s%s: %s\n" % (pad, key, _scalar(value)))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            if isinstance(item, (dict, list, tuple)):
                out.write("%s-\n" % pad)
                _print_tree(item, out, indent + 1)
            else:
                out.write("%s- %s\n" % (pad, _scalar(item)))
    else:
        out.write("%s%s\n" % (pad, _scalar(obj)))


def _scalar(value) -> str:
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, Fraction):
        return str(value)
    if value is None:
        return "-"
    if isinstance(value, (list, tuple, dict)) and not value:
        return "(none)"
    return str(value)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative number, exponent
    notation included, as a value: argparse's own pattern misses
    ``-1e-14`` and takes it for an option flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
        )


def _tolerance(text: str) -> Fraction:
    """``--tol``: a positive finite width, as a fraction with denominator
    at most 10**24."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            "must be a positive finite number, got %r" % text
        )
    width = Fraction(value).limit_denominator(10**24)
    if width == 0:
        raise argparse.ArgumentTypeError(
            "%r rounds to 0 at denominators up to 10**24" % text
        )
    return width


def _bits(text: str) -> int:
    """``--precision``: a positive number of bits, at most
    MAX_PRECISION_BITS; below 64 reads as 64."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if not 0 < value <= MAX_PRECISION_BITS:
        raise argparse.ArgumentTypeError(
            "must be between 1 and %d bits, got %r" % (MAX_PRECISION_BITS, text)
        )
    return max(64, value)


def _head_fraction(text: str) -> float:
    """``--drop-head``: a share of the sequence, at least 0 and below 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text)
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError(
            "must be at least 0 and below 1, got %r" % text
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="catentropy",
        description=(
            "Exact growth invariants of categorical and algebraic dynamical "
            "systems"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a canonical JSON envelope"
    )
    parser.add_argument(
        "--tol",
        type=_tolerance,
        default="1e-12",
        help="width cap for certified spectral-radius intervals",
    )
    parser.add_argument(
        "--precision",
        type=_bits,
        default=MAX_BITS,
        help=(
            "escalation cap (bits, at most %d) for root-modulus separation; "
            "below 64 reads as 64; only ties too large for the exact tie "
            "proof climb to it" % MAX_PRECISION_BITS
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("growth", help="growth signature of an exact matrix")
    p.add_argument("matrix", help="matrix file (JSON with \"rows\"; - for stdin)")

    p = sub.add_parser("classify", help="classify a twist word")
    p.add_argument(
        "--context",
        choices=CONTEXTS,
        required=True,
    )
    p.add_argument("tokens", nargs="+", help="word tokens, e.g. T1 T2^-1 [3]")

    p = sub.add_parser("endo", help="dynamical degrees of a pullback action")
    p.add_argument("endo", help="endomorphism file (- for stdin)")
    p.add_argument(
        "--kuenneth",
        action="store_true",
        help="also verify the self-product convolution identities",
    )

    p = sub.add_parser("linebundle", help="line-bundle twist invariants")
    p.add_argument("linebundle", help="line-bundle file (- for stdin)")

    p = sub.add_parser("twist", help="twist bounds and entropy branches")
    p.add_argument("--kind", choices=TWIST_KINDS, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--orth", action="store_true", help="orthogonal part is nonzero")

    p = sub.add_parser("quiver", help="Euler form, Coxeter matrix, entropy report")
    p.add_argument("quiver", help="quiver file (- for stdin)")
    p.add_argument(
        "--isometry",
        help="matrix file with the isometry to analyse (default: Coxeter)",
    )

    p = sub.add_parser("estimate", help="fit growth data to a value sequence")
    p.add_argument("sequence", help="sequence file (- for stdin)")
    p.add_argument("--n-lo", type=int, default=None)
    p.add_argument("--n-hi", type=int, default=None)
    p.add_argument(
        "--drop-head",
        type=_head_fraction,
        default=None,
        help=(
            "share of the sequence's head left out of the fit (default "
            "0.25, less where the window would keep fewer than 8 points)"
        ),
    )

    p = sub.add_parser("selftest", help="run the executable invariant corpus")
    p.add_argument("--filter", default=None, help="substring filter on check keys")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="negative control: corrupt one Gram matrix and expect failure",
    )
    return parser


def _cmd_growth(args) -> tuple[dict, object]:
    from .exact_linalg import growth_signature

    m, payload = jsonio.parse_matrix_text(_read_input(args.matrix))
    sig = growth_signature(m, args.tol, args.precision)
    return jsonio.serialize_growth(sig), payload


def _cmd_classify(args) -> tuple[dict, object]:
    from . import exact_linalg  # noqa: F401  first, see the module docstring
    from .sl2z_dynamics import Context, _checked_report, parse_word

    context = Context(args.context)
    word = parse_word(args.tokens, context)
    report, crosscheck = _checked_report(word, args.tol, args.precision)
    if not crosscheck["consistent"]:
        raise InternalInconsistency(
            "trichotomy values disagree with the lattice growth data"
        )
    payload = {"context": context.value, "word": [list(l) for l in word.letters]}
    return jsonio.serialize_trichotomy(report, crosscheck), payload


def _cmd_endo(args) -> tuple[dict, object]:
    from . import exact_linalg  # noqa: F401  first, see the module docstring
    from .variety_dynamics import (
        kuenneth_self_product,
        pullback_entropy_report,
        validate_geometric,
    )

    endo, payload = jsonio.parse_endo_text(_read_input(args.endo))
    rep = pullback_entropy_report(endo, args.tol, args.precision)
    for text in validate_geometric(rep.table):
        warnings.warn(CatEntropyWarning(text))
    kuenneth = None
    if args.kuenneth:
        kuenneth = kuenneth_self_product(rep.table, args.tol, args.precision)
    return jsonio.serialize_endo_report(rep, kuenneth), payload


def _cmd_linebundle(args) -> tuple[dict, object]:
    from . import exact_linalg  # noqa: F401  first, see the module docstring
    from .variety_dynamics import line_bundle_report

    lb, payload = jsonio.parse_linebundle_text(_read_input(args.linebundle))
    rep = line_bundle_report(lb)
    if rep.h_pol_exact is None:
        warnings.warn(CatEntropyWarning(
            "no positivity flag: only the bounds [nu, dim] are certified"
        ))
    return jsonio.serialize_linebundle_report(rep), payload


def _cmd_twist(args) -> tuple[dict, object]:
    from .twist_zoo import (
        TwistKind,
        TwistParams,
        twist_bound,
        twist_entropy_report,
        twist_recurrence,
    )

    params = TwistParams(
        kind=TwistKind(args.kind),
        d=args.d,
        t=args.t,
        A=args.A,
        B=args.B,
        orth_nonempty=args.orth,
    )
    bound = twist_bound(params, args.n)
    rec = twist_recurrence(params, args.n)
    rep = twist_entropy_report(params)
    payload = {
        "kind": params.kind.value,
        "d": params.d,
        "t": params.t,
        "A": params.A,
        "B": params.B,
        "n": args.n,
        "orth": params.orth_nonempty,
    }
    return jsonio.serialize_twist_report(rep, bound, rec, args.n), payload


def _cmd_quiver(args) -> tuple[dict, object]:
    from . import exact_linalg  # noqa: F401  first, see the module docstring
    from .quiver_hereditary import coxeter_matrix, euler_form, hereditary_report

    quiver, payload = jsonio.parse_quiver_text(_read_input(args.quiver))
    lattice = euler_form(quiver)
    if args.isometry:
        isometry, iso_payload = jsonio.parse_matrix_text(_read_input(args.isometry))
        payload = {"quiver": payload, "isometry": iso_payload}
    else:
        isometry = coxeter_matrix(quiver)
        payload = {"quiver": payload, "isometry": "coxeter"}
    rep = hereditary_report(
        lattice, isometry, tolerance=args.tol, max_bits=args.precision
    )
    results = {
        "gram": [[str(x) for x in row] for row in lattice.gram.rows],
        "isometry": [[str(x) for x in row] for row in isometry.rows],
        "report": jsonio.serialize_hereditary_report(rep),
    }
    return results, payload


def _cmd_estimate(args) -> tuple[dict, object]:
    from .growth_estimator import RESIDUAL_TRUST_THRESHOLD, fit_growth

    seq, payload = jsonio.parse_sequence_text(_read_input(args.sequence))
    est = fit_growth(
        seq, n_lo=args.n_lo, n_hi=args.n_hi, drop_head_fraction=args.drop_head
    )
    if est.residual > RESIDUAL_TRUST_THRESHOLD:
        warnings.warn(CatEntropyWarning(
            "residual %.3f exceeds %g: a single regression cannot separate "
            "upper from lower growth here" % (est.residual, RESIDUAL_TRUST_THRESHOLD)
        ))
    return jsonio.serialize_estimate(est), payload


_COMMANDS = {
    "growth": _cmd_growth,
    "classify": _cmd_classify,
    "endo": _cmd_endo,
    "linebundle": _cmd_linebundle,
    "twist": _cmd_twist,
    "quiver": _cmd_quiver,
    "estimate": _cmd_estimate,
}


def main(argv=None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK

    if args.cmd == "selftest":
        from .selftest import run_selftest

        rc = run_selftest(
            name_filter=args.filter,
            corrupt=args.corrupt,
            emit=lambda line: out.write(line + "\n"),
        )
        return EXIT_SELFTEST if rc else EXIT_OK

    messages: list[str] = []
    try:
        results, payload = _run_command(args, messages)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return EXIT_PARSE
    except InternalInconsistency as exc:
        sys.stderr.write("internal inconsistency (bug): %s\n" % exc)
        return EXIT_INTERNAL
    except DomainError as exc:
        sys.stderr.write("domain error: %s\n" % exc)
        return EXIT_DOMAIN
    except CatEntropyError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_DOMAIN
    env = jsonio.envelope(args.cmd, payload, results, messages)
    _print_envelope(env, args.json, out)
    return EXIT_OK


def _run_command(args, messages: list[str]) -> tuple[dict, object]:
    """Run one subcommand; each distinct CatEntropyWarning joins ``messages``."""
    show = warnings.showwarning

    def record(message, category, *rest):
        if not issubclass(category, CatEntropyWarning):
            show(message, category, *rest)
        elif str(message) not in messages:
            messages.append(str(message))

    with warnings.catch_warnings():
        warnings.simplefilter("always", CatEntropyWarning)
        warnings.showwarning = record
        return _COMMANDS[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
