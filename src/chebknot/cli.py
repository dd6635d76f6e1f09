"""Command-line front end.

Verbs: expand, diagram, param, harmonic, atlas, verify, family; each returns
its text and its JSON payload, and main prints one.  Exit codes: 0 success,
1 domain error, 2 usage error.  With --format json every error, argparse's
own included, goes to stderr as one JSON object, {"error": <exception class>,
"message": <text>}.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import gcd

from .bridge import FAMILY_KINDS, FamilySpec, canonicalize, family_fraction
from .contfrac import (
    Fraction,
    cn_from_regular,
    regular_expansion,
)
from .diagram import minimal_diagram
from .errors import ChebknotError, TrivialKnot
from .harmonic import HarmonicSpec, classify
from .heights import parametrization
from .oracle import measure_crossings, recover_knot, verify_parametrization
from .svg import render_diagram_svg


class UsageError(Exception):
    """Exit code 2; `parser` prints the usage line (None: the top level)."""

    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None) -> None:
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Reads "-9/7" as a positional fraction, not an option, and raises
    UsageError where argparse would print its error and exit.  Subparsers
    are of the same class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/-?\d+)?$")

    def error(self, message: str):
        raise UsageError(message, self)


def _parse_fraction(text: str) -> Fraction:
    try:
        frac = Fraction.parse(text)
    except (ValueError, ChebknotError) as exc:
        raise UsageError(f"cannot parse fraction {text!r}: {exc}") from exc
    if frac.num == 0:
        raise UsageError(f"fraction {text!r} has zero numerator")
    return frac


def _knot_fraction(text: str) -> Fraction:
    """Parse a Schubert fraction and normalize it to alpha/beta > 1."""
    frac = _parse_fraction(text)
    alpha, beta = frac.num, frac.den % frac.num
    if beta == 0:
        raise UsageError(f"{text!r} does not define a two-bridge knot or link")
    return Fraction(alpha, beta)


def _write(path: str, chunks) -> int:
    """Write each string of `chunks` to `path` as it comes; the count.
    A path that cannot be written is a usage error."""
    written = 0
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for written, chunk in enumerate(chunks, 1):
                fh.write(chunk)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from exc
    return written


def _cmd_expand(args: argparse.Namespace) -> tuple[str, dict]:
    frac = _parse_fraction(args.fraction)
    mirror = frac.den < 0
    body = abs(frac)
    cf = regular_expansion(body)
    terms = "[" + ",".join(str(t) for t in cf.terms) + "]"
    payload: dict = {
        "fraction": str(frac),
        "terms": list(cf.terms),
        "length": len(cf),
        "mirror": mirror,
    }
    text = f"{terms}  length={len(cf)}"
    if body > 1:
        n_cross = cn_from_regular(cf)
        payload["crossing_number"] = n_cross
        text += f"  cn={n_cross}"
    if mirror:
        text += "  (mirror)"
    return text, payload


def _cmd_diagram(args: argparse.Namespace) -> tuple[str, dict]:
    frac = _knot_fraction(args.fraction)
    md = minimal_diagram(frac)
    payload = {
        "fraction": str(frac),
        "b": md.b,
        "signs": list(md.form.signs),
        "mirrored": md.mirrored,
    }
    text = f"{md.form.text()}  b={md.b}  mirrored={str(md.mirrored).lower()}"
    if args.svg is not None:  # an empty path is unwritable, not absent
        _write(args.svg, [render_diagram_svg(md.form)])
        text += f"  svg={args.svg}"
    return text, payload


def _cmd_param(args: argparse.Namespace) -> tuple[str, dict]:
    frac = _knot_fraction(args.fraction)
    p = parametrization(frac)
    if args.format == "json":  # the factored text holds one factor per root: build it only to print it
        return "", p.to_json()
    return (
        f"a=3  b={p.b}  deg(z)={p.height.degree}  N={p.crossing_number}\n"
        f"z = {p.height.factored_text()}"
    ), {}


def _cmd_harmonic(args: argparse.Namespace) -> tuple[str, dict]:
    canon = classify(HarmonicSpec(args.a, args.b, args.c))
    text = (
        f"H(3,{args.b},{args.c}) -> canonical ({canon.b_prime},{canon.c_prime})"
        f"  N={canon.crossing_number}  fraction={canon.fraction}"
        f"  mirror={str(canon.mirror).lower()}"
        f"  amphicheiral={str(canon.amphicheiral).lower()}"
    )
    return text, canon.to_json()


def _cmd_atlas(args: argparse.Namespace) -> tuple[str, dict]:
    def lines():
        for b in range(2, args.b_max + 1):
            if b % 3 == 0:
                continue
            for c in range(2, args.c_max + 1):
                if c % 3 == 0 or gcd(b, c) != 1:
                    continue
                try:
                    canon = classify(HarmonicSpec(3, b, c))
                except TrivialKnot:
                    continue
                yield json.dumps(canon.to_json()) + "\n"

    records = _write(args.out, lines())
    return f"wrote {records} records to {args.out}", {"records": records, "out": args.out}


def _cmd_verify(args: argparse.Namespace) -> tuple[str, dict]:
    frac = _knot_fraction(args.fraction)
    p = parametrization(frac)
    sample = measure_crossings(3, p.b, p.height)  # for the margin and the report, not the verdict
    ok = verify_parametrization(frac, p)
    text = (
        f"verify {frac}: {'OK' if ok else 'FAILED'}  b={p.b}  deg(z)={p.height.degree}"
        f"  min_margin={sample.min_separation:.3e}"
    )
    if args.format == "text":  # the report holds one dict per crossing: build it only to print it
        return text, {}
    payload = {
        **sample.to_report(),
        "fraction": str(frac),
        "recovered": recover_knot(sample).to_json(),
        "min_separation": sample.min_separation,  # smallest margin, see CurveSample
        "verdict": ok,
    }
    return text, payload


def _cmd_family(args: argparse.Namespace) -> tuple[str, dict]:
    frac = family_fraction(FamilySpec(args.kind, args.index))
    knot = canonicalize(frac.num, frac.den)
    payload = {**knot.to_json(), "fraction": str(frac)}
    text = (
        f"{args.kind} {args.index}: fraction={frac}"
        f"  alpha={knot.alpha}  beta={knot.beta}  cn={knot.crossing_number}"
    )
    return text, payload


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chebknot",
        description="Two-bridge knots on Chebyshev diagrams, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("expand", help="one-regular +-1 expansion of a fraction")
    p.add_argument("fraction")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("diagram", help="minimal Chebyshev diagram of a knot")
    p.add_argument("fraction")
    p.add_argument("--svg", metavar="PATH", help="write an SVG rendering")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("param", help="polynomial parametrization of a knot")
    p.add_argument("fraction")
    p.set_defaults(func=_cmd_param)

    p = sub.add_parser("harmonic", help="classify the harmonic knot H(a,b,c)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=_cmd_harmonic)

    p = sub.add_parser("atlas", help="classify all harmonic pairs up to bounds")
    p.add_argument("--b-max", type=int, required=True)
    p.add_argument("--c-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("verify", help="measure the constructed curve end to end")
    p.add_argument("fraction")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("family", help="Schubert fraction of a named family")
    p.add_argument("kind", choices=FAMILY_KINDS)
    p.add_argument("index", type=int)
    p.set_defaults(func=_cmd_family)

    # last, so that it follows each verb's own options in usage and help
    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 converts ints of any length
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact answers print in full: a harmonic fraction can have 10^4 digits
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    fmt = "text"  # the last --format value, as argparse spells it, for its own errors
    for arg, following in zip(argv, [*argv[1:], ""]):
        name, eq, value = arg.partition("=")
        if len(name) > 2 and "--format".startswith(name):
            fmt = value if eq else following
    try:
        args = parser.parse_args(argv)
        fmt = args.format
        text, payload = args.func(args)
    except SystemExit as exc:  # --help; every error raises instead
        return int(exc.code or 0)
    except (UsageError, ChebknotError) as exc:
        usage = isinstance(exc, UsageError)
        if fmt == "json":
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        elif usage:
            usage_parser = exc.parser or parser
            usage_parser.print_usage(sys.stderr)
            print(f"{usage_parser.prog}: error: {exc}", file=sys.stderr)
        else:
            print(f"chebknot: {exc}", file=sys.stderr)
        return 2 if usage else 1
    print(json.dumps(payload) if fmt == "json" else text)
    return 0
