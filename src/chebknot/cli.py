"""Command-line front end.

Verbs: expand, diagram, param, harmonic, atlas, verify, family.
Exit codes: 0 success, 1 domain error, 2 usage error.  With --format json
an error after the command line is read goes to stderr as one JSON object,
{"error": <exception class>, "message": <text>}.
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
from .oracle import measure_crossings, recover_knot, reproduces
from .svg import render_diagram_svg


class UsageError(Exception):
    pass


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


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(text)


def _cmd_expand(args: argparse.Namespace) -> None:
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
    _emit(args, text, payload)


def _cmd_diagram(args: argparse.Namespace) -> None:
    frac = _knot_fraction(args.fraction)
    md = minimal_diagram(frac)
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_diagram_svg(md.form))
        except OSError as exc:
            raise UsageError(f"cannot write {args.svg!r}: {exc.strerror}") from exc
    payload = {
        "fraction": str(frac),
        "b": md.b,
        "signs": list(md.form.signs),
        "mirrored": md.mirrored,
    }
    text = f"{md.form.text()}  b={md.b}  mirrored={str(md.mirrored).lower()}"
    if args.svg:
        text += f"  svg={args.svg}"
    _emit(args, text, payload)


def _cmd_param(args: argparse.Namespace) -> None:
    frac = _knot_fraction(args.fraction)
    p = parametrization(frac)
    text = (
        f"a=3  b={p.b}  deg(z)={p.height.degree}  N={p.crossing_number}\n"
        f"z = {p.height.factored_text()}"
    )
    _emit(args, text, p.to_json())


def _cmd_harmonic(args: argparse.Namespace) -> None:
    spec = HarmonicSpec(args.a, args.b, args.c)
    canon = classify(spec)
    text = (
        f"H(3,{args.b},{args.c}) -> canonical ({canon.b_prime},{canon.c_prime})"
        f"  N={canon.crossing_number}  fraction={canon.fraction}"
        f"  mirror={str(canon.mirror).lower()}"
        f"  amphicheiral={str(canon.amphicheiral).lower()}"
    )
    _emit(args, text, canon.to_json())


def _cmd_atlas(args: argparse.Namespace) -> None:
    records = 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
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
                    fh.write(json.dumps(canon.to_json()) + "\n")
                    records += 1
    except OSError as exc:
        raise UsageError(f"cannot write {args.out!r}: {exc.strerror}") from exc
    _emit(
        args,
        f"wrote {records} records to {args.out}",
        {"records": records, "out": args.out},
    )


def _cmd_verify(args: argparse.Namespace) -> None:
    frac = _knot_fraction(args.fraction)
    p = parametrization(frac)
    sample = measure_crossings(3, p.b, p.height)
    recovered = recover_knot(sample)
    ok = reproduces(frac, recovered)
    payload = sample.to_report()
    payload.update(
        {
            "fraction": str(frac),
            "recovered": recovered.to_json(),
            "min_separation": sample.min_separation,  # smallest margin, see CurveSample
            "verdict": ok,
        }
    )
    status = "OK" if ok else "FAILED"
    text = (
        f"verify {frac}: {status}  b={p.b}  deg(z)={p.height.degree}"
        f"  min_margin={sample.min_separation:.3e}"
    )
    _emit(args, text, payload)


def _cmd_family(args: argparse.Namespace) -> None:
    frac = family_fraction(FamilySpec(args.kind, args.index))
    knot = canonicalize(frac.num, frac.den)
    payload = knot.to_json()
    payload["fraction"] = str(frac)
    text = (
        f"{args.kind} {args.index}: fraction={frac}"
        f"  alpha={knot.alpha}  beta={knot.beta}  cn={knot.crossing_number}"
    )
    _emit(args, text, payload)


# lets argparse accept "-9/7" as a positional fraction, not an option
_FRACTION_AS_NEGATIVE = re.compile(r"^-\d+(/-?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebknot",
        description="Two-bridge knots on Chebyshev diagrams, in exact arithmetic.",
    )
    parser._negative_number_matcher = _FRACTION_AS_NEGATIVE
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p._negative_number_matcher = _FRACTION_AS_NEGATIVE
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("expand", help="one-regular +-1 expansion of a fraction")
    p.add_argument("fraction")
    add_format(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("diagram", help="minimal Chebyshev diagram of a knot")
    p.add_argument("fraction")
    p.add_argument("--svg", metavar="PATH", help="write an SVG rendering")
    add_format(p)
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("param", help="polynomial parametrization of a knot")
    p.add_argument("fraction")
    add_format(p)
    p.set_defaults(func=_cmd_param)

    p = sub.add_parser("harmonic", help="classify the harmonic knot H(a,b,c)")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_harmonic)

    p = sub.add_parser("atlas", help="classify all harmonic pairs up to bounds")
    p.add_argument("--b-max", type=int, required=True)
    p.add_argument("--c-max", type=int, required=True)
    p.add_argument("--out", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("verify", help="measure the constructed curve end to end")
    p.add_argument("fraction")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("family", help="Schubert fraction of a named family")
    p.add_argument("kind", choices=FAMILY_KINDS)
    p.add_argument("index", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (UsageError, ChebknotError) as exc:
        usage = isinstance(exc, UsageError)
        if args.format == "json":
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        elif usage:
            parser.print_usage(sys.stderr)
            print(f"chebknot: error: {exc}", file=sys.stderr)
        else:
            print(f"chebknot: {exc}", file=sys.stderr)
        return 2 if usage else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
