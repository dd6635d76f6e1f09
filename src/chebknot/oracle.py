"""Numeric ground truth for explicit parametrized curves.

Given a height z over the diagram x = T_a(t), y = T_b(t), this
module decides every crossing from the closed-form parameter pairs: no
root finding, no intersection search.  Each height type decides its own
crossings: Chebyshev heights by exact integer trigonometry, constructed
height polynomials by reading their root gaps in integers, and other
height polynomials by counting their float roots above each parameter
and, where both strands have one sign, comparing exact enclosures of |z|.
Every decision is exact or refused, and a bare callable is refused.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .bridge import TwoBridgeKnot, canonicalize
from .contfrac import eval_cf_projective, Fraction, Record
from .diagram import CrossingPoint, enumerate_crossings, twist_sign
from .errors import AmbiguousCrossing, ChebknotError, NotTwoBridge, TrivialKnot
from .heights import HeightPolynomial, Parametrization, _twist_signs
from .trig import chebyshev, sin_sign


class ChebyshevHeight(Record):
    """Height z(t) = sign * T_c(t); crossing signs are computed exactly."""

    __slots__ = ("c", "sign")

    def __init__(self, c: int, sign: int = 1) -> None:
        if type(c) is not int or c < 1 or type(sign) is not int or sign not in (1, -1):
            raise ChebknotError(f"need an integer c >= 1 and sign +1 or -1, not ({c}, {sign})")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "sign", sign)

    def __call__(self, t: float) -> float:
        return self.sign * chebyshev(self.c, t)

    def zdiff_sign(self, a: int, b: int, h: int, k: int) -> int:
        # T_c(t) - T_c(s) = -2 sin(c*h*pi/b) sin(c*k*pi/a)
        return -self.sign * sin_sign(self.c * h, b) * sin_sign(self.c * k, a)

    def decide_crossing(self, a: int, b: int, row: CrossingPoint) -> tuple[int, float]:
        """Exact sign of z(t) - z(s), with |z(t) - z(s)| from zdiff_sign's identity as its margin."""
        zdiff = self.zdiff_sign(a, b, row.h, row.k)
        if zdiff == 0:
            raise AmbiguousCrossing(f"height degree shares a factor with ({a}, {b}) at crossing {(row.h, row.k)}")
        ch, ck = self.c * row.h % (2 * b), self.c * row.k % (2 * a)
        return zdiff, 2 * abs(math.sin(math.pi * ch / b) * math.sin(math.pi * ck / a))

    def label(self) -> str:
        return f"T_{self.c}" if self.sign > 0 else f"-T_{self.c}"


class MeasuredCrossing(NamedTuple):
    """One crossing with its measured strand order, twist sign and margin."""

    h: int
    k: int
    t: float
    s: float
    zdiff_sign: int
    d_sign: int
    conway_sign: int
    separation: float

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "k": self.k,
            "t": self.t,
            "s": self.s,
            "D_sign": self.d_sign,
            "conway_sign": self.conway_sign,
        }


class CurveSample(Record):
    """Measured crossing data of one explicit curve."""

    __slots__ = ("a", "b", "height_label", "crossings")

    def __init__(self, a: int, b: int, height_label: str, crossings: tuple[MeasuredCrossing, ...]) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "height_label", height_label)
        object.__setattr__(self, "crossings", crossings)

    @property
    def conway_signs(self) -> tuple[int, ...]:
        return tuple(c.conway_sign for c in self.crossings)

    @property
    def min_separation(self) -> float:
        """Smallest margin: for a HeightPolynomial the distance from a crossing
        parameter to the nearest root (|z(t) - z(s)| in floats where both strands
        have one sign); for T_c, |T_c(t) - T_c(s)| by a sine identity."""
        return min(c.separation for c in self.crossings)

    def to_report(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "z": self.height_label,
            "crossings": [c.to_json() for c in self.crossings],
        }


def measure_crossings(a: int, b: int, z: HeightPolynomial | ChebyshevHeight) -> CurveSample:
    """Measure every crossing of (T_a(t), T_b(t), z(t)).

    The crossing with the i-th largest x gets the twist sign
    (-1)^(i+1) * sign(D) with D = (z(t) - z(s)) x'(t) y'(t).  The sign of
    z(t) - z(s) comes from the height's own decide_crossing(a, b, row);
    anything without one is refused.
    """
    if not hasattr(z, "decide_crossing"):
        raise ChebknotError(f"a height must decide its own crossings, and {type(z).__name__} does not")
    measured = []
    for i, row in enumerate(enumerate_crossings(a, b)):
        zdiff, margin = z.decide_crossing(a, b, row)
        d = zdiff * row.xy_sign
        measured.append(MeasuredCrossing(row.h, row.k, row.t, row.s, zdiff, d, twist_sign(i, d), margin))
    return CurveSample(a, b, z.label(), tuple(measured))


def recover_knot(sample: CurveSample) -> TwoBridgeKnot:
    """Canonical two-bridge knot of a measured C(3, b) diagram.

    The twist signs are evaluated as a continued fraction projectively, so
    diagrams that are not in one-regular form (non-canonical harmonic
    degrees) still recover their knot.
    """
    if sample.a != 3:
        raise NotTwoBridge("diagram recovery requires a = 3")
    return canonicalize(*_fraction_of_twist_signs(sample.conway_signs))


def _fraction_of_twist_signs(signs: Sequence[int]) -> tuple[int, int]:
    """The coprime pair (p, q), p > 0, that the signs evaluate to; the unknot is refused."""
    p, q = eval_cf_projective(signs)
    if q == 0 or abs(p) <= 1:
        raise TrivialKnot(
            f"measured signs evaluate to the degenerate point ({p}, {q}): the unknot"
        )
    return (p, q) if p > 0 else (-p, -q)


def verify_parametrization(r: Fraction, p: Parametrization) -> bool:
    """End-to-end check: the constructed curve reproduces the input knot.

    The diagram emitted for r represents S(r) itself even when the
    mirrored flag is set (the negated conjugate expansion evaluates to an
    equivalent fraction), so the measured fraction alpha/q must be the same
    knot as r: alpha = r.num and q = r.den or q * r.den = 1 mod alpha
    (Schubert).  An amphicheiral knot needs no third case: there the mirror
    residues -r.den and -r.den^-1 are r.den^-1 and r.den.  Only the twist
    signs are measured: by slices for a height with gaps on its own
    diagram, else as the conway_signs of measure_crossings.
    """
    if not isinstance(r, Fraction):
        raise ChebknotError(f"need a Fraction to verify against, not {r!r}")
    h = p.height
    signs = _twist_signs(h) if h.b == p.b else measure_crossings(3, p.b, h).conway_signs
    alpha, q = _fraction_of_twist_signs(signs)
    return alpha == r.num and ((q - r.den) % alpha == 0 or (q * r.den - 1) % alpha == 0)
