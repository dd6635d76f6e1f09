"""Numeric ground truth for explicit parametrized curves.

Given any height function z over the diagram x = T_a(t), y = T_b(t), this
module decides every crossing from the closed-form parameter pairs: no
root finding, no intersection search.  Chebyshev heights are resolved with
exact integer trigonometry; arbitrary heights in floating point, guarded
by a separation floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bridge import TwoBridgeKnot, canonicalize, equivalent, Equivalence
from .contfrac import eval_cf_projective, Fraction
from .diagram import crossing_table
from .errors import AmbiguousCrossing, NotTwoBridge, TrivialKnot
from .heights import Parametrization
from .trig import chebyshev, sin_sign

# Smallest |z(t) - z(s)| accepted from a height that is not a ChebyshevHeight.
SEPARATION_FLOOR = 1e-9


@dataclass(frozen=True)
class ChebyshevHeight:
    """Height z(t) = sign * T_c(t); crossing signs are computed exactly."""

    c: int
    sign: int = 1

    def __call__(self, t: float) -> float:
        return self.sign * chebyshev(self.c, t)

    def zdiff_sign(self, a: int, b: int, h: int, k: int) -> int:
        # T_c(t) - T_c(s) = -2 sin(c*h*pi/b) sin(c*k*pi/a)
        return -self.sign * sin_sign(self.c * h, b) * sin_sign(self.c * k, a)

    def label(self) -> str:
        return f"T_{self.c}" if self.sign > 0 else f"-T_{self.c}"


@dataclass(frozen=True)
class MeasuredCrossing:
    """One crossing with its measured strand order and twist sign."""

    h: int
    k: int
    t: float
    s: float
    zdiff_sign: int
    xy_sign: int
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


@dataclass(frozen=True)
class CurveSample:
    """Measured crossing data of one explicit curve."""

    a: int
    b: int
    height_label: str
    crossings: tuple[MeasuredCrossing, ...]

    @property
    def conway_signs(self) -> tuple[int, ...]:
        return tuple(c.conway_sign for c in self.crossings)

    @property
    def min_separation(self) -> float:
        return min(c.separation for c in self.crossings)

    def to_report(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "z": self.height_label,
            "crossings": [c.to_json() for c in self.crossings],
        }


def measure_crossings(a: int, b: int, z: Callable[[float], float]) -> CurveSample:
    """Measure every crossing of (T_a(t), T_b(t), z(t)).

    The crossing with the i-th largest x gets the twist sign
    (-1)^(i+1) * sign(D) with D = (z(t) - z(s)) x'(t) y'(t).
    """
    exact = isinstance(z, ChebyshevHeight)
    measured = []
    for i, (h, k, _, _, t, s, xy) in enumerate(crossing_table(a, b)):
        zt, zs = z(t), z(s)
        separation = abs(zt - zs)
        if exact:
            zdiff = z.zdiff_sign(a, b, h, k)
            if zdiff == 0:
                raise AmbiguousCrossing(
                    f"height degree shares a factor with ({a}, {b}) at crossing {(h, k)}"
                )
        else:
            if separation < SEPARATION_FLOOR:
                raise AmbiguousCrossing(
                    f"|z(t)-z(s)| = {separation:.3e} below floor {SEPARATION_FLOOR:.3e} "
                    f"at crossing {(h, k)}"
                )
            zdiff = 1 if zt > zs else -1
        d = zdiff * xy
        conway = d if i % 2 == 0 else -d
        measured.append(MeasuredCrossing(h, k, t, s, zdiff, xy, d, conway, separation))
    label = z.label() if exact else getattr(z, "__name__", "z")
    return CurveSample(a, b, label, tuple(measured))


def recover_knot(sample: CurveSample) -> TwoBridgeKnot:
    """Canonical two-bridge knot of a measured C(3, b) diagram.

    The twist signs are evaluated as a continued fraction projectively, so
    diagrams that are not in one-regular form (non-canonical harmonic
    degrees) still recover their knot.
    """
    if sample.a != 3:
        raise NotTwoBridge("diagram recovery requires a = 3")
    p, q = eval_cf_projective(sample.conway_signs)
    if q == 0 or abs(p) <= 1:
        raise TrivialKnot(
            f"measured signs evaluate to the degenerate point ({p}, {q}): the unknot"
        )
    frac = Fraction(p, q)
    return canonicalize(frac.num, frac.den)


def reproduces(r: Fraction, recovered: TwoBridgeKnot) -> bool:
    """True when a recovered knot is S(r) itself, not merely its mirror."""
    expected = canonicalize(r.num, r.den)
    return equivalent(recovered, expected) is Equivalence.SAME


def verify_parametrization(r: Fraction, p: Parametrization) -> bool:
    """End-to-end check: the constructed curve reproduces the input knot.

    The diagram emitted for r represents S(r) itself even when the
    mirrored flag is set (the negated conjugate expansion evaluates to an
    equivalent fraction), so the recovered knot must compare as the same.
    """
    sample = measure_crossings(3, p.b, p.height)
    return reproduces(r, recover_knot(sample))
