"""Harmonic knots (T_a(t), T_b(t), T_c(t)) and their classification for a = 3.

With b not divisible by 3, c = 2b - 3*lambda and gcd(lambda, b) = 1, the
diagram of (T_3, T_b, T_c) carries the Conway form e_k = sign(sin(k*theta)),
theta = lambda*pi/b, whose fraction has crossing number b - lambda.  Every
harmonic knot reduces, by moves on (b, c) that each flip the mirror, to a
unique canonical pair b' < c' < 2b' with b' + c' divisible by 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bridge import TwoBridgeKnot
from .contfrac import Fraction, Record, eval_cf, is_amphicheiral
from .diagram import ConwayForm, _a3_crossing, twist_sign
from .errors import (
    ADifferentFrom3,
    BadLambda,
    BDivisibleBy3,
    ChebknotError,
    IndexOutOfRange,
    InvalidForm,
    IsLink,
    NotPairwiseCoprime,
    TrivialKnot,
)
from .trig import sin_sign


class HarmonicSpec(Record):
    """Degrees (a, b, c) of a harmonic curve; must be pairwise coprime ints."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        if min(a, b, c) < 1:
            raise ChebknotError("degrees must be positive")
        if not type(a) is type(b) is type(c) is int or gcd(a, b) != 1 or gcd(a, c) != 1 or gcd(b, c) != 1:
            raise NotPairwiseCoprime(f"({a!r}, {b!r}, {c!r})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


def harmonic_conway(b: int, lam: int) -> ConwayForm:
    """Conway form of the harmonic knot with diagram degree b and twist
    parameter lam, i.e. height degree c = 2b - 3*lam.

    The k-th sign is sign(sin(k * lam * pi / b)), evaluated exactly; the
    sequence is one-regular with lam - 1 sign changes, so the crossing
    number is b - lam.
    """
    _check_degree(b)
    if type(lam) is not int or not (0 < 2 * lam < b) or gcd(lam, b) != 1:
        raise BadLambda(f"lambda = {lam!r} invalid for b = {b}")
    signs = tuple(sin_sign(k * lam, b) for k in range(1, b))
    return ConwayForm(signs, b)


def _check_degree(b: int) -> None:
    """Refuse a diagram degree b that is not an int, as ConwayForm does, or that 3 divides."""
    if type(b) is not int:
        raise InvalidForm(f"b = {b!r} is not a valid diagram degree")
    if b % 3 == 0:
        raise BDivisibleBy3(f"b = {b} is divisible by 3")


def _label_slot(b: int, point: str, k: int) -> int:
    """The enumerate_crossings(3, b) slot of the crossing labelled A_k, B_k or C_k: 3k, 3k + 1 or 3k + 2."""
    if point not in ("A", "B", "C"):
        raise IndexOutOfRange(f"unknown point label {point!r}")
    if type(k) is not int:  # 0.5 or True would name a slot
        raise IndexOutOfRange(f"crossing index {k!r} is not an int")
    slot = 3 * k + "ABC".index(point)
    if not (k >= 0 and slot < b - 1):
        raise IndexOutOfRange(f"{point}_{k} is not a crossing of C(3, {b})")
    return slot


def crossing_sign_closed_form(b: int, lam: int, point: str, k: int) -> int:
    """Sign of the right-twist determinant D at one crossing of the
    harmonic diagram with b = 3n + 1 or 3n + 2, by the closed sine formula.

    The crossings with the i-th, (i+1)-th, (i+2)-th largest x, i = 3k + 1,
    are labelled A_k, B_k, C_k; for b = 3n + 2 the last crossing is A_n.
    """
    _check_degree(b)
    if type(lam) is not int or gcd(lam, b) != 1:
        raise BadLambda(f"lambda = {lam!r} is not an int prime to b = {b}")
    slot = _label_slot(b, point, k)
    return twist_sign(slot, sin_sign((slot + 1) * lam, b))


def closed_form_crossing_indices(b: int, point: str, k: int) -> tuple[int, int]:
    """(k_index, h_index) of the labelled crossing of C(3, b) in the (h, k)
    scheme, as diagram._a3_crossing reads it from the crossing's slot.

    A_k, B_k, C_k are the crossings with the i-th, (i+1)-th, (i+2)-th
    largest x, i = 3k + 1; for b = 3n + 2 the last crossing is A_n.
    """
    _check_degree(b)
    return _a3_crossing(b, _label_slot(b, point, k))[::-1]


def mirror_equivalent_c(a: int, b: int, c: int) -> int | None:
    """Smallest positive c' < c with c' = c mod 2a and c' = -c mod 2b.

    The curve with height degree c' is the mirror image of the one with
    height degree c.  Returns None when no smaller such degree exists.
    The moduli share only the factor 2, so c' is unique mod 2ab:
    c' = r + 2a*t with r = c mod 2a and a*t = (-c - r)/2 mod b.
    """
    HarmonicSpec(a, b, c)  # validates pairwise coprimality
    base = c % (2 * a)
    t = (-c - base) // 2 * pow(a, -1, b) % b
    sol = base + 2 * a * t or 2 * a * b
    return sol if sol < c else None


@dataclass(frozen=True)
class CanonicalHarmonic:
    """Canonical pair (b', c') of a harmonic knot, with mirror parity.

    mirror is True when the input curve is the mirror image of the
    canonical one (irrelevant when the knot is amphicheiral).
    """

    b_prime: int
    c_prime: int
    mirror: bool
    fraction: Fraction
    crossing_number: int
    spec: HarmonicSpec  # the input curve

    @property
    def amphicheiral(self) -> bool:
        return is_amphicheiral(self.fraction.num, self.fraction.den)

    def to_json(self) -> dict:
        return {
            "a": self.spec.a,
            "b": self.spec.b,
            "c": self.spec.c,
            "b_canon": self.b_prime,
            "c_canon": self.c_prime,
            "mirror": self.mirror,
            "alpha": self.fraction.num,
            "beta": self.fraction.den,
            "N": self.crossing_number,
            "amphicheiral": self.amphicheiral,
        }


def classify(spec: HarmonicSpec) -> CanonicalHarmonic:
    """Reduce (b, c) to the unique canonical pair b' < c' < 2b',
    b' + c' = 0 mod 3, flipping the mirror parity at every move.

    Swapping b and c mirrors the curve; when b = c mod 3 the height degree
    drops to |2b - c|, and when c > 2b to |4b - c|, each a mirror image.
    Runs of moves that leave the parity unchanged are taken in one
    division, so the maximum of (b, c) falls by a factor 3/4 at least every
    three rounds and the loop ends after O(log max(b, c)) rounds.
    """
    if spec.a <= 2:  # x = T_a(t) has at most one critical point
        raise TrivialKnot(f"H({spec.a}, {spec.b}, {spec.c}) is the unknot")
    if spec.a != 3:
        raise ADifferentFrom3("classification is implemented for a = 3")
    b, c = spec.b, spec.c
    mirror = False
    while True:
        if b == 1 or c == 1:
            raise TrivialKnot(f"H(3, {spec.b}, {spec.c}) is the unknot")
        if c < b:
            b, c = c, b
            mirror = not mirror
        elif c >= 8 * b:
            # The moves c - 2b and c - 4b alternate, in an order set by
            # c mod 3: 6b in two flips, down to c in [2b, 8b).
            c = 2 * b + (c - 2 * b) % (6 * b)
        elif b % 3 == c % 3:
            if c < 2 * b:
                # (b, c) -> (b, 2b - c) -> (2b - c, b) in two flips keeps
                # d = c - b and takes d off b, while b > d.
                d = c - b
                b %= d
                c = b + d
            else:
                c -= 2 * b
                mirror = not mirror
        elif c > 2 * b:
            c = abs(4 * b - c)
            mirror = not mirror
        else:
            break
    lam = (2 * b - c) // 3  # exact, as b + c = 0 mod 3, and N = b - lam = (b + c) / 3
    return CanonicalHarmonic(b, c, mirror, eval_cf(harmonic_conway(b, lam).signs), b - lam, spec)


def is_harmonic_candidate(k: TwoBridgeKnot) -> bool:
    """Necessary residue condition: beta^2 = +-1 mod alpha.

    False certifies that the knot is not harmonic with a = 3; True only
    admits it as a candidate.
    """
    if not k.is_knot:
        raise IsLink("candidates are knots; links have even alpha")
    r = (k.beta * k.beta) % k.alpha
    return r == 1 % k.alpha or r == (k.alpha - 1) % k.alpha
