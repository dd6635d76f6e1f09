"""Two-bridge knot semantics.

S(a/b) and S(a/b') are the same knot exactly when b' is congruent to b or
b^-1 mod a; negating b gives the mirror image.  canonicalize() collapses
the four residues {b, b^-1, -b, -b^-1} to a single stored representative
plus a mirror flag, which makes knots hashable atlas keys.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from .contfrac import Fraction, Record, crossing_number, fibonacci, is_amphicheiral
from .errors import AlphaNonPositive, IndexOutOfRange, NotCoprime


class TwoBridgeKnot(Record):
    """Canonical representative of a two-bridge knot or link.

    beta is the smallest positive residue in the orbit
    {b, b^-1, -b, -b^-1} mod alpha; mirror records whether the input lay
    in the mirror half of that orbit.
    """

    __slots__ = ("alpha", "beta", "mirror")

    def __init__(self, alpha: int, beta: int, mirror: bool) -> None:
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "mirror", mirror)

    @property
    def is_knot(self) -> bool:
        return self.alpha % 2 == 1

    @property
    def amphicheiral(self) -> bool:
        return is_amphicheiral(self.alpha, self.beta)

    @property
    def crossing_number(self) -> int:
        return crossing_number(Fraction(self.alpha, self.beta))

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "mirror": self.mirror,
            "crossing_number": self.crossing_number,
            "amphicheiral": self.amphicheiral,
        }


def canonicalize(alpha: int, beta: int) -> TwoBridgeKnot:
    """Canonical two-bridge representative of S(alpha/beta).

    Accepts any beta coprime to alpha (negative means mirror).  The same
    knot always yields the same (alpha, beta, mirror) triple.
    """
    if type(alpha) is not int:  # not isinstance: True is an int
        raise AlphaNonPositive(f"alpha must be an int, got {alpha!r}")
    if alpha <= 0:
        raise AlphaNonPositive(f"alpha must be positive, got {alpha}")
    if type(beta) is not int:
        raise NotCoprime(f"beta must be an int, got {beta!r}")
    if gcd(alpha, beta) != 1:
        raise NotCoprime(f"gcd({alpha}, {beta}) != 1")
    b0 = beta % alpha
    if b0 == 0:
        raise NotCoprime(f"beta = {beta} is a multiple of alpha = {alpha}")
    b_inv = pow(b0, -1, alpha)
    own = {b0, b_inv}
    mirrored = {alpha - b0, alpha - b_inv}
    canon = min(own | mirrored)
    return TwoBridgeKnot(alpha, canon, canon not in own)


class Equivalence(str, Enum):
    SAME = "same"
    MIRROR = "mirror"
    DISTINCT = "distinct"


def equivalent(k1: TwoBridgeKnot, k2: TwoBridgeKnot) -> Equivalence:
    """Compare two canonical knots: same, mirror images, or distinct."""
    if (k1.alpha, k1.beta) != (k2.alpha, k2.beta):
        return Equivalence.DISTINCT
    if k1.mirror == k2.mirror or k1.amphicheiral:
        return Equivalence.SAME
    return Equivalence.MIRROR


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

class FamilySpec(Record):
    """A named knot family member: kind plus index."""

    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int) -> None:
        if kind not in FAMILY_KINDS:
            raise IndexOutOfRange(f"unknown family {kind!r}")
        if type(index) is not int:  # 2.5 or True names no member
            raise IndexOutOfRange(f"family index {index!r} is not an int")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)


def _check_index(index: int, least: int, message: str) -> None:
    """Refuse a family index that is not an int, as FamilySpec does, or is below least."""
    if type(index) is not int:
        raise IndexOutOfRange(f"family index {index!r} is not an int")
    if index < least:
        raise IndexOutOfRange(message)


def torus_fraction(n: int) -> Fraction:
    """T(2, 2n+1), fraction (2n+1)/1."""
    _check_index(n, 1, "torus index must be >= 1")
    return Fraction(2 * n + 1, 1)


def twist_fraction(n: int) -> Fraction:
    """Twist knot with n twists, fraction (2n+1)/2."""
    _check_index(n, 1, "twist index must be >= 1")
    return Fraction(2 * n + 1, 2)


def stevedore_fraction(k: int) -> Fraction:
    """Generalized stevedore knot, the reduced value of 2k+2 + 1/(2k)."""
    _check_index(k, 1, "stevedore index must be >= 1")
    return Fraction((2 * k + 1) ** 2, 2 * k)


def fibonacci_fraction(b: int) -> Fraction:
    """F_b / F_{b-1}, the all-plus-one expansion of length b-1."""
    _check_index(b, 3, "fibonacci index must be >= 3")
    return Fraction(fibonacci(b), fibonacci(b - 1))


def kn_fraction(n: int) -> Fraction:
    """The family with word P M P^n M P: 5*F_{n+1} over F_{n+1} + F_{n-1}."""
    _check_index(n, 2, "kn index must be > 1")
    return Fraction(5 * fibonacci(n + 1), fibonacci(n + 1) + fibonacci(n - 1))


_FAMILY_TABLE = {
    "torus": torus_fraction,
    "twist": twist_fraction,
    "stevedore": stevedore_fraction,
    "fibonacci": fibonacci_fraction,
    "kn": kn_fraction,
}
FAMILY_KINDS = tuple(_FAMILY_TABLE)


def family_fraction(spec: FamilySpec) -> Fraction:
    """Schubert fraction of a named family member."""
    return _FAMILY_TABLE[spec.kind](spec.index)
