"""Gauss sequences and height polynomials for C(3, b) diagrams.

A Conway form prescribes, at every crossing, which strand must pass over;
the Gauss sequence lists the resulting over/under signs at all 2(b-1)
crossing parameters.  A height polynomial whose sign agrees with the Gauss
sign at every parameter turns the diagram into an embedded space curve
(T_3(t), T_b(t), C(t)); one root per sign-change gap suffices, so
deg C equals the number of sign changes and b + deg C = 3N, with N the
crossing number.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import compress, count, islice, repeat
from operator import ne, neg
from typing import Sequence

from .contfrac import _NEG, Fraction, Record, _sign_bytes, is_amphicheiral
from .diagram import PARAMETER_ERROR, ConwayForm, CrossingPoint, _minimal_diagram, _parameters
from .diagram import _a3_crossing, _a3_events, _a3_families, _a3_next_event
from .errors import AmbiguousCrossing, ChebknotError, IsLink


class GaussSequence(Record):
    """Over/under signs (+1 over, -1 under) of the diagram C(3, b) at its
    2(b - 1) events, diagram._a3_events(b), listed from the largest
    parameter to the smallest: events holds (cos(m*pi/3b), sign) by m."""

    __slots__ = ("signs", "b")

    def __init__(self, signs: Sequence[int], b: int) -> None:
        object.__setattr__(self, "signs", tuple(signs))
        object.__setattr__(self, "b", b)
        if type(b) is not int or b < 2 or b % 3 == 0:
            raise ChebknotError("need a degree b >= 2 prime to 3")
        if len(self.signs) != 2 * (b - 1):
            raise ChebknotError(f"need 2(b - 1) = {2 * (b - 1)} signs for C(3, {b})")
        if _sign_bytes(self.signs).translate(None, b"\x01\xff"):
            raise ChebknotError("event signs must all be +1 or -1")

    @property
    def events(self) -> tuple[tuple[float, int], ...]:
        """(parameter, sign) of each event; each read derives all 2(b - 1) events, in O(b).
        The events are symmetric, m <-> 3b - m, so by the _parameters rule the
        last b - 1 parameters are the first b - 1 negated and reversed."""
        half = _parameters(islice(_a3_events(self.b), self.b - 1), 3 * self.b)
        return tuple(zip(half + list(map(neg, reversed(half))), self.signs))

    def __len__(self) -> int:
        return len(self.signs)


def _gauss_signs(b: int, twists: bytes) -> bytearray:
    """The Gauss signs of C(3, b) under a Conway form's twist signs, both as array('b')
    bytes, by m in range(3b): one byte per sign and 0 where m is not an event.

    The twist sign at decreasing-x slot i asks for the sign
    (-1)^i * twist * xy_sign of z(t) - z(s) at that crossing, by the
    right-twist criterion D = (z(t) - z(s)) x'(t) y'(t) > 0, and its
    negative at s.  Along each of diagram._a3_families that is c * twist
    at m_t, so each family's signs are one slice of the form's.
    """
    negated = twists.translate(_NEG)
    by_m = bytearray(3 * b)
    for first, c, at_t, at_s in _a3_families(b):
        run, flipped = twists[first::3], negated[first::3]
        by_m[at_t], by_m[at_s] = (run, flipped) if c == 1 else (flipped, run)
    if by_m.count(0) != b + 2:  # the b multiples of 3, b and 2b
        raise ChebknotError("crossing parameters are not distinct")
    return by_m


def _twist_signs(height: HeightPolynomial) -> array:
    """The twist signs of a height with gaps on its own C(3, b):
    _gauss_signs' family rule read backwards, at m_t and again at m_s.
    z's sign at m, leading_sign flipped once per gap below m, is the prefix
    XOR of the leading sign's byte and then the gap bitmap, by shift-XORs
    of 1, 2, 4, ... bytes.  Where the readings differ both strands have one
    sign, and the first such crossing by decreasing x is refused.
    """
    b, lead = height.b, bytes([height.leading_sign % 256])  # leading_sign's array('b') byte
    x, shift = int.from_bytes(lead + height._gaps_by_m, "big"), 8
    while shift < 24 * b:
        x, shift = x ^ (x >> shift), 2 * shift
    sign = x.to_bytes(3 * b, "big")  # z's sign by m, array('b') bytes
    twists, from_s = bytearray(b - 1), bytearray(b - 1)
    for first, c, at_t, at_s in _a3_families(b):
        twists[first::3] = sign[at_t] if c == 1 else sign[at_t].translate(_NEG)
        from_s[first::3] = sign[at_s].translate(_NEG) if c == 1 else sign[at_s]
    if twists != from_s:
        slot = next(compress(count(), map(ne, twists, from_s)))
        raise AmbiguousCrossing(f"both strands of z have one sign at crossing {_a3_crossing(b, slot)}")
    return array("b", twists)


def gauss_sequence(form: ConwayForm) -> GaussSequence:
    """Gauss sequence forced on the diagram C(3, b) by a Conway form, read
    from the three crossing families by slices."""
    if not isinstance(form, ConwayForm):
        raise ChebknotError(f"need a ConwayForm, not {form!r}")
    by_m = _gauss_signs(form.b, array("b", form.signs).tobytes())
    # a form's signs are +-1 and _gauss_signs counts the events, so GaussSequence's checks would repeat
    return GaussSequence._unchecked(signs=tuple(array("b", by_m.translate(None, b"\0"))), b=form.b)


def count_sign_changes(g: GaussSequence) -> int:
    if not isinstance(g, GaussSequence):
        raise ChebknotError(f"need a GaussSequence, not {g!r}")
    return sum(map(ne, g.signs, g.signs[1:]))


class HeightPolynomial(Record):
    """Real polynomial stored as leading sign times a product of (t - r).

    HeightPolynomial(roots, leading_sign) has float roots, b and gaps None.
    A height that parametrization or build_height makes on C(3, b) keeps b
    and a gap bitmap, one byte per m in range(3b - 1): 0xfe, the XOR of the
    two sign bytes, at the m of each Gauss event that opens the gap between
    consecutive event parameters in which a root sits, and 0 elsewhere.  A gap g puts its root below the
    parameter cos(m*pi/3b) of every event m <= g and above every other one:
    z's sign flips after each gap (_twist_signs).  __getattr__ derives gaps,
    the increasing tuple of those m, and the float roots on first read.
    """

    __slots__ = ("roots", "leading_sign", "b", "gaps", "_gaps_by_m")

    def __init__(self, roots: Sequence[float], leading_sign: int) -> None:
        object.__setattr__(self, "roots", tuple(sorted(roots)))
        if not all(map(math.isfinite, self.roots)):
            raise ChebknotError("roots must be finite")
        if type(leading_sign) is not int or leading_sign not in (1, -1):
            raise ChebknotError("leading sign must be +1 or -1")
        for name, value in (("leading_sign", leading_sign), ("b", None), ("gaps", None), ("_gaps_by_m", None)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of_gaps(cls, leading_sign: int, b: int, gaps_by_m: bytes) -> HeightPolynomial:
        """The height on C(3, b) with _height's gap bitmap, unchecked."""
        return cls._unchecked(leading_sign=leading_sign, b=b, _gaps_by_m=gaps_by_m)

    def _values(self) -> tuple:  # == and hash decide a gap height by its bitmap, deriving neither gaps nor roots
        return super()._values() if self.b is None else (self.leading_sign, self.b, self._gaps_by_m)

    def __reduce__(self) -> tuple:  # pickle rebuilds a gap height from its bitmap, leaving gaps and roots unread
        if self.b is None:
            return type(self), (self.roots, self.leading_sign)
        return self._of_gaps, (self.leading_sign, self.b, self._gaps_by_m)

    def __getattr__(self, name: str) -> tuple:
        # only unset slots get here, and gaps and roots are unset only after _of_gaps
        if name == "gaps":
            value = tuple(compress(count(), self._gaps_by_m))
        elif name == "roots":
            b, gaps = self.b, self.gaps[::-1]  # decreasing gaps give increasing roots
            nexts = map(_a3_next_event, gaps, repeat(b))
            # the root in each gap is the midpoint of its two parameters
            value = tuple((p + q) / 2.0 for p, q in zip(_parameters(gaps, 3 * b), _parameters(nexts, 3 * b)))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    @property
    def degree(self) -> int:
        return len(self.roots) if self.b is None else len(self._gaps_by_m) - self._gaps_by_m.count(0)

    def __call__(self, t: float) -> float:
        v = float(self.leading_sign)
        for r in self.roots:
            v *= t - r
        return v

    def label(self) -> str:
        return "z"

    def decide_crossing(self, a: int, b: int, row: CrossingPoint) -> tuple[int, float]:
        """Sign of z(t) - z(s) from root counts, with the distance from t or s
        to the nearest root as its margin.  z has the sign leading_sign *
        (-1)^(roots above p) at p.  On its own C(3, b) a height with gaps
        counts them exactly, bisect_left(gaps, m) roots above the event m,
        at row.m_t and row.m_s, and refuses strands of one sign.  Otherwise
        it counts its float roots, which holds at the true crossing parameter
        too unless a root lies within PARAMETER_ERROR of p; strands of
        opposite signs are ordered by z(t), and strands of one sign by exact
        enclosures of |z(t)| and |z(s)|, refused where they overlap, with
        |z(t) - z(s)| in floats as the margin."""
        roots, n, t, s = self.roots, len(self.roots), row.t, row.s
        exact = b == self.b and a == 3  # b is None exactly when gaps is
        if exact:  # roots below t and below s
            i, j = n - bisect_left(self.gaps, row.m_t), n - bisect_left(self.gaps, row.m_s)
        else:
            i, j = bisect_left(roots, t), bisect_left(roots, s)  # roots[i - 1] < t <= roots[i]
        margin = min(
            t - roots[i - 1] if i else math.inf, roots[i] - t if i < n else math.inf,
            s - roots[j - 1] if j else math.inf, roots[j] - s if j < n else math.inf,
        )
        if not exact and margin <= PARAMETER_ERROR:
            raise AmbiguousCrossing(f"a root of z lies within {margin:.1e} of t or s at crossing {(row.h, row.k)}")
        sign = self.leading_sign if (n - i) % 2 == 0 else -self.leading_sign  # z's sign at t
        if (i - j) % 2:
            return sign, margin
        if exact:
            raise AmbiguousCrossing(f"both strands of z have one sign at crossing {(row.h, row.k)}")
        # floats are exact dyadics: over their largest denominator they are integers.  Each true
        # parameter p lies within e = PARAMETER_ERROR of its float p~ and no root that near, so
        # |p - r| lies in [|p~ - r| - e, |p~ - r| + e], an interval of positive integers
        ratios = [x.as_integer_ratio() for x in (PARAMETER_ERROR, t, s, *roots)]
        den = max(d for _, d in ratios)
        e, pt, ps, *rs = [num * (den // d) for num, d in ratios]
        low_t, high_t, low_s, high_s = (math.prod(abs(p - r) + pm * e for r in rs) for p in (pt, ps) for pm in (-1, 1))
        if high_t < low_s or high_s < low_t:
            return (sign if high_s < low_t else -sign), abs(self(t) - self(s))
        raise AmbiguousCrossing(f"|z(t)| and |z(s)| overlap within their error bounds at crossing {(row.h, row.k)}")

    @property
    def is_odd_symmetric(self) -> bool:
        """Odd degree and a root multiset symmetric about 0 (so 0 is a
        root): exactly when the product is an odd polynomial."""
        r = self.roots  # sorted
        return len(r) % 2 == 1 and all(r[i] == -r[-1 - i] for i in range(len(r) // 2 + 1))

    def factored_text(self, digits: int = 6) -> str:
        parts = []
        for r in self.roots:
            if r == 0.0:
                parts.append("t")
            elif r < 0:
                parts.append(f"(t+{-r:.{digits}g})")
            else:
                parts.append(f"(t-{r:.{digits}g})")
        body = "".join(parts) if parts else "1"
        return body if self.leading_sign > 0 else "-" + body


def _height(b: int, by_m: bytearray, amphicheiral: bool) -> HeightPolynomial:
    """The height on C(3, b) with _gauss_signs' bytes by m: its gaps are the
    events whose sign differs from the next event's.  With every non-event
    given the next event's sign, those are the nonzero bytes of
    x ^ (x >> 8) after the first, x the bytes as one big-endian integer,
    and the leading sign is the first event's.  Odd amphicheiral signs,
    equal at m and 3b - m up to sign, and an odd degree make the roots
    symmetric about 0 and the height odd."""
    f = bytearray(by_m)
    for m in (2 * b, b):  # 2b first: at b = 2, b reads its next event through 2b = b + 2
        f[m] = f[m + 1 if (m + 1) % 3 else m + 2]
    f[0::3] = f[1::3]
    x = int.from_bytes(f, "big")
    height = HeightPolynomial._of_gaps(1 if f[0] == 1 else -1, b, (x ^ (x >> 8)).to_bytes(3 * b, "big")[1:])
    if amphicheiral and not (height.degree % 2 == 1 and by_m[1:][::-1] == by_m[1:].translate(_NEG)):
        raise ChebknotError("amphicheiral input did not give an odd height")
    return height


def build_height(g: GaussSequence, amphicheiral: bool = False) -> HeightPolynomial:
    """Height polynomial with one root per Gauss sign change, as in parametrization:
    the signs go to their m by two residue slices, a 0 held for m = b and 2b."""
    if not isinstance(g, GaussSequence):
        raise ChebknotError(f"need a GaussSequence, not {g!r}")
    b, signs = g.b, array("b", g.signs).tobytes()
    i, j = b - 1 - (b - 1) // 3, 2 * b - 2 - (2 * b - 1) // 3  # the signs below m = b and m = 2b
    by_m, prime_to_3 = bytearray(3 * b), b"\0".join((signs[:i], signs[i:j], signs[j:]))
    by_m[1::3], by_m[2::3] = prime_to_3[0::2], prime_to_3[1::2]
    return _height(b, by_m, amphicheiral)


class Parametrization(Record):
    """Space-curve presentation (T_3(t), T_b(t), C(t)) of a two-bridge knot."""

    __slots__ = ("b", "height", "crossing_number", "form", "mirrored")

    def __init__(self, b: int, height: HeightPolynomial, crossing_number: int, form: ConwayForm,
                 mirrored: bool) -> None:
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "crossing_number", crossing_number)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "mirrored", mirrored)

    def to_json(self) -> dict:
        return {
            "a": 3,
            "b": self.b,
            "z_roots": list(self.height.roots),
            "z_leading_sign": self.height.leading_sign,
            "N": self.crossing_number,
        }


def parametrization(r: Fraction) -> Parametrization:
    """Minimal diagram, Gauss signs and height polynomial (_height) for
    S(r), in integers.  The degrees always satisfy b + deg C = 3N."""
    if not isinstance(r, Fraction):
        raise ChebknotError(f"need a Fraction to parametrize, not {r!r}")
    if r.is_positive and not r.is_knot:
        raise IsLink(f"{r} defines a two-component link")
    md, n_cross, twists = _minimal_diagram(r)
    height = _height(md.b, _gauss_signs(md.b, twists), is_amphicheiral(r.num, r.den))
    if md.b + height.degree != 3 * n_cross:
        raise ChebknotError(f"degree identity violated for {r}")
    return Parametrization(md.b, height, n_cross, md.form, md.mirrored)
