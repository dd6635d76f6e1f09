"""Chebyshev diagram geometry and minimal Conway normal forms.

The plane curve x = T_a(t), y = T_b(t) with gcd(a, b) = 1 has exactly
(a-1)(b-1)/2 double points, at the parameter pairs

    t = cos((k/a + h/b) pi),   s = cos((k/a - h/b) pi),

for integers h, k >= 1 with k/a + h/b < 1.  For a = 3 the crossings lie on
the two lines y = +-1/2 and the diagram is already a Conway normal form:
the crossing with the i-th largest x carries the i-th twist sign, read with
the convention that a right twist is positive at odd i and negative at
even i.
"""

from __future__ import annotations

import math
from itertools import compress
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

from .contfrac import Fraction, Record, crossing_number, eval_cf
from .contfrac import _pgp_inner, _regular_terms, _validate_one_regular
from .errors import (
    ChebknotError,
    InvalidForm,
    IsLink,
    LengthMismatch,
    NotCoprime,
    NotGreaterThanOne,
    NotOneRegular,
)
from .trig import sin_sign


# Bound on the error of _parameters' t = cos(m*pi/ab), evaluated as
# cos(m*pi/ab) when 2m <= ab and as -cos((ab - m)*pi/ab) otherwise, for
# ab < 2**53.  With u = 2**-53, math.pi, the product and the quotient each
# round with relative error at most u, so the argument, at most pi/2, is
# off by at most ((1 + u)**3 - 1) * pi/2 < 4.72u; cos is 1-Lipschitz;
# libm's cos is within one ulp of a result in [0, 1], which is at most u;
# the negation is exact.  In all, less than 5.72u.
PARAMETER_ERROR = 6 * 2.0**-53


def twist_sign(i: int, sign: int) -> int:
    """(-1)^i * sign: turns the sign of D = (z(t) - z(s)) x'(t) y'(t) at the
    crossing with the (i+1)-th largest x into its twist sign, and back."""
    return sign if i % 2 == 0 else -sign


class CrossingPoint(NamedTuple):
    """One double point of the curve x = T_a(t), y = T_b(t).

    t = cos(m_t*pi/(a*b)) and s = cos(m_s*pi/(a*b)) are its two parameters,
    computed by enumerate_crossings from m_t and m_s, and xy_sign the exact
    sign of x'(t) y'(t).
    """

    h: int
    k: int
    m_t: int
    m_s: int
    t: float
    s: float
    xy_sign: int


def _a3_families(b: int) -> tuple[tuple[int, int, slice, slice], ...]:
    """The crossings of C(3, b) as three families: the paper's C_k, then
    A_k and B_k for b = 3n + 1, B_k and A_k for b = 3n + 2
    (harmonic.closed_form_crossing_indices).

    Each family is (first, c, at_t, at_s): it holds the enumerate_crossings(3, b)
    slots first, first + 3, ... (x key nu = slot + 1), whose m_t and m_s are
    range(3b)[at_t] and range(3b)[at_s] in slot order, and along which
    c = xy_sign * (-1)^slot is constant:

        nu = 3h,      k = 2:  m_t = 2b + nu, m_s = 2b - nu;
        nu = b - 3h,  k = 1:  m_t = 2b - nu, m_s = nu;
        nu = 3h - b,  k = 1:  m_t = 2b + nu, m_s = nu.

    With xy_sign = (-1)^(h+k) sin_sign(k*b, 3) sin_sign(3h, b), the last
    factor is -1 in the third family alone, so c = -sin_sign(2b, 3) in the
    first and +-sin_sign(b, 3) (-1)^b in the other two.
    """
    first = (b - 1) % 3  # the slots nu - 1 = b - 1 - 3h
    c = sin_sign(b, 3) if b % 2 == 0 else -sin_sign(b, 3)
    return (
        (2, -sin_sign(2 * b, 3), slice(2 * b + 3, None, 3), slice(2 * b - 3, b, -3)),
        (first, c, slice(2 * b - first - 1, b, -3), slice(first + 1, b, 3)),
        (1 - first, -c, slice(2 * b + 2 - first, None, 3), slice(2 - first, b, 3)),
    )


def _a3_crossing(b: int, slot: int) -> tuple[int, int]:
    """(h, k) of the enumerate_crossings(3, b) row at slot, read from its x key
    nu = slot + 1: nu = 3h gives k = 2, nu = b - 3h or 3h - b gives k = 1."""
    nu = slot + 1
    if nu % 3 == 0:
        return nu // 3, 2
    return (b - nu if (b - nu) % 3 == 0 else b + nu) // 3, 1


def _a3_events(b: int) -> Iterator[int]:
    """The events of C(3, b) by increasing m, so by decreasing parameter: the
    m in 1..3b - 1 with 3 not dividing m, other than b and 2b, which are
    the crossings' m_t and m_s."""
    is_event = bytearray(b"\0\1\1") * b
    is_event[b] = is_event[2 * b] = 0
    return compress(range(3 * b), is_event)


def _a3_next_event(m: int, b: int) -> int:
    """The least of the _a3_events of C(3, b) above m."""
    m += 1
    while m % 3 == 0 or m % b == 0:
        m += 1
    return m


def _parameters(ms: Iterable[int], ab: int) -> list[float]:
    """The crossing parameter cos(m*pi/ab) of each m, as -cos((ab - m)*pi/ab)
    when 2m > ab so that m and ab - m give exact negatives (PARAMETER_ERROR)."""
    cos, pi = math.cos, math.pi
    return [cos(m * pi / ab) if 2 * m <= ab else -cos((ab - m) * pi / ab) for m in ms]


def enumerate_crossings(a: int, b: int) -> list[CrossingPoint]:
    """All (a-1)(b-1)/2 crossings of the curve by decreasing x: one loop builds
    the integers (h, k, m_t, m_s, xy_sign) of each row, a stable sort by the
    integer key nu, x = cos(nu*pi/b), keeps tied keys (a >= 4) in (k, h)
    order, and t and s follow from m_t and m_s by _parameters.  No
    construction or certificate reads the crossings."""
    if type(a) is not int or type(b) is not int or a < 2 or b < 2:
        raise ChebknotError(f"degrees ({a!r}, {b!r}) must be ints >= 2")
    if gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) != 1")
    ab, b2 = a * b, 2 * b
    rows: list[tuple[int, int, int, int, int]] = []
    keys: list[int] = []
    for k in range(1, a):
        kb, k_odd = k * b, k % 2
        # xy_sign = (-1)^(h+k) sin_sign(k*b, a) sin_sign(a*h, b); sign holds
        # all but the last factor, flipped once per h
        sign = -sin_sign(kb, a) if k_odd else sin_sign(kb, a)
        for h in range(1, (ab - kb - 1) // a + 1):  # k*b + a*h < a*b
            sign = -sign
            ah = a * h
            mu = ah % b2  # sin(a*h*pi/b) > 0 exactly when mu < b
            if mu < b:
                xy = sign
            else:
                mu, xy = b2 - mu, -sign
            rows.append((h, k, kb + ah, kb - ah if kb > ah else ah - kb, xy))
            keys.append(b - mu if k_odd else mu)  # x = cos(key*pi/b)
    rows = [rows[i] for i in sorted(range(len(rows)), key=keys.__getitem__)]
    if len(rows) != (a - 1) * (b - 1) // 2:
        raise ChebknotError("crossing count mismatch")
    ts = _parameters([row[2] for row in rows], ab)
    ss = _parameters([row[3] for row in rows], ab)
    new = tuple.__new__  # CrossingPoint._make, unchecked
    return [new(CrossingPoint, (h, k, m_t, m_s, t, s, xy)) for (h, k, m_t, m_s, xy), t, s in zip(rows, ts, ss)]


class ConwayForm(Record):
    """Twist signs of a C(3, b) diagram, listed in decreasing-x order."""

    __slots__ = ("signs", "b")

    def __init__(self, signs: Sequence[int], b: int) -> None:
        object.__setattr__(self, "signs", tuple(signs))
        object.__setattr__(self, "b", b)
        if type(b) is not int or b < 2 or b % 3 == 0:
            raise InvalidForm(f"b = {b!r} is not a valid diagram degree")
        if len(self.signs) != b - 1:
            raise InvalidForm("need exactly b - 1 signs")
        try:
            _validate_one_regular(self.signs)
        except NotOneRegular as exc:
            raise InvalidForm(str(exc)) from exc

    def text(self) -> str:
        return "C(" + ",".join(str(s) for s in self.signs) + ")"


class MinimalDiagram(Record):
    __slots__ = ("form", "b", "mirrored")

    def __init__(self, form: ConwayForm, b: int, mirrored: bool) -> None:
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mirrored", mirrored)


def minimal_diagram(r: Fraction) -> MinimalDiagram:
    """Smallest C(3, b) diagram of the knot S(r), r > 1.

    b - 1 is the smaller of the expansion lengths of r and of
    alpha/(alpha - beta); when the latter wins, its negated expansion is a
    diagram of the same knot and the mirrored flag records the detour.
    """
    if not isinstance(r, Fraction):
        raise ChebknotError(f"need a Fraction to draw, not {r!r}")
    return _minimal_diagram(r)[0]


def _minimal_diagram(r: Fraction) -> tuple[MinimalDiagram, int]:
    """minimal_diagram(r) with the crossing number N of S(r).

    The run walk contfrac._regular_terms gives the own expansion and N;
    the two expansion lengths add up to 3N - 2, so the conjugate
    expansion, negated by the walk itself, is built only when it is the
    shorter one.
    """
    if not (r.is_positive and r > 1):
        raise NotGreaterThanOne(f"{r} is not > 1")
    if r.num % 2 == 0:
        raise IsLink("links have no C(3, b) diagram (b would be divisible by 3)")
    own, n_cross = _regular_terms(r.num, r.den, 1)
    # one length is 0 and the other 1 mod 3 (parity_class), so they never tie
    other = 3 * n_cross - 2 - len(own)
    if len(own) < other:
        terms, mirrored = own, False
    else:
        terms = _regular_terms(r.num, r.num - r.den, -1)[0]  # negated conjugate
        if len(terms) != other:
            raise ChebknotError(f"expansion lengths of {r} do not add up to 3N - 2")
        mirrored = True
    form = ConwayForm(terms, len(terms) + 1)  # validates the winner, once
    if not (n_cross < form.b and 2 * form.b < 3 * n_cross):
        raise ChebknotError(f"diagram degree bound violated for {r}")
    return MinimalDiagram(form, form.b, mirrored), n_cross


def is_minimal_by_word(r: Fraction) -> bool:
    """Word-degree minimality test: the expansion of r itself is minimal
    exactly when its word P G P has at least three more P letters than M
    letters, that is when G has at least one more."""
    g = _pgp_inner(r)
    return g.degP >= g.degM + 1


def conway_reversal_check(f1: ConwayForm, f2: ConwayForm, n_cross: int) -> bool:
    """True when two minimal forms of the same knot agree, directly or after
    reversal with the sign (-1)^(n+1).

    The last sign of a one-regular sequence is (-1)^m with m the M-degree
    of its word, and m = n - N, so the relating sign collapses to the
    parity of the length alone; n_cross is validated against f1.
    """
    if type(n_cross) is not int:  # not isinstance: True is an int
        raise ChebknotError(f"n_cross must be an int, not {n_cross!r}")
    if len(f1.signs) != len(f2.signs):
        raise LengthMismatch("forms have different lengths")
    value = abs(eval_cf(f1.signs))
    if crossing_number(value) != n_cross:
        raise ChebknotError(
            f"form {f1.text()} has crossing number {crossing_number(value)}, not {n_cross}"
        )
    if f1.signs == f2.signs:
        return True
    n = len(f1.signs)
    flip = 1 if n % 2 else -1
    return f2.signs == tuple(flip * s for s in reversed(f1.signs))
