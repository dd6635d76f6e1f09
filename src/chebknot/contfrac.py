"""Exact continued-fraction engine.

Everything here is pure integer arithmetic: classical expansions with
positive quotients, the unique one-regular expansion into +-1 terms, the
two-letter monoid words that encode those expansions, and their 2x2 integer
matrix representation.

A word is spelled over the letters P and M, acting on rationals as the
Moebius maps P: x -> 1 + 1/x and M: x -> 1/(1 + x).  Words ending in P,
applied to the formal point 1/0, hit every positive rational exactly once;
the expansion, the word, and the matrix are three views of the same object.
"""

from __future__ import annotations

from math import gcd
from operator import ne
from typing import NamedTuple, Sequence

from .errors import (
    ChebknotError,
    DivisionByZeroTail,
    EmptySequence,
    NonPositiveInput,
    NotGreaterThanOne,
    NotOneRegular,
    NotPGPForm,
    WrongLeadingSigns,
    ZeroQuotient,
)


class Record:
    """Immutable value: frozen-dataclass equality, hash and repr over __slots__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # pickle rebuilds through __init__ (HeightPolynomial overrides this)
        return type(self), self._values()

    def __copy__(self) -> Record:  # immutable, so a copy is the record itself
        return self

    def __deepcopy__(self, memo: dict) -> Record:
        return self

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class Fraction(Record):
    """Reduced rational num/den with the sign carried by the denominator.

    The mirror image of the two-bridge knot S(a/b) is S(a/-b), so a
    negative fraction keeps num > 0 and stores the sign in den.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1) -> None:
        if type(num) is not int or type(den) is not int:  # not isinstance: True is an int
            raise ChebknotError(f"fraction needs an int numerator and denominator, not {num!r}/{den!r}")
        if den == 0:
            raise ChebknotError("fraction with zero denominator")
        if num < 0:
            num, den = -num, -den
        if num == 0:
            den = 1
        g = gcd(num, abs(den))
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def parse(cls, text: str) -> "Fraction":
        """Parse 'a/b', '-a/b' (minus applied to b) or a bare integer."""
        s = text.strip()
        neg = s.startswith("-")
        if neg:
            s = s[1:]
        if "/" in s:
            a_str, b_str = s.split("/", 1)
            num, den = int(a_str), int(b_str)
        else:
            num, den = int(s), 1
        if neg:
            den = -den
        return cls(num, den)

    # -- ordering (exact cross-multiplication) --------------------------
    def _cmp(self, other: "Fraction | int") -> int:
        if isinstance(other, int):
            other = Fraction(other)
        lhs = self.num * other.den
        rhs = other.num * self.den
        if self.den * other.den < 0:
            lhs, rhs = rhs, lhs
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other: "Fraction | int") -> bool:
        return self._cmp(other) < 0

    def __gt__(self, other: "Fraction | int") -> bool:
        return self._cmp(other) > 0

    # -- structure -------------------------------------------------------
    @property
    def is_positive(self) -> bool:
        return self.num > 0 and self.den > 0

    @property
    def is_knot(self) -> bool:
        """Odd numerator: a knot.  Even numerator: a two-component link."""
        return self.num % 2 == 1

    def __abs__(self) -> "Fraction":
        return Fraction(self.num, abs(self.den))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def _all_plus_or_minus_one(terms: tuple[int, ...]) -> bool:
    # count compares with ==, so True and 1.0 would pass it without the type test
    return set(map(type, terms)) <= {int} and terms.count(1) + terms.count(-1) == len(terms)


def _validate_one_regular(terms: tuple[int, ...]) -> None:
    n = len(terms)
    if n == 0:
        raise EmptySequence("empty sign sequence")
    if not _all_plus_or_minus_one(terms):
        raise NotOneRegular("terms must all be +1 or -1")
    if n >= 2 and terms[-1] * terms[-2] < 0:
        raise NotOneRegular("last two terms must have equal sign")
    if b"\x01\x01" in bytes(map(ne, terms, terms[1:])):
        raise NotOneRegular("two consecutive sign changes")


class RegularCF(Record):
    """One-regular continued fraction with all terms +-1."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[int]) -> None:
        object.__setattr__(self, "terms", tuple(terms))
        _validate_one_regular(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def sign_changes(self) -> int:
        t = self.terms
        return sum(map(ne, t, t[1:]))

    def fraction(self) -> Fraction:
        return eval_cf(self.terms)


class ClassicalCF(Record):
    """Continued fraction with strictly positive integer quotients."""

    __slots__ = ("quotients",)

    def __init__(self, quotients: Sequence[int]) -> None:
        object.__setattr__(self, "quotients", tuple(quotients))
        if not self.quotients:
            raise EmptySequence("empty quotient sequence")
        if any(type(q) is not int for q in self.quotients):  # not isinstance: True is an int
            raise ChebknotError(f"classical quotients must be ints, not {self.quotients!r}")
        if any(q <= 0 for q in self.quotients):
            raise ZeroQuotient("classical quotients must be positive")


def eval_cf(quotients: Sequence[int]) -> Fraction:
    """Evaluate [q1, q2, ..., qn] = q1 + 1/(q2 + 1/(... + 1/qn)) exactly."""
    if not quotients:
        raise EmptySequence("cannot evaluate an empty continued fraction")
    if any(q == 0 for q in quotients):
        raise ZeroQuotient("continued fraction with a zero quotient")
    p, q = quotients[-1], 1
    for a in reversed(quotients[:-1]):
        if p == 0:
            raise DivisionByZeroTail("tail evaluates to zero where inverted")
        p, q = a * p + q, p
    return Fraction(p, q)


def eval_cf_projective(quotients: Sequence[int]) -> tuple[int, int]:
    """Evaluate a continued fraction as a projective pair (p, q).

    Unlike eval_cf this tolerates zero tails: an intermediate 0 simply
    passes through as the point (0, 1) and inverts to (1, 0).  The result
    is a coprime pair; q = 0 means the value is infinite.
    """
    if not quotients:
        raise EmptySequence("cannot evaluate an empty continued fraction")
    p, q = quotients[-1], 1
    for a in reversed(quotients[:-1]):
        p, q = a * p + q, p
    return p, q


def classical_expansion(r: Fraction) -> ClassicalCF:
    """Positive-quotient expansion of r > 1; the last quotient is >= 2."""
    if not isinstance(r, Fraction):
        raise ChebknotError(f"need a Fraction to expand, not {r!r}")
    if not (r.is_positive and r > 1):
        raise NotGreaterThanOne(f"{r} is not > 1")
    a, b = r.num, r.den
    out = []
    while b:
        q, rem = divmod(a, b)
        out.append(q)
        a, b = b, rem
    return ClassicalCF(tuple(out))


def crossing_number(r: Fraction) -> int:
    """Sum of the classical quotients of r > 1: the knot crossing number."""
    return sum(classical_expansion(r).quotients)


def _regular_terms(a: int, b: int, s: int) -> tuple[list[int], int]:
    """The one-regular expansion of a/b > 0 times s = +-1, and the sum N of
    the classical quotients of a/b: one term list built by runs, one count."""
    out: list[int] = []
    steps = 0  # one per subtraction of Euclid's algorithm, so N = steps + 1
    while a != b:
        if a > 2 * b:  # k P steps, each followed by an M step
            k = (a - 1) // (2 * b)
            out += (s, s, -s, -s, -s, s) * (k // 2)
            if k % 2:
                out += (s, s, -s)
                s = -s
            a -= 2 * b * k
            steps += 2 * k
        elif b > 2 * a:  # k M steps, each followed by a P step
            k = (b - 1) // (2 * a)
            out += (s, -s, -s, -s, s, s) * (k // 2)
            if k % 2:
                out += (s, -s, -s)
                s = -s
            b -= 2 * a * k
            steps += 2 * k
        elif a > b:
            out.append(s)
            a, b = b, a - b
            steps += 1
        else:
            out += (s, -s)
            s = -s
            a, b = b - a, a
            steps += 1
    out.append(s)
    return out, steps + 1


def regular_expansion(r: Fraction) -> RegularCF:
    """The unique one-regular +-1 expansion of a positive rational.

    Height descent on (a, b) = (num, den) with a running sign s: a P step
    (a > b) appends s and makes (a, b) into (b, a - b); an M step appends
    s, -s, flips s and makes (a, b) into (b - a, a).  While a > 2b a P
    step is always followed by an M step, and the pair appends s, s, -s,
    flips s and subtracts 2b from a, so the k = (a - 1) // 2b pairs of a
    run are one repetition of the period-two block s, s, -s, -s, -s, s and
    at most one odd pair; runs of M-P pairs while b > 2a are the mirror
    image.  The walk is O(number of classical quotients) Python steps.
    """
    if not isinstance(r, Fraction):
        raise ChebknotError(f"need a Fraction to expand, not {r!r}")
    if not r.is_positive:
        raise NonPositiveInput(f"{r} is not a positive fraction")
    return RegularCF(_regular_terms(r.num, r.den, 1)[0])


def cn_from_regular(cf: RegularCF) -> int:
    """Crossing number read off a one-regular expansion with leading +1, +1.

    Equals the term count minus the number of sign changes.
    """
    t = cf.terms
    if len(t) < 2 or t[0] != 1 or t[1] != 1:
        raise WrongLeadingSigns("expansion must start with two +1 terms")
    return len(t) - cf.sign_changes


# ---------------------------------------------------------------------------
# Monoid words and matrices
# ---------------------------------------------------------------------------

_SWAP = str.maketrans("PM", "MP")


class Mat2(Record):
    """2x2 integer matrix, row-major."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        if any(type(v) is not int for v in (a, b, c, d)):  # not isinstance: True is an int
            raise ChebknotError(f"matrix entries must be ints, not {(a, b, c, d)!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, x: int, y: int) -> tuple[int, int]:
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)


class PMWord(Record):
    """Word over the alphabet {P, M}, spelled as a string like 'PPMPPP'."""

    __slots__ = ("letters",)

    def __init__(self, letters: str) -> None:
        if type(letters) is not str or any(ch not in "PM" for ch in letters):
            raise ChebknotError(f"invalid word letters: {letters!r}")
        object.__setattr__(self, "letters", letters)

    @property
    def degP(self) -> int:
        return self.letters.count("P")

    @property
    def degM(self) -> int:
        return self.letters.count("M")

    def reversed(self) -> "PMWord":
        return PMWord(self.letters[::-1])

    def swapped(self) -> "PMWord":
        """Exchange the two letters (P <-> M) throughout."""
        return PMWord(self.letters.translate(_SWAP))

    @property
    def is_palindromic(self) -> bool:
        return self.letters == self.letters[::-1]

    def matrix(self) -> Mat2:
        return word_to_matrix(self)

    def fraction(self) -> Fraction:
        """Value of the word at the formal point 1/0 (only sound in G.P)."""
        num, den = self.matrix().apply(1, 0)
        return Fraction(num, den)

    def terms(self) -> tuple[int, ...]:
        """The +-1 sequence this word spells: P gives one term, M two."""
        out: list[int] = []
        s = 1
        for ch in self.letters:
            if ch == "P":
                out.append(s)
            else:
                out.append(s)
                out.append(-s)
                s = -s
        return tuple(out)


def word_to_matrix(w: PMWord) -> Mat2:
    """Ordered product of the letter matrices P = [[1,1],[1,0]], M = [[0,1],[1,1]]."""
    a, b, c, d = 1, 0, 0, 1
    for ch in w.letters:
        if ch == "P":
            a, b, c, d = a + b, a, c + d, c
        else:
            a, b, c, d = b, a + b, d, c + d
    return Mat2(a, b, c, d)


def pm_word(cf: RegularCF) -> PMWord:
    """Compress a one-regular +-1 expansion into its monoid word.

    Each sign-changing couple becomes an M, every remaining term a P, so
    the length n and crossing number satisfy n = p + 2m and cn = p + m.
    Words evaluate to positive rationals, so the expansion must lead with
    +1 (negated expansions have no word).
    """
    t = cf.terms
    if t[0] != 1:
        raise NotOneRegular("only positive-valued expansions have a word")
    letters: list[str] = []
    i = 0
    while i < len(t):
        if i + 1 < len(t) and t[i] * t[i + 1] < 0:
            letters.append("M")
            i += 2
        else:
            letters.append("P")
            i += 1
    return PMWord("".join(letters))


def _pgp_inner(r: Fraction) -> PMWord:
    """Inner word G with r = P G P(1/0); requires r > 1."""
    w = pm_word(regular_expansion(r))
    s = w.letters
    if len(s) < 2 or s[0] != "P" or s[-1] != "P":
        raise NotPGPForm(f"{r} has word {s!r}, not of the form P...P")
    return PMWord(s[1:-1])


class ConjugateFractions(NamedTuple):
    """The three word-conjugate fractions of r = alpha/beta > 1."""

    beta_over_alpha: Fraction
    alpha_over_alpha_minus_beta: Fraction
    alpha_over_beta_prime: Fraction


def conjugate_fractions(r: Fraction) -> ConjugateFractions:
    """Fractions of the transformed words M*swap(G)*P, P*swap(G)*P, P*rev(G)*P.

    Writing r = P G P(1/0) with alpha > beta > 0, these evaluate to
    beta/alpha, alpha/(alpha-beta) and alpha/beta' where beta * beta' is
    congruent to (-1)^(N-1) mod alpha, N the crossing number.
    """
    g = _pgp_inner(r)
    ghat = g.swapped().letters
    gbar = g.reversed().letters
    return ConjugateFractions(
        PMWord("M" + ghat + "P").fraction(),
        PMWord("P" + ghat + "P").fraction(),
        PMWord("P" + gbar + "P").fraction(),
    )


def parity_class(cf: RegularCF) -> int:
    """Length of the expansion mod 3, which encodes the parities of num/den.

    n = 2 mod 3 forces an even numerator (a link); n = 0 mod 3 an even
    denominator; n = 1 mod 3 both odd.  The correspondence is checked.
    """
    r = cf.fraction()
    if not r.is_positive:
        raise NonPositiveInput("expansion must evaluate to a positive fraction")
    residue = len(cf) % 3
    expected = {
        2: (0, 1),
        0: (1, 0),
        1: (1, 1),
    }[residue]
    if (r.num % 2, r.den % 2) != expected:
        raise ChebknotError(
            f"parity correspondence violated for {r} with n={len(cf)}"
        )
    return residue


def is_amphicheiral(alpha: int, beta: int) -> bool:
    """S(alpha/beta) is its own mirror image exactly when beta^2 = -1 mod alpha."""
    return (beta * beta + 1) % alpha == 0


class PalindromyReport(Record):
    """Word palindromy and the chirality facts it encodes."""

    __slots__ = ("g_palindromic", "beta_sq_mod_alpha", "amphicheiral", "two_component")

    def __init__(self, g_palindromic: bool, beta_sq_mod_alpha: int, amphicheiral: bool,
                 two_component: bool) -> None:
        object.__setattr__(self, "g_palindromic", g_palindromic)
        object.__setattr__(self, "beta_sq_mod_alpha", beta_sq_mod_alpha)
        object.__setattr__(self, "amphicheiral", amphicheiral)
        object.__setattr__(self, "two_component", two_component)


def palindromy_report(r: Fraction) -> PalindromyReport:
    """Palindromy of the inner word G of r = P G P(1/0), alpha > beta > 0.

    G is palindromic exactly when beta^2 = (-1)^(N-1) mod alpha; the knot
    is amphicheiral exactly when beta^2 = -1 mod alpha.
    """
    g = _pgp_inner(r)
    alpha, beta = r.num, r.den
    bsq = (beta * beta) % alpha
    pal = g.is_palindromic
    n_cross = crossing_number(r)
    expected = 1 % alpha if n_cross % 2 == 1 else (alpha - 1) % alpha
    if pal != (bsq == expected):
        raise ChebknotError(f"palindromy criterion violated for {r}")
    return PalindromyReport(
        g_palindromic=pal,
        beta_sq_mod_alpha=bsq,
        amphicheiral=is_amphicheiral(alpha, beta),
        two_component=(alpha % 2 == 0),
    )


def fibonacci(n: int) -> int:
    """F_0 = 0, F_1 = 1, F_{n+1} = F_n + F_{n-1}."""
    if type(n) is not int:
        raise ChebknotError(f"Fibonacci index {n!r} is not an int")
    if n < 0:
        raise ChebknotError("negative Fibonacci index")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a

