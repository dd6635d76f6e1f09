"""Canonical two-bridge representatives, equivalence, and named families."""

from __future__ import annotations

import pytest

from conftest import coprime_pairs, inverse_mod
from chebknot.bridge import (
    Equivalence,
    FamilySpec,
    TwoBridgeKnot,
    canonicalize,
    equivalent,
    family_fraction,
    fibonacci_fraction,
    kn_fraction,
    stevedore_fraction,
    torus_fraction,
    twist_fraction,
)
from chebknot.contfrac import Fraction, crossing_number, fibonacci
from chebknot.errors import AlphaNonPositive, ChebknotError, IndexOutOfRange, NotCoprime


def test_canonicalize_identifies_inverse_residues():
    # 7 * 4 = 28 = 1 mod 9, so 9/7 and 9/4 are the same knot
    assert inverse_mod(7, 9) == 4
    assert canonicalize(9, 7) == canonicalize(9, 4)


def test_canonicalize_mirror_example():
    k1 = canonicalize(9, 7)
    k2 = canonicalize(9, 2)
    assert (k1.alpha, k1.beta) == (k2.alpha, k2.beta) == (9, 2)
    assert k1.mirror != k2.mirror
    assert equivalent(k1, k2) is Equivalence.MIRROR


def test_canonicalize_trefoil():
    k = canonicalize(3, 1)
    assert (k.alpha, k.beta, k.mirror) == (3, 1, False)
    assert k.is_knot and not k.amphicheiral


def test_canonicalize_accepts_negative_beta_as_mirror():
    assert equivalent(canonicalize(9, -7), canonicalize(9, 7)) is Equivalence.MIRROR
    # -7 = 2 mod 9
    assert canonicalize(9, -7) == canonicalize(9, 2)


def test_canonicalize_rejects_bad_input():
    with pytest.raises(AlphaNonPositive):
        canonicalize(0, 1)
    with pytest.raises(NotCoprime):
        canonicalize(9, 6)
    with pytest.raises(NotCoprime):
        canonicalize(1, 5)


def test_equivalence_worked_examples():
    assert equivalent(canonicalize(9, 7), canonicalize(9, 2)) is Equivalence.MIRROR
    # 5/3 vs 5/2: amphicheiral figure-eight
    assert equivalent(canonicalize(5, 3), canonicalize(5, 2)) is Equivalence.SAME
    assert equivalent(canonicalize(7, 6), canonicalize(9, 7)) is Equivalence.DISTINCT


def test_canonicalize_constant_on_orbit():
    for alpha, beta in coprime_pairs(300):
        base = canonicalize(alpha, beta)
        inv = inverse_mod(beta, alpha)
        orbit = {beta % alpha, inv, (-beta) % alpha, (alpha - inv) % alpha}
        assert base.beta == min(orbit)
        for member in orbit:
            k = canonicalize(alpha, member)
            assert (k.alpha, k.beta) == (base.alpha, base.beta)
        # idempotence
        again = canonicalize(base.alpha, base.beta)
        assert again == TwoBridgeKnot(base.alpha, base.beta, False)
        # the flag marks exactly the mirror half of the orbit
        canon_class = {base.beta, inverse_mod(base.beta, alpha)}
        for member in orbit:
            k = canonicalize(alpha, member)
            assert k.mirror == (member not in canon_class)


def test_amphicheiral_iff_beta_squared_is_minus_one():
    for alpha, beta in coprime_pairs(100):
        if alpha < 3:
            continue
        k = canonicalize(alpha, beta)
        assert k.amphicheiral == ((beta * beta + 1) % alpha == 0 or
                                  (inverse_mod(beta, alpha) ** 2 + 1) % alpha == 0)


def test_knot_vs_link_parity():
    assert canonicalize(9, 2).is_knot
    assert not canonicalize(4, 1).is_knot


def test_json_record_schema():
    record = canonicalize(9, 2).to_json()
    assert record == {
        "alpha": 9,
        "beta": 2,
        "mirror": False,
        "crossing_number": 6,
        "amphicheiral": False,
    }


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_family_fractions_worked_examples():
    assert twist_fraction(3) == Fraction(7, 2)
    assert stevedore_fraction(1) == Fraction(9, 2)
    assert fibonacci_fraction(5) == Fraction(5, 3)
    assert torus_fraction(3) == Fraction(7, 1)
    assert kn_fraction(4) == Fraction(25, 7)


def test_family_dispatcher_and_ranges():
    assert family_fraction(FamilySpec("twist", 3)) == Fraction(7, 2)
    with pytest.raises(IndexOutOfRange):
        family_fraction(FamilySpec("torus", 0))
    with pytest.raises(IndexOutOfRange):
        family_fraction(FamilySpec("kn", 1))
    with pytest.raises(IndexOutOfRange):
        FamilySpec("granny", 2)
    for index in (2.5, 3.0, True):  # True would answer 3/1
        with pytest.raises(IndexOutOfRange):
            FamilySpec("torus", index)


_REFUSALS = [
    # a float or a bool is refused by an existing error class, with its repr named
    (Fraction, (9.0, 2), ChebknotError, "fraction needs an int numerator and denominator, not 9.0/2"),
    (Fraction, (9, 2.0), ChebknotError, "fraction needs an int numerator and denominator, not 9/2.0"),
    (Fraction, (True, 1), ChebknotError, "fraction needs an int numerator and denominator, not True/1"),
    (Fraction, (3, True), ChebknotError, "fraction needs an int numerator and denominator, not 3/True"),
    (canonicalize, (7.0, 2), AlphaNonPositive, "alpha must be an int, got 7.0"),
    (canonicalize, (True, 1), AlphaNonPositive, "alpha must be an int, got True"),
    (canonicalize, (7, 2.0), NotCoprime, "beta must be an int, got 2.0"),
    (canonicalize, (7, True), NotCoprime, "beta must be an int, got True"),
    (canonicalize, (0, 2.5), AlphaNonPositive, "alpha must be positive, got 0"),  # alpha is checked first
    (fibonacci, (5.0,), ChebknotError, "Fibonacci index 5.0 is not an int"),
    (fibonacci, (True,), ChebknotError, "Fibonacci index True is not an int"),
    *((f, (index,), IndexOutOfRange, f"family index {index!r} is not an int")
      for f in (torus_fraction, twist_fraction, stevedore_fraction, fibonacci_fraction, kn_fraction)
      for index in (2.5, 5.0, True)),
    # int inputs keep their class and message
    (Fraction, (1, 0), ChebknotError, "fraction with zero denominator"),
    (canonicalize, (0, 1), AlphaNonPositive, "alpha must be positive, got 0"),
    (canonicalize, (6, 4), NotCoprime, "gcd(6, 4) != 1"),
    (canonicalize, (1, 1), NotCoprime, "beta = 1 is a multiple of alpha = 1"),
    (fibonacci, (-1,), ChebknotError, "negative Fibonacci index"),
    (torus_fraction, (0,), IndexOutOfRange, "torus index must be >= 1"),
    (twist_fraction, (0,), IndexOutOfRange, "twist index must be >= 1"),
    (stevedore_fraction, (0,), IndexOutOfRange, "stevedore index must be >= 1"),
    (fibonacci_fraction, (2,), IndexOutOfRange, "fibonacci index must be >= 3"),
    (kn_fraction, (1,), IndexOutOfRange, "kn index must be > 1"),
]


@pytest.mark.parametrize("call, args, error, message", _REFUSALS,
                         ids=[f"{call.__name__}{args}" for call, args, *_ in _REFUSALS])
def test_non_int_inputs_are_refused(call, args, error, message):
    with pytest.raises(ChebknotError) as caught:
        call(*args)
    assert type(caught.value) is error and str(caught.value) == message


def test_family_crossing_numbers():
    for n in range(1, 11):
        assert crossing_number(torus_fraction(n)) == 2 * n + 1
        assert crossing_number(twist_fraction(n)) == n + 2
    for n in range(2, 11):
        assert crossing_number(kn_fraction(n)) == n + 4
    assert crossing_number(stevedore_fraction(1)) == 6


def test_kn_residue_law():
    # beta_n^2 = (-1)^(n+1) mod alpha_n
    for n in range(2, 21):
        frac = kn_fraction(n)
        alpha, beta = frac.num, frac.den
        assert alpha == 5 * fibonacci(n + 1)
        assert beta == fibonacci(n + 1) + fibonacci(n - 1)
        want = 1 if (n + 1) % 2 == 0 else alpha - 1
        assert (beta * beta) % alpha == want


def test_kn_component_split():
    for n in range(2, 21):
        frac = kn_fraction(n)
        assert frac.is_knot == (n % 3 != 2)
