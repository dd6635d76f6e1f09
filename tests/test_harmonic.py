"""Harmonic knot forms, crossing-sign closed forms, and classification."""

from __future__ import annotations

from dataclasses import replace
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import a3_table_check, classical_euclid_oracle
from chebknot.bridge import canonicalize, equivalent, Equivalence
from chebknot.contfrac import Fraction, eval_cf, fibonacci
from chebknot.errors import (
    ADifferentFrom3,
    BadLambda,
    BDivisibleBy3,
    IndexOutOfRange,
    InvalidForm,
    IsLink,
    NotPairwiseCoprime,
    TrivialKnot,
)
from chebknot.harmonic import (
    HarmonicSpec,
    classify,
    closed_form_crossing_indices,
    crossing_sign_closed_form,
    harmonic_conway,
    is_harmonic_candidate,
    mirror_equivalent_c,
)
from chebknot.oracle import ChebyshevHeight, measure_crossings, recover_knot


def test_harmonic_spec_validation():
    HarmonicSpec(3, 5, 7)
    with pytest.raises(NotPairwiseCoprime):
        HarmonicSpec(3, 6, 7)
    with pytest.raises(NotPairwiseCoprime):
        HarmonicSpec(3, 4, 8)


def test_harmonic_conway_worked_examples():
    form = harmonic_conway(5, 1)
    assert form.signs == (1, 1, 1, 1)
    assert eval_cf(form.signs) == Fraction(5, 3)

    # b = 3n+1 with lam = n, here n = 2: period-3 alternation
    form = harmonic_conway(7, 2)
    assert form.signs == (1, 1, 1, -1, -1, -1)
    assert eval_cf(form.signs) == Fraction(5, 4)

    form = harmonic_conway(7, 1)
    assert form.signs == (1,) * 6
    assert eval_cf(form.signs) == Fraction(13, 8)
    assert (fibonacci(7), fibonacci(6)) == (13, 8)


def test_harmonic_conway_validation():
    with pytest.raises(BDivisibleBy3):
        harmonic_conway(9, 1)
    with pytest.raises(BadLambda):
        harmonic_conway(7, 0)
    with pytest.raises(BadLambda):
        harmonic_conway(7, 4)  # 2*lam >= b
    with pytest.raises(BadLambda):
        harmonic_conway(8, 2)  # shares a factor


def test_harmonic_conway_is_one_regular_with_lam_minus_1_changes():
    for b in range(4, 41):
        if b % 3 == 0:
            continue
        for lam in range(1, (b + 1) // 2):
            if gcd(lam, b) != 1 or 2 * lam >= b:
                continue
            form = harmonic_conway(b, lam)
            t = form.signs
            changes = sum(1 for i in range(len(t) - 1) if t[i] * t[i + 1] < 0)
            assert changes == lam - 1
            # crossing number b - lam via the change-count formula
            assert len(t) - changes == b - lam


def test_closed_form_signs_worked_examples():
    assert crossing_sign_closed_form(7, 1, "A", 0) == 1
    assert crossing_sign_closed_form(7, 1, "C", 1) == -1
    with pytest.raises(IndexOutOfRange):
        crossing_sign_closed_form(7, 1, "A", 2)
    with pytest.raises(IndexOutOfRange):
        crossing_sign_closed_form(7, 1, "X", 0)
    # b = 3n + 2 has the same formulas and one more A, A_n; only 3 | b is refused
    for lam, c, measured in ((1, 13, [1, -1, 1, -1, 1, -1, 1]), (3, 7, [1, -1, -1, 1, -1, -1, 1])):
        assert [crossing_sign_closed_form(8, lam, "ABC"[i % 3], i // 3) for i in range(7)] == measured
        assert [x.d_sign for x in measure_crossings(3, 8, ChebyshevHeight(c)).crossings] == measured
    with pytest.raises(IndexOutOfRange):
        crossing_sign_closed_form(8, 1, "B", 2)
    with pytest.raises(IndexOutOfRange):
        crossing_sign_closed_form(8, 1, "A", 3)
    with pytest.raises(IndexOutOfRange):
        crossing_sign_closed_form(8, 1, "A", -1)
    for b in (6, 9, 12):
        with pytest.raises(BDivisibleBy3):
            crossing_sign_closed_form(b, 1, "A", 0)


def test_closed_form_matches_conway_parity_rule():
    # D at decreasing-x position i recovers the Conway sign sign(sin(i*theta))
    for b in range(4, 41):
        if b % 3 == 0:
            continue
        for lam in range(1, (b + 1) // 2):
            if gcd(lam, b) != 1 or 2 * lam >= b:
                continue
            form = harmonic_conway(b, lam)
            # slot i is A_k, B_k or C_k with k = i // 3, A_n last for b = 3n + 2
            for i in range(b - 1):
                d = crossing_sign_closed_form(b, lam, "ABC"[i % 3], i // 3)
                conway = d if i % 2 == 0 else -d
                assert conway == form.signs[i], (b, lam, i)


def test_closed_form_crossing_indices_match_geometry():
    from chebknot.diagram import enumerate_crossings

    for b in (7, 10, 13, 16):
        n = (b - 1) // 3
        pts = enumerate_crossings(3, b)
        for k in range(n):
            for point, i in (("A", 3 * k + 1), ("B", 3 * k + 2), ("C", 3 * k + 3)):
                k_idx, h_idx = closed_form_crossing_indices(b, point, k)
                p = pts[i - 1]
                assert (p.k, p.h) == (k_idx, h_idx)


@a3_table_check
def _closed_form_indices_are_the_table_order(b: int, rows: list) -> None:
    # A_k, B_k, C_k sit at slots 3k, 3k + 1, 3k + 2; for b = 3n + 2, A_n is
    # last.  Every label below b = 300; beyond, the ends and the middle of
    # each family, whose h runs by one per k.
    for offset, point in enumerate("ABC"):
        count = len(rows[offset::3])
        ks = range(count) if b < 300 else sorted({0, 1, count // 2, count - 2, count - 1})
        for k in ks:
            h, k_index, *_ = rows[offset + 3 * k]
            assert closed_form_crossing_indices(b, point, k) == (k_index, h), (b, point, k)


def test_closed_form_crossing_indices_are_the_crossing_table_order(a3_table_sweep):
    a3_table_sweep(_closed_form_indices_are_the_table_order)


@pytest.mark.parametrize(
    "b, point, k",
    [(9, "A", 0), (7, "A", 2), (7, "B", -1), (8, "A", 3), (8, "B", 2), (8, "C", 2), (7, "X", 0), (3, "C", 0),
     (7, "A", 0.5), (7, "A", 1.0), (7, "A", True)],
)
def test_closed_form_crossing_indices_refuse_what_is_not_a_crossing(b, point, k):
    with pytest.raises(BDivisibleBy3 if b % 3 == 0 else IndexOutOfRange):
        closed_form_crossing_indices(b, point, k)
    with pytest.raises(BDivisibleBy3 if b % 3 == 0 else IndexOutOfRange):
        crossing_sign_closed_form(b, 1, point, k)


NON_INT_CALLS = [
    (closed_form_crossing_indices, (4.0, "A", 0), InvalidForm),
    (crossing_sign_closed_form, (4.0, 1, "A", 0), InvalidForm),
    (crossing_sign_closed_form, (7, 2.0, "A", 0), BadLambda),
    (harmonic_conway, (4.0, 1), InvalidForm),
    (harmonic_conway, (7, 2.0), BadLambda),
    (harmonic_conway, (7, True), BadLambda),
    (harmonic_conway, (6, 1.0), BDivisibleBy3),  # b is checked first, as for ints
    (HarmonicSpec, (3, 4.0, 5), NotPairwiseCoprime),
    (HarmonicSpec, (3, True, 5), NotPairwiseCoprime),
    (mirror_equivalent_c, (3, 4.0, 5), NotPairwiseCoprime),
]


@pytest.mark.parametrize(
    "call, args, error", NON_INT_CALLS, ids=[f"{call.__name__}{args}" for call, args, _ in NON_INT_CALLS]
)
def test_harmonic_entry_points_refuse_non_ints(call, args, error):
    with pytest.raises(error):
        call(*args)


@pytest.mark.parametrize("point", ["a", "", None])
def test_closed_forms_refuse_labels_other_than_a_b_c(point):
    with pytest.raises(IndexOutOfRange):
        closed_form_crossing_indices(7, point, 0)
    with pytest.raises(IndexOutOfRange):
        crossing_sign_closed_form(7, 1, point, 0)
    # lambda is checked before the label
    with pytest.raises(BadLambda):
        crossing_sign_closed_form(8, 2, point, 0)


def test_mirror_equivalent_c_examples():
    assert mirror_equivalent_c(3, 5, 13) == 7
    assert mirror_equivalent_c(3, 4, 5) is None
    assert mirror_equivalent_c(3, 7, 19) is None
    with pytest.raises(NotPairwiseCoprime):
        mirror_equivalent_c(3, 6, 5)


def test_mirror_equivalent_c_satisfies_congruences():
    import random

    rng = random.Random(11)
    found = 0
    while found < 10:
        b = rng.randrange(4, 40)
        c = rng.randrange(4, 120)
        if b % 3 == 0 or c % 3 == 0 or gcd(b, c) != 1:
            continue
        cp = mirror_equivalent_c(3, b, c)
        if cp is None:
            continue
        assert 0 < cp < c
        assert (cp - c) % 6 == 0 and (cp + c) % (2 * b) == 0
        found += 1


def test_classify_chain_example():
    canon = classify(HarmonicSpec(3, 31, 43))
    assert (canon.b_prime, canon.c_prime) == (5, 7)
    assert canon.crossing_number == 4
    assert canon.fraction == Fraction(5, 3)
    assert canon.mirror is False
    assert canon.amphicheiral


def test_classify_swap_case():
    canon = classify(HarmonicSpec(3, 8, 7))
    assert (canon.b_prime, canon.c_prime) == (7, 8)
    assert canon.mirror is True
    assert canon.fraction == Fraction(5, 4)


def test_classify_fixed_point():
    canon = classify(HarmonicSpec(3, 5, 7))
    assert (canon.b_prime, canon.c_prime, canon.mirror) == (5, 7, False)
    assert canon.crossing_number == 4


def test_classify_idempotent_on_canonical_pairs():
    for b in range(4, 31):
        if b % 3 == 0:
            continue
        for c in range(b + 1, min(2 * b, 31)):
            if c % 3 == 0 or gcd(b, c) != 1 or (b + c) % 3 != 0:
                continue
            canon = classify(HarmonicSpec(3, b, c))
            assert (canon.b_prime, canon.c_prime, canon.mirror) == (b, c, False)
            # crossing number is (b + c) / 3
            assert canon.crossing_number == (b + c) // 3
            # the fraction satisfies beta^2 = +-1 mod alpha
            a_, b_ = canon.fraction.num, canon.fraction.den
            assert (b_ * b_) % a_ in (1 % a_, (a_ - 1) % a_)


def test_classify_torus_family():
    # the pair (3n+2, 3n+1) swaps to the canonical (3n+1, 3n+2) with the
    # mirror flag set; the canonical fraction is (2n+1)/(2n)
    for n in range(1, 11):
        canon = classify(HarmonicSpec(3, 3 * n + 2, 3 * n + 1))
        assert (canon.b_prime, canon.c_prime) == (3 * n + 1, 3 * n + 2)
        assert canon.mirror is True
        assert canon.fraction == Fraction(2 * n + 1, 2 * n)
        assert canon.crossing_number == 2 * n + 1
        # the canonical knot is the mirror of the (2n+1)-torus knot
        rel = equivalent(
            canonicalize(canon.fraction.num, canon.fraction.den),
            canonicalize(2 * n + 1, 1),
        )
        assert rel is Equivalence.MIRROR


def test_classify_fibonacci_family():
    for b in range(4, 31):
        if b % 3 == 0:
            continue
        form = harmonic_conway(b, 1)
        assert form.signs == (1,) * (b - 1)
        assert eval_cf(form.signs) == Fraction(fibonacci(b), fibonacci(b - 1))


def test_classify_distinct_canonical_pairs_are_distinct_knots():
    seen: dict[tuple[int, int], tuple[int, int]] = {}
    for b in range(4, 31):
        if b % 3 == 0:
            continue
        for c in range(b + 1, min(2 * b, 31)):
            if c % 3 == 0 or gcd(b, c) != 1 or (b + c) % 3 != 0:
                continue
            frac = classify(HarmonicSpec(3, b, c)).fraction
            knot = canonicalize(frac.num, frac.den)
            key = (knot.alpha, knot.beta)  # chirality-free class
            assert key not in seen, f"pairs {seen[key]} and {(b, c)} collide"
            seen[key] = (b, c)


def test_classify_rejects_bad_specs():
    with pytest.raises(ADifferentFrom3):
        classify(HarmonicSpec(4, 5, 7))
    with pytest.raises(NotPairwiseCoprime):
        classify(HarmonicSpec(3, 10, 15))


def test_classify_trivial_cases():
    with pytest.raises(TrivialKnot):
        classify(HarmonicSpec(3, 1, 2))
    with pytest.raises(TrivialKnot):
        classify(HarmonicSpec(3, 4, 7))  # reduces to a height-1 curve
    with pytest.raises(TrivialKnot):
        classify(HarmonicSpec(3, 2, 5))


def test_classify_terminates_and_preserves_knot_under_double_application():
    for b in range(4, 25):
        if b % 3 == 0:
            continue
        for c in range(4, 35):
            if c % 3 == 0 or gcd(b, c) != 1:
                continue
            try:
                canon = classify(HarmonicSpec(3, b, c))
            except TrivialKnot:
                continue
            again = classify(HarmonicSpec(3, canon.b_prime, canon.c_prime))
            assert (again.b_prime, again.c_prime) == (canon.b_prime, canon.c_prime)
            assert again.mirror is False


def test_is_harmonic_candidate():
    assert is_harmonic_candidate(canonicalize(5, 3)) is True
    assert is_harmonic_candidate(canonicalize(9, 2)) is False
    for m in range(3, 51):
        assert is_harmonic_candidate(canonicalize(2 * m + 1, 2)) is False
    assert is_harmonic_candidate(canonicalize(3, 1)) is True
    assert is_harmonic_candidate(canonicalize(5, 2)) is True
    with pytest.raises(IsLink):
        is_harmonic_candidate(canonicalize(4, 1))


# ---------------------------------------------------------------------------
# Division-based reduction and CRT mirror degree against references
# ---------------------------------------------------------------------------

def _mirror_equivalent_c_search(a: int, b: int, c: int) -> int | None:
    """The O(b) search that mirror_equivalent_c replaced, kept as a reference."""
    base = c % (2 * a)
    target = (-c) % (2 * b)
    sol = None
    for t in range(b):
        cand = base + 2 * a * t
        if cand % (2 * b) == target:
            sol = cand % (2 * a * b)
            if sol == 0:
                sol = 2 * a * b
            break
    if sol is None:
        return None
    return sol if 0 < sol < c else None


def test_mirror_equivalent_c_matches_search():
    checked = 0
    for a in range(1, 8):
        for b in range(1, 121):
            if gcd(a, b) != 1:
                continue
            for c in range(1, 121):
                if gcd(a, c) != 1 or gcd(b, c) != 1:
                    continue
                assert mirror_equivalent_c(a, b, c) == _mirror_equivalent_c_search(a, b, c), (a, b, c)
                checked += 1
    assert checked > 30_000


def _subtraction_reduction(b: int, c: int):
    """One move per step, no cap: (b', c', mirror), or None for the unknot."""
    mirror = False
    while True:
        if b == 1 or c == 1:
            return None
        if c < b:
            b, c = c, b
        elif b % 3 == c % 3:
            c = abs(2 * b - c)
        elif c > 2 * b:
            c = abs(4 * b - c)
        else:
            return b, c, mirror
        mirror = not mirror


def test_classify_equals_subtraction_loop():
    for b in range(1, 201):
        if b % 3 == 0:
            continue
        for c in range(1, 201):
            if c % 3 == 0 or gcd(b, c) != 1:
                continue
            want = _subtraction_reduction(b, c)
            if want is None:
                with pytest.raises(TrivialKnot):
                    classify(HarmonicSpec(3, b, c))
                continue
            canon = classify(HarmonicSpec(3, b, c))
            assert (canon.b_prime, canon.c_prime, canon.mirror) == want, (b, c)


def test_classify_large_degrees_take_no_steps_cap():
    canon = classify(HarmonicSpec(3, 4, 1000003))
    assert (canon.b_prime, canon.c_prime, canon.mirror) == (4, 5, False)
    # c = b + 3 walks down by 3 per two moves: about 7e17 moves one at a time
    with pytest.raises(TrivialKnot):
        classify(HarmonicSpec(3, 10**18 + 1, 10**18 + 4))
    # only c mod 6b matters once c is large
    big = 7 + 6 * 5 * 10**40
    assert classify(HarmonicSpec(3, 5, big)) == replace(
        classify(HarmonicSpec(3, 5, 37)), spec=HarmonicSpec(3, 5, big)
    )


def test_classify_crossing_number_is_a_third_of_the_canonical_degrees():
    """b' + c' = 3N, with N the sum of the classical quotients of the canonical
    fraction by plain Euclid, on every admissible (b, c) below 150 and on a
    pair with N = 57,166."""
    pairs = [(b, c) for b in range(2, 150) for c in range(2, 150) if b % 3 and c % 3 and gcd(b, c) == 1]
    checked = 0
    for b, c in pairs + [(98609, 72889)]:
        try:
            canon = classify(HarmonicSpec(3, b, c))
        except TrivialKnot:
            continue
        n = sum(classical_euclid_oracle(abs(canon.fraction.num), abs(canon.fraction.den)))
        assert 3 * n == 3 * canon.crossing_number == canon.b_prime + canon.c_prime, (b, c)
        checked += 1
    assert checked > 4000 and n == 57166


def _oracle_knot(b: int, c: int):
    """The exactly measured curve (T_3, T_b, T_c), or None for the unknot."""
    try:
        return recover_knot(measure_crossings(3, b, ChebyshevHeight(c)))
    except TrivialKnot:
        return None


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(2, 300),
    c=st.one_of(st.integers(2, 10**9), st.integers(2, 40)),
)
@example(b=4, c=1000003)
@example(b=298, c=5)
def test_classify_matches_exact_oracle(b, c):
    assume(b % 3 != 0 and c % 3 != 0 and gcd(b, c) == 1)
    measured = _oracle_knot(b, c)
    try:
        canon = classify(HarmonicSpec(3, b, c))
    except TrivialKnot:
        assert measured is None, (b, c)
        return
    assert measured is not None, (b, c)
    expected = canonicalize(canon.fraction.num, canon.fraction.den)
    want = Equivalence.MIRROR if canon.mirror and not expected.amphicheiral else Equivalence.SAME
    assert equivalent(measured, expected) is want, (b, c)


def test_canonical_harmonic_to_json():
    rec = classify(HarmonicSpec(3, 31, 43)).to_json()
    assert list(rec) == [
        "a", "b", "c", "b_canon", "c_canon", "mirror", "alpha", "beta", "N", "amphicheiral"
    ]
    assert rec == {
        "a": 3, "b": 31, "c": 43, "b_canon": 5, "c_canon": 7, "mirror": False,
        "alpha": 5, "beta": 3, "N": 4, "amphicheiral": True,
    }


def test_classify_a_at_most_2_is_the_unknot():
    # x = T_a(t) with a <= 2 has at most one critical point: one bridge
    for a in (1, 2):
        with pytest.raises(TrivialKnot):
            classify(HarmonicSpec(a, 5, 7))
    with pytest.raises(ADifferentFrom3):
        classify(HarmonicSpec(4, 5, 7))
