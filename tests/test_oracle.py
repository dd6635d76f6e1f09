"""Measured curves versus symbolic predictions."""

from __future__ import annotations

import copy
import json
import math
import pickle
import random
from array import array
from bisect import bisect_left
from decimal import Decimal, localcontext
from functools import lru_cache
from itertools import count
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bench_inputs, fractions_with_crossing_number_up_to
from test_heights import _gap_list_twist_signs, _random_one_regular
import chebknot
from chebknot import cli, oracle
from chebknot.bridge import Equivalence, canonicalize, equivalent
from chebknot.contfrac import Fraction, crossing_number, fibonacci, is_amphicheiral
from chebknot.diagram import PARAMETER_ERROR, ConwayForm, _a3_events, enumerate_crossings, twist_sign
from chebknot.errors import AmbiguousCrossing, ChebknotError, NotTwoBridge, TrivialKnot
from chebknot.harmonic import (
    classify,
    crossing_sign_closed_form,
    harmonic_conway,
    HarmonicSpec,
)
from chebknot.heights import (
    HeightPolynomial,
    Parametrization,
    _twist_signs,
    build_height,
    gauss_sequence,
    parametrization,
)
from chebknot.oracle import (
    ChebyshevHeight,
    measure_crossings,
    recover_knot,
    verify_parametrization,
)
from chebknot.trig import chebyshev


def test_chebyshev_zdiff_sign_against_float_evaluation():
    """The exact integer strand-order signs agree with float heights."""
    from chebknot.diagram import enumerate_crossings

    for b in (5, 7, 8, 10, 11):
        for c in (5, 7, 11, 13):
            if gcd(b, c) != 1 or gcd(c, 3) != 1:
                continue
            z = ChebyshevHeight(c)
            for p in enumerate_crossings(3, b):
                numeric = z(p.t) - z(p.s)
                assert abs(numeric) > 1e-9
                assert z.zdiff_sign(3, b, p.h, p.k) == (1 if numeric > 0 else -1)


def test_chebyshev_margin_is_the_float_separation():
    """The margin from the sine identity is |T_c(t) - T_c(s)| up to rounding."""
    for a in (3, 4):
        for b in range(2, 60):
            if gcd(a, b) != 1:
                continue
            crossings = enumerate_crossings(a, b)
            for c in range(1, 41):
                z = ChebyshevHeight(c)
                for p in crossings:
                    if z.zdiff_sign(a, b, p.h, p.k) == 0:
                        continue
                    _, margin = z.decide_crossing(a, b, p)
                    assert margin == pytest.approx(abs(chebyshev(c, p.t) - chebyshev(c, p.s)), abs=1e-9)


def test_torus_seven_measured_form():
    sample = measure_crossings(3, 10, ChebyshevHeight(11, sign=-1))
    assert sample.conway_signs == (-1, -1, -1, 1, 1, 1, -1, -1, -1)
    knot = recover_knot(sample)
    assert knot == canonicalize(7, -6)
    assert equivalent(knot, canonicalize(7, 1)) is Equivalence.SAME


def test_trefoil_measured():
    sample = measure_crossings(3, 4, ChebyshevHeight(5))
    knot = recover_knot(sample)
    assert knot.alpha == 3
    assert equivalent(knot, canonicalize(3, 1)) is Equivalence.MIRROR


def test_figure_eight_measured():
    sample = measure_crossings(3, 5, ChebyshevHeight(7))
    assert sample.conway_signs == (1, 1, 1, 1)
    knot = recover_knot(sample)
    assert equivalent(knot, canonicalize(5, 3)) is Equivalence.SAME
    assert knot.amphicheiral


def test_measured_equals_closed_form_sweep():
    """Every crossing sign of every harmonic curve matches the prediction."""
    for b in range(4, 26):
        if b % 3 == 0:
            continue
        for c in range(4, 26):
            if c % 3 == 0 or gcd(b, c) != 1 or b % 3 == c % 3:
                continue
            lam = (2 * b - c) // 3
            sample = measure_crossings(3, b, ChebyshevHeight(c))
            # slot i is A_k, B_k or C_k with k = i // 3, A_n last for b = 3n + 2
            for i, crossing in enumerate(sample.crossings):
                assert crossing.d_sign == crossing_sign_closed_form(b, lam, "ABC"[i % 3], i // 3), (b, c, i)
            if 0 < 2 * lam < b:
                assert sample.conway_signs == harmonic_conway(b, lam).signs


def _assert_measured_matches_classification(b: int, c: int) -> None:
    sample = measure_crossings(3, b, ChebyshevHeight(c))
    measured = recover_knot(sample)
    canon = classify(HarmonicSpec(3, b, c))
    expected = canonicalize(canon.fraction.num, canon.fraction.den)
    rel = equivalent(measured, expected)
    if canon.mirror and not expected.amphicheiral:
        assert rel is Equivalence.MIRROR, (b, c)
    else:
        assert rel is Equivalence.SAME, (b, c)


def test_measured_agrees_with_classification():
    # the measured knot of H(3, b, c) equals the classified canonical knot,
    # mirrored exactly when the reduction crossed a mirror
    for b, c in ((4, 5), (5, 7), (7, 8), (8, 7), (10, 11), (11, 16), (13, 20), (31, 43)):
        _assert_measured_matches_classification(b, c)


def test_measured_agrees_with_classification_random_batch():
    from chebknot.errors import TrivialKnot

    rng = random.Random(41)
    done = 0
    while done < 30:
        b = rng.randrange(4, 60)
        c = rng.randrange(4, 90)
        if b % 3 == 0 or c % 3 == 0 or gcd(b, c) != 1:
            continue
        try:
            classify(HarmonicSpec(3, b, c))
        except TrivialKnot:
            # trivial curves have no canonical two-bridge class to compare
            continue
        _assert_measured_matches_classification(b, c)
        done += 1


def test_mirror_law_on_random_triples():
    rng = random.Random(23)
    found = 0
    while found < 10:
        b = rng.randrange(4, 30)
        c = rng.randrange(4, 90)
        if b % 3 == 0 or c % 3 == 0 or gcd(b, c) != 1:
            continue
        cp = c
        # a partner with cp = c mod 6 and cp = -c mod 2b is a mirror image
        for candidate in range(c % 6, 12 * b * 6, 6):
            if candidate > 0 and candidate != c and (candidate + c) % (2 * b) == 0 \
                    and gcd(candidate, b) == 1 and candidate % 3 != 0:
                cp = candidate
                break
        if cp == c:
            continue
        s1 = measure_crossings(3, b, ChebyshevHeight(c))
        s2 = measure_crossings(3, b, ChebyshevHeight(cp))
        assert s2.conway_signs == tuple(-x for x in s1.conway_signs)
        found += 1


def test_verify_parametrization_worked_examples():
    for text in ("7/2", "9/7", "3/1", "9/2", "5/3"):
        r = Fraction.parse(text)
        p = parametrization(r)
        assert verify_parametrization(r, p)


def test_verify_sweep_small():
    for alpha, beta, _ in fractions_with_crossing_number_up_to(8):
        if alpha % 2 == 0:
            continue
        r = Fraction(alpha, beta)
        assert verify_parametrization(r, parametrization(r))


def test_verify_parametrization_tells_a_knot_from_its_mirror():
    trefoil = parametrization(Fraction(3, 1))
    assert verify_parametrization(Fraction(3, 1), trefoil) is True
    assert verify_parametrization(Fraction(3, -2), trefoil) is True  # 3/-2 is 3/1: beta' = beta mod alpha
    assert verify_parametrization(Fraction(3, -1), trefoil) is False
    # 13/5 is amphicheiral (5^2 = -1 mod 13); 9/2 is chiral and its diagram is mirrored
    assert verify_parametrization(Fraction(13, -5), parametrization(Fraction(13, 5))) is True
    assert parametrization(Fraction(9, 2)).mirrored
    assert verify_parametrization(Fraction(9, -2), parametrization(Fraction(9, 2))) is False


def test_verify_parametrization_refuses_what_is_not_a_fraction():
    # the curve stays duck-typed; the knot it is checked against must be a Fraction
    p = parametrization(Fraction(9, 2))
    for r in ("9/2", (9, 2), 9, None):
        with pytest.raises(ChebknotError, match="need a Fraction"):
            verify_parametrization(r, p)


@pytest.mark.parametrize(
    "entry",
    ["parametrization", "minimal_diagram", "regular_expansion", "classical_expansion",
     "crossing_number", "conjugate_fractions", "palindromy_report", "is_minimal_by_word"],
)
def test_the_chain_entries_refuse_what_is_not_a_fraction(entry):
    # the first four check; the last four reach a check through them
    call = getattr(chebknot, entry)
    for r in ("9/2", (9, 2), 9, None):
        with pytest.raises(ChebknotError, match="need a Fraction"):
            call(r)
    call(Fraction(9, 2))


@pytest.mark.parametrize(
    "entry, record",
    [("gauss_sequence", "ConwayForm"), ("build_height", "GaussSequence"),
     ("count_sign_changes", "GaussSequence"), ("recover_knot", "CurveSample")],
)
def test_the_record_entries_refuse_what_is_not_their_record(entry, record):
    # a tuple or None raised a bare AttributeError, and a record with the same
    # field names (a ConwayForm's b and signs read as a GaussSequence's) gave a wrong answer
    form = chebknot.minimal_diagram(Fraction(9, 2)).form
    g = gauss_sequence(form)
    sample = measure_crossings(3, form.b, build_height(g))
    good = {"ConwayForm": form, "GaussSequence": g, "CurveSample": sample}
    call = getattr(chebknot, entry)
    for value in ((1, -1), None, *(v for name, v in good.items() if name != record)):
        with pytest.raises(ChebknotError, match=f"need a {record}, not "):
            call(value)
    call(good[record])


def test_same_knot_congruences_match_the_canonical_forms(monkeypatch):
    """verify_parametrization decides "same knot" by two congruences mod
    alpha; canonicalize and equivalent are the reference.  The measured
    pair (p, q) is fed in through eval_cf_projective, p of either sign."""
    measured = []
    monkeypatch.setattr(oracle, "_twist_signs", lambda height: [])
    monkeypatch.setattr(oracle, "eval_cf_projective", lambda signs: measured[0])
    curve = SimpleNamespace(b=5, height=SimpleNamespace(b=5))
    cases = 0
    for alpha in range(2, 50):
        residues = [q for q in range(-2 * alpha + 1, 2 * alpha) if gcd(alpha, q) == 1]
        for beta in residues:
            r, expected = Fraction(alpha, beta), canonicalize(alpha, beta)
            for q in residues:
                for p in (alpha, -alpha):
                    measured[:] = [(p, q)]
                    reference = equivalent(canonicalize(alpha, q if p > 0 else -q), expected)
                    assert verify_parametrization(r, curve) is (reference is Equivalence.SAME), (r, p, q)
                    cases += 1
    assert cases == 575_264
    measured[:] = [(9, 1)]
    assert verify_parametrization(Fraction(3, 1), curve) is False  # 9/1 is not 3/1, though 1 = 1 mod 3


def test_cli_verdict_is_verify_parametrization(capsys, monkeypatch):
    def verdict(text):
        assert cli.main(["verify", text, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["verdict"]

    census = [(alpha, beta) for alpha, beta, _ in fractions_with_crossing_number_up_to(12) if alpha % 2]
    for alpha, beta in census[::17]:
        r = Fraction(alpha, beta)
        assert verdict(str(r)) is verify_parametrization(r, parametrization(r)) is True, r
    monkeypatch.setattr(cli, "verify_parametrization", lambda r, p: False)
    assert verdict("9/2") is False


def test_measured_unknot_is_trivial_knot():
    with pytest.raises(TrivialKnot):
        classify(HarmonicSpec(3, 2, 5))
    with pytest.raises(TrivialKnot):
        recover_knot(measure_crossings(3, 2, ChebyshevHeight(5)))


def test_measured_form_round_trips_the_emitted_form():
    for text in ("9/2", "9/7", "7/2", "11/4", "13/5"):
        r = Fraction.parse(text)
        p = parametrization(r)
        sample = measure_crossings(3, p.b, p.height)
        assert sample.conway_signs == p.form.signs


def test_measure_crossings_refuses_a_callable():
    # no float floor: a height that cannot decide its own crossings is refused
    # as an input, not measured and found ambiguous
    for z in (lambda t: 0.0, lambda t: math.nan, math.cos, HeightPolynomial((0.5,), 1).__call__):
        with pytest.raises(ChebknotError, match="must decide its own crossings") as info:
            measure_crossings(3, 4, z)
        assert not isinstance(info.value, AmbiguousCrossing)


def test_constant_height_is_ambiguous():
    # |z| = 1 at every parameter: the two enclosures meet at every crossing
    with pytest.raises(AmbiguousCrossing, match="overlap"):
        measure_crossings(3, 4, HeightPolynomial((), 1))


def test_chebyshev_height_shared_factor_is_ambiguous():
    with pytest.raises(AmbiguousCrossing):
        measure_crossings(3, 10, ChebyshevHeight(5))  # gcd(5, 10) > 1


def test_recover_requires_a_equal_3():
    sample = measure_crossings(4, 5, ChebyshevHeight(7))
    with pytest.raises(NotTwoBridge):
        recover_knot(sample)


def test_report_schema():
    sample = measure_crossings(3, 5, ChebyshevHeight(7))
    report = sample.to_report()
    assert report["a"] == 3 and report["b"] == 5 and report["z"] == "T_7"
    assert len(report["crossings"]) == 4
    entry = report["crossings"][0]
    assert set(entry) == {"h", "k", "t", "s", "D_sign", "conway_sign"}


def test_min_separation_reported():
    p = parametrization(Fraction(9, 2))
    sample = measure_crossings(3, p.b, p.height)
    assert sample.min_separation > 1e-6


# Constructions the float floor refused, N = 16 to N = 76,754: every
# crossing has strands of opposite signs, decided by counting roots.
@pytest.mark.parametrize(
    "alpha, beta",
    [
        (fibonacci(17), fibonacci(16)),
        (35, 2),
        (21, 1),
        (2001, 1),
        (fibonacci(1201), fibonacci(1200)),
        (10**9 + 7, 123456789),
    ],
    ids=["F17/F16", "35/2", "21/1", "2001/1", "F1201/F1200", "1000000007/123456789"],
)
def test_root_count_verifies_large_constructions(alpha, beta):
    r = Fraction(alpha, beta)
    assert verify_parametrization(r, parametrization(r))


@st.composite
def _large_knot_fractions(draw):
    alpha = draw(st.integers(10**3, 10**30)) | 1
    beta = draw(st.integers(1, alpha - 1))
    assume(gcd(alpha, beta) == 1)
    r = Fraction(alpha, beta)
    assume(crossing_number(r) <= 3000)
    return r


@settings(max_examples=60, deadline=None)
@given(r=_large_knot_fractions())
def test_verify_parametrization_large_numerators(r):
    assert verify_parametrization(r, parametrization(r))


def test_same_sign_strands_are_decided_by_enclosures():
    # z = (t + 0.5)(t - 0.2)(t - 0.6): at the crossings 1, 4 and 6 both
    # strands have one sign, so exact enclosures of |z(t)| and |z(s)| decide there
    z = HeightPolynomial((-0.5, 0.2, 0.6), 1)
    sample = measure_crossings(3, 7, z)
    assert sample.conway_signs == (1, -1, 1, 1, -1, 1)
    for c in sample.crossings:
        assert c.zdiff_sign == (1 if z(c.t) > z(c.s) else -1)
    same = [(z(c.t) > 0) == (z(c.s) > 0) for c in sample.crossings]
    assert same == [True, False, False, True, False, True]


def test_a_same_sign_crossing_within_rounding_error_is_refused():
    # at crossing (2, 1) |z| is about 3.6e7 and the true z(t) - z(s) about
    # +4.5e-10 (80 digits), while the floats give -7.45e-9: no absolute floor
    # could tell them apart, and the enclosures of |z(t)| and |z(s)| overlap
    roots = (-29.688255099070634, -19.688255099070634, -9.688255099070632,
             10.311744900929368, 20.311744900929366, 30.311744900929366)
    with pytest.raises(AmbiguousCrossing, match=r"overlap .* at crossing \(2, 1\)"):
        measure_crossings(3, 7, HeightPolynomial(roots, 1))


# ---------------------------------------------------------------------------
# every answered decision against 100-digit decimal truth
# ---------------------------------------------------------------------------

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534211706798")


@lru_cache(maxsize=None)
def _true_parameter(m: int, ab: int) -> Decimal:
    """cos(m*pi/ab) to 100 digits by its Taylor series."""
    with localcontext() as ctx:
        ctx.prec = 100
        x2 = (_PI * m / ab) ** 2
        term = total = Decimal(1)
        for k in count(2, 2):
            term = -term * x2 / (k * (k - 1))
            if abs(term) < Decimal(10) ** -110:
                return +total
            total += term


def _true_heights(height: HeightPolynomial, a: int, b: int, row) -> tuple[Decimal, Decimal]:
    """z at the true t and s of the row, to 100 digits, with each root as its exact float."""
    with localcontext() as ctx:
        ctx.prec = 100
        roots = [Decimal(r) for r in height.roots]
        return tuple(height.leading_sign * math.prod((_true_parameter(m, a * b) - r for r in roots), start=Decimal(1))
                     for m in (row.m_t, row.m_s))


def _answered_same_sign(height: HeightPolynomial, a: int, b: int) -> int:
    """Checks every decision the height answers against decimal truth and
    counts those whose two strands have one sign; refusals are skipped."""
    same_sign = 0
    for row in enumerate_crossings(a, b):
        try:
            zdiff, _ = height.decide_crossing(a, b, row)
        except AmbiguousCrossing:
            continue
        zt, zs = _true_heights(height, a, b, row)
        assert zdiff == (1 if zt > zs else -1), (height.roots, b, row)
        same_sign += (zt > 0) == (zs > 0)
    return same_sign


@st.composite
def _near_tie_heights(draw):
    """Pairs of roots symmetric about a crossing's midpoint make |z(t)| = |z(s)|
    there; one root of a pair moved by a few ulps leaves a tiny true difference."""
    b = draw(st.integers(4, 25).filter(lambda b: b % 3))
    row = draw(st.sampled_from(enumerate_crossings(3, b)))
    mid = (row.t + row.s) / 2
    roots = []
    for d in draw(st.lists(st.floats(1e-3, 40.0), min_size=1, max_size=3)):  # far roots make |z| large
        roots += [mid - d, mid + d]
    i, ulps = draw(st.integers(0, len(roots) - 1)), draw(st.integers(-40, 40))
    roots[i] += ulps * math.ulp(roots[i])
    roots += draw(st.lists(st.floats(-1.5, 1.5), max_size=4))
    return HeightPolynomial(roots, draw(st.sampled_from((1, -1)))), b


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(
    st.tuples(st.builds(HeightPolynomial, st.lists(st.floats(-1.5, 1.5), max_size=8), st.sampled_from((1, -1))),
              st.integers(2, 25).filter(lambda b: b % 3)),
    _near_tie_heights(),
))
def test_answered_decisions_match_decimal_truth(case):
    height, b = case
    _answered_same_sign(height, 3, b)


def test_a_degree_300_height_is_decided_against_decimal_truth():
    rng = random.Random(300)
    height = HeightPolynomial([rng.uniform(-1, 1) for _ in range(300)], 1)
    assert _answered_same_sign(height, 3, 401) > 100


def test_root_at_a_crossing_parameter_is_ambiguous():
    t = enumerate_crossings(3, 7)[2].t
    for root in (t, math.nextafter(t, 2.0), t - PARAMETER_ERROR):
        with pytest.raises(AmbiguousCrossing):
            measure_crossings(3, 7, HeightPolynomial((-0.5, root), 1))
    # a root just beyond the bound leaves the crossing decided
    measure_crossings(3, 7, HeightPolynomial((-0.5, t + 2 * PARAMETER_ERROR), 1))


# sorted() leaves (0.1, nan) unordered, and the root count relies on the order
@pytest.mark.parametrize(
    "roots",
    [(math.nan,), (math.inf,), (-math.inf,), (0.1, math.nan)],
    ids=["nan", "inf", "-inf", "nan-after-0.1"],
)
def test_height_polynomial_refuses_a_root_that_is_not_finite(roots):
    with pytest.raises(ChebknotError):
        HeightPolynomial(roots, 1)


def test_height_polynomial_refuses_a_bool_leading_sign():
    with pytest.raises(ChebknotError):
        HeightPolynomial((0.1,), True)


def test_height_polynomial_takes_only_roots_and_a_leading_sign():
    # gap heights come from parametrization and build_height alone
    with pytest.raises(TypeError):
        HeightPolynomial((0.5,), 1, 8, (1,))


def test_chebyshev_height_checks_its_input():
    for c, sign in ((7, 2), (7, 0), (0, 1), (-5, 1), (5, True)):
        with pytest.raises(ChebknotError) as info:
            ChebyshevHeight(c, sign)
        assert not isinstance(info.value, AmbiguousCrossing)
    assert measure_crossings(3, 5, ChebyshevHeight(7, sign=-1)).conway_signs == (-1, -1, -1, -1)


def test_chebyshev_height_needs_an_integer_degree():
    # the sine identity behind decide_crossing holds for integer c only;
    # True would build T_1 and label it T_True
    for c in (5.5, 7.0, True):
        with pytest.raises(ChebknotError):
            ChebyshevHeight(c)


# ---------------------------------------------------------------------------
# constructed heights decided by integer gap counts
# ---------------------------------------------------------------------------

def _float_twin(height: HeightPolynomial) -> HeightPolynomial:
    """The same roots and sign with no gaps: decided by the float root rule."""
    return HeightPolynomial(height.roots, height.leading_sign)


def test_gap_decisions_equal_the_float_rule_on_the_census():
    for alpha, beta, _ in bench_inputs().census_order(7):
        p = parametrization(Fraction(alpha, beta))
        by_gaps = measure_crossings(3, p.b, p.height).crossings
        assert by_gaps == measure_crossings(3, p.b, _float_twin(p.height)).crossings, (alpha, beta)


@pytest.mark.parametrize("seed", [7, 101, 303])
def test_gap_decisions_equal_the_float_rule_on_giants(seed):
    for alpha, beta, *_ in bench_inputs().giants(seed):
        p = parametrization(Fraction(alpha, beta))
        by_gaps = tuple(_twist_signs(p.height))
        assert by_gaps == measure_crossings(3, p.b, _float_twin(p.height)).conway_signs, (alpha, beta)


def _reference_twist_signs(height: HeightPolynomial) -> list[int]:
    """The twist signs of a height with gaps on its own C(3, b) by one pass
    over the enumerate_crossings rows, two bisect_left calls a row: the loop
    verify_parametrization replaced with the three-family slices."""
    gaps, lead, signs = height.gaps, height.leading_sign, []
    for i, (h, k, m_t, m_s, _, _, xy) in enumerate(enumerate_crossings(3, height.b)):
        above = bisect_left(gaps, m_t)  # roots above the parameter of m_t
        if (above - bisect_left(gaps, m_s)) % 2 == 0:
            raise AmbiguousCrossing(f"both strands of z have one sign at crossing {(h, k)}")
        signs.append(twist_sign(i, (lead if above % 2 == 0 else -lead) * xy))
    return signs


def _gap_list_reading(height: HeightPolynomial) -> list[int]:
    """The gap-list twist-sign reference of test_heights, on the height's derived gaps."""
    return _gap_list_twist_signs(height.leading_sign, height.b, height.gaps)


def _refusal(read, height: HeightPolynomial) -> str:
    with pytest.raises(AmbiguousCrossing) as info:
        read(height)
    return str(info.value)


@settings(max_examples=100, deadline=None)
@given(b=st.integers(2, 2999), seed=st.integers(0, 2**32))
def test_slice_twist_signs_equal_the_row_loop(b, seed):
    assume(b % 3)
    rng = random.Random(seed)
    form = ConwayForm(_random_one_regular(rng, b - 1), b)
    g = gauss_sequence(form)
    height = build_height(g)
    twists = _twist_signs(height)
    assert type(twists) is array and twists.typecode == "b"
    assert list(twists) == _reference_twist_signs(height) == _gap_list_reading(height) == list(form.signs)
    moved = _moved_root(height, rng.randrange(height.degree), rng.choice((1, -1)))
    if moved is not None:
        refusal = _refusal(_twist_signs, moved)
        assert refusal == _refusal(_reference_twist_signs, moved) == _refusal(_gap_list_reading, moved)


@st.composite
def _knot_fractions_to_10_12(draw):
    alpha = draw(st.integers(3, 10**12)) | 1
    beta = draw(st.integers(1, alpha - 1))
    assume(gcd(alpha, beta) == 1)
    r = Fraction(alpha, beta)
    assume(crossing_number(r) <= 3000)
    return r


@settings(max_examples=40, deadline=None)
@given(r=_knot_fractions_to_10_12())
def test_constructions_verify_and_keep_the_degree_identity(r):
    p = parametrization(r)
    assert verify_parametrization(r, p) is True
    assert p.b + p.height.degree == 3 * crossing_number(r) == 3 * p.crossing_number


def _census_to(max_n: int):
    for alpha, beta, _ in fractions_with_crossing_number_up_to(max_n):
        if alpha % 2:
            yield Fraction(alpha, beta)


def _with_height(p: Parametrization, height: HeightPolynomial) -> Parametrization:
    return Parametrization(p.b, height, p.crossing_number, p.form, p.mirrored)


def _gap_height(leading_sign: int, b: int, gaps) -> HeightPolynomial:
    """The gap height of a gap list: its bitmap is 0xfe at each gap and 0 elsewhere."""
    by_m = bytearray(3 * b - 1)
    for m in gaps:
        by_m[m] = 0xFE
    return HeightPolynomial._of_gaps(leading_sign, b, bytes(by_m))


def _moved_root(height: HeightPolynomial, j: int, step: int) -> HeightPolynomial | None:
    """height with root j moved into the neighbouring gap, one event up
    (step = 1) or down (step = -1); None when no gap lies there.  Moved
    into the gap of another root, it cancels that root, as (t - r)^2 has
    no sign change, and both go: a height's gaps are distinct."""
    gaps, ms = list(height.gaps), list(_a3_events(height.b))
    i = ms.index(gaps[j]) + step
    if not 0 <= i <= len(ms) - 2:  # the last gap an event opens
        return None
    gaps[j] = ms[i]
    if gaps.count(ms[i]) == 2:
        gaps = [m for m in gaps if m != ms[i]]
    return _gap_height(height.leading_sign, height.b, gaps)


def test_a_root_moved_to_a_neighbouring_gap_is_refused():
    planted = 0
    for r in _census_to(9):
        p = parametrization(r)
        for j in range(p.height.degree):
            for step in (1, -1):
                height = _moved_root(p.height, j, step)
                if height is None:
                    continue
                # exactly one event changes sign, so its crossing has strands of one sign
                by_slices = _refusal(lambda z: verify_parametrization(r, _with_height(p, z)), height)
                # decide_crossing's exact branch, and the gap-list rule
                assert by_slices == _refusal(lambda z: measure_crossings(3, p.b, z), height)
                assert by_slices == _refusal(_gap_list_reading, height)
                planted += 1
    assert planted > 4000


def test_heights_without_gaps_get_the_same_verdicts():
    for r in _census_to(10):
        p = parametrization(r)
        twin = _with_height(p, _float_twin(p.height))  # certified by measure_crossings
        assert verify_parametrization(r, twin) is verify_parametrization(r, p) is True, r


def test_constructions_are_certified_without_a_crossing_table(monkeypatch):
    def no_table(a, b):
        raise AssertionError(f"enumerate_crossings({a}, {b}) called")

    monkeypatch.setattr(oracle, "enumerate_crossings", no_table)
    for r in _census_to(10):
        assert verify_parametrization(r, parametrization(r)) is True, r


def test_constructions_and_certificates_compute_no_cosine(monkeypatch):
    def no_cos(x):
        raise AssertionError(f"math.cos({x}) called")

    monkeypatch.setattr(math, "cos", no_cos)
    giants = [Fraction(2001, 1), Fraction(10**9 + 7, 123456789), Fraction(fibonacci(41), fibonacci(40))]
    for r in [*_census_to(10), *giants]:
        assert verify_parametrization(r, parametrization(r)) is True, r


def test_a_flipped_leading_sign_gives_the_mirror_image():
    chiral = 0
    for r in _census_to(10):
        p = parametrization(r)
        h = p.height
        flipped = _with_height(p, HeightPolynomial._of_gaps(-h.leading_sign, h.b, h._gaps_by_m))
        if is_amphicheiral(r.num, r.den):
            assert verify_parametrization(r, flipped) is True  # its own mirror image
        else:
            assert verify_parametrization(r, flipped) is False
            chiral += 1
    assert chiral > 300


@pytest.mark.parametrize("r", [Fraction(9, 2), Fraction(2001, 1)], ids=str)
def test_copies_of_a_gap_height_rebuild_from_its_gaps(r):
    p = parametrization(r)
    assert p.height.__reduce__()[1] == (p.height.leading_sign, p.b, p.height._gaps_by_m)  # pickle carries the bitmap
    clones = (copy.copy(p.height), copy.deepcopy(p.height), pickle.loads(pickle.dumps(p.height)))
    for height in (p.height, *clones):  # no copy derives gaps or roots
        for derived in (HeightPolynomial.gaps, HeightPolynomial.roots):
            with pytest.raises(AttributeError):
                derived.__get__(height)
    for clone in clones:
        assert clone._gaps_by_m == p.height._gaps_by_m
        assert clone == p.height and verify_parametrization(r, _with_height(p, clone)) is True


@pytest.mark.parametrize("r", [Fraction(9, 2), Fraction(2001, 1)], ids=str)
def test_a_copy_of_a_gap_height_is_the_height_itself(r):
    # every Record is immutable, so copying one rebuilds nothing
    h = parametrization(r).height
    assert copy.copy(h) is h and copy.deepcopy(h) is h


def test_a_gap_height_off_its_own_diagram_takes_the_float_rule():
    p = parametrization(Fraction(9, 2))  # b = 8
    for b in (7, 10):
        assert measure_crossings(3, b, p.height) == measure_crossings(3, b, _float_twin(p.height))
