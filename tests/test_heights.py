"""Gauss sequences, height polynomials, and the degree identity b + c = 3N."""

from __future__ import annotations

import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import compress
from math import gcd
from operator import add, ne, neg

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bench_inputs, fractions_with_crossing_number_up_to
from chebknot.bridge import fibonacci_fraction
from chebknot.contfrac import Fraction, eval_cf, is_amphicheiral
from chebknot.diagram import ConwayForm, _a3_events, _parameters, enumerate_crossings, minimal_diagram, twist_sign
from chebknot.errors import ChebknotError, IsLink, NotGreaterThanOne
from chebknot.heights import (
    GaussSequence,
    HeightPolynomial,
    Parametrization,
    build_height,
    count_sign_changes,
    gauss_sequence,
    parametrization,
)

SIX_ONE_GAUSS = (1, -1, -1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, 1)


def test_six_one_gauss_sequence_exact():
    md = minimal_diagram(Fraction(9, 7))
    assert md.form.signs == (1, 1, 1, -1, -1, -1, -1)
    g = gauss_sequence(md.form)
    assert g.signs == SIX_ONE_GAUSS
    assert count_sign_changes(g) == 10
    assert md.b + count_sign_changes(g) == 18


def test_six_one_mirror_gauss_is_negated():
    md = minimal_diagram(Fraction(9, 2))
    assert md.form.signs == (-1, -1, -1, 1, 1, 1, 1)
    g = gauss_sequence(md.form)
    assert g.signs == tuple(-s for s in SIX_ONE_GAUSS)
    assert count_sign_changes(g) == 10


def test_gauss_events_ordered_by_decreasing_parameter():
    g = gauss_sequence(minimal_diagram(Fraction(9, 7)).form)
    params = [p for p, _ in g.events]
    assert all(params[i] > params[i + 1] for i in range(len(params) - 1))
    assert len(g) == 14


def test_half_cosine_events_are_bit_identical_to_every_parameter():
    """events evaluates the first b - 1 parameters and negates them for
    the rest; _parameters on all 2(b - 1) events must give the same bits."""
    for b in range(2, 1500):
        if b % 3 == 0:
            continue
        events = GaussSequence([1] * (2 * (b - 1)), b).events
        full = _parameters(_a3_events(b), 3 * b)
        assert list(map(float.hex, (p for p, _ in events))) == list(map(float.hex, full)), b


def test_alternating_form_has_2b_minus_3_changes():
    for b in (4, 5, 7, 8, 10, 11, 13):
        form = ConwayForm((1,) * (b - 1), b)
        g = gauss_sequence(form)
        assert len(g) == 2 * (b - 1)
        assert count_sign_changes(g) == 2 * b - 3


def test_single_crossing_degenerate_diagram():
    form = ConwayForm((1,), 2)
    g = gauss_sequence(form)
    assert len(g) == 2
    assert g.signs[0] == -g.signs[1]


def _sorted_gauss_events(form: ConwayForm) -> tuple:
    """Gauss events from the enumerate_crossings fields, sorted by m."""
    keyed = []
    for i, c in enumerate(enumerate_crossings(3, form.b)):
        d = form.signs[i] if i % 2 == 0 else -form.signs[i]
        keyed.append((c.m_t, c.t, d * c.xy_sign))
        keyed.append((c.m_s, c.s, -d * c.xy_sign))
    keyed.sort(key=lambda e: e[0])
    return tuple((p, g) for _, p, g in keyed)


def test_gauss_sequence_equals_sorted_reference():
    for alpha, beta, _ in fractions_with_crossing_number_up_to(12):
        if alpha % 2 == 0:
            continue
        form = minimal_diagram(Fraction(alpha, beta)).form
        assert gauss_sequence(form).events == _sorted_gauss_events(form), (alpha, beta)


def _reference_gauss(form: ConwayForm) -> tuple[tuple, tuple]:
    """(events, ms) by one pass over the enumerate_crossings rows, each row's
    Gauss signs from its twist sign and xy_sign: the loop gauss_sequence
    replaced with the three-family slices."""
    b, signs = form.b, form.signs
    slots: list = [None] * (3 * b)
    at: list = [0] * (3 * b)
    for i, (_, _, m_t, m_s, t, s, xy) in enumerate(enumerate_crossings(3, b)):
        zdiff = twist_sign(i, signs[i]) * xy
        slots[m_t], at[m_t] = (t, zdiff), m_t
        slots[m_s], at[m_s] = (s, -zdiff), m_s
    return tuple(filter(None, slots)), tuple(filter(None, at))


def _eager_height(events: tuple, b: int, ms: tuple, amphicheiral: bool) -> tuple:
    """The reference (roots, leading_sign, b, gaps) of a C(3, b) Gauss
    sequence's events and ms, by floats: one midpoint of event parameters
    per Gauss sign change, all computed at once, and the amphicheiral check
    on the ms."""
    params, signs = tuple(p for p, _ in events), tuple(s for _, s in events)
    changes = list(map(ne, signs, signs[1:]))
    roots = [(p + q) / 2.0 for p, q in compress(zip(params, params[1:]), changes)]
    if amphicheiral:
        if not (len(roots) % 2 == 1 and set(map(add, ms, ms[::-1])) == {3 * b}
                and signs[::-1] == tuple(map(neg, signs))):
            raise ChebknotError("amphicheiral input did not give an odd height")
    return tuple(sorted(roots)), signs[0], b, tuple(compress(ms, changes))


def _fields(height: HeightPolynomial) -> tuple:
    return height.roots, height.leading_sign, height.b, height.gaps


def _assert_derived_roots_are_the_eager_midpoints(r: Fraction) -> Parametrization:
    p = parametrization(r)
    with pytest.raises(AttributeError):  # construction stores no roots
        HeightPolynomial.roots.__get__(p.height)
    events, ms = _reference_gauss(p.form)
    eager = _eager_height(events, p.b, ms, is_amphicheiral(r.num, r.den))
    assert list(map(float.hex, p.height.roots)) == list(map(float.hex, eager[0])), r
    assert HeightPolynomial.roots.__get__(p.height) is p.height.roots  # kept after the first read
    assert _fields(p.height) == eager, r
    assert _fields(pickle.loads(pickle.dumps(p.height))) == eager, r
    return p


def _random_one_regular(rng: random.Random, n: int) -> tuple[int, ...]:
    """n signs with no two consecutive sign changes and the last two equal."""
    signs = [rng.choice((1, -1))]
    changed = False
    while len(signs) < n:
        changed = not changed and rng.random() < 0.5
        signs.append(-signs[-1] if changed else signs[-1])
    if changed:  # the last two must agree
        signs[-1] = signs[-2]
    return tuple(signs)


@settings(max_examples=100, deadline=None)
@given(b=st.integers(2, 2999), seed=st.integers(0, 2**32))
def test_cold_gauss_sequences_and_heights_equal_the_row_loop(b, seed):
    assume(b % 3)
    form = ConwayForm(_random_one_regular(random.Random(seed), b - 1), b)
    g = gauss_sequence(form)
    events, ms = _reference_gauss(form)
    assert (g.events, tuple(_a3_events(b)), g.b) == (events, ms, b)
    # the minimal diagram of the form's knot, at most as long as the form
    value = abs(eval_cf(form.signs))
    r = value if value > 1 else Fraction(value.num, value.den % value.num or 1)
    assume(r > 1)
    p = _assert_derived_roots_are_the_eager_midpoints(r)
    assert p.b == minimal_diagram(r).b <= b
    assert p.height.is_odd_symmetric or not is_amphicheiral(r.num, r.den)


@pytest.mark.parametrize("seed", [7, 29])
def test_derived_roots_equal_the_eager_midpoints_on_giants(seed):
    for alpha, beta, *_ in bench_inputs().giants(seed):
        _assert_derived_roots_are_the_eager_midpoints(Fraction(alpha, beta))


def test_concurrent_first_reads_of_derived_roots_agree():
    r = Fraction(2001, 1)
    want = parametrization(r).height.roots

    def first_reads(height: HeightPolynomial) -> list:
        return list(pool.map(lambda _: height.roots, range(4), timeout=60))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(8):
                assert first_reads(parametrization(r).height) == [want] * 4
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("sign", [0, 2, -2, 1.0, -1.0, True, None], ids=repr)
def test_gauss_sequence_refuses_signs_that_are_not_plus_or_minus_one(sign):
    with pytest.raises(ChebknotError, match="event signs must all be"):
        GaussSequence((1, -1, sign, 1, -1, 1), 4)
    with pytest.raises(ChebknotError, match="event signs must all be"):
        GaussSequence((sign, -1), 2)


# signs on the events of C(3, 4), ms (1, 2, 5, 7, 10, 11), or of C(3, 2), ms (1, 5)
@pytest.mark.parametrize(
    "signs, b",
    [
        ((1, -1, -1, -1, 1, -1), 4),  # three roots, signs not odd
        ((1, 1, -1, -1, 1, 1), 4),  # two roots
        ((1, 1), 2),  # no root
    ],
    ids=["signs-not-odd", "two-roots", "no-root"],
)
def test_an_amphicheiral_input_that_is_not_odd_is_refused(signs, b):
    with pytest.raises(ChebknotError, match="amphicheiral input did not give an odd height"):
        build_height(GaussSequence(signs, b), amphicheiral=True)


@pytest.mark.parametrize(
    "signs, b, message",
    [
        ((1, -1), 9, "prime to 3"),
        ((1, -1), True, "prime to 3"),
        ((1, -1), 2.0, "prime to 3"),
        ((1, -1), 1, "prime to 3"),
        ((1, -1, 1, -1), 2, "need 2\\(b - 1\\) = 2 signs"),
        ((), 2, "need 2\\(b - 1\\) = 2 signs"),
    ],
    ids=["b-divisible-by-3", "bool-b", "float-b", "b-below-2", "too-many-signs", "empty"],
)
def test_build_height_refuses_hand_built_sequences_off_the_diagram(signs, b, message):
    with pytest.raises(ChebknotError, match=message):
        build_height(GaussSequence(signs, b))


def test_count_sign_changes_basics():
    g = GaussSequence((1, 1), 2)
    assert count_sign_changes(g) == 0
    alt = GaussSequence(tuple((-1) ** i for i in range(8)), 5)
    assert count_sign_changes(alt) == 7


def test_conway_sign_change_count_vs_gauss_change_count():
    # 3s + c = 2b - 3, with s the twist sign changes and c the Gauss changes
    for alpha, beta, n_cross in fractions_with_crossing_number_up_to(12):
        if alpha % 2 == 0:
            continue
        md = minimal_diagram(Fraction(alpha, beta))
        t = md.form.signs
        s = sum(1 for i in range(len(t) - 1) if t[i] * t[i + 1] < 0)
        g = gauss_sequence(md.form)
        c = count_sign_changes(g)
        assert 3 * s + c == 2 * md.b - 3
        # every crossing contributes one over and one under passage
        assert sum(g.signs) == 0


# ---------------------------------------------------------------------------
# height polynomials
# ---------------------------------------------------------------------------

def test_build_height_six_one():
    md = minimal_diagram(Fraction(9, 2))
    g = gauss_sequence(md.form)
    poly = build_height(g)
    assert poly.degree == 10
    for p, sign in g.events:
        assert poly(p) * sign > 0


def test_build_height_sign_certificate_sweep():
    for alpha, beta, _ in fractions_with_crossing_number_up_to(10):
        if alpha % 2 == 0:
            continue
        g = gauss_sequence(minimal_diagram(Fraction(alpha, beta)).form)
        poly = build_height(g)
        assert poly.degree == count_sign_changes(g)
        for p, sign in g.events:
            assert poly(p) * sign > 0


def test_build_height_constant_case():
    g = GaussSequence((-1, -1), 2)
    poly = build_height(g)
    assert poly.degree == 0 and poly.leading_sign == -1
    assert poly(0.3) == -1.0


def test_build_height_on_census_sequences_is_the_constructed_height():
    for alpha, beta, _ in fractions_with_crossing_number_up_to(12):
        if alpha % 2 == 0:
            continue
        r = Fraction(alpha, beta)
        g = gauss_sequence(minimal_diagram(r).form)
        height = build_height(g, is_amphicheiral(alpha, beta))
        assert height == parametrization(r).height, r
        assert height.degree == count_sign_changes(g), r


def test_figure_eight_odd_height():
    p = parametrization(Fraction(5, 3))
    assert p.b == 5
    assert p.height.degree == 7
    assert p.height.is_odd_symmetric
    assert 0.0 in p.height.roots


def test_parametrization_worked_examples():
    p = parametrization(Fraction(7, 2))
    assert (p.b, p.height.degree, p.crossing_number) == (7, 8, 5)
    p = parametrization(Fraction(9, 2))
    assert (p.b, p.height.degree) == (8, 10)
    p = parametrization(Fraction(3, 1))
    assert (p.b, p.height.degree) == (4, 5)


def test_parametrization_rejects_links_and_small():
    with pytest.raises(IsLink):
        parametrization(Fraction(4, 1))
    with pytest.raises(NotGreaterThanOne):
        parametrization(Fraction(3, 5))


def test_parametrization_json_schema():
    p = parametrization(Fraction(9, 2))
    rec = p.to_json()
    assert rec["a"] == 3 and rec["b"] == 8 and rec["N"] == 6
    assert rec["z_leading_sign"] in (1, -1)
    assert len(rec["z_roots"]) == 10


def test_degree_identity_sweep():
    for alpha, beta, n_cross in fractions_with_crossing_number_up_to(12):
        if alpha % 2 == 0:
            continue
        p = parametrization(Fraction(alpha, beta))
        assert p.b + p.height.degree == 3 * n_cross


def test_amphicheiral_oddness_sweep():
    found = 0
    for alpha in range(3, 201, 2):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1 or (beta * beta + 1) % alpha:
                continue
            p = parametrization(Fraction(alpha, beta))
            assert p.b % 2 == 1
            assert p.height.is_odd_symmetric
            assert (0.0 in p.height.roots) == (p.height.degree % 2 == 1)
            found += 1
    assert found > 10


def test_amphicheiral_oddness_large():
    r = fibonacci_fraction(1201)  # F_1201/F_1200, N = 1200
    assert (r.den * r.den + 1) % r.num == 0
    p = parametrization(r)
    assert p.crossing_number == 1200
    assert p.b % 2 == 1
    assert p.height.is_odd_symmetric


@pytest.mark.parametrize(
    "roots, odd",
    [((-1.0, 1.0), False), ((), False), ((-1.0, 0.0, 0.0, 0.0, 1.0), True)],
    ids=["t^2-1", "constant", "t^3(t^2-1)"],
)
def test_is_odd_symmetric_means_an_odd_polynomial(roots, odd):
    poly = HeightPolynomial(roots, 1)
    assert math.isclose(poly(-0.3), -poly(0.3)) is odd
    assert poly.is_odd_symmetric is odd


def test_factored_text():
    poly = HeightPolynomial((0.5, -0.25, 0.0), 1)
    text = poly.factored_text()
    assert text == "(t+0.25)t(t-0.5)"
    assert HeightPolynomial((), -1).factored_text() == "-1"
