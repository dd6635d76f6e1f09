"""Gauss sequences, height polynomials, and the degree identity b + c = 3N."""

from __future__ import annotations

import math
import pickle
import random
import sys
from array import array
from concurrent.futures import ThreadPoolExecutor
from itertools import compress, count, islice, product
from math import gcd
from operator import add, ne, neg

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import bench_inputs, eval_cf_oracle, fractions_with_crossing_number_up_to
import chebknot.heights as heights_module
from chebknot.bridge import fibonacci_fraction
from chebknot.contfrac import Fraction, eval_cf, is_amphicheiral
from chebknot.diagram import ConwayForm, _a3_crossing, _a3_events, _a3_families, _parameters, enumerate_crossings
from chebknot.diagram import minimal_diagram, twist_sign
from chebknot.errors import AmbiguousCrossing, ChebknotError, IsLink, NotGreaterThanOne
from chebknot.heights import (
    GaussSequence,
    HeightPolynomial,
    Parametrization,
    _gauss_signs,
    _height,
    _twist_signs,
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
    for derived in (HeightPolynomial.gaps, HeightPolynomial.roots):  # construction stores neither
        with pytest.raises(AttributeError):
            derived.__get__(p.height)
    events, ms = _reference_gauss(p.form)
    eager = _eager_height(events, p.b, ms, is_amphicheiral(r.num, r.den))
    assert list(map(float.hex, p.height.roots)) == list(map(float.hex, eager[0])), r
    assert HeightPolynomial.roots.__get__(p.height) is p.height.roots  # kept after the first read
    assert HeightPolynomial.gaps.__get__(p.height) is p.height.gaps
    assert _fields(p.height) == eager, r
    assert _fields(pickle.loads(pickle.dumps(p.height))) == eager, r
    return p


def test_comparing_gap_heights_derives_no_roots():
    height = parametrization(Fraction(200001, 1)).height
    clone = pickle.loads(pickle.dumps(height))
    assert clone == height and hash(clone) == hash(height) and clone != parametrization(Fraction(199999, 1)).height
    for h in (height, clone):
        for derived in (HeightPolynomial.gaps, HeightPolynomial.roots):
            with pytest.raises(AttributeError):
                derived.__get__(h)
    small = parametrization(Fraction(9, 7)).height
    floats = HeightPolynomial(small.roots, small.leading_sign)
    assert floats != small and small != floats


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
    height = parametrization(r).height
    want = {"gaps": height.gaps, "roots": height.roots}

    def first_reads(height: HeightPolynomial, name: str) -> list:
        return list(pool.map(lambda _: getattr(height, name), range(4), timeout=60))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(8):
                for name in ("gaps", "roots"):  # each on a fresh height: roots derive gaps on the way
                    assert first_reads(parametrization(r).height, name) == [want[name]] * 4
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# the byte kernel against the tuple rules, its reference
# ---------------------------------------------------------------------------

def _tuple_gauss_signs(form: ConwayForm) -> tuple[int, ...]:
    """The reference Gauss rule on int tuples: each family's twist slice and
    its negation, written into a list by m, the non-events filtered out."""
    b, twists = form.b, form.signs
    by_m = [0] * (3 * b)  # 0 where m is not an event
    for first, c, at_t, at_s in _a3_families(b):
        run = twists[first::3]
        flipped = tuple(map(neg, run))
        by_m[at_t], by_m[at_s] = (run, flipped) if c == 1 else (flipped, run)
    signs = tuple(filter(None, by_m))
    if len(signs) != 2 * (b - 1):
        raise ChebknotError("crossing parameters are not distinct")
    return signs


def _tuple_height(b: int, signs: tuple[int, ...], amphicheiral: bool) -> tuple:
    """The reference gap rule on int tuples, one gap per pair of unequal
    neighbours: (leading_sign, b, gaps), the fields a height kept before
    its gap bitmap."""
    gaps = tuple(compress(_a3_events(b), map(ne, signs, islice(signs, 1, None))))
    if amphicheiral and not (len(gaps) % 2 == 1 and signs[::-1] == tuple(map(neg, signs))):
        raise ChebknotError("amphicheiral input did not give an odd height")
    return signs[0], b, gaps


def _gap_list_twist_signs(leading_sign: int, b: int, gaps: tuple[int, ...]) -> list[int]:
    """The reference twist-sign rule on a gap list: z's sign by m as a list
    of ints, negated by one slice per pair of gaps, then read through the
    family slices at m_t and at m_s; the first crossing whose readings
    differ is refused."""
    sign = [leading_sign] * (3 * b)
    for lo, hi in zip(gaps[::2], gaps[1::2] + (3 * b - 1,)):  # -leading_sign after gaps[2i] through gaps[2i + 1]
        sign[lo + 1:hi + 1] = [-leading_sign] * (hi - lo)
    twists, from_s = [0] * (b - 1), [0] * (b - 1)
    for first, c, at_t, at_s in _a3_families(b):
        twists[first::3] = sign[at_t] if c == 1 else map(neg, sign[at_t])
        from_s[first::3] = map(neg, sign[at_s]) if c == 1 else sign[at_s]
    if twists != from_s:
        slot = next(compress(count(), map(ne, twists, from_s)))
        raise AmbiguousCrossing(f"both strands of z have one sign at crossing {_a3_crossing(b, slot)}")
    return twists


def _by_m(signs: tuple[int, ...], b: int) -> bytearray:
    """Gauss signs laid out as _gauss_signs writes them: one array('b') byte per m, 0 off the events."""
    by_m = bytearray(3 * b)
    for m, sign in zip(_a3_events(b), array("b", signs).tobytes()):
        by_m[m] = sign
    return by_m


def _outcome(f, *args):
    """f(*args) as ("ok", value), or its refusal as (class, message)."""
    try:
        return "ok", f(*args)
    except ChebknotError as exc:
        return type(exc), str(exc)


def _reference_fields(b: int, signs: tuple[int, ...], amphicheiral: bool) -> tuple:
    """The tuple rules' outcome as (leading_sign, b, gaps, degree, twist-sign outcome)."""
    kind, value = _outcome(_tuple_height, b, signs, amphicheiral)
    if kind != "ok":
        return kind, value
    return kind, (*value, len(value[2]), _outcome(_gap_list_twist_signs, *value))


def _kernel_fields(outcome: tuple) -> tuple:
    """A kernel height's outcome read as _reference_fields reads the tuple rules'."""
    kind, height = outcome
    if kind != "ok":
        return outcome
    assert type(height.leading_sign) is int and type(height._gaps_by_m) is bytes
    twists = _outcome(lambda: list(_twist_signs(height)))
    return kind, (height.leading_sign, height.b, height.gaps, height.degree, twists)


def _assert_heights_equal_the_tuple_rules(signs: tuple[int, ...], b: int, amphicheiral: bool) -> None:
    expected = _reference_fields(b, signs, amphicheiral)
    by_m = _by_m(signs, b)
    assert _kernel_fields(_outcome(_height, b, by_m, amphicheiral)) == expected, (signs, b, amphicheiral)
    assert by_m == _by_m(signs, b)  # _height back-fills a copy
    got = _kernel_fields(_outcome(build_height, GaussSequence(signs, b), amphicheiral))
    assert got == expected, (signs, b, amphicheiral)


def _twist_bytes(form: ConwayForm) -> bytes:
    """A form's twist signs as the array('b') bytes _gauss_signs takes."""
    return array("b", form.signs).tobytes()


def _assert_kernel_equals_the_tuple_rules(form: ConwayForm, amphicheiral_flags=(False, True)) -> None:
    want = _tuple_gauss_signs(form)
    assert _gauss_signs(form.b, _twist_bytes(form)) == _by_m(want, form.b), form
    assert gauss_sequence(form).signs == want, form
    for amph in amphicheiral_flags:
        _assert_heights_equal_the_tuple_rules(want, form.b, amph)


def _chain_inputs() -> list[Fraction]:
    """The census knots, the giants of seeds 7, 101 and 303, 2001/1 and (10^9+7)/123456789."""
    inputs = bench_inputs()
    rs = [Fraction(a, b) for a, b, _ in inputs.census_knots()]
    rs += [Fraction(a, b) for seed in (7, 101, 303) for a, b, *_ in inputs.giants(seed)]
    return rs + [Fraction(2001, 1), Fraction(10**9 + 7, 123456789)]


def test_sign_bytes_equal_the_tuple_rules_on_the_chain_inputs():
    amphicheiral = 0
    for r in _chain_inputs():
        amph = is_amphicheiral(r.num, r.den)
        amphicheiral += amph
        _assert_kernel_equals_the_tuple_rules(minimal_diagram(r).form, (amph,))
    assert amphicheiral > 20


def _palindromic_fraction(quotients: list[int]) -> Fraction:
    """The fraction of the even palindrome q_1 ... q_k q_k ... q_1: beta^2 = -1 mod alpha."""
    value = eval_cf_oracle(quotients + quotients[::-1])
    return Fraction(value.numerator, value.denominator)


@settings(max_examples=100, deadline=None)
@given(b=st.integers(2, 3001), seed=st.integers(0, 2**32))
def test_sign_bytes_equal_the_tuple_rules_on_one_regular_forms(b, seed):
    assume(b % 3)
    _assert_kernel_equals_the_tuple_rules(ConwayForm(_random_one_regular(random.Random(seed), b - 1), b))


@settings(max_examples=100, deadline=None)
@given(quotients=st.lists(st.integers(1, 30), min_size=1, max_size=40))
def test_sign_bytes_equal_the_tuple_rules_on_amphicheiral_forms(quotients):
    r = _palindromic_fraction(quotients)
    assume(r.num % 2 == 1)
    assert is_amphicheiral(r.num, r.den)
    form = minimal_diagram(r).form
    assume(form.b <= 3001)
    _assert_kernel_equals_the_tuple_rules(form)
    assert _height(form.b, _gauss_signs(form.b, _twist_bytes(form)), True).degree % 2 == 1


@pytest.mark.parametrize("b", [2, 4, 5, 7])
def test_the_gap_bitmap_equals_the_tuple_rules_on_every_sign_sequence(b):
    # b = 2 back-fills b from 2b, b = 4 fills 2b from 2b + 2 and b = 5 fills b from b + 2
    for signs in product((1, -1), repeat=2 * (b - 1)):
        for amph in (False, True):
            _assert_heights_equal_the_tuple_rules(signs, b, amph)


@settings(max_examples=100, deadline=None)
@given(b=st.integers(2, 2999), seed=st.integers(0, 2**32), flips=st.integers(0, 3))
@example(b=2, seed=0, flips=0)
@example(b=4, seed=0, flips=1)
@example(b=5, seed=0, flips=0)
@example(b=2999, seed=0, flips=2)
def test_the_gap_bitmap_equals_the_tuple_rules_on_perturbed_gauss_signs(b, seed, flips):
    """A form's Gauss signs with up to three of them negated: a negated sign
    leaves its crossing with strands of one sign, which both rules refuse."""
    assume(b % 3)
    rng = random.Random(seed)
    signs = list(_tuple_gauss_signs(ConwayForm(_random_one_regular(rng, b - 1), b)))
    for i in rng.sample(range(len(signs)), min(flips, len(signs))):
        signs[i] = -signs[i]
    for amph in (False, True):
        _assert_heights_equal_the_tuple_rules(tuple(signs), b, amph)


def test_both_gauss_rules_refuse_families_that_share_a_parameter(monkeypatch):
    form = minimal_diagram(Fraction(9, 2)).form  # b = 8: families of 2, 2 and 3 slots
    families = _a3_families(form.b)
    shared = lambda b: (families[0], families[0], families[2])  # the second family's events are never written
    monkeypatch.setattr(heights_module, "_a3_families", shared)
    monkeypatch.setitem(globals(), "_a3_families", shared)
    expected = (ChebknotError, "crossing parameters are not distinct")
    assert _outcome(_tuple_gauss_signs, form) == expected
    assert _outcome(_gauss_signs, form.b, _twist_bytes(form)) == expected
    assert _outcome(gauss_sequence, form) == expected


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
    expected = (ChebknotError, "amphicheiral input did not give an odd height")
    assert _outcome(_tuple_height, b, signs, True) == expected
    assert _outcome(_height, b, _by_m(signs, b), True) == expected


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
