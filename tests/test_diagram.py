"""Crossing geometry and minimal Conway forms."""

from __future__ import annotations

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import classical_euclid_oracle, fractions_with_crossing_number_up_to
from chebknot import diagram
from chebknot.bridge import canonicalize, stevedore_fraction, torus_fraction, twist_fraction
from chebknot.contfrac import Fraction, eval_cf, regular_expansion
from chebknot.diagram import (
    ConwayForm,
    CrossingPoint,
    conway_reversal_check,
    enumerate_crossings,
    is_minimal_by_word,
    minimal_diagram,
)
from chebknot.errors import (
    ChebknotError,
    InvalidForm,
    IsLink,
    LengthMismatch,
    NotCoprime,
    NotGreaterThanOne,
    NotPGPForm,
)
from chebknot.heights import gauss_sequence
from chebknot.trig import sin_sign


# ---------------------------------------------------------------------------
# crossing enumeration
# ---------------------------------------------------------------------------

# The per-crossing formulas enumerate_crossings computes inline, kept one call per
# quantity as the reference its rows are checked against.

def parameter_value(m: int, denom: int) -> float:
    """cos(m*pi/denom), computed so that m and denom-m give exact negatives."""
    if 2 * m <= denom:
        return math.cos(m * math.pi / denom)
    return -math.cos((denom - m) * math.pi / denom)


def x_key(a: int, b: int, h: int, k: int) -> int:
    """Integer nu with x = cos(nu*pi/b) at the crossing with indices (h, k)."""
    mu = (a * h) % (2 * b)
    if mu > b:
        mu = 2 * b - mu
    return b - mu if k % 2 else mu


def xy_derivative_sign(a: int, b: int, h: int, k: int) -> int:
    """Exact sign of x'(t) y'(t) at the crossing with indices (h, k)."""
    s = sin_sign(a * h, b) * sin_sign(b * k, a)
    return -s if (h + k) % 2 else s


def test_crossing_counts():
    assert len(enumerate_crossings(3, 4)) == 3
    assert len(enumerate_crossings(3, 10)) == 9
    assert len(enumerate_crossings(4, 5)) == 6


def test_crossings_reject_non_coprime():
    with pytest.raises(NotCoprime):
        enumerate_crossings(3, 9)


def test_crossing_count_and_symmetry_sweep():
    for a in range(2, 6):
        for b in range(2, 41):
            if gcd(a, b) != 1:
                continue
            pts = enumerate_crossings(a, b)
            assert len(pts) == (a - 1) * (b - 1) // 2
            params = sorted([p.t for p in pts] + [p.s for p in pts])
            for lo, hi in zip(params, reversed(params)):
                assert lo == -hi  # multiset symmetric about 0
            assert len(set(params)) == len(params)


def test_crossings_sorted_by_strictly_decreasing_x():
    for b in (4, 5, 7, 8, 10, 11):
        pts = enumerate_crossings(3, b)
        xs = [math.cos(x_key(3, b, p.h, p.k) * math.pi / b) for p in pts]
        assert all(xs[i] > xs[i + 1] for i in range(len(xs) - 1))
        # the sorted abscissae are exactly cos(i*pi/b), i = 1..b-1
        for i, x in enumerate(xs, start=1):
            assert math.isclose(x, math.cos(i * math.pi / b), abs_tol=1e-12)


def test_crossing_parameters_and_rows():
    for b in (5, 7, 8):
        for p in enumerate_crossings(3, b):
            denom = 3 * b
            assert math.isclose(p.t, math.cos(p.m_t * math.pi / denom), abs_tol=1e-12)
            assert math.isclose(p.s, math.cos(p.m_s * math.pi / denom), abs_tol=1e-12)
            assert p.t < p.s
            # crossings of C(3, b) sit on the lines y = +-1/2
            y = math.cos(b * math.acos(p.t))
            assert math.isclose(abs(y), 0.5, abs_tol=1e-9)


def _reference_rows(a: int, b: int) -> list[tuple]:
    """Crossing rows from the per-crossing formulas, sorted by x_key."""
    keyed = []
    for k in range(1, a):
        for h in range(1, b):
            if k * b + a * h >= a * b:
                continue
            m_t = k * b + a * h
            m_s = abs(k * b - a * h)
            row = (
                h, k, m_t, m_s,
                parameter_value(m_t, a * b), parameter_value(m_s, a * b),
                xy_derivative_sign(a, b, h, k),
            )
            keyed.append((x_key(a, b, h, k), row))
    keyed.sort(key=lambda e: e[0])
    return [row for _, row in keyed]


def _integer_rows(rows: list[tuple]) -> list[tuple]:
    """Rows without t and s: the integers (h, k, m_t, m_s, xy_sign) each
    enumerate_crossings row is built from."""
    return [row[:4] + row[6:] for row in rows]


def test_crossing_table_equals_crossing_point_properties():
    for a in (2, 3, 4, 5, 7, 8, 11):
        for b in range(2, 200):
            if gcd(a, b) != 1:
                continue
            assert enumerate_crossings(a, b) == _reference_rows(a, b), (a, b)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(2, 13), b=st.integers(2, 600))
def test_cold_crossing_tables_equal_the_reference_rows(a, b):
    assume(gcd(a, b) == 1)
    assert enumerate_crossings(a, b) == _reference_rows(a, b)


def test_enumerate_crossings_names_the_table_rows():
    for a in (3, 4, 5, 7):
        for b in range(2, 200):
            if gcd(a, b) != 1:
                continue
            points = enumerate_crossings(a, b)
            table = _integer_rows(_reference_rows(a, b))
            assert len(points) == len(table), (a, b)
            for p, row in zip(points, table):
                assert type(p) is CrossingPoint
                assert (p.h, p.k, p.m_t, p.m_s, p.xy_sign) == row


def test_a3_keys_are_a_permutation_so_slots_equal_the_sort():
    # the keys of enumerate_crossings(3, b) are 1..b-1, so its sort puts each row
    # at slot x_key - 1, the slots diagram._a3_families reads
    for b in range(2, 3000):
        if b % 3 == 0:
            continue
        keys = [x_key(3, b, h, k) for k in (1, 2) for h in range(1, (3 * b - k * b - 1) // 3 + 1)]
        assert sorted(keys) == list(range(1, b)), b


def test_a3_families_are_the_crossing_table_rows():
    # each family is every third slot, its m_t and m_s are arithmetic runs and
    # xy_sign * (-1)^slot is one constant along it
    for b in range(2, 3000):
        if b % 3 == 0:
            continue
        rows, m = _integer_rows(enumerate_crossings(3, b)), range(3 * b)
        families = diagram._a3_families(b)
        assert sorted(first for first, *_ in families) == [0, 1, 2], b
        for first, c, at_t, at_s in families:
            _, _, m_t, m_s, xy = zip(*rows[first::3]) if first < b - 1 else [()] * 5
            assert (m_t, m_s) == (tuple(m[at_t]), tuple(m[at_s])), (b, first)
            # the slots first, first + 3, ... alternate in parity
            even = c if first % 2 == 0 else -c
            assert set(xy[::2]) <= {even} and set(xy[1::2]) <= {-even}, (b, first)


@pytest.mark.parametrize("b", [997, 1000, 2003, 2995, 2999])
def test_large_a3_tables_equal_the_x_key_sort(b):
    assert enumerate_crossings(3, b) == _reference_rows(3, b)


def _reference_events(b: int) -> tuple[tuple, tuple]:
    """The increasing event ms of C(3, b) and their parameters, from the
    reference rows."""
    _, _, m_t, m_s, t, s, _ = zip(*_reference_rows(3, b))
    by_m = dict(zip(m_t + m_s, t + s))
    return tuple(sorted(by_m)), tuple(by_m[m] for m in sorted(by_m))


def _events_of(b: int) -> tuple[tuple, tuple]:
    """The event ms of C(3, b) and their parameters, as gauss_sequence computes them."""
    g = gauss_sequence(ConwayForm((1,) * (b - 1), b))
    return tuple(diagram._a3_events(b)), tuple(p for p, _ in g.events)


def test_tables_equal_the_reference_first_and_again():
    pairs = [(a, b) for a in (3, 4, 5, 7) for b in range(2, 200) if gcd(a, b) == 1]
    random.Random(8).shuffle(pairs)
    for i, (a, b) in enumerate(pairs):
        rows = _reference_rows(a, b)
        calls = [(enumerate_crossings, rows)]
        if a == 3:
            calls.append((lambda a, b: _events_of(b), _reference_events(b)))
        for _visit in ("first", "again"):
            for call, want in calls[::-1] if i % 2 else calls:
                assert call(a, b) == want, (a, b, call.__name__)
            # == would let 1.0 or True stand for 1
            types = {tuple(map(type, row)) for row in enumerate_crossings(a, b)}
            assert types == {(int, int, int, int, float, float, int)}, (a, b)


def test_a3_events_are_the_closed_form_set():
    # the m in 1..3b-1 with 3 not dividing m, other than b and 2b, which
    # diagram._a3_events lists and diagram._a3_next_event steps through from 0
    for b in range(2, 3000):
        if b % 3 == 0:
            continue
        _, _, m_t, m_s, *_ = zip(*enumerate_crossings(3, b))
        closed = [m for m in range(1, 3 * b) if m % 3 and m not in (b, 2 * b)]
        assert sorted(m_t + m_s) == list(diagram._a3_events(b)) == closed, b
        assert list(map(diagram._a3_next_event, [0, *closed[:-1]], repeat(b))) == closed, b


def test_a3_parameters_equal_the_event_parameters_bit_for_bit():
    # gauss_sequence's event parameters and enumerate_crossings' t and s,
    # each computed on every call, agree with the reference rule
    for b in range(2, 3000):
        if b % 3 == 0:
            continue
        _, _, m_t, m_s, t, s, _ = zip(*enumerate_crossings(3, b))
        by_m = dict(zip(m_t + m_s, t + s))
        ms, params = _events_of(b)
        assert ms == tuple(sorted(by_m)), b
        # no parameter is 0.0 or NaN, so == is equality of bits
        assert params == tuple(map(by_m.__getitem__, ms)) and 0.0 not in params, b
        assert params == tuple(parameter_value(m, 3 * b) for m in ms), b


def test_crossing_table_returns_a_new_list_every_call():
    first = enumerate_crossings(3, 5)
    first[0] = None
    first.append("extra")
    again = enumerate_crossings(3, 5)
    assert again == _reference_rows(3, 5)
    assert again is not enumerate_crossings(3, 5)


def test_tables_refuse_invalid_degrees():
    gauss_sequence(ConwayForm((1,) * 4, 5))
    with pytest.raises(InvalidForm):  # 5.0 == 5, but it is no int
        ConwayForm((1,) * 4, 5.0)
    with pytest.raises(ChebknotError):
        enumerate_crossings(3, 5.0)
    with pytest.raises(ChebknotError):
        enumerate_crossings(3.0, 5)
    with pytest.raises(NotCoprime):
        enumerate_crossings(3, 6)
    with pytest.raises(ChebknotError):
        enumerate_crossings(1, 5)


def test_concurrent_callers_see_the_single_threaded_tables():
    degrees = [b for b in range(700, 1500, 70) if b % 3]
    tables = {b: _reference_rows(3, b) for b in degrees}
    forms = {b: ConwayForm((1,) * (b - 1), b) for b in degrees}
    sequences = {b: gauss_sequence(forms[b]) for b in degrees}

    def worker(i: int) -> int:
        order = degrees[i:] + degrees[:i]
        for b in order + order[::-1]:
            assert enumerate_crossings(3, b) == tables[b], b
            assert gauss_sequence(forms[b]) == sequences[b], b
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert sorted(pool.map(worker, range(4), timeout=120)) == [0, 1, 2, 3]
    finally:
        sys.setswitchinterval(interval)


def _chebyshev_derivative(n: int, t: float) -> float:
    # T_n'(cos u) = n sin(nu) / sin(u)
    u = math.acos(t)
    return n * math.sin(n * u) / math.sin(u)


def test_xy_derivative_sign_against_float_derivatives():
    """The integer sign engine agrees with honest float derivatives."""
    for a, b in ((3, 5), (3, 7), (3, 8), (3, 11), (4, 5), (5, 7)):
        for p in enumerate_crossings(a, b):
            numeric = _chebyshev_derivative(a, p.t) * _chebyshev_derivative(b, p.t)
            assert abs(numeric) > 1e-9
            assert p.xy_sign == (1 if numeric > 0 else -1)


# ---------------------------------------------------------------------------
# Conway forms
# ---------------------------------------------------------------------------

def test_conway_form_validation():
    ConwayForm((1, 1, 1), 4)
    ConwayForm((-1, -1, -1), 4)  # negated one-regular patterns allowed
    with pytest.raises(InvalidForm):
        ConwayForm((1, 1), 4)  # wrong length
    with pytest.raises(InvalidForm):
        ConwayForm((1, -1, 1, 1, 1), 6)  # double sign change
    with pytest.raises(InvalidForm):
        ConwayForm((1, 1), 3)  # b divisible by 3
    with pytest.raises(InvalidForm):
        ConwayForm((1, 0, 1), 4)


def test_conway_form_refuses_signs_that_are_not_ints():
    # True == 1 and 1.0 == 1, so only a type test tells them from the sign +1
    for signs in ((1.0, True, 1), (True, True, True), (1, 1, 1.0), (-1.0, -1, -1)):
        with pytest.raises(InvalidForm):
            ConwayForm(signs, 4)


def test_conway_form_text():
    assert ConwayForm((-1, -1, -1, 1, 1, 1, 1), 8).text() == "C(-1,-1,-1,1,1,1,1)"


# ---------------------------------------------------------------------------
# minimal diagrams
# ---------------------------------------------------------------------------

def test_minimal_diagram_torus():
    # T(2, 7) presented as 7/6: diagram degree 10, via the conjugate branch
    md = minimal_diagram(Fraction(7, 6))
    assert md.b == 10
    md2 = minimal_diagram(Fraction(7, 1))
    assert md2.b == 10


def test_minimal_diagram_twist_and_stevedore():
    assert minimal_diagram(Fraction(7, 2)).b == 7
    md = minimal_diagram(Fraction(9, 2))
    assert md.b == 8 and md.mirrored
    assert md.form.signs == (-1, -1, -1, 1, 1, 1, 1)
    md61 = minimal_diagram(Fraction(9, 7))
    assert md61.b == 8 and not md61.mirrored
    assert md61.form.signs == (1, 1, 1, -1, -1, -1, -1)


def test_minimal_diagram_family_degrees():
    for k in range(1, 11):
        assert minimal_diagram(torus_fraction(k)).b == 3 * k + 1
        assert minimal_diagram(twist_fraction(2 * k + 1)).b == 3 * k + 4
        assert minimal_diagram(twist_fraction(2 * k)).b == 3 * k + 2
        assert minimal_diagram(stevedore_fraction(k)).b == 6 * k + 2


def test_minimal_diagram_rejects_bad_input():
    with pytest.raises(NotGreaterThanOne):
        minimal_diagram(Fraction(7, 9))
    with pytest.raises(IsLink):
        minimal_diagram(Fraction(4, 1))


def test_minimal_diagram_bounds_and_knot_class():
    seen = set()
    for alpha, beta, n_cross in fractions_with_crossing_number_up_to(12):
        if alpha % 2 == 0 or (alpha, beta) in seen:
            continue
        seen.add((alpha, beta))
        r = Fraction(alpha, beta)
        md = minimal_diagram(r)
        assert n_cross < md.b and 2 * md.b < 3 * n_cross
        assert md.b == min(len(regular_expansion(r)), len(regular_expansion(Fraction(alpha, alpha - beta)))) + 1
        # the emitted form evaluates to a fraction of the same knot
        value = eval_cf(md.form.signs)
        assert canonicalize(value.num, value.den) == canonicalize(alpha, beta)


def test_expansion_lengths_add_up_to_3n_minus_2():
    # minimal_diagram builds the conjugate expansion only when it is shorter
    for alpha in range(3, 300, 2):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            n_cross = sum(classical_euclid_oracle(alpha, beta))
            own, conj = Fraction(alpha, beta), Fraction(alpha, alpha - beta)
            assert len(regular_expansion(own)) + len(regular_expansion(conj)) == 3 * n_cross - 2, (alpha, beta)


def test_word_criterion_worked_examples():
    assert is_minimal_by_word(Fraction(9, 7)) is True
    assert is_minimal_by_word(Fraction(9, 2)) is False
    assert is_minimal_by_word(Fraction(2, 1)) is False
    with pytest.raises(NotPGPForm):
        is_minimal_by_word(Fraction(7, 9))


def test_word_criterion_matches_length_comparison():
    for alpha, beta, n_cross in fractions_with_crossing_number_up_to(10):
        r = Fraction(alpha, beta)
        n = len(regular_expansion(r))
        assert is_minimal_by_word(r) == (2 * n < 3 * n_cross - 2)


def test_word_criterion_sweep_to_300():
    from math import gcd as _gcd
    from chebknot.contfrac import cn_from_regular, pm_word

    for alpha in range(2, 301):
        for beta in range(1, alpha):
            if _gcd(alpha, beta) != 1:
                continue
            cf = regular_expansion(Fraction(alpha, beta))
            w = pm_word(cf)
            n, n_cross = len(cf), cn_from_regular(cf)
            assert (w.degP >= w.degM + 3) == (2 * n < 3 * n_cross - 2)
            assert is_minimal_by_word(Fraction(alpha, beta)) == (w.degP >= w.degM + 3)


def test_reversal_check_identity_and_conjugate():
    f = minimal_diagram(Fraction(9, 7)).form
    n_cross = 6
    assert conway_reversal_check(f, f, n_cross)
    # 9/4 is the inverse-residue presentation of the same knot
    g = minimal_diagram(Fraction(9, 4)).form
    assert g.signs == (-1, -1, -1, -1, 1, 1, 1)
    assert conway_reversal_check(f, g, n_cross)
    assert conway_reversal_check(g, f, n_cross)


def test_reversal_check_distinct_knots_and_mismatch():
    f = ConwayForm(regular_expansion(Fraction(9, 7)).terms, 8)
    h = ConwayForm(regular_expansion(Fraction(7, 5)).terms, 8)
    assert not conway_reversal_check(f, h, 6)
    short = ConwayForm(regular_expansion(Fraction(3, 2)).terms, 4)
    with pytest.raises(LengthMismatch):
        conway_reversal_check(f, short, 6)


def test_reversal_check_refuses_a_crossing_number_that_is_not_an_int():
    f = minimal_diagram(Fraction(9, 7)).form
    for n_cross in (6.0, True, "6"):
        with pytest.raises(ChebknotError, match="n_cross must be an int"):
            conway_reversal_check(f, f, n_cross)


def test_reversal_check_sweep():
    # the two minimal presentations (via beta and via its inverse residue)
    # always agree up to reversal with sign (-1)^(n+1)
    from conftest import inverse_mod

    for alpha, beta, n_cross in fractions_with_crossing_number_up_to(9):
        if alpha % 2 == 0:
            continue
        md1 = minimal_diagram(Fraction(alpha, beta))
        md2 = minimal_diagram(Fraction(alpha, inverse_mod(beta, alpha)))
        assert md1.b == md2.b
        assert conway_reversal_check(md1.form, md2.form, n_cross)


def test_reversal_sign_depends_on_length_parity_only():
    # even-length pair (figure-eight, N even): the relating sign is -1,
    # so the two forms are global negations of each other
    f1 = minimal_diagram(Fraction(5, 3)).form
    f2 = minimal_diagram(Fraction(5, 2)).form
    assert f2.signs == tuple(-s for s in f1.signs)
    assert conway_reversal_check(f1, f2, 4)
    # odd-length pair with N even (the 6-crossing case): plain reversal
    g1 = minimal_diagram(Fraction(9, 7)).form
    g2 = minimal_diagram(Fraction(9, 4)).form
    assert g2.signs == tuple(reversed(g1.signs))
    assert conway_reversal_check(g1, g2, 6)
