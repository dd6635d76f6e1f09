"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Every check is exact integer equality; the few timed criteria
assert their stated budgets in CPU time (time.process_time), so a busy
host that takes the CPU away does not fail them.
"""

from __future__ import annotations

import time
from math import gcd

from conftest import fractions_with_crossing_number_up_to
from chebknot.bridge import (
    canonicalize,
    equivalent,
    Equivalence,
    stevedore_fraction,
    torus_fraction,
    twist_fraction,
    kn_fraction,
)
from chebknot.contfrac import (
    Fraction,
    cn_from_regular,
    conjugate_fractions,
    crossing_number,
    eval_cf,
    fibonacci,
    pm_word,
    regular_expansion,
)
from chebknot.diagram import is_minimal_by_word, minimal_diagram
from chebknot.harmonic import (
    HarmonicSpec,
    classify,
    crossing_sign_closed_form,
    harmonic_conway,
    is_harmonic_candidate,
)
from chebknot.heights import count_sign_changes, gauss_sequence, parametrization
from chebknot.oracle import ChebyshevHeight, measure_crossings, verify_parametrization


def _report(number: int, name: str, elapsed: float) -> None:
    print(f"[ACCEPTANCE] {number:2d}. {name}: PASS ({elapsed * 1000:.1f} ms)")


def test_criterion_01_worked_expansions():
    t0 = time.process_time()
    cf1 = regular_expansion(Fraction(9, 7))
    cf2 = regular_expansion(Fraction(9, 2))
    elapsed = time.process_time() - t0
    assert cf1.terms == (1, 1, 1, -1, -1, -1, -1)
    assert len(cf1) == 7 and cn_from_regular(cf1) == 6
    assert cf2.terms == (1, 1, -1, -1, -1, 1, 1, -1, -1)
    assert len(cf2) == 9 and cn_from_regular(cf2) == 6
    assert elapsed < 1e-3
    _report(1, "worked expansions 9/7 and 9/2", elapsed)


def test_criterion_02_exhaustive_sweep_to_300():
    t0 = time.process_time()
    lengths: dict[tuple[int, int], int] = {}
    down_lengths: dict[tuple[int, int], int] = {}
    for alpha in range(2, 301):
        cofs = {}
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            r = Fraction(alpha, beta)
            cf = regular_expansion(r)
            assert eval_cf(cf.terms) == r  # round trip
            n_cross = crossing_number(r)
            assert cn_from_regular(cf) == n_cross  # the two definitions agree
            # parity of (alpha, beta) versus expansion length mod 3
            residue = len(cf) % 3
            want = {2: (0, 1), 0: (1, 0), 1: (1, 1)}[residue]
            assert (alpha % 2, beta % 2) == want
            lengths[(alpha, beta)] = len(cf)
            cofs[beta] = (cf, n_cross)
        for beta, (cf, n_cross) in cofs.items():
            down = regular_expansion(Fraction(beta, alpha))
            down_lengths[(beta, alpha)] = len(down)
            conj = conjugate_fractions(Fraction(alpha, beta))
            assert conj.beta_over_alpha == Fraction(beta, alpha)
            assert conj.alpha_over_alpha_minus_beta == Fraction(alpha, alpha - beta)
            bp = conj.alpha_over_beta_prime.den
            want = 1 if n_cross % 2 == 1 else alpha - 1
            assert 0 < bp < alpha and (beta * bp) % alpha == want % alpha
            # length identities
            n = lengths[(alpha, beta)]
            assert len(down) + n == 3 * n_cross - 1
            assert lengths[(alpha, alpha - beta)] + n == 3 * n_cross - 2
            assert lengths[(alpha, bp)] == n
    elapsed = time.process_time() - t0
    assert elapsed < 5.0
    _report(2, "exhaustive identities for alpha <= 300", elapsed)


def test_criterion_03_minimal_diagram_bounds():
    t0 = time.process_time()
    for alpha, beta, n_cross in fractions_with_crossing_number_up_to(12):
        if alpha % 2 == 0:
            continue
        r = Fraction(alpha, beta)
        md = minimal_diagram(r)
        assert n_cross < md.b and 2 * md.b < 3 * n_cross
        # word criterion == length comparison with the conjugate expansion
        w = pm_word(regular_expansion(r))
        n = len(regular_expansion(r))
        assert is_minimal_by_word(r) == (w.degP >= w.degM + 3) == (2 * n < 3 * n_cross - 2)
        assert (not md.mirrored) == is_minimal_by_word(r)
    elapsed = time.process_time() - t0
    assert elapsed < 10.0
    _report(3, "diagram degree bounds for N <= 12", elapsed)


def test_criterion_04_family_degrees():
    t0 = time.perf_counter()
    for k in range(1, 11):
        assert minimal_diagram(torus_fraction(k)).b == 3 * k + 1
        assert minimal_diagram(twist_fraction(2 * k + 1)).b == 3 * k + 4
        assert minimal_diagram(twist_fraction(2 * k)).b == 3 * k + 2
        assert minimal_diagram(stevedore_fraction(k)).b == 6 * k + 2
    elapsed = time.perf_counter() - t0
    _report(4, "family diagram degrees", elapsed)


def test_criterion_05_degree_identity_and_worked_sequences():
    t0 = time.perf_counter()
    for alpha, beta, n_cross in fractions_with_crossing_number_up_to(12):
        if alpha % 2 == 0:
            continue
        md = minimal_diagram(Fraction(alpha, beta))
        assert md.b + count_sign_changes(gauss_sequence(md.form)) == 3 * n_cross
    g = gauss_sequence(minimal_diagram(Fraction(9, 7)).form)
    assert g.signs == (1, -1, -1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, 1)
    assert count_sign_changes(g) == 10
    p = parametrization(Fraction(7, 2))
    assert (p.b, p.height.degree) == (7, 8)
    elapsed = time.perf_counter() - t0
    _report(5, "b + c = 3N with worked Gauss data", elapsed)


def test_criterion_06_amphicheiral_oddness():
    t0 = time.perf_counter()
    checked = 0
    for alpha in range(3, 201, 2):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1 or (beta * beta + 1) % alpha:
                continue
            p = parametrization(Fraction(alpha, beta))
            assert p.b % 2 == 1
            assert p.height.is_odd_symmetric
            assert (0.0 in p.height.roots) == (p.height.degree % 2 == 1)
            checked += 1
    assert checked > 0
    elapsed = time.perf_counter() - t0
    _report(6, f"odd heights for {checked} amphicheiral inputs", elapsed)


def test_criterion_07_harmonic_ground_truth():
    t0 = time.perf_counter()
    form = harmonic_conway(5, 1)
    assert form.signs == (1, 1, 1, 1)
    assert eval_cf(form.signs) == Fraction(5, 3)

    canon = classify(HarmonicSpec(3, 31, 43))
    assert (canon.b_prime, canon.c_prime, canon.crossing_number) == (5, 7, 4)

    for n in range(1, 11):
        canon = classify(HarmonicSpec(3, 3 * n + 2, 3 * n + 1))
        assert canon.fraction == Fraction(2 * n + 1, 2 * n)
        assert canon.mirror is True
        assert equivalent(
            canonicalize(canon.fraction.num, canon.fraction.den),
            canonicalize(2 * n + 1, 1),
        ) is Equivalence.MIRROR

    for b in range(4, 31):
        if b % 3 == 0:
            continue
        form = harmonic_conway(b, 1)
        assert form.signs == (1,) * (b - 1)
        assert eval_cf(form.signs) == Fraction(fibonacci(b), fibonacci(b - 1))
    elapsed = time.perf_counter() - t0
    _report(7, "harmonic worked values and families", elapsed)


def test_criterion_08_closed_form_vs_numeric_oracle():
    t0 = time.process_time()
    pairs = mismatches = 0
    for b in range(4, 41):
        if b % 3 == 0:
            continue
        for c in range(4, 41):
            if c % 3 == 0 or gcd(b, c) != 1 or b % 3 == c % 3:
                continue
            lam = (2 * b - c) // 3
            sample = measure_crossings(3, b, ChebyshevHeight(c))
            pairs += 1
            # slot i is A_k, B_k or C_k with k = i // 3, A_n last for b = 3n + 2
            for i, crossing in enumerate(sample.crossings):
                if crossing.d_sign != crossing_sign_closed_form(b, lam, "ABC"[i % 3], i // 3):
                    mismatches += 1
            if 0 < 2 * lam < b:
                if sample.conway_signs != harmonic_conway(b, lam).signs:
                    mismatches += 1
    assert pairs >= 200 and mismatches == 0
    elapsed = time.process_time() - t0
    assert elapsed < 30.0
    _report(8, f"closed form vs oracle on {pairs} curves, 0 mismatches", elapsed)


def test_criterion_09_end_to_end_verification():
    t0 = time.perf_counter()
    min_separation = float("inf")
    count = 0
    for alpha, beta, _ in fractions_with_crossing_number_up_to(10):
        if alpha % 2 == 0:
            continue
        r = Fraction(alpha, beta)
        p = parametrization(r)
        assert verify_parametrization(r, p)
        sample = measure_crossings(3, p.b, p.height)
        min_separation = min(min_separation, sample.min_separation)
        count += 1
    assert min_separation > 1e-6
    elapsed = time.perf_counter() - t0
    _report(9, f"end-to-end on {count} knots, min separation {min_separation:.2e}", elapsed)


def test_criterion_10_non_harmonic_certificates():
    t0 = time.perf_counter()
    for m in range(3, 51):
        assert not is_harmonic_candidate(canonicalize(2 * m + 1, 2))
    assert not is_harmonic_candidate(canonicalize(9, 2))
    for n in range(2, 21):
        frac = kn_fraction(n)
        want = 1 if (n + 1) % 2 == 0 else frac.num - 1
        assert (frac.den * frac.den) % frac.num == want
    elapsed = time.perf_counter() - t0
    _report(10, "non-harmonic twist/stevedore certificates", elapsed)
