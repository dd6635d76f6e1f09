"""Continued fractions, monoid words, matrices, and their identities."""

from __future__ import annotations

import random
from fractions import Fraction as StdFraction
from itertools import chain, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    classical_euclid_oracle,
    coprime_pairs,
    eval_cf_oracle,
    fractions_with_crossing_number_up_to,
    one_regular_sequences,
)
from chebknot.contfrac import (
    Fraction,
    Mat2,
    PMWord,
    RegularCF,
    _regular_terms,
    _validate_one_regular,
    classical_expansion,
    cn_from_regular,
    conjugate_fractions,
    crossing_number,
    eval_cf,
    fibonacci,
    palindromy_report,
    parity_class,
    pm_word,
    regular_expansion,
    word_to_matrix,
)
from chebknot.diagram import ConwayForm, MinimalDiagram, _minimal_diagram
from chebknot.errors import (
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


# ---------------------------------------------------------------------------
# Fraction value type
# ---------------------------------------------------------------------------

def test_fraction_normalizes_sign_into_denominator():
    assert Fraction(-9, 7) == Fraction(9, -7)
    assert Fraction(9, -7).num == 9 and Fraction(9, -7).den == -7
    assert Fraction(6, 4) == Fraction(3, 2)
    assert Fraction(0, -5) == Fraction(0, 1)


def test_fraction_parse_applies_minus_to_denominator():
    assert Fraction.parse("-9/7") == Fraction(9, -7)
    assert Fraction.parse("9/7") == Fraction(9, 7)
    assert Fraction.parse("5") == Fraction(5, 1)
    assert Fraction.parse("-5") == Fraction(5, -1)


def test_fraction_ordering():
    assert Fraction(9, 7) > 1
    assert Fraction(7, 9) < 1
    assert Fraction(9, -7) < 0
    assert Fraction(3, 2) < Fraction(9, 5)


def test_fraction_zero_denominator_rejected():
    with pytest.raises(ChebknotError):
        Fraction(1, 0)


# ---------------------------------------------------------------------------
# eval_cf
# ---------------------------------------------------------------------------

def test_eval_cf_worked_examples():
    assert eval_cf([1, 3, 2]) == Fraction(9, 7)
    assert eval_cf([1]) == Fraction(1, 1)
    assert eval_cf([1, 1, -1, -1, -1, 1, 1, -1, -1]) == Fraction(9, 2)
    assert eval_cf([4, 2]) == Fraction(9, 2)


def test_eval_cf_rejects_zero_quotient_and_zero_tail():
    with pytest.raises(ZeroQuotient):
        eval_cf([1, 0, 2])
    with pytest.raises(EmptySequence):
        eval_cf([])
    # [1, -1] = 0 as a tail: inverting it must fail
    with pytest.raises(DivisionByZeroTail):
        eval_cf([5, 1, -1])


def test_eval_cf_matches_stdlib_oracle_on_random_sequences():
    rng = random.Random(7)
    done = 0
    while done < 300:
        terms = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 9))]
        try:
            expected = eval_cf_oracle(terms)
        except ZeroDivisionError:
            continue
        got = eval_cf(terms)
        assert StdFraction(got.num, got.den) == expected
        done += 1


def test_lagrange_identity_on_random_sequences():
    # [x.., a, b, -c, -d, -y..] = [x.., a, b-1, 1, c-1, d, y..]
    rng = random.Random(2024)
    done = 0
    while done < 200:
        x = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
        a, b, c, d = (rng.randint(1, 4) for _ in range(4))
        y = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
        lhs_terms = x + [a, b, -c, -d] + [-v for v in y]
        rhs_terms = x + [a, b - 1, 1, c - 1, d] + y
        if 0 in rhs_terms:
            # b=1 or c=1 degenerate forms need the zero-collapse variants
            continue
        try:
            lhs = eval_cf_oracle(lhs_terms)
            rhs = eval_cf_oracle(rhs_terms)
        except ZeroDivisionError:
            continue
        got_l = eval_cf(lhs_terms)
        got_r = eval_cf(rhs_terms)
        assert StdFraction(got_l.num, got_l.den) == lhs
        assert StdFraction(got_r.num, got_r.den) == rhs
        assert lhs == rhs
        done += 1


def test_projective_evaluation_matches_and_extends_eval_cf():
    from chebknot.contfrac import eval_cf_projective

    rng = random.Random(31)
    for _ in range(300):
        terms = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 10))]
        p, q = eval_cf_projective(terms)
        assert gcd(p, abs(q)) == 1 or (p, q) == (0, 1) or q == 0
        try:
            exact = eval_cf(terms)
        except DivisionByZeroTail:
            continue  # projective form still defined, plain form rejects
        assert Fraction(p, q) == exact
    # a zero tail passes through projectively and lands at infinity
    assert eval_cf_projective([5, 1, -1]) == (-1, 0)


# ---------------------------------------------------------------------------
# classical expansion and crossing number
# ---------------------------------------------------------------------------

def test_classical_expansion_worked_examples():
    assert classical_expansion(Fraction(9, 7)).quotients == (1, 3, 2)
    assert classical_expansion(Fraction(9, 2)).quotients == (4, 2)
    # independent subtractive check for 5/3
    assert classical_euclid_oracle(5, 3) == [1, 1, 2]
    assert classical_expansion(Fraction(5, 3)).quotients == (1, 1, 2)


def test_classical_expansion_requires_greater_than_one():
    with pytest.raises(NotGreaterThanOne):
        classical_expansion(Fraction(7, 9))
    with pytest.raises(NotGreaterThanOne):
        classical_expansion(Fraction(9, -7))


def test_classical_last_quotient_at_least_two():
    for alpha, beta in coprime_pairs(80):
        if alpha > beta:
            q = classical_expansion(Fraction(alpha, beta)).quotients
            assert q[-1] >= 2 or len(q) == 1
            assert eval_cf(q) == Fraction(alpha, beta)


def test_crossing_number_worked_examples():
    assert crossing_number(Fraction(9, 7)) == 6
    assert crossing_number(Fraction(2, 1)) == 2
    # family with word P M P^4 M P: 5*F_5 / (F_5 + F_3) = 25/7
    assert 5 * fibonacci(5) == 25 and fibonacci(5) + fibonacci(3) == 7
    assert crossing_number(Fraction(25, 7)) == 8


# ---------------------------------------------------------------------------
# one-regular expansion
# ---------------------------------------------------------------------------

def test_regular_expansion_worked_examples():
    assert regular_expansion(Fraction(9, 7)).terms == (1, 1, 1, -1, -1, -1, -1)
    assert regular_expansion(Fraction(1, 1)).terms == (1,)
    assert regular_expansion(Fraction(9, 2)).terms == (1, 1, -1, -1, -1, 1, 1, -1, -1)


def test_regular_expansion_rejects_nonpositive():
    with pytest.raises(NonPositiveInput):
        regular_expansion(Fraction(9, -7))
    with pytest.raises(NonPositiveInput):
        regular_expansion(Fraction(0, 1))


def test_regular_cf_validation():
    with pytest.raises(NotOneRegular):
        RegularCF((1, -1))  # last two differ
    with pytest.raises(NotOneRegular):
        RegularCF((1, -1, 1, 1))  # double sign change
    with pytest.raises(NotOneRegular):
        RegularCF((1, 2, 1))
    with pytest.raises(EmptySequence):
        RegularCF(())


def test_regular_cf_refuses_terms_that_are_not_ints():
    for terms in ((True, True), (1.0, 1), (1, -1, -1.0), (1, True)):
        with pytest.raises(NotOneRegular):
            RegularCF(terms)


def _generator_rule_verdict(terms) -> tuple | None:
    """One-regularity by generator rules, with _validate_one_regular's error
    and message: the reference its C-level checks must match."""
    n = len(terms)
    if n == 0:
        return (EmptySequence, "empty sign sequence")
    if terms.count(1) + terms.count(-1) != n:
        return (NotOneRegular, "terms must all be +1 or -1")
    if n >= 2 and terms[-1] * terms[-2] < 0:
        return (NotOneRegular, "last two terms must have equal sign")
    if any(x != y != z for x, y, z in zip(terms, terms[1:], terms[2:])):
        return (NotOneRegular, "two consecutive sign changes")
    return None


def test_validation_and_sign_changes_match_the_generator_rules():
    sequences = chain(
        chain.from_iterable(product((-1, 1), repeat=n) for n in range(15)),
        chain.from_iterable(product((-1, 0, 1, 2), repeat=n) for n in range(8)),
    )
    accepted = 0
    for terms in sequences:
        try:
            _validate_one_regular(terms)
            verdict = None
        except ChebknotError as exc:
            verdict = (type(exc), str(exc))
        assert verdict == _generator_rule_verdict(terms), terms
        if verdict is None:
            accepted += 1
            changes = sum(1 for i in range(len(terms) - 1) if terms[i] * terms[i + 1] < 0)
            assert RegularCF(terms).sign_changes == changes, terms
    assert accepted > 1000


def test_expansion_starts_with_two_plus_ones_iff_greater_than_one():
    for alpha, beta in coprime_pairs(60):
        up = regular_expansion(Fraction(alpha, beta)).terms
        assert up[0] == 1 and up[1] == 1
        if beta > 1:
            down = regular_expansion(Fraction(beta, alpha)).terms
            assert down[0] == 1 and down[1] == -1


def test_uniqueness_by_exhaustive_enumeration():
    """Each positive rational is hit by exactly one one-regular sequence."""
    seen: dict[tuple[int, int], tuple[int, ...]] = {}
    for seq in one_regular_sequences(14):
        try:
            value = eval_cf_oracle(seq)
        except ZeroDivisionError:
            continue
        if value <= 0:
            continue
        key = (value.numerator, value.denominator)
        assert key not in seen, f"two one-regular expansions for {key}"
        seen[key] = seq
    for (num, den), seq in seen.items():
        assert regular_expansion(Fraction(num, den)).terms == seq


def test_round_trip_sweep():
    for alpha, beta in coprime_pairs(120):
        cf = regular_expansion(Fraction(alpha, beta))
        assert cf.fraction() == Fraction(alpha, beta)


def test_expansion_handles_million_scale_numerators():
    # one run of 250,000 P-M pairs, built by one list repetition
    r = Fraction(10**6 + 1, 2)
    cf = regular_expansion(r)
    assert len(cf) == 750003
    assert eval_cf(cf.terms) == r


def _step_loop_expansion(a: int, b: int) -> list[int]:
    """The one-regular expansion of a/b > 0 by one P or M step per
    subtraction of Euclid's algorithm: the reference the run walk of
    contfrac._regular_terms must match."""
    out: list[int] = []
    s = 1
    while not (a == 1 and b == 1):
        if a > b:
            out.append(s)
            a, b = b, a - b
        else:
            out.append(s)
            out.append(-s)
            s = -s
            a, b = b - a, a
    out.append(s)
    return out


def _check_run_walk(alpha: int, beta: int) -> None:
    """The run walk of alpha/beta against the step loop, crossing_number,
    cn_from_regular, and its own negation at s = -1."""
    terms, n = _regular_terms(alpha, beta, 1)
    assert terms == _step_loop_expansion(alpha, beta), (alpha, beta)
    if alpha != beta:  # alpha/beta and beta/alpha have one quotient sum
        assert n == crossing_number(Fraction(max(alpha, beta), min(alpha, beta))), (alpha, beta)
    else:
        assert n == 1
    if alpha > beta:
        assert n == cn_from_regular(RegularCF(terms)), (alpha, beta)
    assert _regular_terms(alpha, beta, -1) == ([-t for t in terms], n), (alpha, beta)


def test_run_walk_matches_the_step_loop_exhaustively():
    pairs = 0
    for alpha in range(1, 300):
        for beta in range(1, 2 * alpha):
            if gcd(alpha, beta) == 1:
                _check_run_walk(alpha, beta)
                pairs += 1
    assert pairs > 50_000


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**12), st.integers(1, 10**12))
def test_run_walk_matches_the_step_loop_up_to_10_12(alpha, beta):
    g = gcd(alpha, beta)
    alpha, beta = alpha // g, beta // g
    # the step loop takes one Python step per subtraction, and the expansion
    # has up to 1.5 terms per subtraction: cap N, their number
    assume(sum(classical_euclid_oracle(alpha, beta)) <= 100_000)
    _check_run_walk(alpha, beta)


def _step_loop_minimal_diagram(alpha: int, beta: int) -> tuple[MinimalDiagram, int]:
    """The own/conjugate rule on step-loop expansions: the shorter of the
    expansions of alpha/beta and alpha/(alpha - beta) wins, the conjugate
    negated and mirrored."""
    own = _step_loop_expansion(alpha, beta)
    conj = _step_loop_expansion(alpha, alpha - beta)
    if len(own) < len(conj):
        form, mirrored = ConwayForm(own, len(own) + 1), False
    else:
        form, mirrored = ConwayForm([-t for t in conj], len(conj) + 1), True
    return MinimalDiagram(form, form.b, mirrored), crossing_number(Fraction(alpha, beta))


def test_minimal_diagram_matches_the_step_loop_rule():
    knots = [(alpha, beta) for alpha, beta, _ in fractions_with_crossing_number_up_to(12) if alpha % 2]
    assert len(knots) > 1000
    for alpha, beta in knots + [(2001, 1)]:
        assert _minimal_diagram(Fraction(alpha, beta)) == _step_loop_minimal_diagram(alpha, beta), (alpha, beta)


def test_expansion_length_refuses_zero():
    assert len(regular_expansion(abs(Fraction(9, -7)))) == len(regular_expansion(Fraction(9, 7))) == 7
    with pytest.raises(NonPositiveInput, match="0/1 is not a positive fraction"):
        regular_expansion(abs(Fraction(0, 1)))


def test_cn_from_regular_examples_and_errors():
    assert cn_from_regular(RegularCF((1, 1, 1, -1, -1, -1, -1))) == 6
    assert cn_from_regular(RegularCF((1, 1, -1, -1, -1, 1, 1, -1, -1))) == 6
    assert cn_from_regular(RegularCF((1, 1))) == 2
    with pytest.raises(WrongLeadingSigns):
        cn_from_regular(RegularCF((1,)))
    with pytest.raises(WrongLeadingSigns):
        cn_from_regular(RegularCF((1, -1, -1)))


def test_cn_formula_agrees_with_classical_definition():
    for alpha, beta in coprime_pairs(120):
        if beta == alpha:
            continue
        r = Fraction(alpha, beta)
        if r > 1:
            assert cn_from_regular(regular_expansion(r)) == crossing_number(r)


def test_mirror_crossing_number_sweep():
    # cn(alpha/beta) = cn(alpha/(alpha - beta))
    for alpha, beta in coprime_pairs(120):
        assert crossing_number(Fraction(alpha, beta)) == crossing_number(
            Fraction(alpha, alpha - beta)
        )


# ---------------------------------------------------------------------------
# words and matrices
# ---------------------------------------------------------------------------

def test_pm_word_worked_examples():
    assert pm_word(regular_expansion(Fraction(9, 7))).letters == "PPMPPP"
    assert pm_word(regular_expansion(Fraction(9, 2))).letters == "PMPMMP"
    assert pm_word(regular_expansion(Fraction(1, 1))).letters == "P"


def test_pm_word_refuses_letters_that_are_not_a_string():
    # a list of letters would make an unhashable record, an int no word at all
    for letters in (["P"], ("P", "M"), 123, None):
        with pytest.raises(ChebknotError, match="invalid word letters"):
            PMWord(letters)


def test_pm_word_rejects_negated_expansions():
    # (-1, -1, -1) is a valid sign pattern but evaluates to -3/2 < 0,
    # which no word over P and M can reach
    with pytest.raises(NotOneRegular):
        pm_word(RegularCF((-1, -1, -1)))


def test_word_terms_inverts_pm_word():
    for alpha, beta in coprime_pairs(60):
        cf = regular_expansion(Fraction(alpha, beta))
        assert pm_word(cf).terms() == cf.terms


def test_word_degree_identities():
    for alpha, beta in coprime_pairs(100):
        r = Fraction(alpha, beta)
        cf = regular_expansion(r)
        w = pm_word(cf)
        assert len(cf) == w.degP + 2 * w.degM
        if beta < alpha:
            assert crossing_number(r) == w.degP + w.degM


def test_word_to_matrix_fibonacci_powers():
    w = PMWord("P" * 5)
    m = word_to_matrix(w)
    assert (m.a, m.b, m.c, m.d) == (8, 5, 5, 3)
    assert word_to_matrix(PMWord("")) == Mat2.identity()


def test_word_to_matrix_family_value():
    # P M P^4 M P applied to (1, 0): the n = 4 member of the P M P^n M P family
    m = word_to_matrix(PMWord("PM" + "P" * 4 + "MP"))
    assert m.apply(1, 0) == (25, 7)


def test_word_matrix_matches_fraction_evaluation():
    for alpha, beta in coprime_pairs(60):
        cf = regular_expansion(Fraction(alpha, beta))
        assert pm_word(cf).fraction() == Fraction(alpha, beta)


def test_matrix_determinant_law():
    rng = random.Random(5)
    for _ in range(200):
        letters = "".join(rng.choice("PM") for _ in range(rng.randint(0, 10)))
        m = word_to_matrix(PMWord(letters))
        assert m.a * m.d - m.b * m.c == (-1) ** len(letters)
        assert min(m.a, m.b, m.c, m.d) >= 0


def test_monoid_freeness_injectivity_up_to_length_12():
    seen = {}
    frontier = [("", Mat2.identity())]
    for _ in range(12):
        nxt = []
        for letters, m in frontier:
            for ch, lm in (("P", word_to_matrix(PMWord("P"))), ("M", word_to_matrix(PMWord("M")))):
                word = letters + ch
                mat = m @ lm
                key = (mat.a, mat.b, mat.c, mat.d)
                assert key not in seen, f"collision {seen.get(key)} vs {word}"
                seen[key] = word
                nxt.append((word, mat))
        frontier = nxt
    assert len(seen) == 2 ** 13 - 2


def test_pgp_image_bounds():
    # P G P matrices have 0 < beta' < alpha always, and 0 < alpha' < beta
    # whenever beta > 1 (at beta = 1 the second pair degenerates).
    for alpha, beta in coprime_pairs(60):
        r = Fraction(alpha, beta)
        if not r > 1:
            continue
        m = pm_word(regular_expansion(r)).matrix()
        assert (m.a, m.c) == (alpha, beta)
        assert 0 < m.b < m.a
        if beta > 1:
            assert 0 < m.d < m.c


# ---------------------------------------------------------------------------
# conjugate fractions
# ---------------------------------------------------------------------------

def test_conjugate_fractions_worked_example():
    conj = conjugate_fractions(Fraction(9, 7))
    assert conj.beta_over_alpha == Fraction(7, 9)
    assert conj.alpha_over_alpha_minus_beta == Fraction(9, 2)
    # beta * beta' = (-1)^(N-1) mod alpha with N = 6: 7 * 5 = 35 = -1 mod 9
    assert conj.alpha_over_beta_prime == Fraction(9, 5)
    assert len(regular_expansion(conj.alpha_over_beta_prime)) == 7


def test_conjugate_lengths_worked_examples():
    assert len(regular_expansion(Fraction(9, 7))) == 7
    assert len(regular_expansion(Fraction(9, 2))) == 9
    assert len(regular_expansion(Fraction(9, 7))) + len(regular_expansion(Fraction(9, 2))) == 16
    assert len(regular_expansion(Fraction(1, 2))) == 3
    assert len(regular_expansion(Fraction(2, 1))) == 2
    conj = conjugate_fractions(Fraction(2, 1))
    assert conj.beta_over_alpha == Fraction(1, 2)


def test_conjugate_fractions_requires_pgp():
    with pytest.raises(NotPGPForm):
        conjugate_fractions(Fraction(1, 1))
    with pytest.raises(NotPGPForm):
        conjugate_fractions(Fraction(7, 9))


def test_conjugate_identities_sweep():
    for alpha, beta in coprime_pairs(60):
        if beta == alpha:
            continue
        r = Fraction(alpha, beta)
        if not r > 1:
            continue
        n_cross = crossing_number(r)
        conj = conjugate_fractions(r)
        assert conj.beta_over_alpha == Fraction(beta, alpha)
        assert conj.alpha_over_alpha_minus_beta == Fraction(alpha, alpha - beta)
        bp = conj.alpha_over_beta_prime
        assert bp.num == alpha and 0 < bp.den < alpha
        want = 1 if n_cross % 2 == 1 else alpha - 1
        assert (beta * bp.den) % alpha == want % alpha
        # length identities
        l_r = len(regular_expansion(r))
        assert len(regular_expansion(Fraction(beta, alpha))) + l_r == 3 * n_cross - 1
        assert len(regular_expansion(Fraction(alpha, alpha - beta))) + l_r == 3 * n_cross - 2
        assert len(regular_expansion(bp)) == l_r


def test_reversal_law():
    # For r = P G P(1/0) = [e_1..e_n], the reversed word P rev(G) P gives
    # e_n * [e_n, ..., e_1].
    for alpha, beta in coprime_pairs(50):
        r = Fraction(alpha, beta)
        if not r > 1:
            continue
        cf = regular_expansion(r)
        w = pm_word(cf)
        rev_word = PMWord("P" + w.letters[1:-1][::-1] + "P")
        e_last = cf.terms[-1]
        reversed_value = eval_cf_oracle(list(reversed(cf.terms)))
        got = rev_word.fraction()
        assert StdFraction(got.num, got.den) == e_last * reversed_value


# ---------------------------------------------------------------------------
# parity and palindromy
# ---------------------------------------------------------------------------

def test_parity_class_worked_examples():
    assert parity_class(regular_expansion(Fraction(9, 7))) == 1
    assert parity_class(regular_expansion(Fraction(1, 1))) == 1
    assert parity_class(regular_expansion(Fraction(2, 1))) == 2


def test_parity_class_sweep():
    for alpha, beta in coprime_pairs(120):
        cf = regular_expansion(Fraction(alpha, beta))
        residue = parity_class(cf)
        if residue == 2:
            assert alpha % 2 == 0 and beta % 2 == 1
        elif residue == 0:
            assert alpha % 2 == 1 and beta % 2 == 0
        else:
            assert alpha % 2 == 1 and beta % 2 == 1


def test_palindromy_worked_examples():
    rep = palindromy_report(Fraction(5, 3))
    assert rep.amphicheiral and rep.g_palindromic and not rep.two_component
    rep = palindromy_report(Fraction(9, 2))
    assert not rep.amphicheiral and rep.beta_sq_mod_alpha == 4
    rep = palindromy_report(Fraction(3, 1))
    assert rep.g_palindromic and not rep.amphicheiral


def test_palindromy_amphicheirality_agrees_with_canonicalize():
    from chebknot.bridge import canonicalize

    # S(2/1) is its own mirror: canonicalize sends 2/-1 to the same knot
    assert canonicalize(2, -1) == canonicalize(2, 1)
    assert palindromy_report(Fraction(2, 1)).amphicheiral
    assert canonicalize(2, 1).amphicheiral
    for alpha, beta in coprime_pairs(100):
        want = canonicalize(alpha, beta).amphicheiral
        assert palindromy_report(Fraction(alpha, beta)).amphicheiral == want, (alpha, beta)


def test_palindromy_sweep():
    for alpha, beta in coprime_pairs(80):
        r = Fraction(alpha, beta)
        if not r > 1:
            continue
        rep = palindromy_report(r)
        n_cross = crossing_number(r)
        want = 1 if n_cross % 2 == 1 else alpha - 1
        assert rep.g_palindromic == ((beta * beta) % alpha == want % alpha)
        if rep.amphicheiral:
            assert n_cross % 2 == 0
            cf = regular_expansion(r)
            assert len(cf) % 2 == 0
            assert cf.terms == tuple(reversed(cf.terms))
