"""Shared independent oracles for the test suite.

These helpers deliberately avoid the package's own code paths: continued
fractions are evaluated with the stdlib Fraction type, expansions are found
by brute enumeration, and knot enumeration goes through compositions of the
crossing number.  The one exception is the sweep of C(3, b) crossing tables
at the end, which shares each table among the checks the test modules make
of it.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction as StdFraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest


def eval_cf_oracle(terms) -> StdFraction:
    """Right-to-left evaluation with stdlib rationals."""
    value = StdFraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + 1 / value
    return value


def is_one_regular_oracle(terms) -> bool:
    n = len(terms)
    if n == 0 or any(t == 0 for t in terms):
        return False
    if n >= 2 and terms[-1] * terms[-2] < 0:
        return False
    return not any(
        terms[i] * terms[i + 1] < 0 and terms[i + 1] * terms[i + 2] < 0
        for i in range(n - 2)
    )


def one_regular_sequences(max_len: int):
    """All one-regular +-1 sequences starting with +1, up to max_len."""
    for n in range(1, max_len + 1):
        for tail in product((1, -1), repeat=n - 1):
            seq = (1,) + tail
            if is_one_regular_oracle(seq):
                yield seq


def classical_euclid_oracle(a: int, b: int) -> list[int]:
    """Plain positive-quotient Euclid for a/b > 1."""
    out = []
    while b:
        q, r = divmod(a, b)
        out.append(q)
        a, b = b, r
    return out


def fractions_with_crossing_number_up_to(max_cn: int):
    """Every reduced fraction > 1 with crossing number <= max_cn, once each.

    Fractions > 1 correspond one-to-one to positive-quotient expansions
    whose last quotient is >= 2; the crossing number is the quotient sum.
    """
    seen = []

    def compositions(total: int):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    for n in range(2, max_cn + 1):
        for comp in compositions(n):
            if comp[-1] < 2:
                continue
            value = eval_cf_oracle(comp)
            seen.append((value.numerator, value.denominator, n))
    return seen


def inverse_mod(b: int, a: int) -> int:
    return pow(b % a, -1, a)


def coprime_pairs(limit: int):
    """All (alpha, beta) with 0 < beta < alpha <= limit, gcd = 1."""
    for alpha in range(2, limit + 1):
        for beta in range(1, alpha):
            if gcd(alpha, beta) == 1:
                yield alpha, beta


def bench_inputs():
    """The benchmark's seeded input generator, which does not import chebknot."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Checks of enumerate_crossings(3, b) over every b < 3000 prime to 3, which
# the test modules register with @a3_table_check.  Those tables hold about
# three million rows in all, too many to keep, so one sweep builds each
# table once and hands it to every registered check in turn.
_A3_TABLE_CHECKS: list = []


def a3_table_check(check):
    """Register check(b, rows), which must not change rows, for the sweep."""
    _A3_TABLE_CHECKS.append(check)
    return check


@pytest.fixture(scope="session")
def a3_table_sweep():
    """Run every registered check in one sweep and return a function that
    raises the first exception a check raised, or returns."""
    from chebknot.diagram import enumerate_crossings

    failures = dict.fromkeys(_A3_TABLE_CHECKS)
    for b in range(2, 3000):
        if b % 3 == 0:
            continue
        rows = enumerate_crossings(3, b)
        for check in _A3_TABLE_CHECKS:
            if failures[check] is None:
                try:
                    check(b, rows)
                except Exception as exc:  # reported by the check's own test
                    failures[check] = exc

    def passed(check) -> None:
        if failures[check] is not None:
            raise failures[check]

    return passed
