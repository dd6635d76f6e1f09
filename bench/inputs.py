"""Seeded benchmark inputs, generated without the library.

Everything here is plain integer arithmetic of the benchmark's own: knot
fractions come from compositions of the crossing number, crossing numbers
from Euclid's algorithm, family members from their closed forms.  The same
seed always yields the same inputs, and nothing here imports chebknot, so
the library only ever sees the generated values.

The traced run makes all its passes in one interpreter, so every pass
draws its own inputs from (seed, pass): a fresh order for the census and
the grid, fresh members for giants, the large-c tail and the CLI.  Inputs
meant to be distinct traffic then never warm a cache for a later pass.
The untraced run repeats pass 0's inputs, each pass in a process of its
own, where no earlier pass left a cache behind.
"""

from __future__ import annotations

import random
from math import gcd

CENSUS_MAX_N = 12
CENSUS_SIZE = 1364

GIANT_MIN_N = 100
GIANT_MAX_N = 2001
GIANT_BINS = 47
GIANT_FIXED = (2001, 1)
GIANT_KINDS = ("torus", "twist", "stevedore", "fibonacci", "kn", "random")
RANDOM_ALPHA_MAX = 10**9

HARMONIC_MAX = 400
HARMONIC_GRID_SIZE = 48082
LARGE_C_B_MAX = 999
LARGE_C_C_MAX = 10**9 - 1
LARGE_C_FIXED = (4, 1000003)

CLI_COMMANDS = 12
CLI_VERBS = ("expand", "diagram", "param", "harmonic", "verify", "family")
FAMILY_INDEX = {"torus": (1, 10), "twist": (1, 10), "stevedore": (1, 5),
                "fibonacci": (3, 20), "kn": (2, 15)}


def quotients(alpha: int, beta: int) -> list[int]:
    """Positive-quotient Euclid expansion of alpha/beta."""
    out = []
    while beta:
        q, alpha, beta = alpha // beta, beta, alpha % beta
        out.append(q)
    return out


def crossing_number(alpha: int, beta: int) -> int:
    """Sum of the classical quotients of alpha/beta > 1."""
    return sum(quotients(alpha, beta))


def continued_fraction(qs: tuple[int, ...]) -> tuple[int, int]:
    """(p, q) with p/q = [q1; q2, ..., qn], already coprime."""
    p, q = qs[-1], 1
    for a in reversed(qs[:-1]):
        p, q = a * p + q, p
    return p, q


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def census_knots(max_n: int = CENSUS_MAX_N) -> list[tuple[int, int, int]]:
    """Every knot fraction alpha/beta > 1 with crossing number <= max_n.

    Fractions > 1 correspond one-to-one to quotient sequences whose last
    quotient is >= 2; the crossing number is the quotient sum.  Odd
    numerators are knots, even ones links.
    """
    out = []
    for n in range(2, max_n + 1):
        for comp in _compositions(n):
            if comp[-1] >= 2:
                alpha, beta = continued_fraction(comp)
                if alpha % 2:
                    out.append((alpha, beta, n))
    return out


def census_order(seed: int, pass_index: int = 0) -> list[tuple[int, int, int]]:
    knots = census_knots()
    random.Random(f"census:{seed}:{pass_index}").shuffle(knots)
    return knots


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def family_fraction(kind: str, index: int) -> tuple[int, int]:
    """Closed forms of the named families (reduced alpha, beta)."""
    if kind == "torus":
        alpha, beta = 2 * index + 1, 1
    elif kind == "twist":
        alpha, beta = 2 * index + 1, 2
    elif kind == "stevedore":
        alpha, beta = (2 * index + 1) ** 2, 2 * index
    elif kind == "fibonacci":
        alpha, beta = _fib(index), _fib(index - 1)
    elif kind == "kn":
        alpha, beta = 5 * _fib(index + 1), _fib(index + 1) + _fib(index - 1)
    else:
        raise ValueError(f"unknown family {kind!r}")
    g = gcd(alpha, beta)
    return alpha // g, beta // g


# Crossing number of each family member as a function of its index; every
# drawn member is re-checked with Euclid, this only narrows the search.
_FAMILY_N = {
    "torus": lambda i: 2 * i + 1,
    "twist": lambda i: i + 2,
    "stevedore": lambda i: 4 * i + 2,
    "fibonacci": lambda i: i - 1,
    "kn": lambda i: i + 4,
}


def giant_bins() -> list[tuple[int, int]]:
    """GIANT_BINS half-open crossing-number bins covering [100, 2001)."""
    span = GIANT_MAX_N - GIANT_MIN_N
    edges = [GIANT_MIN_N + span * i // GIANT_BINS for i in range(GIANT_BINS + 1)]
    return list(zip(edges, edges[1:]))


def amphicheiral(alpha: int, beta: int) -> bool:
    return (beta * beta + 1) % alpha == 0


def _draw_family(rng: random.Random, kind: str, lo: int, hi: int,
                 amph: bool) -> tuple[int, int]:
    n_of = _FAMILY_N[kind]
    candidates = [i for i in range(1, 2 * hi + 8) if lo <= n_of(i) < hi]
    rng.shuffle(candidates)
    for index in candidates:
        alpha, beta = family_fraction(kind, index)
        if (alpha % 2 and alpha > beta and amphicheiral(alpha, beta) == amph
                and lo <= crossing_number(alpha, beta) < hi):
            return alpha, beta
    raise ValueError(f"no {kind} knot with {lo} <= N < {hi}, amphicheiral={amph}")


def _draw_random(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    while True:
        alpha = rng.randrange(3, RANDOM_ALPHA_MAX + 1, 2)
        beta = rng.randrange(1, alpha)
        if gcd(alpha, beta) == 1 and lo <= crossing_number(alpha, beta) < hi:
            return alpha, beta


def giants(seed: int, pass_index: int = 0) -> list[tuple[int, int, int, str]]:
    """One knot per crossing-number bin plus the fixed torus knot 2001/1.

    Each bin's family, and whether its member is amphicheiral, is fixed
    (every fourth fibonacci and kn bin holds an amphicheiral member; the
    other families have none at this size), so the sizes and kinds, and
    with them the latency quantiles, are the same for every seed; the seed
    and pass pick the member inside each bin.  Returns (alpha, beta, N, kind) in
    seeded order.
    """
    rng = random.Random(f"giants:{seed}:{pass_index}")
    pool = [(*GIANT_FIXED, crossing_number(*GIANT_FIXED), "torus")]
    for i, (lo, hi) in enumerate(giant_bins()):
        kind = GIANT_KINDS[i % len(GIANT_KINDS)]
        if kind == "random":
            alpha, beta = _draw_random(rng, lo, hi)
        else:
            amph = kind in ("fibonacci", "kn") and (i // len(GIANT_KINDS)) % 4 == 0
            alpha, beta = _draw_family(rng, kind, lo, hi, amph)
        pool.append((alpha, beta, crossing_number(alpha, beta), kind))
    rng.shuffle(pool)
    return pool


def admissible(b: int, c: int) -> bool:
    """(3, b, c) pairwise coprime with b, c >= 2."""
    return b >= 2 and c >= 2 and b % 3 != 0 and c % 3 != 0 and gcd(b, c) == 1


def harmonic_grid(limit: int = HARMONIC_MAX) -> list[tuple[int, int]]:
    return [
        (b, c)
        for b in range(2, limit + 1)
        for c in range(2, limit + 1)
        if admissible(b, c)
    ]


def harmonic_stream(seed: int, pass_index: int = 0) -> list[tuple[int, int, bool]]:
    """The admissible 400x400 grid plus a 1% tail of large-c pairs.

    Returns (b, c, large_c) in seeded order, the tail spread evenly
    through the shuffled grid.  The tail holds the fixed pair (4, 1000003)
    and seed-drawn pairs with b < 1000 and c < 1e9.
    """
    rng = random.Random(f"harmonic:{seed}:{pass_index}")
    stream = [(b, c, False) for b, c in harmonic_grid()]
    n_tail = round(len(stream) / 100)
    tail = {LARGE_C_FIXED}
    while len(tail) < n_tail:
        b = rng.randrange(2, LARGE_C_B_MAX + 1)
        c = rng.randrange(HARMONIC_MAX + 1, LARGE_C_C_MAX + 1)
        if admissible(b, c):
            tail.add((b, c))
    rng.shuffle(stream)
    tail_list = sorted(tail)
    rng.shuffle(tail_list)
    # Evenly spaced, so every stretch of the stream holds its share of the tail.
    step = len(stream) / len(tail_list)
    for i, (b, c) in reversed(list(enumerate(tail_list))):
        stream.insert(int(i * step), (b, c, True))
    return stream


def cli_commands(seed: int, pass_index: int = 0) -> list[list[str]]:
    """CLI argument vectors cycling through the single-record verbs.

    Knot verbs take seed-drawn census knots; harmonic takes a small
    admissible triple (an unknot answer is a valid outcome); family takes
    a small member.  Output paths are filled in by the caller.
    """
    rng = random.Random(f"cli:{seed}:{pass_index}")
    knots = census_knots()
    small = harmonic_grid(60)
    out = []
    for i in range(CLI_COMMANDS):
        verb = CLI_VERBS[i % len(CLI_VERBS)]
        alpha, beta, _ = rng.choice(knots)
        if verb == "harmonic":
            b, c = rng.choice(small)
            args = ["harmonic", "3", str(b), str(c)]
        elif verb == "family":
            kind = rng.choice(sorted(FAMILY_INDEX))
            lo, hi = FAMILY_INDEX[kind]
            args = ["family", kind, str(rng.randint(lo, hi))]
        else:
            args = [verb, f"{alpha}/{beta}"]
        out.append(args + ["--format", "json"])
    return out
