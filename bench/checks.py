"""Output checks, run outside the timed region.

Each check returns None when the output is right and a one-line reason
when it is wrong.  The checks take plain values, not library objects, so
the tests can hand them planted wrong answers.
"""

from __future__ import annotations

import hashlib
import json

# The 400x400 atlas at the seed commit: 38,202 knot records whose
# (b, c, b', c', mirror, alpha, beta, N, amphicheiral) tuples, sorted and
# joined as in atlas_digest, hash to this value.
ATLAS_RECORDS = 38202
ATLAS_SHA256 = "2b09226412c7776a4c3df2f18cd04956c70b6613048bbece70b677404414a75b"

ATLAS_FIELDS = ("b", "c", "b_canon", "c_canon", "mirror", "alpha", "beta", "N", "amphicheiral")


def construction(n: int, b: int, degree: int, reported_n: int) -> str | None:
    """A parametrization of a knot with crossing number n (own Euclid)."""
    if reported_n != n:
        return f"crossing number {reported_n} != {n}"
    if b + degree != 3 * n:
        return f"b + deg C = {b} + {degree} != 3N = {3 * n}"
    if not (n < b and 2 * b < 3 * n):
        return f"b = {b} outside N < b < 3N/2 for N = {n}"
    return None


def canonical_pair(b: int, c: int, n: int) -> str | None:
    """A canonical harmonic pair b' < c' < 2b', 3 | b' + c', 3N = b' + c'."""
    if not (b < c < 2 * b):
        return f"pair ({b}, {c}) not in b' < c' < 2b'"
    if (b + c) % 3:
        return f"3 does not divide {b} + {c}"
    if 3 * n != b + c:
        return f"3N = {3 * n} != b' + c' = {b + c}"
    return None


def same_knot(found: tuple[int, int, bool], expected: tuple[int, int, bool],
              mirrored: bool) -> str | None:
    """Compare canonical (alpha, beta, mirror) triples.

    found must be expected itself, or its mirror image when mirrored is
    set; an amphicheiral knot equals its mirror image.
    """
    if found[:2] != expected[:2]:
        return f"knot {found[0]}/{found[1]} != {expected[0]}/{expected[1]}"
    alpha, beta = expected[:2]
    if (beta * beta + 1) % alpha == 0:
        return None
    if (found[2] != expected[2]) != mirrored:
        return f"mirror bit {found[2]} disagrees with expected {expected[2]} (mirrored={mirrored})"
    return None


def fields(payload: dict, expected: dict) -> str | None:
    """Every expected key present in payload with an equal value."""
    for key, want in expected.items():
        if key not in payload:
            return f"missing field {key!r}"
        if payload[key] != want:
            return f"field {key!r} = {payload[key]!r}, expected {want!r}"
    return None


def atlas_digest(lines) -> tuple[int, str, str | None]:
    """(record count, sha256 of the sorted field tuples, first bad record)."""
    rows = []
    bad = None
    for line in lines:
        rec = json.loads(line)
        row = tuple(rec[k] for k in ATLAS_FIELDS)
        if bad is None:
            bad = canonical_pair(rec["b_canon"], rec["c_canon"], rec["N"])
        rows.append(row)
    rows.sort()
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(str(v) for v in row) + "\n").encode())
    return len(rows), h.hexdigest(), bad


def atlas(lines) -> str | None:
    count, digest, bad = atlas_digest(lines)
    if bad:
        return f"atlas record: {bad}"
    if count != ATLAS_RECORDS:
        return f"atlas has {count} records, expected {ATLAS_RECORDS}"
    if digest != ATLAS_SHA256:
        return f"atlas content digest {digest} differs"
    return None
