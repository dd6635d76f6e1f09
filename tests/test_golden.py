"""Golden outputs: the constructed curves and their measured reports.

The digest covers, for every knot fraction alpha/beta with alpha < 80, the
JSON of parametrization(r), the report of measure_crossings on it and its
min_separation, one JSON line per fraction in increasing (alpha, beta).
It was computed before constructed heights were decided by integer gap
counts, and it pins those outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd

from chebknot.contfrac import Fraction
from chebknot.heights import parametrization
from chebknot.oracle import measure_crossings

GOLDEN_FRACTIONS = 1302
GOLDEN_SHA256 = "b4b8c5f76c8a9dd4bc7693834dcb79b28abb946815509687e0a71a5fedcace2f"


def test_parametrizations_and_reports_are_byte_identical_to_the_golden_digest():
    digest = hashlib.sha256()
    count = 0
    for alpha in range(3, 80, 2):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            p = parametrization(Fraction(alpha, beta))
            sample = measure_crossings(3, p.b, p.height)
            line = json.dumps([alpha, beta, p.to_json(), sample.to_report(), sample.min_separation])
            digest.update(line.encode() + b"\n")
            count += 1
    assert count == GOLDEN_FRACTIONS
    assert digest.hexdigest() == GOLDEN_SHA256
