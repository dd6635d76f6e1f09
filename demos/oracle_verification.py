"""Numeric ground truth: measuring explicit curves crossing by crossing.

Crossing parameters of the curve (T_a(t), T_b(t)) are known in closed
form, so any height z can be tested exactly where it matters: which strand
passes over.  Chebyshev heights never even touch floating point, and a
constructed height polynomial is read off its roots: its sign at a
parameter is the parity of the roots above it.
"""

from chebknot import (
    ChebyshevHeight,
    Fraction,
    canonicalize,
    equivalent,
    measure_crossings,
    parametrization,
    recover_knot,
    verify_parametrization,
)

# The curve (T_3, T_10, -T_11) draws a 9-crossing diagram of the torus
# knot T(2,7); the measured twist signs come out in normal form.
sample = measure_crossings(3, 10, ChebyshevHeight(11, sign=-1))
print("curve (T_3, T_10, -T_11):")
print(f"  twist signs  {list(sample.conway_signs)}")
print(f"  knot         {recover_knot(sample)}  (torus T(2,7))")

# Swapping the last two degrees mirrors the knot: the 5-crossing torus
# knot and its mirror image.
print()
for b, c in ((8, 7), (7, 8)):
    knot = recover_knot(measure_crossings(3, b, ChebyshevHeight(c)))
    rel = equivalent(knot, canonicalize(5, 1))
    print(f"H(3,{b},{c}) vs T(2,5): {rel.value}")

# End-to-end: build a parametrization from a fraction alone, then measure
# the resulting curve and confirm it reproduces the input knot.  The margin
# is how far the nearest root of z lies from a crossing parameter.
print()
for text in ("3/1", "7/2", "9/2", "25/7", "35/2"):
    r = Fraction.parse(text)
    p = parametrization(r)
    ok = verify_parametrization(r, p)
    sample = measure_crossings(3, p.b, p.height)
    print(
        f"S({r}): degrees (3, {p.b}, {p.height.degree})"
        f"  verified={ok}  margin {sample.min_separation:.2e}"
    )
