"""SVG rendering against the quadratic gap search it replaced."""

from __future__ import annotations

import pytest

from conftest import fractions_with_crossing_number_up_to
from chebknot.contfrac import Fraction
from chebknot.diagram import ConwayForm, minimal_diagram
from chebknot.errors import InvalidForm
from chebknot.heights import gauss_sequence
from chebknot.svg import render_diagram_svg
from chebknot.trig import chebyshev


def _render_quadratic(
    form: ConwayForm, samples_per_lobe: int = 64, size: int = 560, margin: int = 30
) -> str:
    """The renderer before the gap search went linear: every under-crossing
    scans every parameter, and every sample tests every window."""
    b = form.b
    g = gauss_sequence(form)
    params = sorted(p for p, _ in g.events)
    under = [p for p, s in g.events if s < 0]

    def gap_halfwidth(u: float) -> float:
        others = [abs(u - p) for p in params if p != u]
        return 0.38 * min(others) if others else 0.05

    windows = [(u - gap_halfwidth(u), u + gap_halfwidth(u)) for u in under]

    n = max(8, samples_per_lobe) * b
    span = size - 2 * margin

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (margin + (x + 1.0) * span / 2.0, margin + (1.0 - y) * span / 2.0)

    segments: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    for i in range(n + 1):
        t = -1.0 + 2.0 * i / n
        if any(lo < t < hi for lo, hi in windows):
            if len(current) > 1:
                segments.append(current)
            current = []
            continue
        current.append(to_px(chebyshev(3, t), chebyshev(b, t)))
    if len(current) > 1:
        segments.append(current)

    paths = []
    for seg in segments:
        d = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in seg)
        paths.append(
            f'<path d="{d}" fill="none" stroke="black" stroke-width="2.2" '
            'stroke-linecap="round"/>'
        )
    body = "\n  ".join(paths)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'  <rect width="{size}" height="{size}" fill="white"/>\n'
        f"  {body}\n"
        "</svg>\n"
    )


def test_svg_matches_quadratic_renderer_for_small_knots():
    forms = [
        minimal_diagram(Fraction(alpha, beta)).form
        for alpha, beta, _ in fractions_with_crossing_number_up_to(10)
        if alpha % 2
    ]
    assert len(forms) == 340
    for form in forms:
        assert render_diagram_svg(form) == _render_quadratic(form), form.text()


def test_svg_matches_quadratic_renderer_for_torus_b_301():
    form = minimal_diagram(Fraction(201, 1)).form
    assert form.b == 301
    assert render_diagram_svg(form) == _render_quadratic(form)


def test_render_refuses_what_is_not_a_conway_form():
    for form in (None, minimal_diagram(Fraction(9, 2)), (1, 1, 1)):
        with pytest.raises(InvalidForm, match="need a ConwayForm"):
            render_diagram_svg(form)
