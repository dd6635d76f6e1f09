"""SVG rendering of C(3, b) diagrams with over-strand gaps."""

from __future__ import annotations

from .diagram import ConwayForm
from .errors import InvalidForm
from .heights import gauss_sequence
from .trig import chebyshev

SIZE = 560  # px, square frame
MARGIN = 30  # px around the curve's [-1, 1]^2 box
SAMPLES_PER_LOBE = 64  # polyline points per unit of b


def render_diagram_svg(form: ConwayForm) -> str:
    """Polyline approximation of (T_3(t), T_b(t)) with the under-strand
    broken around each undercrossing parameter."""
    if not isinstance(form, ConwayForm):
        raise InvalidForm(f"need a ConwayForm, not {form!r}")
    b = form.b
    events = gauss_sequence(form).events[::-1]  # 2(b-1) >= 2 distinct parameters, increasing

    # Each gap is 0.38 of the distance to the nearest other parameter, so
    # the windows are disjoint and, like the parameters, increasing.
    windows = []
    for i, (u, sign) in enumerate(events):
        if sign < 0:
            others = events[i - 1 : i] + events[i + 1 : i + 2]
            half = 0.38 * min(abs(u - p) for p, _ in others)
            windows.append((u - half, u + half))

    n = SAMPLES_PER_LOBE * b
    span = SIZE - 2 * MARGIN

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (MARGIN + (x + 1.0) * span / 2.0, MARGIN + (1.0 - y) * span / 2.0)

    segments: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    w = 0  # first window not wholly left of t; t only grows
    for i in range(n + 1):
        t = -1.0 + 2.0 * i / n
        while w < len(windows) and windows[w][1] <= t:
            w += 1
        if w < len(windows) and windows[w][0] < t:
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">\n'
        f'  <rect width="{SIZE}" height="{SIZE}" fill="white"/>\n'
        f"  {body}\n"
        "</svg>\n"
    )
