"""Deterministic SVG rendering of lattice polygons.

One lattice unit maps to a fixed pixel scale.  Lattice points in view are
drawn as dots, the polygon as an outline, and panoptigon points as circled
dots.  With the relaxed overlay, the relaxed polygon is drawn dashed and any
non-integral relaxation vertices are marked with squares.
"""

from __future__ import annotations

from .classify import is_panoptigon
from .core import Polygon
from .relaxation import relax

SCALE = 40
MARGIN = 1
DOT_RADIUS = 3
RING_RADIUS = 8
SQUARE_HALF = 6


class RenderError(ValueError):
    """Raised for inputs that cannot be drawn."""


def render_svg(poly: Polygon, relaxed: bool = False) -> str:
    """Render a polygon (optionally with its relaxation) as an SVG string."""
    if poly.dimension < 2:
        raise RenderError("cannot render dimension < 2")

    xmin, ymin, xmax, ymax = poly.bounding_box()
    # The overlay is D * relax(P); its vertex (x, y) stands for (x/D, y/D).
    overlay, d = relax(poly) if relaxed else (None, 1)
    if overlay is not None:
        for x, y in overlay.vertices:
            xmin, xmax = min(xmin, x // d), max(xmax, -(-x // d))
            ymin, ymax = min(ymin, y // d), max(ymax, -(-y // d))
    xmin, ymin = xmin - MARGIN, ymin - MARGIN
    xmax, ymax = xmax + MARGIN, ymax + MARGIN

    width = (xmax - xmin) * SCALE
    height = (ymax - ymin) * SCALE

    def px(x: int, d: int = 1, shift: int = 0) -> str:
        return _fmt_px((x - xmin * d) * SCALE + shift * d, d)

    def py(y: int, d: int = 1, shift: int = 0) -> str:
        # SVG y grows downward; lattice y grows upward.
        return _fmt_px((ymax * d - y) * SCALE + shift * d, d)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
    ]

    # Lattice grid dots over the whole view.
    for y in range(ymin, ymax + 1):
        for x in range(xmin, xmax + 1):
            lines.append(
                '<circle cx="%s" cy="%s" r="%d" fill="#c0c0c0"/>'
                % (px(x), py(y), DOT_RADIUS - 1)
            )

    # Polygon outline and its own lattice points.
    outline = " ".join("%s,%s" % (px(x), py(y)) for x, y in poly.vertices)
    lines.append(
        '<polygon points="%s" fill="none" stroke="black" stroke-width="2"/>'
        % outline
    )
    for x, y in sorted(poly.lattice_point_set):
        lines.append(
            '<circle cx="%s" cy="%s" r="%d" fill="black"/>'
            % (px(x), py(y), DOT_RADIUS)
        )

    # Panoptigon points get a surrounding ring.
    report = is_panoptigon(poly)
    for x, y in sorted(report.panoptigon_points):
        lines.append(
            '<circle cx="%s" cy="%s" r="%d" fill="none" stroke="black" '
            'stroke-width="2"/>' % (px(x), py(y), RING_RADIUS)
        )

    if overlay is not None:
        dashed = " ".join("%s,%s" % (px(x, d), py(y, d)) for x, y in overlay.vertices)
        lines.append(
            '<polygon points="%s" fill="none" stroke="#606060" '
            'stroke-width="2" stroke-dasharray="6,4"/>' % dashed
        )
        for x, y in [(x, y) for x, y in overlay.vertices if x % d or y % d]:
            lines.append(
                '<rect x="%s" y="%s" width="%d" height="%d" fill="none" '
                'stroke="black" stroke-width="2"/>'
                % (
                    px(x, d, -SQUARE_HALF),
                    py(y, d, -SQUARE_HALF),
                    2 * SQUARE_HALF,
                    2 * SQUARE_HALF,
                )
            )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _fmt_px(num: int, den: int) -> str:
    """The pixel coordinate num/den: whole, or to two decimals."""
    if num % den:
        return "%.2f" % (num / den)
    return "%d" % (num // den)
