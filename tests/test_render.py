import pytest

from panoptigon.classify import standard_triangle
from panoptigon.core import convex_hull
from panoptigon.render import RenderError, render_svg


def test_triangle_has_ten_dots_and_one_ring():
    svg = render_svg(standard_triangle(3))
    dots = svg.count('r="3" fill="black"')
    rings = svg.count('r="8" fill="none"')
    assert dots == 10
    assert rings == 1


def test_deterministic_output():
    poly = convex_hull([(0, 0), (4, 0), (1, 3)])
    assert render_svg(poly) == render_svg(poly)


def test_relaxed_overlay_marks_nonlattice_vertices(census):
    nonhyp, _ = census
    big = next(r for r in nonhyp if r.lattice_point_count == 13)
    svg = render_svg(big.canonical, relaxed=True)
    assert "stroke-dasharray" in svg
    assert "<rect" in svg and svg.count("<rect") >= 2  # background + squares


def test_degenerate_rejected():
    with pytest.raises(RenderError, match="cannot render dimension < 2"):
        render_svg(convex_hull([(0, 0), (2, 0)]))


def test_lattice_relaxation_overlay_has_no_squares():
    svg = render_svg(standard_triangle(3), relaxed=True)
    assert "stroke-dasharray" in svg
    assert svg.count("<rect") == 1  # background only
