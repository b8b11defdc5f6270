import random
from fractions import Fraction
from math import lcm

import pytest

from panoptigon.census import genus1_classes
from panoptigon.classify import hyperelliptic_polygon, standard_triangle, trapezoid, valid_forms
from panoptigon.core import convex_hull
from panoptigon.relaxation import is_maximal, relax, relaxed_lattice

from conftest import (
    boundary_point_count,
    double_area,
    pairwise_relax,
    random_polygon,
    random_polygon_2d,
    random_sheared_polygon,
    random_unimodular_map,
)


def relaxed_fractions(scaled, d) -> tuple:
    """relax(P)'s vertices as ``Fraction`` pairs, from ``relax``'s (D * relax(P), D)."""
    return tuple((Fraction(x, d), Fraction(y, d)) for x, y in scaled.vertices)


def assert_matches_oracle(poly) -> tuple:
    """relax(P) has the oracle's exact vertices, and D is the lcm of their denominators."""
    expected = pairwise_relax(poly)
    scaled, d = relax(poly)
    assert relaxed_fractions(scaled, d) == expected, poly
    assert d == lcm(*(c.denominator for v in expected for c in v)), poly
    return expected


def rational_contains(vs, p) -> bool:
    """p lies on or left of every CCW edge of the polygon with rational vertices vs."""
    for i, (ax, ay) in enumerate(vs):
        bx, by = vs[(i + 1) % len(vs)]
        if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) < 0:
            return False
    return True


def collapsed_edges(poly):
    """Pushed-out (a, b, c + 1) of P's half-planes meeting relax(P) in at most one vertex."""
    scaled, d = relax(poly)
    return [
        (a, b, c + 1)
        for a, b, c in poly.halfplanes()
        if sum(a * x + b * y == (c + 1) * d for x, y in scaled.vertices) < 2
    ]


def test_relax_standard_triangle():
    assert relax(standard_triangle(1)) == (convex_hull([(-1, -1), (3, -1), (-1, 3)]), 1)
    assert relaxed_lattice(standard_triangle(1)) == convex_hull([(-1, -1), (3, -1), (-1, 3)])


def test_relaxed_lattice_failure_carries_witness():
    assert relaxed_lattice(trapezoid(0, 3)) is None
    scaled, d = relax(trapezoid(0, 3))
    x, y = next((x, y) for x, y in scaled.vertices if x % d or y % d)
    witness = (Fraction(x, d), Fraction(y, d))
    assert witness[0].denominator > 1 or witness[1].denominator > 1
    assert rational_contains(relaxed_fractions(scaled, d), witness)


def test_trapezoid_relaxation_family():
    """relax(T_{a,b}) is lattice iff a >= b/2 - 1; then the relaxed vertices
    are (-1,-1), (2b-a+1,-1), (2a-b+1,2), (-1,2) and the genus is a+b+2."""
    for b in range(1, 21):
        for a in range(0, b + 1):
            result = relaxed_lattice(trapezoid(a, b))
            should_be_lattice = 2 * a >= b - 2
            assert (result is not None) == should_be_lattice, (a, b)
            if not should_be_lattice:
                continue
            expected = {(-1, -1), (2 * b - a + 1, -1), (2 * a - b + 1, 2), (-1, 2)}
            if (a, b) == (0, 1):
                # (2b-a+1,-1) = (3,-1) and (2a-b+1,2) = (0,2) merge the top
                # edge into a single slanted edge: the relaxation is a
                # triangle (a translate of the size-4 standard triangle).
                assert set(result.vertices) == {(-1, -1), (3, -1), (-1, 3)}
            else:
                assert set(result.vertices) == expected, (a, b)
            assert result.genus == a + b + 2, (a, b)


@pytest.mark.parametrize(
    "poly",
    [
        convex_hull([(0, 0), (1, 0), (5, 1), (1, 2)]),
        trapezoid(1, 4),
        trapezoid(2, 6),
        trapezoid(1, 7),
        trapezoid(0, 3),
        standard_triangle(1),
        convex_hull([(0, 0), (1, 300000), (0, 1)]),
    ],
    ids=repr,
)
def test_relax_matches_pairwise_oracle_on_known_cases(poly):
    # Collapsing edges (the first four), a nonlattice relaxation, T_1, and a
    # needle with 3 lattice points.
    assert_matches_oracle(poly)


def test_relax_matches_pairwise_oracle_on_random_polygons():
    """Exact vertex tuples and D, on small, wide and sheared polygons; some edge collapses in many."""
    rng = random.Random(1212)
    makers = (
        lambda: random_polygon_2d(rng),
        lambda: random_polygon_2d(rng, span=2, points=4),
        lambda: random_polygon_2d(rng, span=40, points=rng.randint(3, 12)),
        lambda: random_sheared_polygon(rng),
    )
    checked = collapsing = 0
    while checked < 2400:
        poly = makers[checked % 4]()
        if poly.dimension != 2:
            continue
        expected = assert_matches_oracle(poly)
        lattice = relaxed_lattice(poly)
        integral = all(c.denominator == 1 for v in expected for c in v)
        assert (lattice is not None) == integral, poly
        assert lattice is None or lattice.vertices == tuple(
            (int(x), int(y)) for x, y in expected
        ), poly
        checked += 1
        collapsing += bool(collapsed_edges(poly))
    assert collapsing > 100, collapsing


def test_collapsed_edges_recorded():
    # Relaxing this width-2 quadrilateral pushes the two slanted edges past
    # the bottom edge, which therefore disappears from the relaxation.
    poly = convex_hull([(0, 0), (1, 0), (5, 1), (1, 2)])
    assert collapsed_edges(poly)
    assert relax(poly)[1] > 1


def test_is_maximal():
    assert is_maximal(standard_triangle(3))
    assert is_maximal(standard_triangle(4))


def test_is_maximal_rejects_genus_zero():
    with pytest.raises(ValueError):
        is_maximal(standard_triangle(1))


def test_hyperelliptic_maximality_examples():
    # T_{2,2} relaxes to a lattice polygon, so the relaxation is maximal
    # while the trapezoid strictly inside it is not.
    grown = relaxed_lattice(trapezoid(2, 2))
    assert is_maximal(grown)
    # This genus-1 triangle sits strictly inside the size-3 standard
    # triangle with the same interior point, so it is not maximal.
    assert not is_maximal(convex_hull([(0, 0), (2, 0), (1, 2)]))


def one_point_extension(poly):
    """Maximality oracle: a lattice point whose addition keeps the interior points, or None.

    Scans a box around P with a margin of P's larger side.  By the strip
    bound in ``is_maximal``'s docstring, that box holds a witness whenever a
    polygon with collinear interior has one.
    """
    xmin, ymin, xmax, ymax = poly.bounding_box()
    m = max(xmax - xmin, ymax - ymin)
    for x in range(xmin - m, xmax + m + 1):
        for y in range(ymin - m, ymax + m + 1):
            q = (x, y)
            if poly.contains(q):
                continue
            # The interior can only grow, so equal counts (by Pick) mean equal sets.
            bigger = convex_hull(list(poly.vertices) + [q])
            if double_area(bigger) - boundary_point_count(bigger) + 2 == 2 * poly.genus:
                return q
    return None


def test_is_maximal_matches_probe_on_random_polygons():
    rng = random.Random(5)
    checked = maximal = 0
    while checked < 150:
        poly = random_polygon(rng, span=3)
        if poly.genus == 0 or poly.interior_polygon().dimension == 2:
            continue
        checked += 1
        expected = one_point_extension(poly) is None
        maximal += expected
        assert is_maximal(poly) == expected, poly
    assert 0 < maximal < checked


def test_is_maximal_matches_probe_on_width2_forms():
    rng = random.Random(11)
    maximal = {}
    for g in range(2, 7):
        for form in valid_forms(g):
            poly = hyperelliptic_polygon(form)
            expected = one_point_extension(poly) is None
            maximal[g] = maximal.get(g, 0) + expected
            assert is_maximal(poly) == expected, form
            assert is_maximal(random_unimodular_map(rng)(poly)) == expected, form
    # The maximal genus-g polygons of width 2 are g + 2 forms.
    assert maximal == {g: g + 2 for g in range(2, 7)}


def test_exactly_three_genus1_classes_are_maximal():
    classes = genus1_classes()
    assert len(classes) == 16
    assert sum(is_maximal(p) for p in classes) == 3
