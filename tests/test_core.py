import random
from collections import Counter

from panoptigon import core
from panoptigon.core import Polygon, convex_hull, is_visible

from conftest import (
    bbox_lattice_points,
    boundary_point_count,
    double_area,
    random_polygon,
    visible_from,
)


def test_visibility_is_gcd_one():
    assert is_visible((0, 0), (1, 0))
    assert is_visible((0, 0), (2, 3))
    assert not is_visible((0, 0), (2, 2))
    assert not is_visible((1, 1), (3, 5))  # difference (2,4)
    assert is_visible((4, 7), (4, 7))  # self-visibility by convention


def test_visible_from_filters():
    pts = [(0, 0), (1, 0), (2, 0), (1, 1), (2, 2)]
    assert visible_from((0, 0), pts) == frozenset({(0, 0), (1, 0), (1, 1)})


def test_hull_orientation_and_start_vertex():
    poly = convex_hull([(2, 2), (0, 0), (2, 0), (0, 2), (1, 1)])
    assert poly.vertices == ((0, 0), (2, 0), (2, 2), (0, 2))


def test_hull_drops_collinear_boundary_points():
    poly = convex_hull([(0, 0), (1, 0), (2, 0), (0, 2)])
    assert poly.vertices == ((0, 0), (2, 0), (0, 2))


def test_degenerate_dimensions():
    assert convex_hull([(3, 4)]).dimension == 0
    assert convex_hull([(0, 0), (2, 4), (1, 2)]).dimension == 1
    assert convex_hull([(0, 0), (1, 0), (0, 1)]).dimension == 2


def test_double_area_shoelace():
    assert double_area(convex_hull([(0, 0), (1, 0), (0, 1)])) == 1
    assert double_area(convex_hull([(0, 0), (3, 0), (0, 3)])) == 9
    assert double_area(convex_hull([(0, 0), (2, 0), (2, 2), (0, 2)])) == 8


def test_contains_boundary_and_exterior():
    poly = convex_hull([(0, 0), (4, 0), (0, 4)])
    assert poly.contains((0, 0))
    assert poly.contains((2, 2))  # on the slanted edge
    assert poly.contains((1, 1))
    assert not poly.contains((3, 3))
    assert not poly.contains((-1, 0))


def test_lattice_points_of_standard_triangle():
    poly = convex_hull([(0, 0), (3, 0), (0, 3)])
    assert len(poly.lattice_point_set) == 10
    assert poly.interior_polygon().vertices == ((1, 1),)
    assert poly.genus == 1


def test_hull_insert_matches_full_hull():
    rng = random.Random(20261018)
    checked, cases = 0, Counter()
    while checked < 20_000:
        poly = random_polygon(rng, span=5, points=rng.choice((1, 2, 3, 6)))
        vs = poly.vertices
        on_line = len(vs) >= 2 and rng.random() < 0.3
        if on_line:
            # beyond a vertex on the line of an edge (or of the segment)
            i = rng.randrange(len(vs))
            (vx, vy), (wx, wy) = vs[i], vs[(i + 1) % len(vs)]
            t = rng.randint(1, 3)
            p = (wx + t * (wx - vx), wy + t * (wy - vy))
        else:
            p = (rng.randint(-7, 7), rng.randint(-7, 7))
        if poly.contains(p):
            continue
        expected = core.hull_vertices(vs + (p,))
        assert core.hull_insert(vs, p) == expected, (poly, p)
        checked += 1
        cases["dimension %d" % poly.dimension] += 1
        cases["on an edge's line"] += on_line
        cases["first vertex removed"] += poly.dimension == 2 and vs[0] not in expected
    assert len(cases) == 5 and min(cases.values()) > 100, cases


def test_row_scan_matches_bbox_oracle_on_random_polygons():
    rng = random.Random(20260826)
    for _ in range(300):
        poly = random_polygon(rng)
        if poly.dimension == 2:
            assert poly.lattice_point_set == bbox_lattice_points(poly), poly
            inner = bbox_lattice_points(poly, strict=True)
            assert poly.genus == len(inner), poly
            assert poly.interior_polygon() == (convex_hull(inner) if inner else None), poly


def test_pick_identity_on_random_polygons():
    """The interior row scan counts what Pick's theorem gives from area and boundary."""
    rng = random.Random(4711)
    for _ in range(300):
        poly = random_polygon(rng)
        if poly.dimension == 2:
            scanned = sum(hi - lo + 1 for _, lo, hi in poly._rows(-1))
            assert double_area(poly) == 2 * scanned + boundary_point_count(poly) - 2, poly


def test_interior_polygon():
    t4 = convex_hull([(0, 0), (4, 0), (0, 4)])
    assert t4.interior_polygon().vertices == ((1, 1), (2, 1), (1, 2))
    square = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert square.interior_polygon() is None


def test_interior_polygon_hulls_only_row_ends(monkeypatch):
    d = 600
    triangle = convex_hull([(0, 0), (d, 0), (0, d)])
    sizes = []

    def recording_hull(points):
        points = list(points)
        sizes.append(len(points))
        return convex_hull(points)

    monkeypatch.setattr(core, "convex_hull", recording_hull)
    assert triangle.interior_polygon().vertices == ((1, 1), (d - 2, 1), (1, d - 2))
    assert triangle.genus == (d - 1) * (d - 2) // 2 == 179_101
    # Two ends for each of the d - 2 rows of interior points, not all of them.
    assert sizes and max(sizes) <= 2 * (d - 1)


def translate(poly: Polygon, dx: int, dy: int) -> Polygon:
    return Polygon(tuple((x + dx, y + dy) for x, y in poly.vertices))


def test_translate():
    poly = convex_hull([(0, 0), (2, 0), (0, 2)])
    moved = translate(poly, 3, -1)
    assert moved.vertices == ((3, -1), (5, -1), (3, 1))
    assert moved.genus == poly.genus
