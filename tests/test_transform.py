import random

import pytest

from panoptigon.core import convex_hull
from panoptigon.transform import (
    Functional,
    UnimodularMap,
    canonical_form,
    has_lattice_segment,
    lattice_diameter,
    lattice_width,
    width_wrt,
)

from conftest import (
    bounded_lattice_width,
    lattice_diameter_oracle,
    lattice_width_oracle,
    random_polygon_2d,
    random_sheared_polygon,
    random_unimodular_map,
)


def test_functional_normalization():
    assert Functional.normalized(2, 4) == Functional(1, 2)
    assert Functional.normalized(-1, 3) == Functional(1, -3)
    assert Functional.normalized(0, -5) == Functional(0, 1)
    with pytest.raises(ValueError):
        Functional.normalized(0, 0)


def test_unimodular_map_requires_unit_determinant():
    with pytest.raises(ValueError):
        UnimodularMap(((2, 0), (0, 1)))
    m = UnimodularMap(((1, 1), (0, 1)), (3, -2))
    assert m.determinant == 1
    assert m.apply_point((1, 1)) == (5, -1)


def test_unimodular_inverse_roundtrip():
    rng = random.Random(99)
    for _ in range(50):
        m = random_unimodular_map(rng)
        inv = m.inverse()
        for p in [(0, 0), (3, -2), (7, 11)]:
            assert inv.apply_point(m.apply_point(p)) == p


def test_lattice_width_of_standard_shapes():
    t3 = convex_hull([(0, 0), (3, 0), (0, 3)])
    assert lattice_width(t3)[0] == 3
    strip = convex_hull([(0, 0), (5, 0), (5, 1), (0, 1)])
    w, dirs = lattice_width(strip)
    assert w == 1
    assert Functional(0, 1) in dirs
    # Four minimizers; one of them, 2,1, has a coefficient 2 in any reduced basis.
    parallelogram = convex_hull([(0, -1), (1, -1), (0, 1), (-1, 1)])
    assert lattice_width(parallelogram) == (
        2,
        frozenset({Functional(1, 0), Functional(0, 1), Functional(1, 1), Functional(2, 1)}),
    )


def test_lattice_width_matches_box_scan_oracle():
    rng = random.Random(909)
    several = 0
    for _ in range(1000):
        poly = random_polygon_2d(rng)
        assert lattice_width(poly) == lattice_width_oracle(poly), poly
    for _ in range(3000):
        poly = random_sheared_polygon(rng)
        if poly.dimension == 2:
            expected = lattice_width_oracle(poly)
            assert lattice_width(poly) == expected, poly
            several += len(expected[1]) > 1
    assert several > 100


@pytest.mark.parametrize(
    "vertices,width,directions",
    [
        ([(0, 0), (100000, 0), (0, 100000)], 100000, {(1, 0), (0, 1), (1, 1)}),
        ([(0, 0), (1, 3000000), (0, 1)], 1, {(1, 0), (2999999, -1), (3000000, -1)}),
        ([(0, 0), (3, 0), (300000, 3)], 3, {(0, 1), (1, -100000), (1, -99999)}),
    ],
)
def test_lattice_width_cost_does_not_grow_with_the_embedding(vertices, width, directions):
    # The box scan would take hours on the first polygon.
    assert lattice_width(convex_hull(vertices)) == (width, frozenset(Functional(*f) for f in directions))


def test_lattice_width_unimodular_invariance():
    rng = random.Random(7)
    for _ in range(40):
        poly = random_polygon_2d(rng)
        m = random_unimodular_map(rng)
        assert lattice_width(poly)[0] == lattice_width(m(poly))[0]


def test_lattice_width_doubled_bound_oracle():
    rng = random.Random(13)
    for _ in range(40):
        poly = random_polygon_2d(rng, span=4)
        w, _ = lattice_width(poly)
        xmin, ymin, xmax, ymax = poly.bounding_box()
        bound = 2 * (max(xmax - xmin, ymax - ymin) + 1)
        assert w == bounded_lattice_width(poly, bound)


def test_lattice_diameter_examples():
    t3 = convex_hull([(0, 0), (3, 0), (0, 3)])
    assert lattice_diameter(t3)[0] == 3
    seg_heavy = convex_hull([(0, 0), (6, 0), (0, 1)])
    assert lattice_diameter(seg_heavy)[0] == 6


def test_lattice_diameter_matches_all_pairs_oracle():
    rng = random.Random(6006)
    dimensions = set()
    for _ in range(2000):
        poly = random_sheared_polygon(rng)
        dimensions.add(poly.dimension)
        d, dirs = lattice_diameter_oracle(poly)
        assert lattice_diameter(poly) == (d, dirs), poly
        assert has_lattice_segment(poly, 3) == (d >= 3), poly
        assert all(has_lattice_segment(poly, k) == (d >= k) for k in range(1, d + 2)), poly
    assert dimensions == {0, 1, 2}


def test_canonical_form_idempotent_and_invariant():
    rng = random.Random(2024)
    for _ in range(40):
        poly = random_polygon_2d(rng)
        canon = canonical_form(poly)
        assert canonical_form(canon) == canon
        m = random_unimodular_map(rng)
        assert canonical_form(m(poly)) == canon


def test_canonical_form_rejects_degenerate():
    with pytest.raises(ValueError):
        canonical_form(convex_hull([(0, 0), (1, 0)]))


def test_are_equivalent():
    t3 = convex_hull([(0, 0), (3, 0), (0, 3)])
    sheared = convex_hull([(0, 0), (3, 3), (-3, 0)])  # x -> x+y, y -> -x image
    assert canonical_form(t3) == canonical_form(UnimodularMap(((1, 1), (0, 1)))(t3))
    assert canonical_form(t3) == canonical_form(sheared)
    square = convex_hull([(0, 0), (3, 0), (3, 3), (0, 3)])
    assert canonical_form(t3) != canonical_form(square)


def test_width_wrt():
    poly = convex_hull([(0, 0), (4, 0), (0, 2)])
    assert width_wrt(poly, Functional(1, 0)) == 4
    assert width_wrt(poly, Functional(0, 1)) == 2
