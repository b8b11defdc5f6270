import random
from math import gcd

import pytest

from panoptigon.census import enumerate_raw, full_panoptigon_census
from panoptigon.core import Polygon, convex_hull
from panoptigon.transform import UnimodularMap


@pytest.fixture(scope="session")
def raw_polygons() -> set[Polygon]:
    return enumerate_raw()


@pytest.fixture(scope="session")
def census(raw_polygons):
    """(non-hyperelliptic records, width>=3 records incl. the triangle)."""
    return full_panoptigon_census(raw=raw_polygons)


def random_polygon(rng: random.Random, span: int = 6, points: int = 6) -> Polygon:
    """A random small polygon (any dimension) inside a span x span box."""
    pts = {(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(points)}
    return convex_hull(pts)


def random_polygon_2d(rng: random.Random, span: int = 6, points: int = 6) -> Polygon:
    while True:
        poly = random_polygon(rng, span, points)
        if poly.dimension == 2:
            return poly


def _compose(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def random_unimodular_map(rng: random.Random, shear_range: int = 5) -> UnimodularMap:
    """Random map built from shears, a flip, and a translation."""
    m = ((1, rng.randint(-shear_range, shear_range)), (0, 1))
    n = ((1, 0), (rng.randint(-shear_range, shear_range), 1))
    flip = ((0, 1), (1, 0)) if rng.random() < 0.5 else ((1, 0), (0, 1))
    t = (rng.randint(-10, 10), rng.randint(-10, 10))
    return UnimodularMap(_compose(_compose(m, n), flip), t)


def bounded_lattice_width(poly: Polygon, bound: int) -> int:
    """Width oracle: scan every primitive functional with |alpha|, |beta| <= bound."""
    widths = []
    for alpha in range(0, bound + 1):
        for beta in range(1, bound + 1) if alpha == 0 else range(-bound, bound + 1):
            if gcd(alpha, abs(beta)) == 1:
                values = [alpha * x + beta * y for x, y in poly.vertices]
                widths.append(max(values) - min(values))
    return min(widths)
