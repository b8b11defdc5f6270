import random
from math import gcd

import pytest

from panoptigon.census import enumerate_raw, full_panoptigon_census
from panoptigon.core import Polygon, convex_hull


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


def bounded_lattice_width(poly: Polygon, bound: int) -> int:
    """Width oracle: scan every primitive functional with |alpha|, |beta| <= bound."""
    widths = []
    for alpha in range(0, bound + 1):
        for beta in range(1, bound + 1) if alpha == 0 else range(-bound, bound + 1):
            if gcd(alpha, abs(beta)) == 1:
                values = [alpha * x + beta * y for x, y in poly.vertices]
                widths.append(max(values) - min(values))
    return min(widths)
