import random
from functools import lru_cache
from math import gcd
from typing import Iterable

import pytest

from panoptigon.census import enumerate_raw, full_panoptigon_census
from panoptigon.classify import HyperellipticForm, hyperelliptic_polygon, valid_forms
from panoptigon.core import Point, Polygon, convex_hull, is_visible
from panoptigon.transform import Functional, UnimodularMap, canonical_form


@pytest.fixture(scope="session")
def raw_polygons() -> set[Polygon]:
    return enumerate_raw()


@pytest.fixture(scope="session")
def census(raw_polygons):
    """(non-hyperelliptic records, width>=3 records incl. the triangle)."""
    return full_panoptigon_census(raw=raw_polygons)


def boundary_point_count(poly: Polygon) -> int:
    """Lattice points on the boundary of a 2-dimensional polygon: the sum of the edge gcds.

    With the shoelace area this gives the genus by Pick's theorem,
    2A = 2g + b - 2, a route independent of the row scan.
    """
    return sum(gcd(abs(w[0] - v[0]), abs(w[1] - v[1])) for v, w in poly.edges())


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


def random_sheared_polygon(rng: random.Random, span: int = 3, shear: int = 30) -> Polygon:
    """A random polygon of dimension 0, 1 or 2 under a random map.

    Half are two-dimensional, in boxes of side 2 to 2 * span.  The map's
    two shears range over [-shear, shear], so the image is long and thin
    while its lattice points stay few.
    """
    dim = rng.choice((0, 1, 2, 2))
    if dim == 0:
        pts = [(rng.randint(-span, span), rng.randint(-span, span))]
    elif dim == 1:
        x, y = rng.randint(-span, 0), rng.randint(-span, 0)
        dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)])
        pts = [(x, y), (x + dx * rng.randint(1, span), y + dy * rng.randint(1, span))]
    else:
        side = rng.randint(1, span)
        pts = [(rng.randint(-side, side), rng.randint(-side, side)) for _ in range(rng.randint(3, 6))]
    return random_unimodular_map(rng, shear)(convex_hull(pts))


def visible_from(p: Point, points: Iterable[Point]) -> frozenset[Point]:
    """Subset of ``points`` visible from p (p itself included if present)."""
    return frozenset(q for q in points if is_visible(p, q))


def panoptigon_points_oracle(poly: Polygon) -> frozenset[Point]:
    """Full scan: every lattice point that sees all the others."""
    pts = poly.lattice_point_set
    return frozenset(p for p in pts if visible_from(p, pts) == pts)


def lattice_diameter_oracle(poly: Polygon) -> tuple[int, frozenset[Functional]]:
    """All-pairs maximum of gcd(|dx|, |dy|), with the directions attaining it."""
    pts = sorted(poly.lattice_point_set)
    best = 0
    dirs: set[Functional] = set()
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            g = gcd(abs(q[0] - p[0]), abs(q[1] - p[1]))
            if g > best:
                best = g
                dirs = set()
            if g == best:
                dirs.add(Functional.normalized((q[0] - p[0]) // g, (q[1] - p[1]) // g))
    return best, frozenset(dirs)


@lru_cache(maxsize=None)
def _templates(g: int) -> dict[Polygon, HyperellipticForm]:
    table: dict[Polygon, HyperellipticForm] = {}
    for form in valid_forms(g):
        table.setdefault(canonical_form(hyperelliptic_polygon(form)), form)
    return table


def template_normal_form(poly: Polygon) -> HyperellipticForm:
    """Template search: the first form of ``valid_forms(genus)`` equivalent to P.

    Each template's canonical form is computed once per genus.
    """
    return _templates(poly.genus)[canonical_form(poly)]
