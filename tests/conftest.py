import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd
from typing import Callable, Iterable, Optional

import pytest

from panoptigon.census import (
    big_face_obstruction,
    enumerate_raw,
    full_panoptigon_census,
    genus1_lw2_classes,
    relax_condition,
)
from panoptigon.classify import (
    HyperellipticForm,
    hyperelliptic_panoptigon_predicate,
    hyperelliptic_polygon,
    is_panoptigon,
    standard_triangle,
    trapezoid,
    valid_forms,
)
from panoptigon.core import (
    Point,
    Polygon,
    convex_hull,
    hull_insert,
    hull_vertices,
    is_visible,
    orientation,
)
from panoptigon.relaxation import relax, relaxed_lattice
from panoptigon.transform import Functional, UnimodularMap, canonical_form, width_wrt


@pytest.fixture(scope="session")
def raw_polygons() -> set[Polygon]:
    return enumerate_raw()


@pytest.fixture(scope="session")
def census(raw_polygons):
    """(non-hyperelliptic records, width>=3 records incl. the triangle)."""
    return full_panoptigon_census(raw=raw_polygons)


def double_area(poly: Polygon) -> int:
    """Twice the Euclidean area by the shoelace formula (0 if degenerate)."""
    vs = poly.vertices
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]))


def bbox_lattice_points(poly: Polygon, strict: bool = False) -> frozenset:
    """Brute force over the bounding box: points on or left of every CCW
    edge, or with ``strict`` only those strictly left of every edge."""
    xmin, ymin, xmax, ymax = poly.bounding_box()
    least = 1 if strict else 0
    return frozenset(
        (x, y)
        for x in range(xmin, xmax + 1)
        for y in range(ymin, ymax + 1)
        if all(orientation(v, w, (x, y)) >= least for v, w in poly.edges())
    )


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


def pairwise_relax(poly: Polygon) -> tuple:
    """Relaxation oracle: vertices, as ``Fraction`` pairs, of the hull of every
    pairwise meeting point of the pushed-out lines that satisfies all
    pushed-out half-planes.

    Each meeting point (X/det, Y/det) is tested in integers with det > 0:
    it satisfies a*x + b*y <= c iff a*X + b*Y <= c*det.
    """
    planes = [(a, b, c + 1) for a, b, c in poly.halfplanes()]
    pts: set = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(planes, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x, y = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1
        if det < 0:
            det, x, y = -det, -x, -y
        if all(a * x + b * y <= c * det for a, b, c in planes):
            pts.add((Fraction(x, det), Fraction(y, det)))
    return hull_vertices(pts)


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


def lattice_width_oracle(poly: Polygon) -> tuple[int, frozenset[Functional]]:
    """Box scan: the minimum width and every primitive functional attaining it.

    Candidates are parameterized by their values (s1, s2) on two
    independent vertex-difference vectors d1, d2: any minimizer f has
    |f(d)| <= width(f) <= B for every difference vector d of the polygon,
    where B = min(axis-aligned widths), so scanning |s1|, |s2| <= B and
    keeping the integral functionals covers every minimizer regardless of
    how sheared the polygon is.  Cost O(w * B).
    """
    if poly.dimension == 0:
        return 0, frozenset()
    if poly.dimension == 1:
        (ax, ay), (bx, by) = poly.vertices
        return 0, frozenset({Functional.normalized(by - ay, ax - bx)})
    fx, fy = Functional(1, 0), Functional(0, 1)
    best = min(width_wrt(poly, fx), width_wrt(poly, fy))
    winners: set[Functional] = set()
    v0, v1, v2 = poly.vertices[0], poly.vertices[1], poly.vertices[2]
    d1 = (v1[0] - v0[0], v1[1] - v0[1])
    d2 = (v2[0] - v0[0], v2[1] - v0[1])
    det = d1[0] * d2[1] - d1[1] * d2[0]
    b = best
    for s1 in range(0, b + 1):
        if s1 > best:
            break
        s2_range = range(1, b + 1) if s1 == 0 else range(-b, b + 1)
        for s2 in s2_range:
            if abs(s2) > best:
                continue
            # Solve f(d1) = s1, f(d2) = s2 by Cramer's rule; skip
            # non-integral or non-primitive solutions.
            anum = s1 * d2[1] - s2 * d1[1]
            bnum = s2 * d1[0] - s1 * d2[0]
            if anum % det or bnum % det:
                continue
            alpha, beta = anum // det, bnum // det
            if gcd(abs(alpha), abs(beta)) != 1:
                continue
            f = Functional.normalized(alpha, beta)
            w = width_wrt(poly, f)
            if w < best:
                best = w
                winners = {f}
            elif w == best:
                winners.add(f)
    if not winners:
        # The axis minimum was never beaten; recover its minimizers.
        for f in (fx, fy):
            if width_wrt(poly, f) == best:
                winners.add(f)
    return best, frozenset(winners)


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


def genus0_panoptigon_predicate(a: int, b: int) -> bool:
    """T(a, b) is a panoptigon iff a <= 2 (a row of 4 blocks all views)."""
    if not (0 <= a <= b and b >= 1):
        raise ValueError("trapezoid requires 0 <= a <= b and b >= 1")
    return a <= 2


def corollary_lw12_check() -> dict:
    """Max lattice-point count over width-<=2 panoptigons with lattice relaxation.

    Covers every family that can be the interior polygon of a larger
    polygon: trapezoids (a <= 2 for the panoptigon property, a >= b/2 - 1
    for integrality, so b <= 6), genus-1 width-2 polygons, and the width-2
    forms that are panoptigons and pass the integrality condition.  The
    bound asserted downstream is 11.
    """
    counts: list[tuple[str, int]] = []
    for b in range(1, 7):
        for a in range(0, min(b, 2) + 1):
            if 2 * a >= b - 2:
                counts.append(("T(%d,%d)" % (a, b), len(trapezoid(a, b).lattice_point_set)))
    counts.append(("T_2", len(standard_triangle(2).lattice_point_set)))
    for poly in genus1_lw2_classes():
        counts.append(("genus-1 %s" % (poly,), len(poly.lattice_point_set)))
    height1_free = 0
    for g in range(2, 9):
        for form in valid_forms(g):
            if hyperelliptic_panoptigon_predicate(form) and relax_condition(form):
                polygon = hyperelliptic_polygon(form)
                counts.append((str(form), len(polygon.lattice_point_set)))
                if not any(y == 1 for _, y in is_panoptigon(polygon).panoptigon_points):
                    height1_free += 1
    name, best = max(counts, key=lambda t: t[1])
    return {
        "max_count": best,
        "witness": name,
        "cases": len(counts),
        "forms_without_height1_point": height1_free,
    }


def obstruction_witnesses() -> dict[int, Polygon]:
    """A PASSES example for every genus from 2 through 11."""
    out: dict[int, Polygon] = {}
    out[2] = hyperelliptic_polygon(HyperellipticForm("Type1", 2, 2))
    out[3] = standard_triangle(4)
    for a, b in ((0, 2), (1, 2), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6)):
        relaxed = relaxed_lattice(trapezoid(a, b))
        assert relaxed is not None
        out[relaxed.genus] = relaxed
    big = relaxed_lattice(hyperelliptic_polygon(HyperellipticForm("Type1", 3, 3)))
    assert big is not None
    out[big.genus] = big
    assert sorted(out) == list(range(2, 12))
    for g, poly in out.items():
        assert poly.genus == g and big_face_obstruction(poly).passes
    return out


def grow(
    max_points: Optional[int] = None, keep: Optional[Callable[[Polygon], bool]] = None
) -> set[Polygon]:
    """Canonical forms of the polygons grown from T_1, one lattice point at a time.

    Growth lemma: every 2-dimensional lattice polygon Q with n + 1 >= 4
    lattice points is conv(P, q) for a 2-dimensional P with n points and a
    lattice point q of relax(P).  Take a vertex q of Q whose removal leaves
    a 2-dimensional P (at most one vertex fails this).  If q lay two or more
    lattice units beyond an edge of P it sees, the triangle of q and that
    edge would hold another lattice point of Q outside P.

    A step adds one lattice point q of relax(P) outside P.  Each candidate
    comes from the box of relax(P)'s rational vertices (read off the lattice
    polygon D * relax(P) by floor and ceiling division) and is tested against
    the pushed-out planes a*x + b*y <= c + 1; q lies at most one lattice
    unit beyond every edge, so the hull of P and q gains q alone (checked
    by Pick's theorem, so no child is scanned).  A child is kept when it
    has at most ``max_points`` lattice points and passes ``keep``.  So every
    class up to ``max_points`` points is returned when ``keep`` is None, and
    every class that shrinks to T_1 through polygons passing ``keep``
    otherwise.
    """
    start = canonical_form(standard_triangle(1))
    grown = {start}
    stack = [start]
    while stack:
        poly = stack.pop()
        if max_points is not None and len(poly.lattice_point_set) >= max_points:
            continue
        planes = [(a, b, c + 1) for a, b, c in poly.halfplanes()]
        scaled, d = relax(poly)
        xs, ys = zip(*scaled.vertices)
        for q in product(
            range(min(xs) // d, -(-max(xs) // d) + 1), range(min(ys) // d, -(-max(ys) // d) + 1)
        ):
            if q in poly.lattice_point_set or any(a * q[0] + b * q[1] > c for a, b, c in planes):
                continue
            child = Polygon(hull_insert(poly.vertices, q), poly.lattice_point_set | {q})
            # Pick's theorem counts the hull's points: q came alone.
            picked = (double_area(child) + boundary_point_count(child)) // 2 + 1
            assert picked == len(child.lattice_point_set), (poly, q)
            if keep is not None and not keep(child):
                continue
            canon = canonical_form(child)
            if canon not in grown:
                grown.add(canon)
                stack.append(canon)
    return grown
