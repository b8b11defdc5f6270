"""The relaxed polygon, and maximality among polygons with the same interior.

Relaxing a polygon pushes every edge's half-plane out by one lattice unit
(c -> c + 1 with a primitive normal).  The result can fail to be a lattice
polygon, and edges can collapse; its vertices are exact rationals, so
``is_lattice`` decides the first exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .core import Polygon, convex_hull, hull_vertices, segment_ends
from .transform import canonical_form

RationalPoint = tuple[Fraction, Fraction]

# Every genus-1 lattice polygon is equivalent to a subpolygon of one of
# these three (Poonen & Rodriguez-Villegas, "Lattice polygons and the
# number 12", Amer. Math. Monthly 107 (2000)).
GENUS1_MAXIMAL_VERTICES = (
    ((-1, -1), (2, -1), (-1, 2)),
    ((-1, -1), (1, -1), (1, 1), (-1, 1)),
    ((-1, -1), (3, -1), (-1, 1)),
)
_GENUS1_MAXIMAL_FORMS = frozenset(
    canonical_form(convex_hull(vertices)) for vertices in GENUS1_MAXIMAL_VERTICES
)


@dataclass(frozen=True)
class RationalPolygon:
    """Convex polygon with exact rational vertices in CCW order."""

    vertices: tuple[RationalPoint, ...]

    @property
    def is_lattice(self) -> bool:
        return all(x.denominator == 1 and y.denominator == 1 for x, y in self.vertices)

    def nonlattice_vertices(self) -> list[RationalPoint]:
        return [v for v in self.vertices if v[0].denominator != 1 or v[1].denominator != 1]


def relax(poly: Polygon) -> RationalPolygon:
    """Intersection of all edge half-planes pushed out by one unit.

    Vertices are exact rationals, hulled from the pairwise intersections
    of the pushed-out lines that satisfy every half-plane.  An edge whose
    pushed-out line meets the result in at most a point has collapsed.
    Each intersection (X/det, Y/det) is tested in integers, with det > 0:
    it satisfies a*x + b*y <= c iff a*X + b*Y <= c*det.
    """
    if poly.dimension != 2:
        raise ValueError("relaxation requires dimension 2")
    planes = [(a, b, c + 1) for a, b, c in poly.halfplanes()]
    pts: set[RationalPoint] = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(planes, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x, y = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1
        if det < 0:
            det, x, y = -det, -x, -y
        if all(a * x + b * y <= c * det for a, b, c in planes):
            pts.add((Fraction(x, det), Fraction(y, det)))
    return RationalPolygon(hull_vertices(pts))


def relaxed_lattice(poly: Polygon) -> Optional[Polygon]:
    """relax(P) as a lattice Polygon, or None when a vertex is not integral."""
    r = relax(poly)
    if not r.is_lattice:
        return None
    return convex_hull((int(x), int(y)) for x, y in r.vertices)


def is_maximal(poly: Polygon) -> bool:
    """Containment-maximal among lattice polygons with the same interior points.

    No search: each case is decided in closed form.

    - Two-dimensional interior: P is maximal iff P = relax(int P)
      (Koelman; Castryck, "Moving out the edges of a lattice polygon",
      DCG 2012).
    - Genus 1: maximal iff P is equivalent to one of the three polygons of
      ``GENUS1_MAXIMAL_VERTICES``.  Any other genus-1 P is equivalent to a
      proper subpolygon of one of them, Q; adding a vertex of Q missing from
      P keeps the single interior point.
    - Collinear interior u, u+d, ..., v (genus >= 2, d primitive): maximal
      iff u - d and v + d are both boundary lattice points of P and neither
      is a vertex.  This rests on the bound that every lattice polygon with
      these interior points lies within lattice distance 1 of their line
      (which is why hyperelliptic polygons of genus >= 2 have width 2).
      Proof: a lattice point q at distance k >= 2 and two consecutive
      interior points p1, p2 span a triangle of area k/2; it is not
      unimodular, so it holds another lattice point, which lies in the
      interior of P but off the line.  In that strip only points on the
      line can be interior, so only the ends u - d and v + d can change
      status.  Hence: if u - d is missing from P, adding it keeps the
      interior; if u - d is a vertex, adding the lattice point just past
      the u - d end of P's row at distance 1 keeps it too; if both ends
      lie inside edges, every added lattice point either leaves the strip
      or makes an end interior.
    """
    if poly.genus == 0:
        raise ValueError("maximality undefined without interior points")
    inner = poly.interior_polygon()
    if inner.dimension == 2:
        return relaxed_lattice(inner) == poly
    if inner.dimension == 0:
        return canonical_form(poly) in _GENUS1_MAXIMAL_FORMS
    return all(poly.contains(e) and e not in poly.vertices for e in segment_ends(inner))
