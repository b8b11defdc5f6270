"""The relaxed polygon, and maximality among polygons with the same interior.

Relaxing a polygon pushes every edge's half-plane out by one lattice unit
(c -> c + 1 with a primitive normal).  The result can fail to be a lattice
polygon, and edges can collapse; its vertices are exact rationals, so
``is_lattice`` decides the first exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Polygon, convex_hull, lowest_first, segment_ends
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


def _relaxed_corners(poly: Polygon) -> list[tuple[int, int, int]]:
    """The vertices (X/det, Y/det) of relax(P) as integer triples, det > 0, in CCW order.

    ``halfplanes`` come in CCW normal order, so one pass intersects the
    pushed-out planes.  While the meeting point of the two planes at either
    end of the deque is not strictly inside the new plane
    (a*X + b*Y >= c*det), the plane at that end has collapsed and is
    dropped; the same test against the other end then clears the
    wrap-around.  Consecutive survivors turn by less than pi, so det > 0.
    """
    if poly.dimension != 2:
        raise ValueError("relaxation requires dimension 2")

    def meet(p, q) -> tuple[int, int, int]:
        (a1, b1, c1), (a2, b2, c2) = p, q
        return c1 * b2 - c2 * b1, a1 * c2 - a2 * c1, a1 * b2 - a2 * b1

    def outside(p, q, plane) -> bool:
        (x, y, det), (a, b, c) = meet(p, q), plane
        return a * x + b * y >= c * det

    planes: deque = deque()
    for a, b, c in poly.halfplanes():
        plane = (a, b, c + 1)
        while len(planes) >= 2 and outside(planes[-2], planes[-1], plane):
            planes.pop()
        while len(planes) >= 2 and outside(planes[0], planes[1], plane):
            planes.popleft()
        planes.append(plane)
    while len(planes) >= 3 and outside(planes[-2], planes[-1], planes[0]):
        planes.pop()
    while len(planes) >= 3 and outside(planes[0], planes[1], planes[-1]):
        planes.popleft()
    cycle = list(planes)
    return [meet(p, q) for p, q in zip(cycle, cycle[1:] + cycle[:1])]


def relax(poly: Polygon) -> RationalPolygon:
    """Intersection of all edge half-planes pushed out by one unit.

    Vertices are exact rationals, one per pair of consecutive surviving
    planes.  An edge whose pushed-out line meets the result in at most a
    point has collapsed and contributes no vertex.
    """
    corners = _relaxed_corners(poly)
    return RationalPolygon(lowest_first([(Fraction(x, d), Fraction(y, d)) for x, y, d in corners]))


def relaxed_lattice(poly: Polygon) -> Optional[Polygon]:
    """relax(P) as a lattice Polygon, or None when a vertex is not integral."""
    corners = _relaxed_corners(poly)
    if any(x % d or y % d for x, y, d in corners):
        return None
    return Polygon(lowest_first([(x // d, y // d) for x, y, d in corners]))


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
