"""The relaxed polygon, and maximality among polygons with the same interior.

Relaxing a polygon pushes every edge's half-plane out by one lattice unit
(c -> c + 1 with a primitive normal).  Edges can collapse, and the result
can fail to be a lattice polygon.  Its vertices are rationals with a common
denominator D, so ``relax`` returns the lattice polygon D * relax(P) with
the least such D: the arithmetic stays in integers, and D == 1 says exactly
when relax(P) is a lattice polygon.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from math import gcd, lcm
from typing import Optional

from .core import Polygon, convex_hull, lowest_first, segment_ends
from .transform import canonical_form

# Every genus-1 lattice polygon is equivalent to a subpolygon of one of
# these three (Poonen & Rodriguez-Villegas, "Lattice polygons and the
# number 12", Amer. Math. Monthly 107 (2000)).
GENUS1_MAXIMAL_VERTICES = (
    ((-1, -1), (2, -1), (-1, 2)),
    ((-1, -1), (1, -1), (1, 1), (-1, 1)),
    ((-1, -1), (3, -1), (-1, 1)),
)


@cache
def _genus1_maximal_forms() -> frozenset[Polygon]:
    return frozenset(canonical_form(convex_hull(v)) for v in GENUS1_MAXIMAL_VERTICES)


def relax(poly: Polygon) -> tuple[Polygon, int]:
    """D * relax(P) as a lattice polygon, and the least D >= 1 that makes it one.

    relax(P) is the intersection of all edge half-planes pushed out by one
    unit.  ``halfplanes`` come in CCW normal order, so one pass intersects
    them.  While the meeting point of the two planes at either end of the
    deque is not strictly inside the new plane (a*X + b*Y >= c*det), the
    plane at that end has collapsed (its line meets the result in at most a
    point) and is dropped; the same test against the other end then clears
    the wrap-around.  Consecutive survivors turn by less than pi, so each
    vertex (X/det, Y/det) has det > 0.  Its least denominator is
    det / gcd(X, Y, det), and D is the lcm of these.
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
    corners = [meet(p, q) for p, q in zip(cycle, cycle[1:] + cycle[:1])]
    d = lcm(*(det // gcd(x, y, det) for x, y, det in corners))
    return Polygon(lowest_first([(x * d // det, y * d // det) for x, y, det in corners])), d


def relaxed_lattice(poly: Polygon) -> Optional[Polygon]:
    """relax(P) as a lattice Polygon, or None when a vertex is not integral."""
    scaled, d = relax(poly)
    return scaled if d == 1 else None


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
        return canonical_form(poly) in _genus1_maximal_forms()
    return all(poly.contains(e) and e not in poly.vertices for e in segment_ends(inner))
