"""Exhaustive computations: the 30-point census and the sporadic search
(the two walks of ``convex_closed_sets``), the genus-1 classes (T_3 and the
width-2 forms of genus 1), and the maximal polygons of width 3 and 4.

``classes`` is the one route from polygons to classes: every generator
returns canonical forms, each class once.  The headline numbers the suite
is built around: 215 raw polygons from the 30-point enumeration collapse
to 68 classes; with the 3 sporadic classes of lattice diameter 2 they are
the 71 panoptigon classes of lattice width >= 3.  The degree-3 triangle
T_3 is the frame's one hyperelliptic raw polygon, and the other 70 are
non-hyperelliptic (67 of them with lattice diameter >= 3).  The quoted
69/72/73 count two pairs of unimodularly equivalent polygons as separate
classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Optional

from .classify import (
    HyperellipticForm,
    hyperelliptic_polygon,
    is_hyperelliptic,
    is_panoptigon,
    standard_triangle,
    trapezoid,
    valid_forms,
)
from .core import Point, Polygon, convex_hull, hull_insert, is_visible
from .relaxation import relaxed_lattice
from .transform import canonical_form, has_lattice_segment, lattice_diameter, lattice_width

FIXED_POINTS = frozenset({(0, 0), (-1, -1), (0, -1), (1, -1), (2, -1)})


def candidate_point_set() -> frozenset[Point]:
    """The 30 points that can appear in a panoptigon of lattice width >= 3.

    ``FIXED_POINTS`` are among them, and every polygon of the census
    contains those five.

    Derivation, with (0,0) as panoptigon point and the bottom row pinned to
    start at (-1,-1): height -2 admits only odd x in [-3,9]; height -1 only
    x in [-1,5]; height 0 only |x| <= 1; above the axis the point must be
    origin-visible, and the triangle it spans with the fixed points must
    not force an invisible point.  The scanned rows above the axis are
    proved bounds.  For q = (x, y) with y >= 1, the polygon contains the
    triangle of q, (-1,-1) and (2,-1):

    - y <= 7.  The triangle crosses height 2 in an interval of length
      3(y - 2)/(y + 1), which is >= 2 for y >= 8.  Such an interval holds
      two consecutive integers, so the triangle holds a point (even, 2),
      hidden from (0,0) by (even/2, 1).
    - x in [-y-1, 1].  The triangle's edges cross height 0 at
      (x - y)/(y + 1) and (x + 2y)/(y + 1).  The polygon also contains
      (0,0), so its row at height 0 spans both crossings and 0.  That row
      must miss the hidden points (-2,0) and (2,0), so -2 < (x - y)/(y + 1),
      i.e. x >= -y - 1, and (x + 2y)/(y + 1) < 2, i.e. x <= 1.
    """
    pts: set[Point] = set()
    pts.update((x, -2) for x in range(-3, 10) if x % 2 != 0)
    pts.update((x, -1) for x in range(-1, 6))
    pts.update((x, 0) for x in (-1, 0, 1))
    anchor = sorted(FIXED_POINTS)
    for y in range(1, 8):
        for x in range(-y - 1, 2):
            if not is_visible((0, 0), (x, y)):
                continue
            tri = convex_hull(anchor + [(x, y)])
            if all(is_visible((0, 0), p) for p in tri.lattice_point_set):
                pts.add((x, y))
    assert len(pts) == 30, "the derivation above leaves exactly 30 points"
    return frozenset(pts)


def convex_closed_sets(
    universe: frozenset[Point],
    seed: Polygon,
    keep: Optional[Callable[[Polygon], bool]] = None,
) -> set[Polygon]:
    """All convex-closed supersets (within the universe) of the seed polygon.

    Contract:

    - The seed is 2-dimensional (else ``ValueError``) and lies in the
      universe, which it is convex-closed in; it is not tested by ``keep``.
    - ``keep`` is deterministic and hereditary: if it holds on a polygon, it
      holds on every convex-closed subset of it that contains the seed.
      Then every convex-closed set of the universe that contains the seed
      and passes ``keep`` is returned.
    - A state is the ``Polygon`` of its lattice points, keyed by its hull
      vertices (a convex-closed set is fixed by them).  It grows by one
      universe point p outside it at a time.  Every hull tried is
      remembered by its vertices as accepted or rejected (it escapes the
      universe or fails ``keep``), so no hull is scanned or tested twice.
    - Dead points: while a state S is scanned, p joins S's dead mask when
      the hull of S and p is rejected, found now or remembered.  S's
      children are pushed after the whole scan with S's final mask, and
      they never try its points.  This is sound: a child S' contains S, so
      the hull of S' and p contains the hull of S and p; it escapes the
      universe too, and since ``keep`` is hereditary it fails ``keep`` too.
      An accepted hull is not dead: a superset of it may still be kept.

    The step, O(vertices) once the edge masks it reads are cached:

    - The universe points are the bits of an int.  A state carries the mask
      of its points and its dead mask, and the candidates p are the bits of
      neither.
    - Since p lies outside the state, it sees a contiguous chain of the
      hull's edges.  ``hull_insert`` replaces the chain's inner vertices by
      p, and the new vertex tuple is looked up before any ``Polygon`` is
      built.
    - Every hull vertex is a universe point, so every edge (u, v) is a pair
      of universe points.  The mask of universe points on or left of its
      line is computed once per directed pair.  The AND of a hull's edge
      masks is the set of universe points in the hull.
    - By Pick's theorem the hull holds (2A + B)/2 + 1 lattice points, with
      B the sum of the edge gcds.  The universe points in the hull number
      exactly that count iff the hull does not escape the universe.
    - An accepted state's ``lattice_point_set`` is read off its mask, so a
      ``keep`` that reads it scans nothing.
    """
    if seed.dimension < 2:
        raise ValueError("convex_closed_sets needs a 2-dimensional seed")
    points = sorted(universe)
    bit = {q: 1 << i for i, q in enumerate(points)}
    full = (1 << len(points)) - 1
    sides: dict[tuple[Point, Point], tuple[int, int, int]] = {}

    def side(u: Point, v: Point) -> tuple[int, int, int]:
        """(mask on or left of the line uv, u x v, lattice length of uv)."""
        (ux, uy), (vx, vy) = u, v
        dx, dy = vx - ux, vy - uy
        mask = 0
        for q in points:
            if dx * (q[1] - uy) - dy * (q[0] - ux) >= 0:
                mask |= bit[q]
        sides[u, v] = data = (mask, ux * vy - uy * vx, gcd(dx, dy))
        return data

    def hull_mask(vertices: tuple[Point, ...]) -> Optional[int]:
        """The universe points in the hull, or None when it escapes."""
        mask, area2, boundary = full, 0, 0
        for edge in zip(vertices, vertices[1:] + vertices[:1]):
            m, a, g = sides.get(edge) or side(*edge)
            mask &= m
            area2 += a
            boundary += g
        return mask if mask.bit_count() == (area2 + boundary) // 2 + 1 else None

    visited = {seed}
    known = {seed.vertices: True}
    stack = [(seed.vertices, sum(bit[q] for q in seed.lattice_point_set), 0)]
    while stack:
        vertices, mask, dead = stack.pop()
        children = []
        rest = full & ~(mask | dead)
        while rest:
            low = rest & -rest
            rest ^= low
            nxt = hull_insert(vertices, points[low.bit_length() - 1])
            ok = known.get(nxt)
            if ok is None:
                m = hull_mask(nxt)
                ok = m is not None
                if ok:
                    poly = Polygon(nxt, frozenset(q for q in points if bit[q] & m))
                    ok = keep is None or keep(poly)
                if ok:
                    visited.add(poly)
                    children.append((nxt, m))
                known[nxt] = ok
            if not ok:
                dead |= low
        stack.extend((nxt, m, dead) for nxt, m in children)
    return visited


def classes(polys: Iterable[Polygon]) -> list[Polygon]:
    """The polygons' canonical forms, each class once, ordered by vertices."""
    return sorted({canonical_form(p) for p in polys}, key=lambda p: p.vertices)


def enumerate_raw() -> set[Polygon]:
    """All polygons on the 30 candidate points containing the 5 fixed ones.

    Bound: every panoptigon of lattice width and lattice diameter >= 3 is
    equivalent to one with panoptigon point (0,0) that contains the 5 fixed
    points and lies inside the 30-point frame (the derivation is in
    ``candidate_point_set``; diameter 2 is covered by ``sporadic_ld2``).
    The frame's convex-closed sets containing the fixed points are walked
    with ``convex_closed_sets``.  Kept are the results with at least one
    interior point and lattice width >= 3 (the subject of the
    census; thinner polygons occur in the frame but belong to the
    separately classified width-1/2 families).  Every output is
    automatically a panoptigon with panoptigon point (0,0).  T_3, of width
    and diameter 3, is the one hyperelliptic output.
    """
    seed = convex_hull(FIXED_POINTS)
    assert seed.lattice_point_set == FIXED_POINTS
    return {
        poly
        for poly in convex_closed_sets(candidate_point_set(), seed)
        if poly.genus >= 1 and lattice_width(poly)[0] >= 3
    }


@dataclass(frozen=True)
class CensusRecord:
    """A canonical polygon plus classification metadata, all recomputable."""

    canonical: Polygon
    lattice_point_count: int
    genus: int
    lattice_width: int
    lattice_diameter: int
    hyperelliptic: bool
    panoptigon_points: tuple[Point, ...]
    relaxation_lattice: bool
    max_polygon: Optional[Polygon]

    @classmethod
    def from_polygon(cls, canon: Polygon) -> "CensusRecord":
        """The record of a canonical form, as ``classes`` returns them."""
        relaxed = relaxed_lattice(canon)
        return cls(
            canonical=canon,
            lattice_point_count=len(canon.lattice_point_set),
            genus=canon.genus,
            lattice_width=lattice_width(canon)[0],
            lattice_diameter=lattice_diameter(canon)[0],
            hyperelliptic=is_hyperelliptic(canon),
            panoptigon_points=tuple(sorted(is_panoptigon(canon).panoptigon_points)),
            relaxation_lattice=relaxed is not None,
            max_polygon=relaxed,
        )

    def to_json(self) -> dict:
        return {
            "canonical": [list(v) for v in self.canonical.vertices],
            "lattice_point_count": self.lattice_point_count,
            "genus": self.genus,
            "lattice_width": self.lattice_width,
            "lattice_diameter": self.lattice_diameter,
            "hyperelliptic": self.hyperelliptic,
            "panoptigon_points": [list(p) for p in self.panoptigon_points],
            "relaxation_lattice": self.relaxation_lattice,
            "max_polygon": None
            if self.max_polygon is None
            else [list(v) for v in self.max_polygon.vertices],
        }


def records_to_ndjson(records: Iterable[CensusRecord]) -> str:
    """One JSON line per record, by lattice-point count, then canonical vertices."""
    ordered = sorted(records, key=lambda r: (r.lattice_point_count, r.canonical.vertices))
    return "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in ordered)


SPORADIC_LD2_VERTICES = (
    ((0, 1), (0, 3), (4, 0)),
    ((1, 0), (2, 0), (3, 1), (0, 3)),
    ((0, 1), (0, 2), (2, 3), (3, 0)),
)

# Interior polygons a diameter-2 panoptigon of width >= 3 can have; their
# relaxations are the five container polygons the sporadic search runs in.
SPORADIC_CONTAINER_TRAPEZOIDS = ((0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def sporadic_ld2(exhaustive: bool = True) -> list[CensusRecord]:
    """The 3 non-hyperelliptic panoptigon classes of lattice diameter 2.

    The known triangle and two quadrilaterals are verified directly; with
    ``exhaustive`` an independent search over the convex subpolygons of the
    five containers confirms no further class exists.

    Bound: such a polygon P has width >= 3 and diameter 2, so its interior
    polygon is equivalent to one of the trapezoids T(a, b) listed in
    ``SPORADIC_CONTAINER_TRAPEZOIDS``.  By the moving-out bound (Koelman
    1991; Castryck, "Moving out the edges of a lattice polygon", DCG 2012)
    P lies between int(P) and relax(int(P)).  So, placed with
    int(P) = T(a, b), P is a convex-closed subset of relax(T(a, b)) that
    contains T(a, b), and the walk of each container is seeded with
    T(a, b) alone.  Diameter <= 2 holds on every subset of a set where it
    holds, so it prunes the walk without losing any such P.
    """
    known = classes(convex_hull(vertices) for vertices in SPORADIC_LD2_VERTICES)
    records = [CensusRecord.from_polygon(canon) for canon in known]
    for rec in records:
        assert not rec.hyperelliptic and rec.panoptigon_points
        assert rec.lattice_diameter == 2 and rec.lattice_width == 3
    if exhaustive:
        found: list[Polygon] = []
        for a, b in SPORADIC_CONTAINER_TRAPEZOIDS:
            inner = trapezoid(a, b)
            container = relaxed_lattice(inner)
            assert container is not None
            walk = convex_closed_sets(
                container.lattice_point_set,
                inner,
                keep=lambda poly: not has_lattice_segment(poly, 3),
            )
            found.extend(
                poly
                for poly in walk
                if lattice_width(poly)[0] >= 3
                and not is_hyperelliptic(poly)
                and is_panoptigon(poly).is_panoptigon
            )
        if classes(found) != known:
            raise AssertionError("sporadic search disagrees with the known three classes")
    return records


def full_panoptigon_census(raw: set[Polygon]):
    """(70 non-hyperelliptic records, 71 width->=3 records incl. T_3).

    ``raw`` is the output of ``enumerate_raw``.  The width->=3 records are
    the records of ``classes(raw)`` plus the three sporadic ones; T_3 is the
    frame's one hyperelliptic raw polygon, so the non-hyperelliptic records
    are those less T_3.  The quoted 72/73 split two pairs of equivalent
    polygons.
    """
    lw3plus = [CensusRecord.from_polygon(canon) for canon in classes(raw)]
    lw3plus += sporadic_ld2(exhaustive=False)
    nonhyp = [r for r in lw3plus if not r.hyperelliptic]
    return nonhyp, lw3plus


def census_summary(nonhyp: list[CensusRecord], lw3plus: list[CensusRecord], raw_count: int) -> dict:
    by_count: dict[int, int] = {}
    for r in nonhyp:
        by_count[r.lattice_point_count] = by_count.get(r.lattice_point_count, 0) + 1
    sporadic = sum(1 for r in nonhyp if r.lattice_diameter <= 2)
    return {
        "raw": raw_count,
        "nonhyperelliptic": len(nonhyp) - sporadic,
        "sporadic": sporadic,
        "total": len(nonhyp),
        "lw3plus": len(lw3plus),
        "by_count": {str(k): by_count[k] for k in sorted(by_count)},
    }


@lru_cache(maxsize=None)
def genus1_classes() -> tuple[Polygon, ...]:
    """All genus-1 polygons up to equivalence, as sorted canonical forms.

    Proof: lw(int P) = lw(P) - 2 unless P is some T_d (Lubbes & Schicho
    2011; Castryck & Cools).  A genus-1 P has a point as int P, so it is T_3
    or has width 2.  Then the row argument of ``hyperelliptic_normal_form``
    works with any width-2 functional: it puts the interior point at (1, 1),
    the middle row's boundary points (at most (0, 1) and (2, 1)) give the
    type, and one mirror or flip of the rows reads as a form of genus 1.
    """
    forms = (hyperelliptic_polygon(form) for form in valid_forms(1))
    return tuple(classes([standard_triangle(3), *forms]))


def genus1_lw2_classes() -> list[Polygon]:
    """Genus-1 polygons of lattice width exactly 2 (everything but T_3)."""
    return [p for p in genus1_classes() if lattice_width(p)[0] == 2]


def maximal_lw3_count_formula(g: int) -> int:
    """floor((g-2)/2) - ceil((g-4)/3) + 1, the number of maximal lw3 polygons.

    ``maximal_polygons(g, 3)`` relaxes T(a, b) with a + b = g - 2 and
    a <= b, so a <= floor((g-2)/2), and the relaxation is integral exactly
    when 2a >= b - 2 = g - 4 - a, i.e. a >= ceil((g-4)/3) = floor((g-2)/3).
    For g >= 4 such a have a >= 0 and b >= 1, and each gives one class (the
    CLI checks).
    """
    if g < 4:
        raise ValueError("count formula stated for genus >= 4")
    return (g - 2) // 2 - (g - 2) // 3 + 1


def relax_condition(form: HyperellipticForm) -> bool:
    """Integrality of the relaxed polygon of a width-2 form, in closed form.

    Type1 relaxes to a lattice polygon iff 2i <= 3g + 1.  For Type2 and
    Type3 the relaxation stays lattice iff neither slanted end collapses
    past a lattice height, which works out to 2i >= g - 1 and
    2j >= g - 1; at equality the displaced vertex lands exactly on
    (-1, -1) or (1, 3), so the bound is inclusive.
    """
    g, i, j = form.g, form.i, form.j
    if form.kind == "Type1":
        return 2 * i <= 3 * g + 1
    return 2 * i >= g - 1 and 2 * j >= g - 1


def maximal_polygons(g: int, width: int) -> list[Polygon]:
    """All maximal polygons of genus g >= 3 and lattice width 3 or 4.

    Each is relax(Q) for a candidate interior Q with g lattice points, kept
    when it is a lattice polygon of genus g and the wanted width:

    - Sound: if relax(Q) is a lattice polygon P of genus g, Q's g points
      lie strictly inside it, so int P = Q and P = relax(int P) is maximal.
    - Complete: P's interior is 2-dimensional (a collinear interior of
      g >= 2 points gives width 2), so a maximal P is relax(int P) (the
      moving-out bound: Koelman 1991; Castryck, "Moving out the edges of a
      lattice polygon", DCG 2012), and lw(int P) = lw(P) - 2 unless P is
      T_d.  So for width 3, int P has width 1 and is a trapezoid T(a, b)
      with a + b + 2 = g; for width 4 it has width 2 and genus 1 (one of
      ``genus1_lw2_classes``) or genus >= 2 (a width-2 form; those failing
      ``relax_condition`` relax to no lattice polygon), since the one of
      genus 0, T_2, relaxes to T_5.  Genus g >= 3 leaves out T_3, and
      T(0, 1) = T_1 relaxes to T_4.
    """
    if width not in (3, 4) or g < 3:
        raise ValueError("maximal polygons need width 3 or 4 and genus >= 3")
    interiors = [trapezoid(a, g - 2 - a) for a in range((g - 2) // 2 + 1)]
    if width == 4:
        interiors += [q for q in genus1_lw2_classes() if len(q.lattice_point_set) == g]
        interiors += [
            hyperelliptic_polygon(form)
            for g0 in range(2, g - 2)
            for form in valid_forms(g0)
            if form.lattice_point_count() == g and relax_condition(form)
        ]
    relaxed = map(relaxed_lattice, interiors)
    return classes(
        p for p in relaxed if p is not None and p.genus == g and lattice_width(p)[0] == width
    )


@dataclass(frozen=True)
class ObstructionVerdict:
    passes: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.passes


# Largest genus whose interior configuration can still be a panoptigon:
# the census caps panoptigons at 13 points, and the relaxation check on the
# 12/13-point classes lowers the bound from 13 to 11.
GENUS_BOUND_CENSUS = 11
GENUS_BOUND_THEOREM = 13


def big_face_obstruction(poly: Polygon) -> ObstructionVerdict:
    """Can every interior lattice point be seen from one of them?

    A polygon whose triangulations can produce a big-face graph needs its
    interior configuration to be a panoptigon (or a short segment, for the
    degenerate case).  Genus 14 and up is impossible outright; genus 12 and
    13 are ruled out by the census relaxation check.
    """
    g = poly.genus
    if g < 2:
        raise ValueError("obstruction check requires genus >= 2")
    if g > GENUS_BOUND_THEOREM:
        return ObstructionVerdict(False, "genus %d exceeds the panoptigon bound 13" % g)
    if g > GENUS_BOUND_CENSUS:
        return ObstructionVerdict(
            False, "genus %d ruled out by the census relaxation check" % g
        )
    inner = poly.interior_polygon()
    if inner.dimension == 2:
        if is_panoptigon(inner).is_panoptigon:
            return ObstructionVerdict(True)
        return ObstructionVerdict(False, "interior polygon has no all-seeing point")
    # g collinear interior points: the middle of a 3-point segment sees
    # both neighbors, but no point of a longer segment sees every other
    if g > 3:
        return ObstructionVerdict(False, "more than 3 collinear interior points")
    return ObstructionVerdict(True)
