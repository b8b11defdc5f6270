"""Exhaustive computations: the 30-point census, sporadic searches, and
the maximal lattice-width-3/4 generators.

The headline numbers the suite is built around: 215 raw polygons from the
30-point enumeration, collapsing to 67 classes of non-hyperelliptic
panoptigons with lattice diameter >= 3, plus 3 sporadic classes of lattice
diameter 2, giving 70 in all; adding the degree-3 triangle yields the 71
panoptigons of lattice width >= 3.  The quoted 69/72/73 count two pairs of
unimodularly equivalent polygons as separate classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Optional

from .classify import (
    HyperellipticForm,
    hyperelliptic_panoptigon_predicate,
    hyperelliptic_polygon,
    is_hyperelliptic,
    is_panoptigon,
    standard_triangle,
    trapezoid,
    valid_forms,
)
from .core import Point, Polygon, convex_hull, is_visible
from .relaxation import NotLattice, is_maximal, relaxed_lattice
from .transform import are_equivalent, canonical_form, lattice_diameter, lattice_width

FIXED_POINTS = frozenset({(0, 0), (-1, -1), (0, -1), (1, -1), (2, -1)})


@dataclass(frozen=True)
class CandidateFrame:
    """The candidate lattice points for the width->=3 panoptigon census."""

    fixed: frozenset[Point]
    optional: frozenset[Point]

    @property
    def universe(self) -> frozenset[Point]:
        return self.fixed | self.optional


def candidate_point_set() -> CandidateFrame:
    """The 30 points that can appear in a panoptigon of lattice width >= 3.

    Derivation, with (0,0) as panoptigon point and the bottom row pinned to
    start at (-1,-1): height -2 admits only odd x in [-3,9]; height -1 only
    x in [-1,5]; height 0 only |x| <= 1; above the axis x is confined to
    [-y-1, 1], the point must be origin-visible, and the triangle it spans
    with the fixed points must not force an invisible point.
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
    return CandidateFrame(FIXED_POINTS, frozenset(pts) - FIXED_POINTS)


def _closure(points: Iterable[Point], universe: frozenset[Point]) -> Optional[frozenset[Point]]:
    """Lattice points of the convex hull, or None if they escape the universe."""
    closed = convex_hull(points).lattice_point_set
    return closed if closed <= universe else None


def convex_closed_sets(
    universe: frozenset[Point],
    seeds: Iterable[frozenset[Point]],
    keep: Optional[Callable[[frozenset[Point]], bool]] = None,
) -> set[frozenset[Point]]:
    """All convex-closed supersets (within the universe) of the seed states.

    A state grows by one universe point at a time and is replaced by the
    lattice points of its convex hull; hulls that escape the universe are
    dropped, and so are states for which ``keep`` returns False (the seeds
    themselves are not tested).  Every convex-closed set containing a seed
    is reached, provided ``keep`` holds on all of its convex-closed subsets
    that contain that seed.
    """
    visited: set[frozenset[Point]] = set(seeds)
    stack = list(visited)
    while stack:
        state = stack.pop()
        for p in universe - state:
            nxt = _closure(state | {p}, universe)
            if nxt is None or nxt in visited or (keep is not None and not keep(nxt)):
                continue
            visited.add(nxt)
            stack.append(nxt)
    return visited


def enumerate_raw() -> set[Polygon]:
    """All polygons on the 30 candidate points containing the 5 fixed ones.

    Bound: every panoptigon of lattice width and lattice diameter >= 3 is
    equivalent to one with panoptigon point (0,0) that contains the 5 fixed
    points and lies inside the 30-point frame (the derivation is in
    ``candidate_point_set``; diameter 2 is covered by ``sporadic_ld2``).
    The frame's convex-closed sets containing the fixed points are walked
    with ``convex_closed_sets``.  Kept are the two-dimensional results with at
    least one interior point and lattice width >= 3 (the subject of the
    census; thinner polygons occur in the frame but belong to the
    separately classified width-1/2 families).  Every output is
    automatically a panoptigon with panoptigon point (0,0).
    """
    frame = candidate_point_set()
    universe = frame.universe
    seed = _closure(frame.fixed, universe)
    assert seed is not None
    out = set()
    for s in convex_closed_sets(universe, [seed]):
        poly = convex_hull(s)
        if poly.dimension == 2 and poly.genus >= 1 and lattice_width(poly)[0] >= 3:
            out.add(poly)
    return out


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
    def from_polygon(cls, poly: Polygon) -> "CensusRecord":
        canon = canonical_form(poly)
        relaxed = relaxed_lattice(canon)
        lattice = isinstance(relaxed, Polygon)
        return cls(
            canonical=canon,
            lattice_point_count=len(canon.lattice_point_set),
            genus=canon.genus,
            lattice_width=lattice_width(canon)[0],
            lattice_diameter=lattice_diameter(canon)[0],
            hyperelliptic=is_hyperelliptic(canon),
            panoptigon_points=tuple(sorted(is_panoptigon(canon).panoptigon_points)),
            relaxation_lattice=lattice,
            max_polygon=relaxed if lattice else None,
        )

    def sort_key(self):
        return (self.lattice_point_count, self.canonical.vertices)

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

    @classmethod
    def from_json(cls, d: dict) -> "CensusRecord":
        return cls(
            canonical=Polygon(tuple((x, y) for x, y in d["canonical"])),
            lattice_point_count=d["lattice_point_count"],
            genus=d["genus"],
            lattice_width=d["lattice_width"],
            lattice_diameter=d["lattice_diameter"],
            hyperelliptic=d["hyperelliptic"],
            panoptigon_points=tuple((x, y) for x, y in d["panoptigon_points"]),
            relaxation_lattice=d["relaxation_lattice"],
            max_polygon=None
            if d["max_polygon"] is None
            else Polygon(tuple((x, y) for x, y in d["max_polygon"])),
        )


def sort_records(records: Iterable[CensusRecord]) -> list[CensusRecord]:
    """Deterministic order: by lattice-point count, then canonical vertices."""
    return sorted(records, key=CensusRecord.sort_key)


def records_to_ndjson(records: Iterable[CensusRecord]) -> str:
    return "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in sort_records(records))


def nonhyperelliptic_census(raw: Optional[set[Polygon]] = None) -> list[CensusRecord]:
    """The 67 classes of non-hyperelliptic panoptigons with diameter >= 3.

    The quoted count of 69 splits two pairs of equivalent polygons.
    """
    if raw is None:
        raw = enumerate_raw()
    classes: dict[Polygon, Polygon] = {}
    for poly in raw:
        if not is_hyperelliptic(poly):
            classes.setdefault(canonical_form(poly), poly)
    return sort_records(CensusRecord.from_polygon(c) for c in classes)


SPORADIC_LD2_VERTICES = (
    ((0, 1), (0, 3), (4, 0)),
    ((1, 0), (2, 0), (3, 1), (0, 3)),
    ((0, 1), (0, 2), (2, 3), (3, 0)),
)

# Interior polygons a diameter-2 panoptigon of width >= 3 can have; their
# relaxations are the five container polygons the sporadic search runs in.
SPORADIC_CONTAINER_TRAPEZOIDS = ((0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _small_diameter(state: frozenset[Point]) -> bool:
    """No two points of the set span 4 collinear lattice points."""
    pts = sorted(state)
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if gcd(abs(q[0] - p[0]), abs(q[1] - p[1])) >= 3:
                return False
    return True


def sporadic_ld2(exhaustive: bool = True) -> list[CensusRecord]:
    """The 3 non-hyperelliptic panoptigon classes of lattice diameter 2.

    The known triangle and two quadrilaterals are verified directly; with
    ``exhaustive`` an independent search over all convex subpolygons of the
    five containers (relaxations of the trapezoids a diameter-2 interior
    polygon can be) confirms no further class exists.
    """
    known = [convex_hull(v) for v in SPORADIC_LD2_VERTICES]
    records = []
    for poly in known:
        rec = CensusRecord.from_polygon(poly)
        assert not rec.hyperelliptic and rec.panoptigon_points
        assert rec.lattice_diameter == 2 and rec.lattice_width == 3
        records.append(rec)
    if exhaustive:
        found: set[Polygon] = set()
        for a, b in SPORADIC_CONTAINER_TRAPEZOIDS:
            container = relaxed_lattice(trapezoid(a, b))
            assert isinstance(container, Polygon)
            universe = container.lattice_point_set
            seeds = [frozenset({p}) for p in universe]
            for state in convex_closed_sets(universe, seeds, keep=_small_diameter):
                poly = convex_hull(state)
                if poly.dimension != 2:
                    continue
                if lattice_diameter(poly)[0] > 2 or lattice_width(poly)[0] < 3:
                    continue
                if is_hyperelliptic(poly) or not is_panoptigon(poly).is_panoptigon:
                    continue
                found.add(canonical_form(poly))
        if found != {r.canonical for r in records}:
            raise AssertionError("sporadic search disagrees with the known three classes")
    return sort_records(records)


def full_panoptigon_census(exhaustive_sporadic: bool = False, raw: Optional[set[Polygon]] = None):
    """(70 non-hyperelliptic records, 71 width->=3 records incl. T_3).

    ``raw`` is the output of ``enumerate_raw``, enumerated here if omitted.
    The quoted 72/73 split two pairs of equivalent polygons.
    """
    records = nonhyperelliptic_census(raw=raw) + sporadic_ld2(exhaustive=exhaustive_sporadic)
    nonhyp = sort_records(records)
    lw3plus = sort_records(nonhyp + [CensusRecord.from_polygon(standard_triangle(3))])
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


# Every genus-1 lattice polygon is equivalent to a subpolygon of one of
# these three (Poonen & Rodriguez-Villegas, "Lattice polygons and the
# number 12", Amer. Math. Monthly 107 (2000)).
GENUS1_MAXIMAL_VERTICES = (
    ((-1, -1), (2, -1), (-1, 2)),
    ((-1, -1), (1, -1), (1, 1), (-1, 1)),
    ((-1, -1), (3, -1), (-1, 1)),
)


@lru_cache(maxsize=None)
def genus1_classes() -> tuple[Polygon, ...]:
    """All genus-1 polygons up to equivalence, as sorted canonical forms.

    Bound: every genus-1 polygon is equivalent to a subpolygon of one of the
    three maximal ones in ``GENUS1_MAXIMAL_VERTICES``, so walking their
    convex-closed subsets and keeping the genus-1 ones finds every class.
    """
    classes: set[Polygon] = set()
    for vertices in GENUS1_MAXIMAL_VERTICES:
        universe = convex_hull(vertices).lattice_point_set
        for state in convex_closed_sets(universe, [frozenset({p}) for p in universe]):
            poly = convex_hull(state)
            if poly.dimension == 2 and poly.genus == 1:
                classes.add(canonical_form(poly))
    return tuple(sorted(classes, key=lambda p: p.vertices))


def genus1_lw2_classes() -> list[Polygon]:
    """Genus-1 polygons of lattice width exactly 2 (everything but T_3)."""
    return [p for p in genus1_classes() if lattice_width(p)[0] == 2]


def maximal_lw3(g: int) -> list[Polygon]:
    """All maximal polygons of lattice width 3 and genus g >= 3.

    These are the lattice relaxations of trapezoids with a+b+2 = g; the
    relaxation is integral exactly when a >= b/2 - 1.  Results are verified
    maximal and deduplicated.  (The degree-3 triangle is the lone width-3
    maximal polygon outside this family, at genus 1, below this range.)
    """
    if g < 3:
        raise ValueError("maximal width-3 polygons require genus >= 3")
    out: dict[Polygon, Polygon] = {}
    for a in range(0, (g - 2) // 2 + 1):
        b = g - 2 - a
        if a > b or b < 1 or 2 * a < b - 2:
            continue
        relaxed = relaxed_lattice(trapezoid(a, b))
        if not isinstance(relaxed, Polygon):
            continue
        if lattice_width(relaxed)[0] != 3:
            continue
        assert relaxed.genus == g and is_maximal(relaxed)
        out.setdefault(canonical_form(relaxed), relaxed)
    return sorted(out.values(), key=lambda p: p.vertices)


def maximal_lw3_count_formula(g: int) -> int:
    """floor((g-2)/2) - floor(g/3) + 1; reported next to the enumeration.

    The enumeration is authoritative; the closed form disagrees for some g
    (its derivation conflates the trapezoid's point count with the genus of
    the relaxation), so callers should compare rather than assume equality.
    """
    if g < 4:
        raise ValueError("count formula stated for genus >= 4")
    return (g - 2) // 2 - g // 3 + 1


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


def maximal_lw4(g: int) -> list[Polygon]:
    """All maximal polygons of lattice width 4 and genus g >= 3.

    Either T_4 (genus 3); a relaxation of a genus-1 width-2 polygon; or a
    relaxation of a width-2 form passing the integrality condition.  The
    generating interior polygon must have exactly g lattice points.
    """
    if g < 3:
        raise ValueError("maximal width-4 polygons require genus >= 3")
    candidates: list[Polygon] = []
    if g == 3:
        candidates.append(standard_triangle(4))
    for inner in genus1_lw2_classes():
        if len(inner.lattice_point_set) != g:
            continue
        relaxed = relaxed_lattice(inner)
        if isinstance(relaxed, Polygon):
            candidates.append(relaxed)
    for g0 in range(2, g - 2):
        for form in valid_forms(g0):
            if form.lattice_point_count() != g or not relax_condition(form):
                continue
            relaxed = relaxed_lattice(hyperelliptic_polygon(form))
            assert isinstance(relaxed, Polygon)
            candidates.append(relaxed)
    out: dict[Polygon, Polygon] = {}
    for poly in candidates:
        if poly.genus == g and lattice_width(poly)[0] == 4 and is_maximal(poly):
            out.setdefault(canonical_form(poly), poly)
    return sorted(out.values(), key=lambda p: p.vertices)


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
    # collinear interior points: the middle of a 3-point segment sees both
    # neighbors, but no point of a longer segment sees every other
    if len(inner.lattice_point_set) > 3:
        return ObstructionVerdict(False, "more than 3 collinear interior points")
    return ObstructionVerdict(True)


def obstruction_witnesses() -> dict[int, Polygon]:
    """A PASSES example for every genus from 2 through 11."""
    out: dict[int, Polygon] = {}
    out[2] = hyperelliptic_polygon(HyperellipticForm("Type1", 2, 2))
    out[3] = standard_triangle(4)
    for a, b in ((0, 2), (1, 2), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6)):
        relaxed = relaxed_lattice(trapezoid(a, b))
        assert isinstance(relaxed, Polygon)
        out[relaxed.genus] = relaxed
    big = relaxed_lattice(hyperelliptic_polygon(HyperellipticForm("Type1", 3, 3)))
    assert isinstance(big, Polygon)
    out[big.genus] = big
    assert sorted(out) == list(range(2, 12))
    for g, poly in out.items():
        assert poly.genus == g and big_face_obstruction(poly).passes
    return out
