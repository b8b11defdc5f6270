import json
from math import gcd

import pytest

from panoptigon import census as census_module
from panoptigon.census import (
    FIXED_POINTS,
    GENUS_BOUND_CENSUS,
    SPORADIC_CONTAINER_TRAPEZOIDS,
    CensusRecord,
    ObstructionVerdict,
    big_face_obstruction,
    candidate_point_set,
    census_summary,
    classes,
    convex_closed_sets,
    genus1_classes,
    genus1_lw2_classes,
    maximal_lw3_count_formula,
    maximal_polygons,
    records_to_ndjson,
    relax_condition,
    sporadic_ld2,
)
from panoptigon.classify import (
    HyperellipticForm,
    hyperelliptic_count,
    hyperelliptic_panoptigon_predicate,
    hyperelliptic_polygon,
    is_hyperelliptic,
    is_panoptigon,
    standard_triangle,
    trapezoid,
    valid_forms,
)
from panoptigon.core import Polygon, convex_hull, hull_insert
from panoptigon.relaxation import is_maximal, relaxed_lattice
from panoptigon.transform import (
    UnimodularMap,
    canonical_form,
    has_lattice_segment,
    lattice_diameter,
    lattice_width,
)

from conftest import bbox_lattice_points, corollary_lw12_check, grow, obstruction_witnesses


def test_candidate_frame_has_thirty_points():
    frame = candidate_point_set()
    assert len(frame) == 30
    assert FIXED_POINTS <= frame


def test_raw_enumeration_count(raw_polygons):
    assert len(raw_polygons) == 215


def _closure(points, universe):
    """Lattice points of the convex hull, or None if they escape the universe."""
    closed = convex_hull(points).lattice_point_set
    return closed if closed <= universe else None


def _closed_sets_oracle(universe, seeds, keep=None):
    """The frozenset walk: every state is a full lattice-point set, grown by
    one universe point and closed again by a fresh hull of all its points."""
    visited = set(seeds)
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


def _no_long_segment(points) -> bool:
    """No two of the points span 4 collinear lattice points (diameter <= 2)."""
    pts = sorted(points)
    return all(
        gcd(abs(q[0] - p[0]), abs(q[1] - p[1])) < 3 for i, p in enumerate(pts) for q in pts[i + 1 :]
    )


def _tested_once(keep):
    """Wrap ``keep`` so that testing one hull twice fails."""
    seen = set()

    def counted(poly):
        assert poly.vertices not in seen, poly
        seen.add(poly.vertices)
        return keep(poly)

    return counted


def test_closed_sets_match_frozenset_oracle_on_frame():
    frame = candidate_point_set()
    walk = convex_closed_sets(
        frame, convex_hull(FIXED_POINTS), keep=_tested_once(lambda poly: True)
    )
    assert len(walk) == 345
    assert {poly.lattice_point_set for poly in walk} == _closed_sets_oracle(frame, [FIXED_POINTS])


def test_dead_points_bound_frame_walk_insertions(monkeypatch):
    # Each state's rejected hulls mark their points dead for its children;
    # without that the frame walk makes 6,895 insertions for its 345 states.
    calls = []

    def counted(vertices, p):
        calls.append(p)
        return hull_insert(vertices, p)

    monkeypatch.setattr(census_module, "hull_insert", counted)
    walk = convex_closed_sets(candidate_point_set(), convex_hull(FIXED_POINTS))
    assert len(walk) == 345
    assert len(calls) <= 3100, len(calls)


def test_escape_count_matches_bbox_oracle_on_frame():
    # The walk decides escape by Pick's count over universe bitmasks and fills
    # each state's points from its mask; the bounding-box scan checks both.
    frame = candidate_point_set()
    seed = convex_hull(FIXED_POINTS)
    states = []
    walk = convex_closed_sets(frame, seed, keep=lambda poly: states.append(poly) or True)
    assert set(states) == walk - {seed} and len(states) == len(walk) - 1
    for poly in states:
        assert poly.lattice_point_set == bbox_lattice_points(poly), poly
        assert poly.lattice_point_set <= frame, poly
    # With every state kept, each other hull a state grows into was rejected
    # as escaping the frame.
    escaped = {
        convex_hull(poly.vertices + (p,))
        for poly in walk
        for p in frame - poly.lattice_point_set
    } - walk
    assert len(escaped) > 1000
    for hull in escaped:
        assert not bbox_lattice_points(hull) <= frame, hull


@pytest.mark.parametrize("a,b", [(2, 2), (0, 2)])
def test_seeded_sporadic_walk_matches_singleton_oracle(a, b):
    # The sporadic search seeds each container with T(a, b) itself; the
    # oracle walks every convex subset from single points.
    assert (a, b) in SPORADIC_CONTAINER_TRAPEZOIDS
    inner = trapezoid(a, b)
    universe = relaxed_lattice(inner).lattice_point_set
    keep = _tested_once(lambda poly: lattice_diameter(poly)[0] <= 2)
    walk = convex_closed_sets(universe, inner, keep=keep)
    oracle = _closed_sets_oracle(universe, [frozenset({p}) for p in universe], keep=_no_long_segment)
    expected = {s for s in oracle if inner.lattice_point_set <= s}
    assert len(expected) > 1
    assert {poly.lattice_point_set for poly in walk} == expected


@pytest.mark.parametrize("seed", [[(0, 0)], [(0, 0), (1, -1)]])
def test_closed_sets_refuse_a_seed_below_dimension_two(seed):
    with pytest.raises(ValueError):
        convex_closed_sets(candidate_point_set(), convex_hull(seed))


def test_raw_polygons_all_visible_from_origin_and_small(raw_polygons):
    for poly in raw_polygons:
        pts = poly.lattice_point_set
        assert len(pts) <= 13
        assert (0, 0) in pts
        assert is_panoptigon(poly).is_panoptigon


def test_nonhyperelliptic_census_classes(census):
    nonhyp, lw3plus = census
    # Deduplication of the 215 raw polygons yields 67 classes (the widely
    # quoted count of 69 double-counts two equivalent pairs).  Acceptance
    # criterion 01 asserts these counts by two routes, canonical forms and
    # brute-force vertex correspondence, and checks the README's merging map.
    assert len(nonhyp) == 67 + 3  # including the three diameter<=2 classes
    assert len(lw3plus) == len(nonhyp) + 1


def test_t3_is_the_frames_one_hyperelliptic_polygon(raw_polygons, census):
    # The width->=3 census is classes(raw) plus the sporadic three, with no
    # T_3 added by hand: the frame holds it, and it alone is hyperelliptic.
    t3 = canonical_form(standard_triangle(3))
    assert [canonical_form(p) for p in raw_polygons if is_hyperelliptic(p)] == [t3]
    nonhyp, lw3plus = census
    assert {r.canonical for r in lw3plus} - {r.canonical for r in nonhyp} == {t3}


def test_census_records_pairwise_inequivalent_panoptigons(census):
    nonhyp, _ = census
    canons = {r.canonical for r in nonhyp}
    assert len(canons) == len(nonhyp)
    for r in nonhyp:
        assert r.panoptigon_points
        assert not r.hyperelliptic


def test_census_by_count_tail(census):
    nonhyp, _ = census
    by_count = {}
    for r in nonhyp:
        by_count[r.lattice_point_count] = by_count.get(r.lattice_point_count, 0) + 1
    assert by_count[12] == 15
    assert by_count[13] == 8
    assert max(by_count) == 13


def test_big_records_have_nonlattice_relaxation(census):
    nonhyp, _ = census
    for r in nonhyp:
        if r.lattice_point_count >= 12:
            assert not r.relaxation_lattice
            assert relaxed_lattice(r.canonical) is None


def test_max_width_five_once(census):
    nonhyp, _ = census
    widths = sorted(r.lattice_width for r in nonhyp)
    assert max(widths) == 5
    assert widths.count(5) == 1


def test_sporadic_diameter_classes():
    records = sporadic_ld2(exhaustive=True)
    assert len(records) == 3
    for r in records:
        assert r.lattice_diameter <= 2
        assert r.lattice_width >= 3
        assert r.panoptigon_points


def _grow_short_panoptigons() -> set[Polygon]:
    """Classes of panoptigons with no lattice segment of length 3, grown from T_1.

    Every such polygon shrinks to a unimodular triangle by dropping, one at
    a time, a vertex other than a panoptigon point while staying
    2-dimensional.  Both conditions survive each drop, so ``grow`` reaches
    every class.  Independent of the container bound of ``sporadic_ld2``.
    """
    return grow(keep=lambda p: not has_lattice_segment(p, 3) and is_panoptigon(p).is_panoptigon)


def test_sporadic_three_match_point_growth():
    # An oracle for the sporadic search and for its list of containers.
    grown = _grow_short_panoptigons()
    assert len(grown) == 27
    assert max(len(poly.lattice_point_set) for poly in grown) == 9
    wide = {poly for poly in grown if lattice_width(poly)[0] >= 3 and not is_hyperelliptic(poly)}
    assert wide == {r.canonical for r in sporadic_ld2(exhaustive=True)}
    for poly in wide:
        inner = poly.interior_polygon()
        canon = canonical_form(inner)
        assert any(canon == canonical_form(trapezoid(a, b)) for a, b in SPORADIC_CONTAINER_TRAPEZOIDS)


def test_panoptigon_growth_finds_the_census(raw_polygons):
    # Every panoptigon shrinks to T_1 through panoptigons: drop a vertex
    # other than its panoptigon point while staying 2-dimensional, and the
    # point still sees every lattice point left.  So growth through
    # panoptigons reaches every class up to 30 points, with neither the
    # 30-point frame nor the sporadic containers: it checks the frame walk
    # and the three known sporadic classes independently.
    grown = grow(max_points=30, keep=lambda p: is_panoptigon(p).is_panoptigon)
    assert len(grown) == 944
    wide = {p for p in grown if lattice_width(p)[0] >= 3}
    sporadic = {r.canonical for r in sporadic_ld2(exhaustive=False)}
    assert wide == set(classes(raw_polygons)) | sporadic
    assert len(wide) == 71
    lattice = [len(p.lattice_point_set) for p in grown if relaxed_lattice(p) is not None]
    assert max(lattice) == GENUS_BOUND_CENSUS


def record_from_json(d: dict) -> CensusRecord:
    """Inverse of ``CensusRecord.to_json``."""
    return CensusRecord(
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


def test_record_json_roundtrip(census):
    nonhyp, _ = census
    for r in nonhyp[:5]:
        assert record_from_json(json.loads(json.dumps(r.to_json()))) == r


def test_ndjson_deterministic(census):
    nonhyp, _ = census
    assert records_to_ndjson(nonhyp) == records_to_ndjson(list(reversed(nonhyp)))


def test_genus1_enumeration_all_panoptigons():
    classes = genus1_classes()
    assert len(classes) == 16
    for poly in classes:
        assert poly.genus == 1
        assert is_panoptigon(poly).is_panoptigon


def test_genus1_width2_count_reported():
    assert len(genus1_lw2_classes()) == 15


def test_genus1_classes_cache_is_immutable():
    classes = genus1_classes()
    assert isinstance(classes, tuple)
    assert genus1_classes() == classes


def test_maximal_lw3_outputs():
    for g in (4, 5, 6):
        polys = maximal_polygons(g, 3)
        for poly in polys:
            assert poly.genus == g
            assert lattice_width(poly)[0] == 3
            assert is_maximal(poly)
            inner = poly.interior_polygon()
            assert lattice_width(inner)[0] == 1


def test_maximal_lw3_contains_known_example():
    assert canonical_form(relaxed_lattice(trapezoid(1, 2))) in maximal_polygons(5, 3)


def test_maximal_lw3_formula_values():
    assert maximal_lw3_count_formula(4) == 2
    assert maximal_lw3_count_formula(10) == 3


def test_relax_condition_examples():
    from panoptigon.classify import HyperellipticForm

    assert relax_condition(HyperellipticForm(kind="Type1", g=4, i=6))
    assert not relax_condition(HyperellipticForm(kind="Type1", g=4, i=7))


def test_relax_condition_matches_direct_relaxation():
    for g in range(1, 8):
        for form in valid_forms(g):
            direct = relaxed_lattice(hyperelliptic_polygon(form)) is not None
            assert relax_condition(form) == direct, form


def test_maximal_lw4_outputs():
    for g in (3, 4, 5):
        polys = maximal_polygons(g, 4)
        for poly in polys:
            assert poly.genus == g
            assert lattice_width(poly)[0] == 4
            assert is_maximal(poly)
    assert maximal_polygons(3, 4) == [canonical_form(standard_triangle(4))]


def test_maximal_polygons_complete_by_growth():
    # Every class up to 12 lattice points, grown from T_1.  A maximal polygon
    # of genus g and width 3 or 4 is relax(Q) for its interior Q, which has
    # g points, so it is the relaxation of a grown Q.  The oracle shares
    # ``relaxed_lattice`` and ``lattice_width`` with the generator, not its
    # lists of candidate interiors.
    grown = grow(max_points=12)
    assert len(grown) == 724
    for g in range(3, 13):
        relaxed = [relaxed_lattice(q) for q in grown if len(q.lattice_point_set) == g]
        relaxed = [p for p in relaxed if p is not None and p.genus == g]
        for width in (3, 4):
            expected = classes(p for p in relaxed if lattice_width(p)[0] == width)
            assert maximal_polygons(g, width) == expected, (g, width)
    assert {p for p in grown if p.genus == 1} == set(genus1_classes())
    # Genus 3 would need growth to 15 points.
    genus2 = [p for p in grown if p.genus == 2 and lattice_width(p)[0] == 2]
    assert len(genus2) == hyperelliptic_count(2)


def test_castryck_genus_table_by_moving_out_edges(census):
    """Lattice polygons of genus 2..7, counted without the 30-point frame.

    Interior-polygon lemma (Koelman 1991; Haase & Schicho, "Lattice
    polygons and the number 2i + 7", Amer. Math. Monthly 2009; Castryck,
    "Moving out the edges of a lattice polygon", DCG 47, 2012): a
    2-dimensional lattice polygon Q is the interior polygon of a lattice
    polygon exactly when relax(Q) is a lattice polygon, and every P with
    int P = Q lies between Q and relax(Q).  So the genus-g polygons with a
    2-dimensional interior are the convex-closed sets of relax(Q)'s lattice
    points that contain a Q with g points and have genus g; the collinear
    interiors add ``hyperelliptic_count(g)``.  The totals 45, 120, 211, 403,
    714 and 1,023 are what this route gives; they match the genus table of
    Castryck 2012 as recalled, since no copy of the paper is at hand.  The
    panoptigons among them are the census's non-hyperelliptic records,
    genus by genus.
    """
    nonhyp, _ = census
    relaxed = {q: relaxed_lattice(q) for q in grow(max_points=7)}
    totals, panoptigons = {}, {}
    for g in range(2, 8):
        polys = classes(
            p
            for q, r in relaxed.items()
            if r is not None and len(q.lattice_point_set) == g
            for p in convex_closed_sets(r.lattice_point_set, q)
            if p.genus == g
        )
        totals[g] = len(polys) + hyperelliptic_count(g)
        seen = {p for p in polys if is_panoptigon(p).is_panoptigon}
        assert seen == {r.canonical for r in nonhyp if r.genus == g}, g
        panoptigons[g] = len(seen)
    assert totals == {2: 45, 3: 120, 4: 211, 5: 403, 6: 714, 7: 1023}
    assert panoptigons == {2: 0, 3: 14, 4: 11, 5: 17, 6: 12, 7: 5}


def test_corollary_bound():
    report = corollary_lw12_check()
    assert report["max_count"] <= 11
    assert report["forms_without_height1_point"] == 0
    # The bound lemma of ``corollary_lw12_check``: nothing above genus 3.
    assert not [
        form
        for g in range(4, 13)
        for form in valid_forms(g)
        if hyperelliptic_panoptigon_predicate(form) and relax_condition(form)
    ]


def test_obstruction_verdicts():
    assert big_face_obstruction(standard_triangle(4)).passes
    big = convex_hull([(0, 0), (8, 0), (0, 8)])  # genus 21
    verdict = big_face_obstruction(big)
    assert not verdict.passes
    assert "13" in verdict.reason
    # a failing verdict is falsy, although it is a non-empty tuple
    assert not verdict and not bool(ObstructionVerdict(False, "x"))


@pytest.mark.parametrize(
    "make",
    [
        lambda: is_panoptigon(standard_triangle(3)),
        lambda: HyperellipticForm("Type1", 2, 2),
        lambda: UnimodularMap(((1, 1), (0, 1)), (3, -2)),
        lambda: CensusRecord.from_polygon(canonical_form(standard_triangle(3))),
        lambda: ObstructionVerdict(True),
    ],
)
def test_records_refuse_field_assignment(make):
    """Fields are read-only, and no record carries a ``__dict__`` for new attributes."""
    record = make()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    assert not hasattr(record, "__dict__")


def test_obstruction_rejects_low_genus():
    with pytest.raises(ValueError):
        big_face_obstruction(standard_triangle(3))


def test_obstruction_witnesses_cover_genera_2_to_11():
    witnesses = obstruction_witnesses()
    assert sorted(witnesses) == list(range(2, 12))
    for g, poly in witnesses.items():
        assert poly.genus == g
        assert big_face_obstruction(poly).passes


def test_census_summary_shape(census, raw_polygons):
    nonhyp, lw3plus = census
    summary = census_summary(nonhyp, lw3plus, len(raw_polygons))
    assert summary["raw"] == 215
    assert summary["total"] == summary["nonhyperelliptic"] + summary["sporadic"]
    assert summary["lw3plus"] == summary["total"] + 1
