import json

import pytest

from panoptigon.census import (
    CensusRecord,
    big_face_obstruction,
    candidate_point_set,
    census_summary,
    corollary_lw12_check,
    genus1_classes,
    genus1_lw2_classes,
    maximal_lw3,
    maximal_lw3_count_formula,
    maximal_lw4,
    obstruction_witnesses,
    records_to_ndjson,
    relax_condition,
    sporadic_ld2,
)
from panoptigon.classify import (
    hyperelliptic_polygon,
    is_panoptigon,
    standard_triangle,
    valid_forms,
)
from panoptigon.core import Polygon, convex_hull
from panoptigon.relaxation import NotLattice, is_maximal, relaxed_lattice
from panoptigon.transform import are_equivalent, canonical_form, lattice_width


def test_candidate_frame_has_thirty_points():
    frame = candidate_point_set()
    assert len(frame.universe) == 30
    assert frame.fixed <= frame.universe


def test_raw_enumeration_count(raw_polygons):
    assert len(raw_polygons) == 215


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
            result = relaxed_lattice(r.canonical)
            assert isinstance(result, NotLattice)


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


def test_record_json_roundtrip(census):
    nonhyp, _ = census
    for r in nonhyp[:5]:
        assert CensusRecord.from_json(json.loads(json.dumps(r.to_json()))) == r


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


def _genus1_strip_oracle(width: int, height: int) -> set[Polygon]:
    """Genus-1 classes among the convex-closed subsets of [0,width]x[0,height].

    Grows single points one lattice point at a time, pruning hulls that leave
    the box or have genus > 1; independent of the census enumerator.
    """
    box = frozenset((x, y) for x in range(width + 1) for y in range(height + 1))
    visited = {frozenset({p}) for p in box}
    stack = list(visited)
    while stack:
        state = stack.pop()
        for p in box - state:
            hull = convex_hull(state | {p})
            nxt = hull.lattice_point_set
            if nxt <= box and nxt not in visited and hull.genus <= 1:
                visited.add(nxt)
                stack.append(nxt)
    polys = (convex_hull(s) for s in visited)
    return {canonical_form(p) for p in polys if p.dimension == 2 and p.genus == 1}


def test_genus1_classes_match_strip_oracle():
    # The three maximal genus-1 polygons all fit in [0,4]x[0,3]; the 3x3 box
    # misses conv((0,0),(4,0),(0,2)).
    assert _genus1_strip_oracle(4, 3) == set(genus1_classes())
    assert len(_genus1_strip_oracle(3, 3)) == 15


def test_maximal_lw3_outputs():
    for g in (4, 5, 6):
        polys = maximal_lw3(g)
        for poly in polys:
            assert poly.genus == g
            assert lattice_width(poly)[0] == 3
            assert is_maximal(poly)
            inner = poly.interior_polygon()
            assert lattice_width(inner)[0] == 1


def test_maximal_lw3_contains_known_example():
    from panoptigon.classify import trapezoid

    target = relaxed_lattice(trapezoid(1, 2))
    assert any(are_equivalent(p, target) for p in maximal_lw3(5))


def test_maximal_lw3_formula_values():
    assert maximal_lw3_count_formula(4) == 1
    assert maximal_lw3_count_formula(10) == 2


def test_relax_condition_examples():
    from panoptigon.classify import HyperellipticForm

    assert relax_condition(HyperellipticForm(kind="Type1", g=4, i=6))
    assert not relax_condition(HyperellipticForm(kind="Type1", g=4, i=7))


def test_relax_condition_matches_direct_relaxation():
    for g in range(2, 8):
        for form in valid_forms(g):
            direct = not isinstance(
                relaxed_lattice(hyperelliptic_polygon(form)), NotLattice
            )
            assert relax_condition(form) == direct, form


def test_maximal_lw4_outputs():
    for g in (3, 4, 5):
        polys = maximal_lw4(g)
        for poly in polys:
            assert poly.genus == g
            assert lattice_width(poly)[0] == 4
            assert is_maximal(poly)
    assert any(
        are_equivalent(p, standard_triangle(4)) for p in maximal_lw4(3)
    )


def test_corollary_bound():
    report = corollary_lw12_check()
    assert report["max_count"] <= 11
    assert report["forms_without_height1_point"] == 0


def test_obstruction_verdicts():
    assert big_face_obstruction(standard_triangle(4)).passes
    big = convex_hull([(0, 0), (8, 0), (0, 8)])  # genus 21
    verdict = big_face_obstruction(big)
    assert not verdict.passes
    assert "13" in verdict.reason


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
