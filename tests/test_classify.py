import random

import pytest

from panoptigon import classify
from panoptigon.classify import (
    HyperellipticForm,
    PanoptigonReport,
    hyperelliptic_count,
    hyperelliptic_normal_form,
    hyperelliptic_panoptigon_predicate,
    hyperelliptic_polygon,
    is_hyperelliptic,
    is_panoptigon,
    standard_triangle,
    trapezoid,
    valid_forms,
)
from panoptigon.core import is_visible
from panoptigon.transform import UnimodularMap, canonical_form, lattice_width

from conftest import (
    genus0_panoptigon_predicate,
    panoptigon_points_oracle,
    random_sheared_polygon,
    random_unimodular_map,
    template_normal_form,
)


def test_is_panoptigon_examples():
    report = is_panoptigon(standard_triangle(3))
    assert report.is_panoptigon
    assert report.panoptigon_points == frozenset({(1, 1)})
    # The size-5 standard triangle has no all-seeing point.
    assert not is_panoptigon(standard_triangle(5)).is_panoptigon


def test_is_panoptigon_matches_full_scan_oracle(monkeypatch):
    """Same points as the full scan, testing at most four candidates."""
    candidates = set()

    def recording_is_visible(p, q):
        candidates.add(p)
        return is_visible(p, q)

    monkeypatch.setattr(classify, "is_visible", recording_is_visible)
    rng = random.Random(2002)
    dimensions = set()
    for _ in range(2000):
        poly = random_sheared_polygon(rng)
        dimensions.add(poly.dimension)
        candidates.clear()
        seers = panoptigon_points_oracle(poly)
        assert is_panoptigon(poly) == PanoptigonReport(bool(seers), seers), poly
        assert len(candidates) <= 4, poly
    assert dimensions == {0, 1, 2}


def test_trapezoid_and_triangle_constructors():
    assert trapezoid(2, 3).vertices == ((0, 0), (3, 0), (2, 1), (0, 1))
    assert standard_triangle(2).vertices == ((0, 0), (2, 0), (0, 2))


def test_genus0_predicate_matches_brute_force():
    for b in range(1, 11):
        for a in range(0, b + 1):
            assert (
                genus0_panoptigon_predicate(a, b)
                == is_panoptigon(trapezoid(a, b)).is_panoptigon
            ), (a, b)


def test_is_hyperelliptic():
    assert is_hyperelliptic(standard_triangle(3))  # genus 1: interior is a point
    assert is_hyperelliptic(trapezoid(1, 1))  # genus 0: empty interior
    assert not is_hyperelliptic(standard_triangle(4))  # interior is a triangle


def test_form_validation():
    with pytest.raises(ValueError):
        HyperellipticForm(kind="Type1", g=2, i=1)  # i below g
    with pytest.raises(ValueError):
        HyperellipticForm(kind="Type2", g=2, i=1, j=2)  # j above i
    HyperellipticForm(kind="Type3", g=2, i=0, j=0, k=1)


def test_form_counts_match_closed_formula():
    for g in range(2, 7):
        forms = list(valid_forms(g))
        assert len(forms) == hyperelliptic_count(g), g
        assert len(set(forms)) == len(forms)


def test_forms_are_pairwise_inequivalent():
    canons = [canonical_form(hyperelliptic_polygon(f)) for f in valid_forms(2)]
    assert len(set(canons)) == len(canons)


def test_form_polygons_have_width_two_and_right_genus():
    for g in (1, 2, 3):
        for form in valid_forms(g):
            poly = hyperelliptic_polygon(form)
            assert poly.genus == g, form
            assert lattice_width(poly)[0] == 2, form
            assert len(poly.lattice_point_set) == form.lattice_point_count(), form


def test_panoptigon_predicate_matches_brute_force():
    for g in range(1, 5):
        for form in valid_forms(g):
            assert (
                hyperelliptic_panoptigon_predicate(form)
                == is_panoptigon(hyperelliptic_polygon(form)).is_panoptigon
            ), form


def test_normal_form_roundtrip():
    for form in valid_forms(3):
        poly = hyperelliptic_polygon(form)
        sheared = UnimodularMap(((1, 2), (0, 1)), (5, -1))(poly)
        assert hyperelliptic_normal_form(sheared) == form


def test_normal_form_matches_template_search():
    rng = random.Random(8008)
    for g in range(2, 9):
        for form in valid_forms(g):
            poly = hyperelliptic_polygon(form)
            for image in (poly, random_unimodular_map(rng, 30)(poly)):
                assert hyperelliptic_normal_form(image) == template_normal_form(image) == form


def test_normal_form_rejects_non_hyperelliptic():
    with pytest.raises(ValueError):
        hyperelliptic_normal_form(standard_triangle(4))
