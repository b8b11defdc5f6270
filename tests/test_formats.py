from fractions import Fraction

import pytest

from panoptigon.classify import HyperellipticForm
from panoptigon.core import Polygon, convex_hull
from panoptigon.formats import (
    PolygonParseError,
    hyperelliptic_form_to_json,
    parse_polygon_text,
    polygon_to_json,
    polygon_to_text,
    relaxed_to_json,
    unimodular_map_to_json,
)
from panoptigon.transform import UnimodularMap


# Readers that invert the JSON writers; only the round-trip tests need them.


def polygon_from_json(data: dict) -> Polygon:
    return convex_hull((int(x), int(y)) for x, y in data["vertices"])


def unimodular_map_from_json(data: dict) -> UnimodularMap:
    (a, b), (c, d) = data["matrix"]
    tx, ty = data.get("translation", (0, 0))
    return UnimodularMap(((a, b), (c, d)), (tx, ty))


def rational_vertices_from_json(data: dict) -> tuple:
    return tuple((Fraction(x), Fraction(y)) for x, y in data["vertices"])


def hyperelliptic_form_from_json(data: dict) -> HyperellipticForm:
    return HyperellipticForm(
        kind=data["kind"],
        g=data["g"],
        i=data["i"],
        j=data.get("j", 0),
        k=data.get("k", 0),
    )


def test_polygon_text_roundtrip():
    poly = convex_hull([(0, 0), (3, 0), (0, 3)])
    assert parse_polygon_text(polygon_to_text(poly)) == poly
    assert parse_polygon_text("0,3 0,0 3,0") == poly  # order-insensitive


def test_polygon_text_negative_coordinates():
    assert parse_polygon_text("-1,-1 2,-1 -1,2").vertices == (
        (-1, -1),
        (2, -1),
        (-1, 2),
    )


def test_parse_errors():
    with pytest.raises(PolygonParseError):
        parse_polygon_text("")
    with pytest.raises(PolygonParseError):
        parse_polygon_text("1,2 3")
    with pytest.raises(PolygonParseError):
        parse_polygon_text("1,2 a,b")


def test_polygon_json_roundtrip():
    poly = convex_hull([(0, 0), (3, 0), (0, 3)])
    assert polygon_from_json(polygon_to_json(poly)) == poly


def test_unimodular_map_json_roundtrip():
    m = UnimodularMap(((1, 2), (0, 1)), (3, -4))
    assert unimodular_map_from_json(unimodular_map_to_json(m)) == m


def test_rational_polygon_json():
    # relax(P) with vertices (-1, -1), (5/2, 0), (-3/4, 1/2), given as D = 4
    # times itself; each coordinate is written reduced.
    scaled = convex_hull([(-4, -4), (10, 0), (-3, 2)])
    data = relaxed_to_json(scaled, 4)
    assert data["is_lattice"] is False
    assert data["vertices"] == [["-1", "-1"], ["5/2", "0"], ["-3/4", "1/2"]]
    assert rational_vertices_from_json(data) == tuple(
        (Fraction(x, 4), Fraction(y, 4)) for x, y in scaled.vertices
    )
    assert relaxed_to_json(scaled, 1) == {
        "vertices": [["-4", "-4"], ["10", "0"], ["-3", "2"]],
        "is_lattice": True,
    }


def test_hyperelliptic_form_json():
    t2 = HyperellipticForm(kind="Type2", g=3, i=2, j=1)
    assert "k" not in hyperelliptic_form_to_json(t2)
    assert hyperelliptic_form_from_json(hyperelliptic_form_to_json(t2)) == t2
    t3 = HyperellipticForm(kind="Type3", g=3, i=1, j=1, k=2)
    assert hyperelliptic_form_from_json(hyperelliptic_form_to_json(t3)) == t3
