"""Text and JSON serialization shared by the library and the CLI.

Polygon text format: vertices as ``x,y`` separated by single spaces, e.g.
``0,0 2,0 0,2``.  JSON forms mirror each type's fields exactly so that every
serialization round-trips.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .classify import HyperellipticForm
from .core import Point, Polygon, convex_hull
from .relaxation import RationalPolygon
from .transform import UnimodularMap


class PolygonParseError(ValueError):
    """Raised when polygon input text cannot be parsed."""


def parse_polygon_text(text: str) -> Polygon:
    """Parse ``x,y x,y ...`` into a polygon (hull of the listed points)."""
    points: list[Point] = []
    for token in text.split():
        parts = token.split(",")
        if len(parts) != 2:
            raise PolygonParseError("bad vertex %r: expected x,y" % token)
        try:
            points.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise PolygonParseError("bad vertex %r: non-integer coordinate" % token)
    if not points:
        raise PolygonParseError("no vertices given")
    return convex_hull(points)


def resolve_polygon_source(source: str) -> str:
    """Resolve ``@file`` indirection; anything else is returned verbatim."""
    if source.startswith("@"):
        return Path(source[1:]).read_text().strip()
    return source


def polygon_to_text(poly: Polygon) -> str:
    return " ".join("%d,%d" % v for v in poly.vertices)


def polygon_to_json(poly: Polygon) -> dict:
    return {"vertices": [[x, y] for x, y in poly.vertices]}


def polygon_from_json(data: dict) -> Polygon:
    return convex_hull((int(x), int(y)) for x, y in data["vertices"])


def unimodular_map_to_json(m: UnimodularMap) -> dict:
    (a, b), (c, d) = m.matrix
    return {"matrix": [[a, b], [c, d]], "translation": list(m.translation)}


def unimodular_map_from_json(data: dict) -> UnimodularMap:
    (a, b), (c, d) = data["matrix"]
    tx, ty = data.get("translation", (0, 0))
    return UnimodularMap(((a, b), (c, d)), (tx, ty))


def rational_polygon_to_json(poly: RationalPolygon) -> dict:
    return {
        "vertices": [[str(x), str(y)] for x, y in poly.vertices],
        "is_lattice": poly.is_lattice,
    }


def rational_polygon_from_json(data: dict) -> RationalPolygon:
    return RationalPolygon(
        tuple((Fraction(x), Fraction(y)) for x, y in data["vertices"])
    )


def hyperelliptic_form_to_json(form: HyperellipticForm) -> dict:
    data = {"kind": form.kind, "g": form.g, "i": form.i, "j": form.j}
    if form.kind == "Type3":
        data["k"] = form.k
    return data


def hyperelliptic_form_from_json(data: dict) -> HyperellipticForm:
    return HyperellipticForm(
        kind=data["kind"],
        g=data["g"],
        i=data["i"],
        j=data.get("j", 0),
        k=data.get("k", 0),
    )
