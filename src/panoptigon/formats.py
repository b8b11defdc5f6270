"""Text and JSON serialization shared by the library and the CLI.

Polygon text format: vertices as ``x,y`` separated by single spaces, e.g.
``0,0 2,0 0,2``.  JSON forms mirror each type's fields exactly, so every
serialization can be read back (the tests hold the readers).
"""

from __future__ import annotations

from math import gcd
from pathlib import Path

from .classify import HyperellipticForm
from .core import Point, Polygon, convex_hull
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
    """Resolve ``@file`` indirection; anything else is returned verbatim.

    A file that is not UTF-8 text is a parse error.
    """
    if source.startswith("@"):
        try:
            return Path(source[1:]).read_text(encoding="utf-8").strip()
        except UnicodeDecodeError as exc:
            raise PolygonParseError("%s is not UTF-8 text: %s" % (source[1:], exc)) from exc
    return source


def polygon_to_text(poly: Polygon) -> str:
    return " ".join("%d,%d" % v for v in poly.vertices)


def polygon_to_json(poly: Polygon) -> dict:
    return {"vertices": [[x, y] for x, y in poly.vertices]}


def unimodular_map_to_json(m: UnimodularMap) -> dict:
    (a, b), (c, d) = m.matrix
    return {"matrix": [[a, b], [c, d]], "translation": list(m.translation)}


def relaxed_to_json(scaled: Polygon, d: int) -> dict:
    """relax(P), given as ``relax`` returns it (D * relax(P), D).

    Each coordinate n/D is written reduced, as "n" or "n/d".
    """

    def ratio(n: int) -> str:
        g = gcd(n, d)
        return "%d" % (n // g) if g == d else "%d/%d" % (n // g, d // g)

    return {
        "vertices": [[ratio(x), ratio(y)] for x, y in scaled.vertices],
        "is_lattice": d == 1,
    }


def hyperelliptic_form_to_json(form: HyperellipticForm) -> dict:
    data = {"kind": form.kind, "g": form.g, "i": form.i, "j": form.j}
    if form.kind == "Type3":
        data["k"] = form.k
    return data
