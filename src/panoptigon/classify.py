"""Panoptigon predicates and the width-1/width-2 family classifications.

A panoptigon is a convex lattice polygon containing a point from which
every other lattice point of the polygon is visible.  Polygons of lattice
width 1 are trapezoids T(a, b); width-2 polygons of genus >= 1 fall into
three parameterized families living in the strip R x [0, 2] with their g
interior points at height 1 (one form per class, except at genus 1).
``PanoptigonReport`` and ``HyperellipticForm`` are NamedTuples.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple

from .core import Point, Polygon, convex_hull, is_visible, segment_ends
from .transform import _ext_gcd


class PanoptigonReport(NamedTuple):
    is_panoptigon: bool
    panoptigon_points: frozenset[Point]


def is_panoptigon(poly: Polygon) -> PanoptigonReport:
    """The lattice points that see every other one, and whether there is one.

    A point sees no other point of its residue class mod 2 (their
    difference is 2*w), so only a point alone in its class can qualify:
    at most four candidates, each checked with an early exit.  Degenerate
    polygons (dimension <= 1) use the same definition on their point set.
    """
    pts = poly.lattice_point_set
    classes = Counter((x % 2, y % 2) for x, y in pts)
    alone = [p for p in pts if classes[p[0] % 2, p[1] % 2] == 1]
    seers = frozenset(p for p in alone if all(is_visible(p, q) for q in pts))
    return PanoptigonReport(bool(seers), seers)


def trapezoid(a: int, b: int) -> Polygon:
    """T(a, b) = conv((0,0), (0,1), (a,1), (b,0)) with 0 <= a <= b, b >= 1."""
    if not (0 <= a <= b and b >= 1):
        raise ValueError("trapezoid requires 0 <= a <= b and b >= 1")
    return convex_hull([(0, 0), (0, 1), (a, 1), (b, 0)])


def standard_triangle(d: int) -> Polygon:
    """T_d = conv((0,0), (d,0), (0,d)) with d >= 1."""
    if d < 1:
        raise ValueError("standard triangle requires d >= 1")
    return convex_hull([(0, 0), (d, 0), (0, d)])


def is_hyperelliptic(poly: Polygon) -> bool:
    """Interior polygon has dimension <= 1 (empty interior counts)."""
    inner = poly.interior_polygon()
    return inner is None or inner.dimension <= 1


class _Form(NamedTuple):
    kind: str  # "Type1" | "Type2" | "Type3"
    g: int
    i: int
    j: int = 0
    k: int = 0


class HyperellipticForm(_Form):
    """Parameters of a genus >= 1 lattice-width-2 polygon.

    Type1 is the quadrilateral with no lattice vertex at height 1, Type2 the
    pentagon with one, Type3 the hexagon with two.  Type3 triples are stored
    as canonical representatives of the symmetry orbit (i <-> j swap and
    k <-> 2g+2-i-j-k reflection); see :func:`type3_orbit`.  A single interior
    point (g = 1) fixes no width direction, so several forms give one class.
    """

    __slots__ = ()

    def __new__(cls, kind: str, g: int, i: int, j: int = 0, k: int = 0):
        form = super().__new__(cls, kind, g, i, j, k)
        if not is_valid_form(form):
            raise ValueError("invalid hyperelliptic form parameters: %r" % (form,))
        return form

    def lattice_point_count(self) -> int:
        if self.kind == "Type1":
            return 3 * self.g + 2
        if self.kind == "Type2":
            return self.g + self.i + self.j + 3
        return self.g + self.i + self.j + 4


def type3_orbit(g: int, i: int, j: int, k: int) -> list[tuple[int, int, int]]:
    """Parameter triples describing the same hexagon up to equivalence."""
    kr = 2 * g + 2 - i - j - k
    return [(i, j, k), (j, i, k), (i, j, kr), (j, i, kr)]


def is_valid_form(form: HyperellipticForm) -> bool:
    g, i, j, k = form.g, form.i, form.j, form.k
    if g < 1:
        return False
    if form.kind == "Type1":
        return j == 0 and k == 0 and g <= i <= 2 * g
    if form.kind == "Type2":
        return k == 0 and 0 <= j <= i and i + j <= 2 * g + 1
    if form.kind == "Type3":
        if min(i, j, k) < 0 or i + j + k > 2 * g + 2:
            return False
        return (i, j, k) == min(type3_orbit(g, i, j, k))
    return False


def valid_forms(g: int) -> Iterator[HyperellipticForm]:
    """All width-2 forms of genus g >= 1.

    Each class appears once for g >= 2; the 22 forms of g = 1 cover the 15
    width-2 genus-1 classes, several forms to a class.
    """
    if g < 1:
        raise ValueError("width-2 forms require genus >= 1")
    for i in range(g, 2 * g + 1):
        yield HyperellipticForm("Type1", g, i)
    for i in range(0, 2 * g + 2):
        for j in range(0, min(i, 2 * g + 1 - i) + 1):
            yield HyperellipticForm("Type2", g, i, j)
    for i in range(0, 2 * g + 3):
        for j in range(0, 2 * g + 3 - i):
            for k in range(0, 2 * g + 3 - i - j):
                if (i, j, k) == min(type3_orbit(g, i, j, k)):
                    yield HyperellipticForm("Type3", g, i, j, k)


def hyperelliptic_count(g: int) -> int:
    """(g+3)(2g^2+15g+16)/6, the number of width-2 polygons of genus g >= 2."""
    if g < 2:
        raise ValueError("count defined for genus >= 2")
    num = (g + 3) * (2 * g * g + 15 * g + 16)
    assert num % 6 == 0
    return num // 6


def hyperelliptic_polygon(form: HyperellipticForm) -> Polygon:
    """Concrete polygon in R x [0, 2] with interior points (1,1)..(g,1)."""
    g, i, j, k = form.g, form.i, form.j, form.k
    if form.kind == "Type1":
        pts = [(0, 0), (i, 0), (2 * g + 1 - i, 2), (1, 2)]
    elif form.kind == "Type2":
        pts = [(0, 0), (i, 0), (g + 1, 1), (j + 1, 2), (1, 2)]
    else:
        pts = [(0, 0), (i, 0), (g + 1, 1), (k + j, 2), (k, 2), (0, 1)]
    return convex_hull(pts)


def hyperelliptic_panoptigon_predicate(form: HyperellipticForm) -> bool:
    """Closed-form panoptigon test per family (no brute force).

    At g = 1 the interior point sees all: a point between it and another
    would be interior too.  Type1 works iff g <= 3; Type2 iff g <= 2 or a
    one-point bottom row can see everything (j = 0, i <= 1); Type3 needs a
    short extreme row plus a parity condition on the top-row offset k.
    """
    g, i, j, k = form.g, form.i, form.j, form.k
    if g == 1:
        return True
    if form.kind == "Type1":
        return g <= 3
    if form.kind == "Type2":
        return g <= 2 or (j == 0 and i <= 1)
    ok_bottom = j == 0 and i <= 2 and (i != 0 or k % 2 == 1) and (i != 2 or k % 2 == 0)
    ok_top = i == 0 and j <= 2 and (j != 0 or k % 2 == 1) and (j != 2 or k % 2 == 0)
    return ok_bottom or ok_top


def hyperelliptic_normal_form(poly: Polygon) -> HyperellipticForm:
    """Read the form off the rows, in time linear in the lattice points.

    A width-2 functional is constant on the interior segment u..v, so it is
    the normal of the segment's primitive direction d; the width is checked
    on it.  A unimodular map from ``_ext_gcd`` sends d to (1, 0), and a
    translation and a shear fixing the middle row put the interior at
    (1..g, 1) and start the bottom row at (0, 0).  The middle row's
    boundary points can only be u - d and v + d (a point of P beyond
    either would make it interior), so how many of the two P contains
    (none, one or two) gives the type; i and j are the bottom and top row
    lengths and k the top row's start, as in ``hyperelliptic_polygon``.
    The x-mirror and the y-flip act on these readings as each family's
    symmetries (for Type3, ``type3_orbit``), so the first reading that is
    valid is the form.
    """
    g = poly.genus
    if g < 2 or not is_hyperelliptic(poly):
        raise ValueError("normal form requires a hyperelliptic polygon of genus >= 2")
    inner = poly.interior_polygon()
    (ux, uy), (vx, vy) = inner.vertices
    dx, dy = (vx - ux) // (g - 1), (vy - uy) // (g - 1)
    _, a, b = _ext_gcd(dx, dy)
    rel = [(x - ux, y - uy) for x, y in poly.vertices]
    rows = [(a * x + b * y, dx * y - dy * x) for x, y in rel]
    if max(y for _, y in rows) - min(y for _, y in rows) != 2:
        raise ValueError("normal form requires lattice width 2")
    ends = sum(poly.contains(e) for e in segment_ends(inner))
    kind = ("Type1", "Type2", "Type3")[ends]
    for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        # Mirror, move the interior to (1..g, 1), shear row 0 to start at 0.
        pts = [(sx * x + 1 + (g - 1) * (sx < 0), sy * y + 1) for x, y in rows]
        start = min(x for x, y in pts if y == 0)
        top = [x + start for x, y in pts if y == 2]
        i, j, k = max(x for x, y in pts if y == 0) - start, max(top) - min(top), min(top)
        try:
            return HyperellipticForm(kind, g, i, j if ends else 0, k if ends == 2 else 0)
        except ValueError:
            continue
    raise AssertionError("no reading of the rows is a valid form; classification incomplete")
