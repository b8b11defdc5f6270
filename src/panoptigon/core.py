"""Exact integer primitives: points, visibility, hulls, lattice-point counting.

Every coordinate is a Python int (arbitrary precision) and every operation
here is a pure function; no floats anywhere.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Optional

Point = tuple[int, int]


def is_visible(p: Point, q: Point) -> bool:
    """True iff no lattice point lies strictly between p and q.

    Equivalent to gcd(|px-qx|, |py-qy|) == 1.  A point is visible from
    itself by convention.
    """
    if p == q:
        return True
    return gcd(abs(p[0] - q[0]), abs(p[1] - q[1])) == 1


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b-a) x (c-a): >0 left turn, <0 right, 0 collinear."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _primitive(dx: int, dy: int) -> tuple[int, int]:
    g = gcd(abs(dx), abs(dy))
    return (dx // g, dy // g) if g else (0, 0)


class Polygon:
    """Convex lattice polygon with CCW vertices, lowest-then-leftmost first.

    Degenerate cases are first-class: a single point has dimension 0 and a
    collinear segment dimension 1.  Instances are immutable; derived data is
    computed lazily and cached.  Build via :func:`convex_hull` rather than
    calling the constructor with arbitrary points.  A caller that already
    knows the lattice points passes them as ``lattice_points``.
    """

    __slots__ = ("vertices", "_lattice", "_interior")

    def __init__(
        self, vertices: tuple[Point, ...], lattice_points: Optional[frozenset[Point]] = None
    ):
        self.vertices = vertices
        self._lattice = lattice_points
        self._interior: Optional[Polygon] = None

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return "Polygon(%s)" % (" ".join("%d,%d" % v for v in self.vertices))

    @property
    def dimension(self) -> int:
        n = len(self.vertices)
        return 2 if n >= 3 else n - 1

    def edges(self) -> Iterator[tuple[Point, Point]]:
        """Directed edges in CCW order; empty for dimension < 2."""
        vs = self.vertices
        if len(vs) < 3:
            return
        for i, v in enumerate(vs):
            yield v, vs[(i + 1) % len(vs)]

    def halfplanes(self) -> list[tuple[int, int, int]]:
        """Primitive (a, b, c) with P = {a*x + b*y <= c}; one per edge."""
        out = []
        for (vx, vy), (wx, wy) in self.edges():
            dx, dy = _primitive(wx - vx, wy - vy)
            a, b = dy, -dx  # outward normal for CCW boundary
            out.append((a, b, a * vx + b * vy))
        return out

    def contains(self, p: Point) -> bool:
        if self.dimension == 2:
            return all(a * p[0] + b * p[1] <= c for a, b, c in self.halfplanes())
        if self.dimension == 1:
            (ax, ay), (bx, by) = self.vertices
            if orientation((ax, ay), (bx, by), p) != 0:
                return False
            return min(ax, bx) <= p[0] <= max(ax, bx) and min(ay, by) <= p[1] <= max(ay, by)
        return p == self.vertices[0]

    @property
    def lattice_point_set(self) -> frozenset[Point]:
        """All lattice points inside or on the polygon.

        Dimension 2 uses the row scan of ``_rows``; the brute-force
        bounding-box scan lives in the tests as the oracle.
        """
        if self._lattice is None:
            self._lattice = frozenset(self._scan())
        return self._lattice

    def _scan(self) -> Iterator[Point]:
        if self.dimension == 0:
            yield self.vertices[0]
            return
        if self.dimension == 1:
            a, b = self.vertices
            dx, dy = _primitive(b[0] - a[0], b[1] - a[1])
            steps = gcd(abs(b[0] - a[0]), abs(b[1] - a[1]))
            for t in range(steps + 1):
                yield (a[0] + t * dx, a[1] + t * dy)
            return
        for y, lo, hi in self._rows(0):
            for x in range(lo, hi + 1):
                yield (x, y)

    def _rows(self, offset: int) -> Iterator[tuple[int, int, int]]:
        """(y, lo, hi) for each nonempty row of lattice points with
        a*x + b*y <= c + offset on every edge half-plane (dimension 2 only).

        The bounds are exact rational edge intersections, rounded with
        integer floor/ceil.  Offset 0 gives P's lattice points; offset -1
        gives its strict interior, since for integers a*x + b*y < c exactly
        when a*x + b*y <= c - 1.  Only rows in the vertices' y-range are
        scanned, so the offset must be <= 0.
        """
        planes = self.halfplanes()
        ys = [y for _, y in self.vertices]
        for y in range(min(ys), max(ys) + 1):
            lo, hi = None, None
            ok = True
            for a, b, c in planes:
                r = c + offset - b * y
                if a == 0:
                    if r < 0:
                        ok = False
                        break
                elif a > 0:
                    bound = r // a  # floor
                    hi = bound if hi is None else min(hi, bound)
                else:
                    bound = -(r // -a)  # ceil of r/a with a<0
                    lo = bound if lo is None else max(lo, bound)
            if ok and lo is not None and hi is not None and lo <= hi:
                yield y, lo, hi

    @property
    def genus(self) -> int:
        """Number of strictly interior lattice points (0 when degenerate).

        Pick's theorem, 2A = 2g + B - 2, with the shoelace sum for 2A and
        the sum of the edge gcds for B: O(vertices), no scan.
        """
        if self.dimension < 2:
            return 0
        area2 = boundary = 0
        for (x0, y0), (x1, y1) in self.edges():
            area2 += x0 * y1 - x1 * y0
            boundary += gcd(x1 - x0, y1 - y0)
        return (area2 - boundary) // 2 + 1

    def interior_polygon(self) -> Optional["Polygon"]:
        """Convex hull of the interior lattice points; None when genus 0.

        One scan of the interior rows: the hull of the two ends of each row
        holds every interior point between them.
        """
        if self._interior is None and self.genus:
            ends = []
            for y, lo, hi in self._rows(-1):
                ends += ((lo, y), (hi, y))
            self._interior = convex_hull(ends)
        return self._interior

    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [x for x, _ in self.vertices]
        ys = [y for _, y in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def segment_ends(seg: Polygon) -> tuple[Point, Point]:
    """u - d and v + d for a segment with ends u, v and primitive step d from u to v.

    These are the lattice points just past each end on the segment's line.
    """
    (ux, uy), (vx, vy) = seg.vertices
    dx, dy = _primitive(vx - ux, vy - uy)
    return (ux - dx, uy - dy), (vx + dx, vy + dy)


def hull_vertices(points: Iterable) -> tuple:
    """Monotone-chain hull vertices, strictly CCW, lowest-then-leftmost first.

    Collinear points are dropped; a collinear input yields its two ends, a
    single point itself, and an empty input the empty tuple.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return tuple(pts)
    if all(orientation(pts[0], pts[-1], p) == 0 for p in pts):
        return (pts[0], pts[-1])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return lowest_first(lower[:-1] + upper[:-1])


def lowest_first(vertices: list) -> tuple:
    """The cyclic vertex list rotated so that its lowest-then-leftmost vertex comes first."""
    start = min(range(len(vertices)), key=lambda i: (vertices[i][1], vertices[i][0]))
    return tuple(vertices[start:] + vertices[:start])


def hull_insert(vertices: tuple[Point, ...], p: Point) -> tuple[Point, ...]:
    """``hull_vertices(vertices + (p,))`` for hull vertices and a point p outside their hull.

    A point or segment is hulled with p directly.  For a polygon this takes
    O(len(vertices)): p sees a contiguous chain of edges (cross product
    <= 0, so a vertex left collinear between p and the next one is
    dropped), and the chain's inner vertices are replaced by p.  The
    lowest-then-leftmost vertex of the result is p when p sorts below the
    old first vertex or the chain removes it, and the old first vertex
    otherwise.
    """
    n = len(vertices)
    if n <= 2:
        return hull_vertices(vertices + (p,))
    px, py = p
    seen = [
        (wx - vx) * (py - vy) - (wy - vy) * (px - vx) <= 0
        for (vx, vy), (wx, wy) in zip(vertices, vertices[1:] + vertices[:1])
    ]
    if seen[0] and seen[-1]:
        # the chain runs through the first vertex, which it removes
        first = seen.index(False)
        last = n - 1 - seen[::-1].index(False)
        return (p,) + vertices[first : last + 2]
    first = seen.index(True)
    last = n - 1 - seen[::-1].index(True)
    before, after = vertices[: first + 1], vertices[last + 1 :]
    if (py, px) < (vertices[0][1], vertices[0][0]):
        return (p,) + after + before
    return before + (p,) + after


def convex_hull(points: Iterable[Point]) -> Polygon:
    """Convex hull of lattice points as a :class:`Polygon` (see :func:`hull_vertices`).

    Degenerate inputs yield dimension-0/1 polygons; empty input is an error.
    """
    verts = hull_vertices(points)
    if not verts:
        raise ValueError("empty point set")
    return Polygon(verts)
