"""Unimodular maps, lattice width/diameter, and canonical forms.

A unimodular map is x -> A*x + t with A an integer 2x2 matrix of
determinant +-1, held as the NamedTuple (matrix, translation) and checked
when built; two polygons are equivalent when such a map carries one onto
the other.  Widths are measured by primitive integer functionals
(alpha, beta), evaluated as alpha*x + beta*y.  ``axis_coords`` is the one
map from a primitive direction to the x-axis, shared by canonical forms
and the width-2 normal forms of ``classify``.
"""

from __future__ import annotations

from itertools import combinations, groupby
from math import gcd, isqrt
from typing import Iterable, NamedTuple

from .core import Point, Polygon, convex_hull


class Functional(NamedTuple):
    """Primitive integer functional alpha*x + beta*y, sign-normalized."""

    alpha: int
    beta: int

    @classmethod
    def normalized(cls, alpha: int, beta: int) -> "Functional":
        if alpha == 0 and beta == 0:
            raise ValueError("zero functional")
        g = gcd(abs(alpha), abs(beta))
        alpha, beta = alpha // g, beta // g
        if alpha < 0 or (alpha == 0 and beta < 0):
            alpha, beta = -alpha, -beta
        return cls(alpha, beta)

    def __str__(self) -> str:
        return "%d,%d" % (self.alpha, self.beta)


class _Map(NamedTuple):
    matrix: tuple[tuple[int, int], tuple[int, int]]
    translation: Point = (0, 0)


class UnimodularMap(_Map):
    """Affine lattice automorphism p -> A*p + t with det(A) = +-1."""

    __slots__ = ()

    def __new__(cls, matrix, translation: Point = (0, 0)):
        m = super().__new__(cls, matrix, translation)
        if m.determinant not in (1, -1):
            raise ValueError("matrix determinant must be +1 or -1")
        return m

    @property
    def determinant(self) -> int:
        (a, b), (c, d) = self.matrix
        return a * d - b * c

    def apply_point(self, p: Point) -> Point:
        (a, b), (c, d) = self.matrix
        tx, ty = self.translation
        return (a * p[0] + b * p[1] + tx, c * p[0] + d * p[1] + ty)

    def __call__(self, poly: Polygon) -> Polygon:
        return convex_hull(self.apply_point(v) for v in poly.vertices)

    def inverse(self) -> "UnimodularMap":
        (a, b), (c, d) = self.matrix
        det = a * d - b * c
        inv = ((d * det, -b * det), (-c * det, a * det))
        tx, ty = self.translation
        itx = -(inv[0][0] * tx + inv[0][1] * ty)
        ity = -(inv[1][0] * tx + inv[1][1] * ty)
        return UnimodularMap(inv, (itx, ity))


def width_wrt(poly: Polygon, f: tuple[int, int]) -> int:
    """max - min of alpha*x + beta*y over the polygon's vertices, f = (alpha, beta)."""
    alpha, beta = f
    vals = [alpha * x + beta * y for x, y in poly.vertices]
    return max(vals) - min(vals)


def lattice_width(poly: Polygon) -> tuple[int, frozenset[Functional]]:
    """Minimum width over primitive functionals, with all minimizers found.

    h(f) = ``width_wrt(P, f)`` is a norm on functionals when P is
    2-dimensional.  Generalized Gauss reduction (Kaib & Schnorr,
    J. Algorithms 1996) turns (1,0), (0,1) into a basis b1, b2 with
    h(b1) <= h(b2) <= h(b2 - mu*b1) for every integer mu; then w = h(b1) and
    every f independent of b1 has h(f) >= h(b2).  Each step replaces b2 by
    b2 - mu*b1 at the integer minimum of h there, which is convex in mu and
    above h(b2) once |mu|*h(b1) > 2*h(b2), so mu is binary-searched in that
    range.  Minimizers: only +-b1 when h(b2) > w.  Otherwise a minimizer
    f = m*b1 + n*b2 has |m|, |n| <= 2: {h <= w} contains conv(+-b1, +-f), of
    area 2|n|, and conv(+-b2, +-f), of area 2|m|, and its interior holds no
    nonzero lattice point, so by Minkowski each area is at most 4.
    """
    if poly.dimension == 0:
        return 0, frozenset()
    if poly.dimension == 1:
        (ax, ay), (bx, by) = poly.vertices
        return 0, frozenset({Functional.normalized(by - ay, ax - bx)})
    memo: dict[Point, int] = {}

    def h(f: Point) -> int:
        if f not in memo:
            memo[f] = width_wrt(poly, f)
        return memo[f]

    def combine(m: int, u: Point, n: int, v: Point) -> Point:
        return m * u[0] + n * v[0], m * u[1] + n * v[1]

    b1, b2 = sorted([(1, 0), (0, 1)], key=h)
    while True:
        hi = 2 * h(b2) // h(b1)
        lo = -hi
        while lo < hi:
            mid = (lo + hi) // 2
            if h(combine(1, b2, -mid, b1)) <= h(combine(1, b2, -mid - 1, b1)):
                hi = mid
            else:
                lo = mid + 1
        b2 = combine(1, b2, -lo, b1)
        if h(b2) >= h(b1):
            break
        b1, b2 = b2, b1
    w = h(b1)
    if h(b2) > w:
        return w, frozenset({Functional.normalized(*b1)})
    # (n, m) > (0, 0) takes one of each pair +-f.
    near = (combine(m, b1, n, b2) for m in range(-2, 3) for n in range(3) if (n, m) > (0, 0))
    return w, frozenset(Functional.normalized(*f) for f in near if h(f) == w)


def has_lattice_segment(poly: Polygon, k: int) -> bool:
    """Does P hold a lattice segment of length >= k (k >= 1)?

    Distinct lattice points p, q share a residue mod k exactly when
    gcd(q - p) >= k: a segment of length g >= k from p in primitive
    direction v holds p + k*v.  So this looks for a repeated residue class.
    """
    pts = poly.lattice_point_set
    return len({(x % k, y % k) for x, y in pts}) < len(pts)


def lattice_diameter(poly: Polygon) -> tuple[int, frozenset[Functional]]:
    """Longest lattice segment in P, as (length, primitive slope vectors).

    By convexity the segment between two lattice points of P lies in P, so
    the length D is the largest k with ``has_lattice_segment(P, k)``, a test
    monotone in k.  D is binary-searched between isqrt(n - 1) (n > k*k
    points cannot all differ mod k) and the box width B.  The pairs at gcd
    D are those inside one residue class mod D, grouped by a sort, which
    is O(n log B) as n <= (B + 1)^2; a class holds at most 4 points, as
    p + D*w1 and p + D*w2 with w1 = w2 mod 2 would be at gcd >= 2D.
    """
    pts = poly.lattice_point_set
    if len(pts) < 2:
        return 0, frozenset()
    xmin, ymin, xmax, ymax = poly.bounding_box()
    lo, hi = max(1, isqrt(len(pts) - 1)), max(xmax - xmin, ymax - ymin)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if has_lattice_segment(poly, mid) else (lo, mid - 1)

    def residue(p: Point) -> Point:
        return p[0] % lo, p[1] % lo

    dirs = {
        Functional.normalized(q[0] - p[0], q[1] - p[1])
        for _, members in groupby(sorted(pts, key=residue), residue)
        for p, q in combinations(members, 2)
    }
    return lo, frozenset(dirs)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), (a > 0) - (a < 0), 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def axis_coords(points: Iterable[Point], origin: Point, d: Point) -> list[Point]:
    """The points in the frame sending ``origin`` to (0, 0) and primitive d to (1, 0).

    With p*dx + q*dy = 1, a point at offset (x, y) from the origin goes to
    (p*x + q*y, dx*y - dy*x): the determinant is 1, and the functional
    (-dy, dx) becomes y.
    """
    (ox, oy), (dx, dy) = origin, d
    _, p, q = _ext_gcd(dx, dy)
    return [(p * (x - ox) + q * (y - oy), dx * (y - oy) - dy * (x - ox)) for x, y in points]


def _candidates(vs: tuple[Point, ...]):
    """Normalized vertex sequences, one per directed edge of the CCW vertices vs.

    ``axis_coords`` sends the edge start to the origin and the primitive edge
    vector to (1, 0), putting the polygon in the upper half-plane; the
    leftover horizontal shear is pinned by forcing the next vertex, above
    the axis as no three vertices are collinear, into x in [0, y).
    """
    for i in range(len(vs)):
        turned = vs[i:] + vs[:i]
        (vx, vy), (wx, wy) = turned[:2]
        g = gcd(abs(wx - vx), abs(wy - vy))
        imgs = axis_coords(turned, (vx, vy), ((wx - vx) // g, (wy - vy) // g))
        k = imgs[2][0] // imgs[2][1]
        yield tuple((x - k * y, y) for x, y in imgs)


def canonical_form(poly: Polygon) -> Polygon:
    """Distinguished representative of the unimodular equivalence class.

    Takes the lexicographically least normalized vertex sequence over all
    directed edges of P and of its mirror image (x, y) -> (x, -y), whose
    reversed vertices are CCW again; the candidate set is equivariant under
    the group, so the minimum is a class invariant.
    """
    if poly.dimension != 2:
        raise ValueError("canonical form requires dimension 2")
    vs = poly.vertices
    mirror = tuple((x, -y) for x, y in reversed(vs))
    return Polygon(min(min(_candidates(vs)), min(_candidates(mirror))))
