"""Unimodular maps, lattice width/diameter, and canonical forms.

A unimodular map is x -> A*x + t with A an integer 2x2 matrix of
determinant +-1; two polygons are equivalent when such a map carries one
onto the other.  Widths are measured by primitive integer functionals
(alpha, beta), evaluated as alpha*x + beta*y.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import gcd, isqrt
from typing import NamedTuple

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

    def __call__(self, p: Point) -> int:
        return self.alpha * p[0] + self.beta * p[1]

    def __str__(self) -> str:
        return "%d,%d" % (self.alpha, self.beta)


@dataclass(frozen=True)
class UnimodularMap:
    """Affine lattice automorphism p -> A*p + t with det(A) = +-1."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    translation: Point = (0, 0)

    def __post_init__(self):
        (a, b), (c, d) = self.matrix
        if a * d - b * c not in (1, -1):
            raise ValueError("matrix determinant must be +1 or -1")

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


def width_wrt(poly: Polygon, f: Functional) -> int:
    """max - min of the functional over the polygon's vertices."""
    vals = [f(v) for v in poly.vertices]
    return max(vals) - min(vals)


def lattice_width(poly: Polygon) -> tuple[int, frozenset[Functional]]:
    """Minimum width over primitive functionals, with all minimizers found.

    Candidates are parameterized by their values (s1, s2) on two
    independent vertex-difference vectors d1, d2: any minimizer f has
    |f(d)| <= width(f) <= B for every difference vector d of the polygon,
    where B = min(axis-aligned widths), so scanning |s1|, |s2| <= B and
    keeping the integral functionals covers every minimizer regardless of
    how sheared the polygon is.  The tests check it against a bounded scan
    of all functionals.
    """
    if poly.dimension == 0:
        return 0, frozenset()
    if poly.dimension == 1:
        (ax, ay), (bx, by) = poly.vertices
        return 0, frozenset({Functional.normalized(by - ay, ax - bx)})
    fx, fy = Functional(1, 0), Functional(0, 1)
    best = min(width_wrt(poly, fx), width_wrt(poly, fy))
    winners: set[Functional] = set()
    v0, v1, v2 = poly.vertices[0], poly.vertices[1], poly.vertices[2]
    d1 = (v1[0] - v0[0], v1[1] - v0[1])
    d2 = (v2[0] - v0[0], v2[1] - v0[1])
    det = d1[0] * d2[1] - d1[1] * d2[0]
    b = best
    for s1 in range(0, b + 1):
        if s1 > best:
            break
        s2_range = range(1, b + 1) if s1 == 0 else range(-b, b + 1)
        for s2 in s2_range:
            if abs(s2) > best:
                continue
            # Solve f(d1) = s1, f(d2) = s2 by Cramer's rule; skip
            # non-integral or non-primitive solutions.
            anum = s1 * d2[1] - s2 * d1[1]
            bnum = s2 * d1[0] - s1 * d2[0]
            if anum % det or bnum % det:
                continue
            alpha, beta = anum // det, bnum // det
            if gcd(abs(alpha), abs(beta)) != 1:
                continue
            f = Functional.normalized(alpha, beta)
            w = width_wrt(poly, f)
            if w < best:
                best = w
                winners = {f}
            elif w == best:
                winners.add(f)
    if not winners:
        # The axis minimum was never beaten; recover its minimizers.
        for f in (fx, fy):
            if width_wrt(poly, f) == best:
                winners.add(f)
    return best, frozenset(winners)


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


def _candidates(poly: Polygon):
    """Normalized vertex sequences, one per directed hull edge.

    The map sends the edge start to the origin and the primitive edge vector
    to (1, 0), putting the polygon in the upper half-plane; the leftover
    horizontal shear is pinned by forcing the first vertex above the axis
    into x in [0, y).
    """
    vs = poly.vertices
    n = len(vs)
    for i in range(n):
        vx, vy = vs[i]
        wx, wy = vs[(i + 1) % n]
        dx, dy = wx - vx, wy - vy
        g = gcd(abs(dx), abs(dy))
        dx, dy = dx // g, dy // g
        _, p, q = _ext_gcd(dx, dy)
        imgs = []
        for j in range(n):
            x, y = vs[(i + j) % n]
            x, y = x - vx, y - vy
            imgs.append((p * x + q * y, -dy * x + dx * y))
        k = None
        for x, y in imgs:
            if y > 0:
                k = x // y
                break
        yield tuple((x - k * y, y) for x, y in imgs)


def canonical_form(poly: Polygon) -> Polygon:
    """Distinguished representative of the unimodular equivalence class.

    Takes the lexicographically least normalized vertex sequence over all
    directed edges of P and of its mirror image; the candidate set is
    equivariant under the group, so the minimum is a class invariant.
    """
    if poly.dimension != 2:
        raise ValueError("canonical form requires dimension 2")
    mirror = convex_hull((x, -y) for x, y in poly.vertices)
    best = min(min(_candidates(poly)), min(_candidates(mirror)))
    return Polygon(best)


def are_equivalent(p: Polygon, q: Polygon) -> bool:
    return canonical_form(p) == canonical_form(q)
