"""Brute-force lattice-polygon oracle that never calls the program.

Polygons are vertex lists of integer pairs.  Every routine here is the
slow, obviously-correct version of a quantity the program computes fast:

- lattice points by a bounding-box scan;
- genus by Pick's theorem (2A = 2i + b - 2);
- panoptigon points and lattice diameter by all-pairs gcd;
- lattice width by scanning every functional inside a proven box;
- unimodular equivalence by vertex correspondence;
- maximality by a one-point search inside the relaxation of the interior.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points):
    """Strictly convex CCW vertex list (monotone chain); fewer than 3 if flat."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    return lower[:-1] + upper[:-1]


def _edges(verts):
    n = len(verts)
    return [(verts[i], verts[(i + 1) % n]) for i in range(n)]


def lattice_points(verts):
    """All lattice points of a 2-dimensional CCW polygon, by bounding-box scan."""
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    edges = _edges(verts)
    return {
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if all(_cross(a, b, (x, y)) >= 0 for a, b in edges)
    }


def double_area(verts):
    return sum(a[0] * b[1] - b[0] * a[1] for a, b in _edges(verts))


def boundary_count(verts):
    return sum(gcd(abs(b[0] - a[0]), abs(b[1] - a[1])) for a, b in _edges(verts))


def point_count(verts):
    """Lattice points by Pick's theorem: A + b/2 + 1."""
    return (double_area(verts) + boundary_count(verts)) // 2 + 1


def genus(verts):
    """Interior lattice points by Pick's theorem: A - b/2 + 1."""
    return (double_area(verts) - boundary_count(verts)) // 2 + 1


def interior_points(verts):
    edges = _edges(verts)
    return {p for p in lattice_points(verts) if all(_cross(a, b, p) > 0 for a, b in edges)}


def panoptigon_points(points):
    """Points of the set that see every other point (all-pairs gcd)."""
    pts = list(points)
    return {
        p
        for p in pts
        if all(q == p or gcd(abs(q[0] - p[0]), abs(q[1] - p[1])) == 1 for q in pts)
    }


def lattice_diameter(points):
    """Longest lattice segment: the all-pairs maximum of gcd(|dx|, |dy|)."""
    return max(
        (gcd(abs(q[0] - p[0]), abs(q[1] - p[1])) for p, q in combinations(points, 2)),
        default=0,
    )


def lattice_width(verts):
    """Minimum of max f - min f over primitive integer functionals f = (a, b).

    Scans every (a, b) in a box proven to contain each minimizer.  Let w0 be
    the smaller axis width and d1, d2 two independent vertex differences with
    determinant D.  A minimizer f has |f(d1)|, |f(d2)| <= w0, and solving
    f(d1) = s1, f(d2) = s2 by Cramer's rule gives
    |a| <= w0 (|d1y| + |d2y|) / |D| and |b| <= w0 (|d1x| + |d2x|) / |D|.
    The pair of differences with the smallest box is used.
    """
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    w0 = min(max(xs) - min(xs), max(ys) - min(ys))
    best_box = None
    for p, q, r in combinations(verts, 3):
        d1 = (q[0] - p[0], q[1] - p[1])
        d2 = (r[0] - p[0], r[1] - p[1])
        det = abs(d1[0] * d2[1] - d1[1] * d2[0])
        if det == 0:
            continue
        box = (
            w0 * (abs(d1[1]) + abs(d2[1])) // det,
            w0 * (abs(d1[0]) + abs(d2[0])) // det,
        )
        if best_box is None or _box_size(box) < _box_size(best_box):
            best_box = box
    amax, bmax = best_box
    best = w0
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            if gcd(abs(a), abs(b)) != 1:
                continue
            vals = [a * x + b * y for x, y in verts]
            best = min(best, max(vals) - min(vals))
    return best


def _box_size(box):
    return (2 * box[0] + 1) * (2 * box[1] + 1)


def _affine_map(src, dst):
    """The integral det +-1 affine map sending src[i] to dst[i], or None."""
    (p0, p1, p2), (q0, q1, q2) = src, dst
    u1, u2 = (p1[0] - p0[0], p1[1] - p0[1]), (p2[0] - p0[0], p2[1] - p0[1])
    v1, v2 = (q1[0] - q0[0], q1[1] - q0[1]), (q2[0] - q0[0], q2[1] - q0[1])
    det = u1[0] * u2[1] - u1[1] * u2[0]
    if det == 0:
        return None
    # A [u1 u2] = [v1 v2]  =>  A = [v1 v2] [u1 u2]^-1
    m = []
    for row in ((v1[0], v2[0]), (v1[1], v2[1])):
        a_num = row[0] * u2[1] - row[1] * u1[1]
        b_num = -row[0] * u2[0] + row[1] * u1[0]
        if a_num % det or b_num % det:
            return None
        m.append((a_num // det, b_num // det))
    (a, b), (c, d) = m
    if a * d - b * c not in (1, -1):
        return None
    t = (q0[0] - a * p0[0] - b * p0[1], q0[1] - c * p0[0] - d * p0[1])
    return lambda p: (a * p[0] + b * p[1] + t[0], c * p[0] + d * p[1] + t[1])


def equivalent(p_verts, q_verts):
    """Unimodular equivalence by vertex correspondence.

    Some map must send three consecutive vertices of P onto three
    consecutive vertices of Q, walked forwards or backwards; it is kept only
    if it is integral, unimodular and sends the vertex set onto the vertex
    set.
    """
    p, q = hull(p_verts), hull(q_verts)
    n = len(p)
    if n != len(q) or n < 3:
        return False
    if double_area(p) != double_area(q) or boundary_count(p) != boundary_count(q):
        return False
    target = set(q)
    for i in range(n):
        for step in (1, -1):
            dst = (q[i], q[(i + step) % n], q[(i + 2 * step) % n])
            f = _affine_map((p[0], p[1], p[2]), dst)
            if f is not None and {f(v) for v in p} == target:
                return True
    return False


def equivalent_pairs(polys):
    """Index pairs (i, j) of polygons in the list that are equivalent."""
    keyed = [(len(hull(v)), double_area(hull(v)), boundary_count(hull(v))) for v in polys]
    return [
        (i, j)
        for i, j in combinations(range(len(polys)), 2)
        if keyed[i] == keyed[j] and equivalent(polys[i], polys[j])
    ]


def _halfplanes(verts):
    """Primitive (a, b, c) with the CCW polygon = {a x + b y <= c}."""
    out = []
    for (vx, vy), (wx, wy) in _edges(verts):
        g = gcd(abs(wx - vx), abs(wy - vy))
        a, b = (wy - vy) // g, -(wx - vx) // g
        out.append((a, b, a * vx + b * vy))
    return out


def relaxation(verts):
    """Corners of Q^(-1) = {a x + b y <= c + 1 for every edge}, as Fractions."""
    planes = [(a, b, c + 1) for a, b, c in _halfplanes(verts)]
    corners = set()
    for (a1, b1, c1), (a2, b2, c2) in combinations(planes, 2):
        det = a1 * b2 - a2 * b1
        if det:
            x = Fraction(c1 * b2 - c2 * b1, det)
            y = Fraction(a1 * c2 - a2 * c1, det)
            if all(a * x + b * y <= c for a, b, c in planes):
                corners.add((x, y))
    return hull(corners), planes


def relaxed_lattice_polygon(verts):
    """Q^(-1) as a lattice polygon, or None when a corner is not integral."""
    corners, _ = relaxation(verts)
    if any(x.denominator != 1 or y.denominator != 1 for x, y in corners):
        return None
    return [(int(x), int(y)) for x, y in corners]


def relaxation_points(verts):
    """Lattice points of Q^(-1), by scanning its bounding box."""
    corners, planes = relaxation(verts)
    x0, x1 = min(x for x, _ in corners), max(x for x, _ in corners)
    y0, y1 = min(y for _, y in corners), max(y for _, y in corners)
    return {
        (x, y)
        for x in range(int(x0) - 1, int(x1) + 2)
        for y in range(int(y0) - 1, int(y1) + 2)
        if all(a * x + b * y <= c for a, b, c in planes)
    }


def is_maximal(verts):
    """No lattice point can join P without changing its interior points.

    Only for polygons whose interior points span a 2-dimensional polygon Q.
    Any lattice polygon with interior hull Q lies inside Q^(-1), the
    relaxation of Q (Haase and Schicho, "Lattice polygons and the number
    2i + 7", 2009), so the search runs over the lattice points of Q^(-1).
    """
    inner = interior_points(verts)
    q = hull(inner)
    if len(q) < 3:
        raise ValueError("maximality search needs a 2-dimensional interior")
    own = lattice_points(verts)
    for cand in relaxation_points(q) - own:
        if interior_points(hull(list(verts) + [cand])) == inner:
            return False
    return True


# The three maximal genus-1 polygons: every polygon with exactly one interior
# lattice point is equivalent to a subpolygon of one of them (Poonen and
# Rodriguez-Villegas, "Lattice polygons and the number 12", 2000).
GENUS1_MAXIMAL = (
    ((-1, -1), (2, -1), (-1, 2)),
    ((-1, -1), (1, -1), (1, 1), (-1, 1)),
    ((-1, -1), (3, -1), (-1, 1)),
)


def reflexive_classes():
    """The 16 genus-1 classes, one representative each, by subset search."""
    classes = []
    for big in GENUS1_MAXIMAL:
        pts = sorted(lattice_points(big) - {(0, 0)})
        for mask in range(1 << len(pts)):
            chosen = [p for i, p in enumerate(pts) if mask >> i & 1]
            verts = hull(chosen)
            if len(verts) < 3 or sorted(verts) != sorted(chosen):
                continue
            if interior_points(verts) != {(0, 0)}:
                continue
            if not any(equivalent(verts, c) for c in classes):
                classes.append(verts)
    return classes
