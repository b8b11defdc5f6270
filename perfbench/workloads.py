"""The three workloads: their seeded inputs, one pass of operations, and checks.

A pass is a list of operations, each either a CLI command run through
`cli.main` with its output captured, or a call of a public library
function.  Checks run after the timed passes and compare outputs with the
oracle or with properties the method must have, never with a stored copy
of an earlier output.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
CENSUS_FORMS = HERE / "census_forms.txt"

# The proven census counts (criterion 01): the quoted 69/72/73 less the two
# merges of equivalent classes.
CENSUS_COUNTS = {"raw": 215, "nonhyperelliptic": 67, "sporadic": 3, "total": 70, "lw3plus": 71}

LW4_GENERA = range(3, 11)
LW3_GENERA = range(3, 13)


class Op:
    """One operation of a pass: a CLI command (`argv`), a sequence of census
    commands (`steps`, each writing to its own output directory) or a library
    call."""

    def __init__(self, key: str, argv=None, call=None, steps=None, **info):
        self.key = key
        self.argv = argv
        self.call = call
        self.steps = steps
        self.info = info


def text_of(verts) -> str:
    return " ".join("%d,%d" % v for v in verts)


def parse_text(text: str):
    return [tuple(int(c) for c in tok.split(",")) for tok in text.split()]


# --- census-full --------------------------------------------------------------


def census_full_ops() -> list[Op]:
    return [Op("census-full", steps=[["census", "full"]])]


def check_census_full(summary: dict, ndjson: str) -> list[str]:
    errors = []
    for key, want in CENSUS_COUNTS.items():
        if summary.get(key) != want:
            errors.append("summary %s = %r, want %d" % (key, summary.get(key), want))
    records = [json.loads(line) for line in ndjson.splitlines()]
    if len(records) != CENSUS_COUNTS["lw3plus"]:
        errors.append("%d records, want %d" % (len(records), CENSUS_COUNTS["lw3plus"]))
    polys = []
    for rec in records:
        verts = oracle.hull(tuple(v) for v in rec["canonical"])
        polys.append(verts)
        pts = oracle.lattice_points(verts)
        want = {
            "lattice_point_count": len(pts),
            "genus": oracle.genus(verts),
            "lattice_diameter": oracle.lattice_diameter(pts),
            "lattice_width": oracle.lattice_width(verts),
        }
        for key, value in want.items():
            if rec[key] != value:
                errors.append("record %s: %s = %r, oracle %r" % (rec["canonical"], key, rec[key], value))
        seers = {tuple(p) for p in rec["panoptigon_points"]}
        if not seers or seers != oracle.panoptigon_points(pts):
            errors.append("record %s: panoptigon points differ from the oracle" % rec["canonical"])
        if rec["lattice_width"] < 3:
            errors.append("record %s: lattice width below 3" % rec["canonical"])
    for i, j in oracle.equivalent_pairs(polys):
        errors.append("records %s and %s are equivalent" % (polys[i], polys[j]))
    return errors


# --- enumerate ----------------------------------------------------------------


def enumerate_ops(census_module) -> list[Op]:
    """The three parts of a pass, one operation each: maximal-lw4 for every
    genus in LW4_GENERA, maximal-lw3 for every genus in LW3_GENERA, and the
    sporadic search.

    The order is fixed, so the same operation (the first command of the
    maximal-lw4 sequence) pays for the cached genus-1 enumeration in every
    pass.  A single maximal command takes a few milliseconds once the genus-1
    classes are cached, too short to time steadily on a drifting machine;
    as one operation, a sequence is timed as a whole.
    """
    ops = [
        Op(
            "maximal-" + kind,
            steps=[["census", "maximal-" + kind, "--genus", str(g)] for g in genera],
            kind=kind,
            genera=genera,
        )
        for kind, genera in (("lw4", LW4_GENERA), ("lw3", LW3_GENERA))
    ]
    ops.append(Op("sporadic", call=lambda: census_module.sporadic_ld2(exhaustive=True)))
    return ops


def records_vertices(ndjson: str):
    return [[tuple(v) for v in json.loads(line)["canonical"]] for line in ndjson.splitlines()]


def _trapezoid(a, b):
    return oracle.hull([(0, 0), (0, 1), (a, 1), (b, 0)])


def check_maximal(kind: str, g: int, polys) -> list[str]:
    """Each polygon has genus g and width 3 (lw3) or 4 (lw4), is maximal, and
    no two are equivalent; the relaxations every such polygon arises from
    (trapezoids for width 3; T_4 and genus-1 width-2 polygons for width 4)
    all appear."""
    width = 3 if kind == "lw3" else 4
    errors = []
    for verts in polys:
        verts = oracle.hull(verts)
        if oracle.genus(verts) != g:
            errors.append("%s g=%d: %s has genus %d" % (kind, g, verts, oracle.genus(verts)))
        if oracle.lattice_width(verts) != width:
            errors.append("%s g=%d: %s has width %d" % (kind, g, verts, oracle.lattice_width(verts)))
        if not oracle.is_maximal(verts):
            errors.append("%s g=%d: %s is not maximal" % (kind, g, verts))
    for i, j in oracle.equivalent_pairs(polys):
        errors.append("%s g=%d: %s and %s are equivalent" % (kind, g, polys[i], polys[j]))
    expected = []
    if kind == "lw3":
        for a in range(0, g - 1):
            b = g - 2 - a
            if a <= b and b >= 1:
                expected.append(oracle.relaxed_lattice_polygon(_trapezoid(a, b)))
    else:
        if g == 3:
            expected.append([(0, 0), (4, 0), (0, 4)])
        for inner in oracle.reflexive_classes():
            if oracle.lattice_width(inner) == 2 and oracle.point_count(inner) == g:
                expected.append(oracle.relaxed_lattice_polygon(inner))
    for verts in expected:
        if verts is None or oracle.lattice_width(verts) != width or oracle.genus(verts) != g:
            continue
        if not any(oracle.equivalent(verts, p) for p in polys):
            errors.append("%s g=%d: maximal polygon %s is missing" % (kind, g, verts))
    return errors


def check_genus1(classes) -> list[str]:
    """16 genus-1 classes, one per classical reflexive polygon."""
    errors = []
    if len(classes) != 16:
        errors.append("genus-1 enumeration gave %d classes, want 16" % len(classes))
    reflexive = oracle.reflexive_classes()
    for verts in classes:
        if oracle.genus(oracle.hull(verts)) != 1:
            errors.append("genus-1 class %s has genus %d" % (verts, oracle.genus(oracle.hull(verts))))
    for ref in reflexive:
        hits = sum(1 for verts in classes if oracle.equivalent(ref, verts))
        if hits != 1:
            errors.append("reflexive polygon %s matched %d classes" % (ref, hits))
    return errors


def check_sporadic(polys) -> list[str]:
    """3 non-hyperelliptic panoptigon classes of lattice diameter 2 and width 3."""
    errors = []
    if len(polys) != 3:
        errors.append("sporadic search gave %d classes, want 3" % len(polys))
    for verts in polys:
        verts = oracle.hull(verts)
        pts = oracle.lattice_points(verts)
        if oracle.lattice_diameter(pts) != 2 or oracle.lattice_width(verts) != 3:
            errors.append("sporadic %s: diameter or width is wrong" % verts)
        if len(oracle.hull(oracle.interior_points(verts))) < 3:
            errors.append("sporadic %s is hyperelliptic" % verts)
        if not oracle.panoptigon_points(pts):
            errors.append("sporadic %s is not a panoptigon" % verts)
    for i, j in oracle.equivalent_pairs(polys):
        errors.append("sporadic %s and %s are equivalent" % (polys[i], polys[j]))
    return errors


# --- analyze ------------------------------------------------------------------

DIHEDRAL = (
    ((1, 0), (0, 1)),
    ((-1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, -1)),
    ((0, 1), (1, 0)),
    ((0, -1), (1, 0)),
    ((0, 1), (-1, 0)),
    ((0, -1), (-1, 0)),
)

T_D = (20, 40, 60)
FORM_GENUS = 10
FORM_STRATA = 8
BOX = ((0, 0), (10, 0), (10, 2), (0, 2))
BOX_SHEARS = (1, 2, 3)
T3 = ((0, 0), (3, 0), (0, 3))
T3_SHEARS = (3, 6, 9)


def _apply(m, t, verts):
    (a, b), (c, d) = m
    return [(a * x + b * y + t[0], c * x + d * y + t[1]) for x, y in verts]


def _mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def width2_forms(g: int):
    """The width-2 normal forms of genus g, in the program's template order.

    Type1: conv((0,0),(i,0),(2g+1-i,2),(1,2)), g <= i <= 2g.
    Type2: conv((0,0),(i,0),(g+1,1),(j+1,2),(1,2)), j <= i, i + j <= 2g + 1.
    Type3: conv((0,0),(i,0),(g+1,1),(k+j,2),(k,2),(0,1)), i + j + k <= 2g + 2,
    with (i, j, k) the least of its orbit {(i,j,k), (j,i,k), (i,j,k'), (j,i,k')},
    k' = 2g + 2 - i - j - k.
    """
    out = []
    for i in range(g, 2 * g + 1):
        out.append(({"kind": "Type1", "g": g, "i": i, "j": 0}, [(0, 0), (i, 0), (2 * g + 1 - i, 2), (1, 2)]))
    for i in range(0, 2 * g + 2):
        for j in range(0, min(i, 2 * g + 1 - i) + 1):
            out.append(({"kind": "Type2", "g": g, "i": i, "j": j}, [(0, 0), (i, 0), (g + 1, 1), (j + 1, 2), (1, 2)]))
    for i in range(0, 2 * g + 3):
        for j in range(0, 2 * g + 3 - i):
            for k in range(0, 2 * g + 3 - i - j):
                kr = 2 * g + 2 - i - j - k
                if (i, j, k) == min((i, j, k), (j, i, k), (i, j, kr), (j, i, kr)):
                    form = {"kind": "Type3", "g": g, "i": i, "j": j, "k": k}
                    out.append((form, [(0, 0), (i, 0), (g + 1, 1), (k + j, 2), (k, 2), (0, 1)]))
    return [(form, oracle.hull(pts)) for form, pts in out]


def analyze_corpus(seed: int) -> list[dict]:
    """Seeded polygons for `analyze`; see the README for the make-up."""
    rng = random.Random(seed)
    corpus = []

    def embed(group, verts, original, shear=None, **extra):
        m = rng.choice(DIHEDRAL)
        if shear is not None:
            m = _mul(m, shear)
        t = (rng.randint(-9, 9), rng.randint(-9, 9))
        image = _apply(m, t, verts)
        rng.shuffle(image)
        corpus.append(dict(group=group, text=text_of(image), original=text_of(original), **extra))

    for line in CENSUS_FORMS.read_text().splitlines():
        verts = parse_text(line)
        embed("census", verts, verts)
    for d in T_D:
        tri = [(0, 0), (d, 0), (0, d)]
        embed("T_d", tri, tri, d=d)
    forms = width2_forms(FORM_GENUS)
    n = len(forms)
    for k in range(FORM_STRATA):
        form, verts = forms[rng.randrange(k * n // FORM_STRATA, (k + 1) * n // FORM_STRATA)]
        embed("width2", verts, verts, form=form)
    for k in BOX_SHEARS:
        embed("box", BOX, BOX, ((1, k), (0, 1)))
    for k in T3_SHEARS:
        embed("T_3", T3, T3, ((1, k), (0, 1)))
    rng.shuffle(corpus)
    return corpus


def analyze_ops(seed: int) -> list[Op]:
    return [
        Op("analyze-%d" % n, ["analyze", item["text"]], item=item)
        for n, item in enumerate(analyze_corpus(seed))
    ]


SAME_AS_ORIGINAL = (
    "genus",
    "lattice_width",
    "lattice_diameter",
    "hyperelliptic_form",
    "panoptigon",
    "maximal",
    "canonical",
)


def check_analyze(item: dict, report: dict, reference: dict | None) -> list[str]:
    """One `analyze` report against the oracle and the unsheared original's report."""
    verts = parse_text(item["text"])
    hull = oracle.hull(verts)
    name = "%s %s" % (item["group"], item["text"])
    errors = []
    if item["group"] == "T_d":
        d = item["d"]
        want = {"genus": (d - 1) * (d - 2) // 2, "lattice_width": d, "lattice_diameter": d, "panoptigon": d <= 3}
        seers = None if d <= 3 else set()
    else:
        pts = oracle.lattice_points(hull)
        seers = oracle.panoptigon_points(pts)
        want = {
            "genus": oracle.genus(hull),
            "lattice_width": oracle.lattice_width(hull),
            "lattice_diameter": oracle.lattice_diameter(pts),
            "panoptigon": bool(seers),
        }
    if item["group"] == "width2":
        want["hyperelliptic_form"] = item["form"]
        want["lattice_width"] = 2
        want["genus"] = item["form"]["g"]
    for key, value in want.items():
        if report.get(key) != value:
            errors.append("%s: %s = %r, want %r" % (name, key, report.get(key), value))
    if seers is not None and {tuple(p) for p in report.get("panoptigon_points", [])} != seers:
        errors.append("%s: panoptigon points differ from the oracle" % name)
    canonical = (report.get("canonical") or {}).get("vertices") or []
    if not oracle.equivalent(hull, [tuple(v) for v in canonical]):
        errors.append("%s: canonical form %s is not equivalent to the input" % (name, canonical))
    if reference is not None:
        for key in SAME_AS_ORIGINAL:
            if report.get(key) != reference.get(key):
                errors.append(
                    "%s: %s = %r, but %r for the original %s"
                    % (name, key, report.get(key), reference.get(key), item["original"])
                )
    return errors
