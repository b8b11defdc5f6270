"""Tests of the benchmark's oracle and of its output checks.

    python3 -m pytest perfbench -q

The oracle is tested against closed forms.  Each output check is shown to
pass on the program's real output and to fail on a corrupted copy.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def tri(d):
    return [(0, 0), (d, 0), (0, d)]


def trapezoid(a, b):
    return oracle.hull([(0, 0), (0, 1), (a, 1), (b, 0)])


# --- oracle against closed forms ----------------------------------------------


@pytest.mark.parametrize("d", range(1, 9))
def test_standard_triangle_closed_forms(d):
    pts = oracle.lattice_points(tri(d))
    assert len(pts) == (d + 1) * (d + 2) // 2 == oracle.point_count(tri(d))
    assert oracle.genus(tri(d)) == (d - 1) * (d - 2) // 2 == len(oracle.interior_points(tri(d)))
    assert oracle.lattice_width(tri(d)) == d
    assert oracle.lattice_diameter(pts) == d
    assert bool(oracle.panoptigon_points(pts)) == (d <= 3)


@pytest.mark.parametrize("b", range(1, 8))
def test_trapezoid_panoptigon_iff_a_at_most_2(b):
    for a in range(0, b + 1):
        pts = oracle.lattice_points(trapezoid(a, b))
        assert bool(oracle.panoptigon_points(pts)) == (a <= 2)


def test_sixteen_reflexive_classes():
    classes = oracle.reflexive_classes()
    boundary = sorted(oracle.boundary_count(v) for v in classes)
    assert boundary == [3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8, 8, 9]
    assert all(oracle.genus(v) == 1 for v in classes)
    assert oracle.equivalent_pairs(classes) == []


def test_equivalence_and_invariants_under_shear():
    for k in (1, 4, 9):
        sheared = [(x + k * y, y) for x, y in tri(3)]
        assert oracle.equivalent(tri(3), sheared)
        assert oracle.lattice_width(oracle.hull(sheared)) == 3
    assert oracle.equivalent(trapezoid(1, 3), [(5, 5), (5, 6), (6, 6), (8, 5)])
    assert not oracle.equivalent(trapezoid(1, 3), trapezoid(0, 4))
    assert not oracle.equivalent(tri(3), [(0, 0), (3, 0), (1, 3)])


def test_maximality_search():
    assert oracle.is_maximal(tri(4)) and oracle.is_maximal(tri(5))
    assert not oracle.is_maximal([(0, 0), (3, 0), (0, 4)])
    assert oracle.relaxed_lattice_polygon(tri(1)) == [(-1, -1), (3, -1), (-1, 3)]


def test_width2_forms_count():
    # (g+3)(2g^2+15g+16)/6 classes of width-2 polygons of genus g
    for g in (2, 3, 10):
        assert len(workloads.width2_forms(g)) == (g + 3) * (2 * g * g + 15 * g + 16) // 6


# --- checks fail on corrupted outputs -----------------------------------------


def cli_run(argv):
    from panoptigon import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert rc == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def census_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("census")
    cli_run(["census", "full", "--out", str(out)])
    summary = json.loads((out / "census_full_summary.json").read_text())
    return summary, (out / "census_full.ndjson").read_text()


def test_census_check_catches_corruption(census_output):
    summary, ndjson = census_output
    assert workloads.check_census_full(summary, ndjson) == []
    lines = ndjson.splitlines(keepends=True)
    assert workloads.check_census_full(summary, "".join(lines[1:]))
    assert workloads.check_census_full(dict(summary, raw=214), ndjson)
    assert workloads.check_census_full(summary, "".join(lines[:-1] + [lines[0]]))
    rec = json.loads(lines[5])
    rec["panoptigon_points"][0][0] += 1
    assert workloads.check_census_full(summary, "".join(lines[:5] + [json.dumps(rec) + "\n"] + lines[6:]))
    rec = json.loads(lines[7])
    rec["genus"] += 1
    assert workloads.check_census_full(summary, "".join(lines[:7] + [json.dumps(rec) + "\n"] + lines[8:]))


def test_maximal_check_catches_corruption(tmp_path):
    for kind, g in (("lw3", 6), ("lw4", 5)):
        cli_run(["census", "maximal-" + kind, "--genus", str(g), "--out", str(tmp_path)])
        polys = workloads.records_vertices((tmp_path / ("census_maximal-%s.ndjson" % kind)).read_text())
        assert polys and workloads.check_maximal(kind, g, polys) == []
        assert workloads.check_maximal(kind, g, polys[1:])
        assert workloads.check_maximal(kind, g, polys + [polys[0]])
        assert workloads.check_maximal(kind, g + 1, polys)
    # a polygon of the right genus and width that is not maximal
    assert workloads.check_maximal("lw3", 6, [[(0, 0), (9, 0), (0, 3)]])


def test_genus1_check_catches_corruption():
    classes = oracle.reflexive_classes()
    assert workloads.check_genus1(classes) == []
    assert workloads.check_genus1(classes[1:])
    sheared = [(x + 2 * y, y) for x, y in classes[3]]
    assert workloads.check_genus1(classes[:-1] + [sheared])


def test_sporadic_check_catches_corruption():
    from panoptigon.census import sporadic_ld2

    polys = [list(r.canonical.vertices) for r in sporadic_ld2(exhaustive=False)]
    assert workloads.check_sporadic(polys) == []
    assert workloads.check_sporadic(polys[1:])
    assert workloads.check_sporadic(polys[1:] + [tri(3)])
    assert workloads.check_sporadic(polys[1:] + [[(x + y, y) for x, y in polys[1]]])


def test_analyze_check_catches_corruption():
    corpus = workloads.analyze_corpus(seed=3)
    picked = {}
    for item in corpus:
        if item["group"] == "T_d" and item["d"] > 20:
            continue
        picked.setdefault(item["group"], item)
    assert set(picked) == {"census", "T_d", "width2", "box", "T_3"}
    for item in picked.values():
        report = json.loads(cli_run(["analyze", item["text"]]))
        reference = json.loads(cli_run(["analyze", item["original"]]))
        assert workloads.check_analyze(item, report, reference) == []
        for key, value in (
            ("genus", report["genus"] + 1),
            ("lattice_width", report["lattice_width"] + 1),
            ("lattice_diameter", report["lattice_diameter"] + 1),
            ("panoptigon", not report["panoptigon"]),
            ("panoptigon_points", report["panoptigon_points"] + [[99, 99]]),
            ("canonical", {"vertices": [[0, 0], [1, 0], [0, 1]]}),
        ):
            bad = copy.deepcopy(report)
            bad[key] = value
            assert workloads.check_analyze(item, bad, reference), (item["group"], key)
        if item["group"] != "T_d":
            bad = dict(reference, maximal=not reference["maximal"])
            assert workloads.check_analyze(item, report, bad)


def test_run_fails_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "census-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
