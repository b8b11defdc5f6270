import argparse
import json
import signal
from contextlib import contextmanager

import pytest

from panoptigon import census, cli
from panoptigon.census import enumerate_raw
from panoptigon.cli import (
    EXIT_COUNT_MISMATCH,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    analyze_polygon,
    main,
)
from panoptigon.classify import is_panoptigon
from panoptigon.core import convex_hull
from panoptigon.formats import parse_polygon_text, polygon_to_text
from panoptigon.relaxation import relax
from panoptigon.transform import canonical_form, lattice_diameter, lattice_width


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@contextmanager
def within_seconds(seconds):
    """Fail with TimeoutError when the block runs longer than ``seconds``."""

    def too_slow(signum, frame):
        raise TimeoutError("took more than %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_analyze_triangle_json(capsys):
    code, out, _ = run(["analyze", "0,0 3,0 0,3"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["genus"] == 1
    assert report["lattice_width"] == 3
    assert report["panoptigon"] is True
    assert report["panoptigon_points"] == [[1, 1]]
    # Round trip: the echoed polygon parses back to the same vertex list.
    echoed = parse_polygon_text(
        " ".join("%d,%d" % (x, y) for x, y in report["polygon"]["vertices"])
    )
    assert echoed == convex_hull([(0, 0), (3, 0), (0, 3)])


def test_analyze_square_is_hyperelliptic(capsys):
    code, out, _ = run(["analyze", "0,0 0,1 3,1 3,0"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["hyperelliptic"] is True


def test_analyze_degenerate_gives_nulls(capsys):
    code, out, _ = run(["analyze", "0,0 1,0"], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["genus"] is None
    assert report["lattice_width"] is None
    assert report["canonical"] is None


TRIANGLE_TABLE = """\
polygon              0,0 3,0 0,3
genus                1
lattice width        3
width directions     0,1 1,0 1,1
lattice diameter     3
diameter directions  0,1 1,-1 1,0
hyperelliptic        True
hyperelliptic form   -
panoptigon           True
panoptigon points    1,1
interior polygon     1,1
relaxation lattice   True
maximal              True
canonical form       0,0 3,0 0,3
big-face verdict     -
"""

SEGMENT_TABLE = """\
polygon              0,0 1,0
genus                -
lattice width        -
width directions     -
lattice diameter     -
diameter directions  -
hyperelliptic        -
hyperelliptic form   -
panoptigon           -
panoptigon points    -
interior polygon     -
relaxation lattice   -
maximal              -
canonical form       -
big-face verdict     -
"""


def test_analyze_table_output(capsys):
    """Every row in order, with ``-`` where a value is absent."""
    for text, table in (("0,0 3,0 0,3", TRIANGLE_TABLE), ("0,0 1,0", SEGMENT_TABLE)):
        code, out, _ = run(["analyze", text, "--table"], capsys)
        assert code == EXIT_OK
        assert out == table, text


# Table label of each JSON key; ``relaxed`` and ``big_face_passes`` are JSON-only.
TABLE_LABELS = {
    "polygon": "polygon",
    "genus": "genus",
    "lattice_width": "lattice width",
    "width_directions": "width directions",
    "lattice_diameter": "lattice diameter",
    "diameter_directions": "diameter directions",
    "hyperelliptic": "hyperelliptic",
    "hyperelliptic_form": "hyperelliptic form",
    "panoptigon": "panoptigon",
    "panoptigon_points": "panoptigon points",
    "interior_polygon": "interior polygon",
    "relaxation_lattice": "relaxation lattice",
    "maximal": "maximal",
    "canonical": "canonical form",
    "big_face_reason": "big-face verdict",
}


def table_text(key, value) -> str:
    """The table's text for one JSON value."""
    if value is None or value == []:
        return "-"
    if key == "hyperelliptic_form":
        return " ".join([value["kind"]] + ["%s=%d" % (k, value[k]) for k in "gijk" if k in value])
    if isinstance(value, dict):
        value = value["vertices"]
    if isinstance(value, list):
        return " ".join(item if isinstance(item, str) else "%d,%d" % tuple(item) for item in value)
    return str(value)


@pytest.mark.parametrize(
    "text,known",
    [
        (
            "0,0 10,0 10,2 0,2",
            {
                "genus": 9,
                "hyperelliptic_form": {"kind": "Type3", "g": 9, "i": 10, "j": 10, "k": 0},
                "big_face_passes": False,
                "big_face_reason": "more than 3 collinear interior points",
            },
        ),
        (
            "0,1 0,3 4,0",
            {
                "genus": 3,
                "hyperelliptic": False,
                "panoptigon_points": [[1, 1], [1, 2]],
                "big_face_passes": True,
                "big_face_reason": None,
            },
        ),
    ],
)
def test_analyze_table_rows_match_json_keys(capsys, text, known):
    """Each JSON key but the two JSON-only ones has one table row showing its value.

    The inputs are a width-2 Type3 form of genus 9 and a sporadic class of genus 3.
    """
    _, out, _ = run(["analyze", text], capsys)
    report = json.loads(out)
    assert {key: report[key] for key in known} == known
    _, table, _ = run(["analyze", text, "--table"], capsys)
    assert set(report) == set(TABLE_LABELS) | {"relaxed", "big_face_passes"}
    width = max(map(len, TABLE_LABELS.values()))
    expected = [
        "%-*s  %s" % (width, label, table_text(key, report[key]))
        for key, label in TABLE_LABELS.items()
    ]
    assert sorted(table.splitlines()) == sorted(expected)


@pytest.mark.parametrize(
    "text,form",
    [("0,0 2,0 3,2 1,2", "Type1 g=2 i=2 j=0"), ("0,0 10,0 10,2 0,2", "Type3 g=9 i=10 j=10 k=0")],
)
def test_analyze_table_hyperelliptic_form_row(capsys, text, form):
    """The width-2 form row reads like the JSON: kind, then g, i, j, and k for Type3 only."""
    _, table, _ = run(["analyze", text, "--table"], capsys)
    width = max(map(len, TABLE_LABELS.values()))
    assert "%-*s  %s" % (width, "hyperelliptic form", form) in table.splitlines()


def test_analyze_parse_error(capsys):
    code, _, err = run(["analyze", "0,0 zap"], capsys)
    assert code == EXIT_USAGE
    assert "bad vertex" in err


def test_file_indirection(tmp_path, capsys):
    src = tmp_path / "poly.txt"
    src.write_text("0,0 3,0 0,3\n")
    code, out, _ = run(["analyze", "@" + str(src)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["genus"] == 1


def test_file_indirection_missing_file(capsys):
    code, _, err = run(["analyze", "@/nonexistent/poly.txt"], capsys)
    assert code == EXIT_IO


def test_file_indirection_not_utf8_is_parse_error(tmp_path, capsys):
    src = tmp_path / "poly.txt"
    src.write_bytes(b"0,0 3,0 0,3\xff\n")
    code, out, err = run(["analyze", "@" + str(src)], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "UTF-8" in err
    assert out == ""


def test_census_out_is_existing_file_exits_io(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    code, out, err = run(["census", "raw", "--out", str(target)], capsys)
    assert code == EXIT_IO
    assert err.startswith("error: ")
    assert out == ""


def test_census_maximal_requires_genus(tmp_path, capsys):
    code, _, err = run(["census", "maximal-lw3", "--out", str(tmp_path)], capsys)
    assert code == EXIT_USAGE
    assert "--genus" in err


@pytest.mark.parametrize("kind,genus", [("maximal-lw3", 2), ("maximal-lw4", 1)])
def test_census_maximal_refuses_genus_below_three(tmp_path, capsys, kind, genus):
    code, out, err = run(["census", kind, "--genus", str(genus), "--out", str(tmp_path)], capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "--genus >= 3" in err
    assert out == ""


def test_census_maximal_lw3_writes_files(tmp_path, capsys):
    code, out, _ = run(
        ["census", "maximal-lw3", "--genus", "10", "--out", str(tmp_path)], capsys
    )
    assert code == EXIT_OK
    assert "closed-form" in out
    summary = json.loads((tmp_path / "census_maximal-lw3_summary.json").read_text())
    assert summary["genus"] == 10
    assert summary["count"] >= 1
    ndjson = (tmp_path / "census_maximal-lw3.ndjson").read_text()
    assert len(ndjson.strip().splitlines()) == summary["count"]


def test_census_maximal_lw3_reports_formula_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "maximal_lw3_count_formula", lambda g: 4)
    code, out, err = run(
        ["census", "maximal-lw3", "--genus", "10", "--out", str(tmp_path)], capsys
    )
    assert code == EXIT_COUNT_MISMATCH
    assert "closed-form 4" in out
    assert "count mismatch: count = 3 (expected 4)" in err


def test_census_out_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PANOPTIGON_OUT", str(tmp_path))
    code, _, _ = run(["census", "maximal-lw4", "--genus", "3"], capsys)
    assert code == EXIT_OK
    assert (tmp_path / "census_maximal-lw4.ndjson").exists()


def test_census_raw_exit_ok(tmp_path, capsys):
    code, out, _ = run(
        ["census", "raw", "--out", str(tmp_path)], capsys
    )
    assert code == EXIT_OK
    assert "215" in out


def test_census_removed_options_are_usage_errors(tmp_path, capsys):
    for args in (["census", "full", "--threads", "4"], ["census", "raw", "--slow-oracle"]):
        code, _, err = run(args + ["--out", str(tmp_path)], capsys)
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in err


def test_census_full_reports_mismatch(tmp_path, capsys, monkeypatch):
    # One wrong expectation makes the count-verification exit code fire.
    raw_calls = []

    def counting_enumerate_raw():
        raw_calls.append(1)
        return enumerate_raw()

    with monkeypatch.context() as m:
        m.setitem(cli.EXPECTED_COUNTS, "lw3plus", 73)
        m.setattr(cli, "enumerate_raw", counting_enumerate_raw)
        m.setattr(census, "enumerate_raw", counting_enumerate_raw)
        code, out, err = run(
            ["census", "full", "--out", str(tmp_path / "patched")],
            capsys,
        )
    assert code == EXIT_COUNT_MISMATCH
    assert "count mismatch: lw3plus = 71 (expected 73)" in err
    assert len(raw_calls) == 1
    # With the proven counts in place the same census exits cleanly.
    code, out, err = run(["census", "full", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert "count mismatch" not in err
    summary = json.loads((tmp_path / "census_full_summary.json").read_text())
    assert summary["raw"] == 215
    assert summary["by_count"]["13"] == 8


def _count_calls(m, name, modules) -> list:
    """Route ``name`` in each module through one counting wrapper."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        m.setattr(module, name, counted)
    return calls


def test_census_classifies_each_record_once(tmp_path, capsys, monkeypatch):
    # The maximal generators return canonical forms, so each record's form is
    # computed once; `census full` classifies its records and nothing else.
    census.genus1_classes()
    written = 0
    with monkeypatch.context() as m:
        canon_calls = _count_calls(m, "canonical_form", (census, cli))
        for kind, genera in (("maximal-lw4", range(3, 11)), ("maximal-lw3", range(3, 13))):
            for g in genera:
                code, _, _ = run(["census", kind, "--genus", str(g), "--out", str(tmp_path)], capsys)
                assert code == EXIT_OK
                written += len((tmp_path / ("census_%s.ndjson" % kind)).read_text().splitlines())
    assert len(canon_calls) == written == 63
    with monkeypatch.context() as m:
        hyp_calls = _count_calls(m, "is_hyperelliptic", (census, cli))
        code, _, _ = run(["census", "full", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert len(hyp_calls) == len((tmp_path / "census_full.ndjson").read_text().splitlines()) == 71


def test_render_subcommand(tmp_path, capsys):
    out_svg = tmp_path / "t3.svg"
    code, out, _ = run(["render", "0,0 3,0 0,3", "--svg", str(out_svg)], capsys)
    assert code == EXIT_OK
    assert out_svg.read_text().startswith("<svg")


def test_render_degenerate_exits_io(tmp_path, capsys):
    code, _, err = run(
        ["render", "0,0 1,0", "--svg", str(tmp_path / "x.svg")], capsys
    )
    assert code == EXIT_IO
    assert "cannot render dimension < 2" in err


def test_help_prints_usage_to_stdout(capsys):
    code, out, err = run(["--help"], capsys)
    assert code == EXIT_OK
    assert out.startswith("usage: panoptigon ")
    assert err == ""


@pytest.mark.parametrize("argv", [[], ["analyze"]])
def test_missing_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: the following arguments are required" in err


def test_parser_reuse_carries_no_state(tmp_path, capsys):
    """Each call through the one cached parser answers as a freshly built parser does.

    ``--table`` must not outlive its call, and neither may a failed parse or ``--help``.
    """
    sequence = [
        ["analyze", "0,1 0,3 4,0", "--table"],
        ["analyze", "0,1 0,3 4,0"],
        ["analyze", "0,0 zap"],
        [],
        ["--help"],
        ["census", "maximal-lw3", "--out", str(tmp_path)],
        ["census", "maximal-lw3", "--genus", "5", "--out", str(tmp_path)],
        ["analyze", "0,0 3,0 0,3"],
    ]
    cli.build_parser.cache_clear()
    reused = [run(argv, capsys) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(run(argv, capsys))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0, 2, 0, 0]
    assert fresh[0][1] != fresh[1][1]
    assert reused == fresh


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    run(["analyze", "0,0 3,0 0,3"], capsys)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv, want in (
        (["analyze", "0,0 3,0 0,3"], EXIT_OK),
        (["analyze", "0,0 3,0 0,3", "--table"], EXIT_OK),
        (["census", "maximal-lw3", "--genus", "5", "--out", str(tmp_path)], EXIT_OK),
        (["render", "0,0 3,0 0,3", "--svg", str(tmp_path / "t3.svg")], EXIT_OK),
        (["census", "full", "--threads", "4"], EXIT_USAGE),
        (["--help"], EXIT_OK),
    ):
        code, _, _ = run(argv, capsys)
        assert code == want, argv
    assert built == []


def test_analyze_polygon_fields_recomputable():
    poly = convex_hull([(0, 0), (3, 0), (0, 3)])
    fields = analyze_polygon(poly)
    report = {key: value for key, _, value in fields}
    assert len(report) == len(fields) == 17
    assert [key for key, label, _ in fields if label is None] == ["relaxed", "big_face_passes"]
    assert polygon_to_text(report["polygon"]) == "0,0 3,0 0,3"
    assert report["genus"] == poly.genus
    lw, lw_dirs = lattice_width(poly)
    assert (report["lattice_width"], set(report["width_directions"])) == (lw, set(lw_dirs))
    ld, ld_dirs = lattice_diameter(poly)
    assert (report["lattice_diameter"], set(report["diameter_directions"])) == (ld, set(ld_dirs))
    assert report["panoptigon_points"] == tuple(sorted(is_panoptigon(poly).panoptigon_points))
    assert report["interior_polygon"] == poly.interior_polygon()
    assert report["relaxed"] == relax(poly)
    assert report["canonical"] == canonical_form(poly)


def test_analyze_maximal_far_from_origin(capsys):
    """Maximality of a hyperelliptic input costs the same however it is embedded.

    Both inputs are maximal: T_3 and the 10x2 box, each under a large shear.
    """
    with within_seconds(10):
        for text in ("0,0 3,0 300,3", "0,0 10,0 210,2 200,2"):
            code, out, _ = run(["analyze", text], capsys)
            assert code == EXIT_OK
            assert json.loads(out)["maximal"] is True, text


def test_analyze_large_inputs(capsys):
    """Diameter, panoptigon points and the width-2 form grow with the point count only.

    T_100 has 5,151 lattice points; the 60x2 box has genus 59.
    """
    with within_seconds(10):
        code, out, _ = run(["analyze", "0,0 100,0 0,100"], capsys)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["lattice_diameter"] == 100
        assert report["panoptigon"] is False
        code, out, _ = run(["analyze", "0,0 60,0 60,2 0,2"], capsys)
        assert code == EXIT_OK
        form = json.loads(out)["hyperelliptic_form"]
        assert form == {"kind": "Type3", "g": 59, "i": 60, "j": 60, "k": 0}
