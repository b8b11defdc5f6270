import json

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
from panoptigon.core import convex_hull
from panoptigon.formats import parse_polygon_text, polygon_to_text


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_analyze_table_output(capsys):
    code, out, _ = run(["analyze", "0,0 3,0 0,3", "--table"], capsys)
    assert code == EXIT_OK
    assert "lattice width" in out
    assert "panoptigon" in out


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


def test_census_maximal_requires_genus(tmp_path, capsys):
    code, _, err = run(["census", "maximal-lw3", "--out", str(tmp_path)], capsys)
    assert code == EXIT_USAGE
    assert "--genus" in err


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


def test_analyze_polygon_fields_recomputable():
    poly = convex_hull([(0, 0), (3, 0), (0, 3)])
    report = analyze_polygon(poly)
    assert report.genus == poly.genus
    assert report.canonical is not None
    assert polygon_to_text(report.polygon) == "0,0 3,0 0,3"
