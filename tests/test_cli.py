import argparse
import hashlib
import json
import random
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
from panoptigon.formats import parse_polygon_text, polygon_to_text, relaxed_to_json
from panoptigon.relaxation import relax
from panoptigon.transform import canonical_form, lattice_diameter, lattice_width

from conftest import random_polygon_2d, random_sheared_polygon


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


def test_analyze_json_writes_the_form_as_an_object(capsys):
    """The width-2 form is a tuple, but JSON gets it as an object, not a list."""
    code, out, _ = run(["analyze", "0,0 10,0 10,2 0,2"], capsys)
    assert code == EXIT_OK
    form = {"kind": "Type3", "g": 9, "i": 10, "j": 10, "k": 0}
    assert json.loads(out)["hyperelliptic_form"] == form


def test_analyze_single_vertex_with_negative_x_after_double_dash(capsys):
    # A lone "-3,2" reads as an option; after "--" it is the polygon.
    code, out, _ = run(["analyze", "--", "-3,2"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["polygon"]["vertices"] == [[-3, 2]]


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
    assert report["relaxed"] == relaxed_to_json(*relax(poly))
    assert report["relaxation_lattice"] is (relax(poly)[1] == 1)
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


# SHA-256 of every file the census commands write, in ``sha256sum`` format.
# The NDJSON and summary bytes are the behaviour contract of ``census``, so
# a refactor leaves every digest as it is.
CENSUS_DIGESTS = """\
49adc289277a87a4bbfda4195f609c75a55d52df3567834fc4ab565c29647f60  full/census_full.ndjson
c7567b10536d4a5396b7996d9a56ab2be9c62942d3709f99076a4645964446e3  full/census_full_summary.json
e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855  maximal-lw3-3/census_maximal-lw3.ndjson
683966640340ac32b6af2df3c1a16e02dfc1f7da6a59cc03129eb4fa8fd973e1  maximal-lw3-3/census_maximal-lw3_summary.json
63adcc582d3ec98b09a93251446b1330513594c13eea7d6e80d632ea30dfc09a  maximal-lw3-4/census_maximal-lw3.ndjson
08b2c4a399129ace6c2d5e860387b01172317a38af3b4d3b90b4d0774e7f5293  maximal-lw3-4/census_maximal-lw3_summary.json
3f23796b455da3820b114f6aaaea6018b8696b3f5755ca348f8cba682560db59  maximal-lw3-5/census_maximal-lw3.ndjson
e6a99d98269a8018998c83ce22209fbb81f83fd2ca837f8feca7ad21327f0536  maximal-lw3-5/census_maximal-lw3_summary.json
436e04c7dd7931afd658b16845fd8b99e6d3a47cb2e58b2e067a6866b59fa1a0  maximal-lw3-6/census_maximal-lw3.ndjson
89650b360f1da2652b06329f58f4084f087579d01961b33ecfa51999dcee64f7  maximal-lw3-6/census_maximal-lw3_summary.json
cb7ecaede6289bea08e867458d8d23cf9ba1844031fbe57592bd490e8f118413  maximal-lw3-7/census_maximal-lw3.ndjson
85fe53e78be255659a630fc6ef7afb361842daa62306e055e27ff533d8510a64  maximal-lw3-7/census_maximal-lw3_summary.json
2ddf8660fb18a7b11bf166900874a4c000aad74976452d36eb89796708b7f744  maximal-lw3-8/census_maximal-lw3.ndjson
67b346e64389b43dcaaef31c8d782755e07b98b53247ae26c1e001dd9f2ec085  maximal-lw3-8/census_maximal-lw3_summary.json
269366e46da82b724f5c4d5d85d41c8efac2c2e88bf35e3a76a9437fbc1f74c4  maximal-lw3-9/census_maximal-lw3.ndjson
c7f0c90be64d9f9c42dbca0358219a8a673a0bc3ad23912a593a9ee5b6557f62  maximal-lw3-9/census_maximal-lw3_summary.json
24d6c09f0e65a0377cd3bf4d5b6db2446fe3061e1abe73e4fb207ca9e804dcc0  maximal-lw3-10/census_maximal-lw3.ndjson
05301b814c423ccbdc582af3ed0a3e4982737d2ac07e7631a57dc3fc036d87f8  maximal-lw3-10/census_maximal-lw3_summary.json
73b36a1d7197793ed0b9f958bc27f04f4426729cc348bb7a4a8bb3e841939454  maximal-lw3-11/census_maximal-lw3.ndjson
3f6a0169f6a898f43bdec2dc09b0cbb147d9d94777c70ae8590bdd058656b2a4  maximal-lw3-11/census_maximal-lw3_summary.json
f1ef9341aa2349c785ee8b99feef24d0a86b57655c0380f9549b8a0ec9aa916b  maximal-lw3-12/census_maximal-lw3.ndjson
8b9c2ee7d1cc22991f9b53f324cb91fd12b4205255254005aec77407254b6805  maximal-lw3-12/census_maximal-lw3_summary.json
def97a806249bc042eb58a99157632079f70f87ad7b812f95b94542b38035a4b  maximal-lw4-3/census_maximal-lw4.ndjson
13825d7e2c5dd85b099fb60e3a4573d19cce5f031c42be2c945a8fad84a7dd0f  maximal-lw4-3/census_maximal-lw4_summary.json
a82f61091799c9f117b7f5cb9246ef4ac2e6aadb96fe9b51d32a9a3e726f01ed  maximal-lw4-4/census_maximal-lw4.ndjson
52629cf49a7c70b6ecc0ca1a078efb88c28b258b5e0f58ed014db43f8f05c30d  maximal-lw4-4/census_maximal-lw4_summary.json
d0f8050cb913843ebe6926d3e6b4a602d4789dc22e6e1abb0b1aa992af2b93d0  maximal-lw4-5/census_maximal-lw4.ndjson
69818524f057f8a84f6bee5120d1c93f0214571efb523451123ab7db74e625f3  maximal-lw4-5/census_maximal-lw4_summary.json
6c978dbe9e5d54dbc5dde8f4ce4500733a2a8e564f980c920f92512ce630c18d  maximal-lw4-6/census_maximal-lw4.ndjson
6c772e6fdf75a47fe2609d3dced5fea6b23a3bfdfb4f86dffbc906eebcd314d8  maximal-lw4-6/census_maximal-lw4_summary.json
adb5cfdb6f31b22f30ca2db625360a03ddc0231aa96ad2079f03a628e4041d0f  maximal-lw4-7/census_maximal-lw4.ndjson
d37b57a369c9234ac9b33b028288de056c76c9347350e05fda60125e1fcc69fd  maximal-lw4-7/census_maximal-lw4_summary.json
c8b7d34ceaf5f08245a61d13dc3ae9e07250aa1094f8bc1f9afaef8df9d6706c  maximal-lw4-8/census_maximal-lw4.ndjson
23779c6ea7afa77853639f2e516d7e92cca0ff2b1d0017807ba51d260a8b944d  maximal-lw4-8/census_maximal-lw4_summary.json
f2f9649629070cade9954d40ef253f1d1a0a766285baaf77d7095aea1614d318  maximal-lw4-9/census_maximal-lw4.ndjson
78c2d9130489a19ce5a8ad4cfedad693ee62b04b2d0b8b9014e381772cf875d5  maximal-lw4-9/census_maximal-lw4_summary.json
b4e4afbbbaf1ed98c82e2b018f096e8707e221b87f7b51441a3f81b2ec933a6d  maximal-lw4-10/census_maximal-lw4.ndjson
302dd2237dd9f0302f65e60fcbd7df14af5376f2c6c4364447e1181082773786  maximal-lw4-10/census_maximal-lw4_summary.json
"""


def test_census_output_bytes_are_pinned(tmp_path, capsys):
    runs = [("full", None)]
    runs += [("maximal-lw3", g) for g in range(3, 13)]
    runs += [("maximal-lw4", g) for g in range(3, 11)]
    lines = []
    for kind, genus in runs:
        label = kind if genus is None else "%s-%d" % (kind, genus)
        argv = ["census", kind, "--out", str(tmp_path / label)]
        assert main(argv if genus is None else argv + ["--genus", str(genus)]) == EXIT_OK
        for path in sorted((tmp_path / label).iterdir()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append("%s  %s/%s\n" % (digest, label, path.name))
    capsys.readouterr()
    assert "".join(lines) == CENSUS_DIGESTS


# SHA-256 of the exit codes, ``analyze`` output and ``render`` SVG files over
# the inputs of ``_guarded_inputs``.  These bytes are the behaviour contract
# of ``analyze`` and ``render``, so a refactor leaves both digests as they are.
ANALYZE_DIGEST = "9bdf6365189ddd2f3b1801f5158b796b768a572e0b140115ad04844bf2d9fb6c"
RENDER_DIGEST = "56a6775913545337cb924c60cc0ecaa3e10b105028ae3a4277cce2c507fce864"


def _guarded_inputs(census):
    """(analyze inputs, render inputs) as polygon texts.

    The 71 width-3+ census forms, 60 random polygons, 20 two-dimensional
    sheared ones (``analyze`` only: ``render`` draws their whole bounding
    box) and a quadrilateral whose relaxation loses an edge.
    """
    forms = [polygon_to_text(r.canonical) for r in census[1]]
    rng = random.Random(2601)
    randoms = [polygon_to_text(random_polygon_2d(rng)) for _ in range(60)]
    rng = random.Random(2602)
    sheared = []
    while len(sheared) < 20:
        poly = random_sheared_polygon(rng)
        if poly.dimension == 2:
            sheared.append(polygon_to_text(poly))
    return forms + randoms + sheared + ["0,0 1,0 5,1 1,2"], forms + randoms[:20]


def test_analyze_and_render_bytes_are_pinned(census, tmp_path, capsys):
    analyzed, rendered = _guarded_inputs(census)
    assert (len(analyzed), len(rendered)) == (152, 91)
    digest = hashlib.sha256()
    for text in analyzed:
        for extra in ([], ["--table"]):
            code, out, err = run(["analyze", text] + extra, capsys)
            digest.update(b"%d\n%s%s" % (code, out.encode(), err.encode()))
    analyze_digest = digest.hexdigest()
    digest = hashlib.sha256()
    svg = tmp_path / "p.svg"
    for text in rendered:
        for extra in ([], ["--relaxed"]):
            code, _, err = run(["render", text, "--svg", str(svg)] + extra, capsys)
            digest.update(b"%d\n%s%s" % (code, err.encode(), svg.read_bytes()))
    assert (analyze_digest, digest.hexdigest()) == (ANALYZE_DIGEST, RENDER_DIGEST)
