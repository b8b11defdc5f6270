"""Command-line front end: polygon analysis, census runs, SVG figures.

Exit codes: 0 success, 1 census count mismatch, 2 usage or parse error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .census import (
    CensusRecord,
    big_face_obstruction,
    census_summary,
    enumerate_raw,
    full_panoptigon_census,
    maximal_lw3_count_formula,
    maximal_polygons,
    records_to_ndjson,
)
from .classify import HyperellipticForm, hyperelliptic_normal_form, is_hyperelliptic, is_panoptigon
from .core import Polygon
from .formats import (
    PolygonParseError,
    hyperelliptic_form_to_json,
    parse_polygon_text,
    polygon_to_json,
    polygon_to_text,
    relaxed_to_json,
    resolve_polygon_source,
)
from .relaxation import is_maximal, relax
from .transform import Functional, canonical_form, lattice_diameter, lattice_width

EXIT_OK = 0
EXIT_COUNT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3

EXPECTED_COUNTS = {
    "raw": 215,
    "nonhyperelliptic": 67,
    "sporadic": 3,
    "total": 70,
    "lw3plus": 71,
}


def analyze_polygon(poly: Polygon) -> list[tuple[str, Optional[str], object]]:
    """Everything the library can say about one polygon, in table order.

    Each field is (JSON key, table label, value); the label is None for a
    JSON-only field.  Below dimension 2 every value but the polygon is None,
    or () for a tuple.
    """
    plane = poly.dimension == 2
    lw, lw_dirs = lattice_width(poly) if plane else (None, ())
    ld, ld_dirs = lattice_diameter(poly) if plane else (None, ())
    hyp = is_hyperelliptic(poly) if plane else None
    form = hyperelliptic_normal_form(poly) if hyp and poly.genus >= 2 and lw == 2 else None
    report = is_panoptigon(poly) if plane else None
    scaled, d = relax(poly) if plane else (None, None)
    verdict = big_face_obstruction(poly) if plane and poly.genus >= 2 else None
    return [
        ("polygon", "polygon", poly),
        ("genus", "genus", poly.genus if plane else None),
        ("lattice_width", "lattice width", lw),
        ("width_directions", "width directions", tuple(sorted(lw_dirs))),
        ("lattice_diameter", "lattice diameter", ld),
        ("diameter_directions", "diameter directions", tuple(sorted(ld_dirs))),
        ("hyperelliptic", "hyperelliptic", hyp),
        ("hyperelliptic_form", "hyperelliptic form", form),
        ("panoptigon", "panoptigon", None if report is None else report.is_panoptigon),
        (
            "panoptigon_points",
            "panoptigon points",
            () if report is None else tuple(sorted(report.panoptigon_points)),
        ),
        ("interior_polygon", "interior polygon", poly.interior_polygon() if plane else None),
        ("relaxed", None, relaxed_to_json(scaled, d) if plane else None),
        ("relaxation_lattice", "relaxation lattice", d == 1 if plane else None),
        ("maximal", "maximal", is_maximal(poly) if plane and poly.genus >= 1 else None),
        ("canonical", "canonical form", canonical_form(poly) if plane else None),
        ("big_face_passes", None, None if verdict is None else verdict.passes),
        ("big_face_reason", "big-face verdict", None if verdict is None else verdict.reason),
    ]


def _json_value(value):
    if isinstance(value, Polygon):
        return polygon_to_json(value)
    if isinstance(value, HyperellipticForm):
        return hyperelliptic_form_to_json(value)
    if isinstance(value, tuple):  # of Functionals or of points
        return [str(f) if isinstance(f, Functional) else list(f) for f in value]
    return value


def _text_value(value) -> str:
    if value is None or value == ():
        return "-"
    if isinstance(value, Polygon):
        return polygon_to_text(value)
    if isinstance(value, HyperellipticForm):
        data = hyperelliptic_form_to_json(value)
        return " ".join([data.pop("kind")] + ["%s=%d" % item for item in data.items()])
    if isinstance(value, tuple):
        return " ".join("%d,%d" % item for item in value)
    return str(value)


def _error(message, code: int) -> int:
    print("error: %s" % message, file=sys.stderr)
    return code


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("PANOPTIGON_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_polygon(source: str):
    """The polygon given as text or @file, or the exit code after an error line."""
    try:
        return parse_polygon_text(resolve_polygon_source(source))
    except OSError as exc:
        return _error(exc, EXIT_IO)
    except PolygonParseError as exc:
        return _error(exc, EXIT_USAGE)


def cmd_analyze(args) -> int:
    poly = _read_polygon(args.polygon)
    if isinstance(poly, int):
        return poly
    fields = analyze_polygon(poly)
    if args.table:
        rows = [(label, _text_value(value)) for _, label, value in fields if label]
        width = max(len(label) for label, _ in rows)
        print("\n".join("%-*s  %s" % (width, label, text) for label, text in rows))
    else:
        report = {key: _json_value(value) for key, _, value in fields}
        print(json.dumps(report, indent=2, sort_keys=True))
    if args.svg:
        return _write_svg(poly, args.svg, relaxed=False)
    return EXIT_OK


def cmd_census(args) -> int:
    kind = args.kind
    maximal = kind in ("maximal-lw3", "maximal-lw4")
    if maximal and args.genus is None:
        return _error("%s requires --genus" % kind, EXIT_USAGE)
    if maximal and args.genus < 3:
        return _error("%s requires --genus >= 3, got %d" % (kind, args.genus), EXIT_USAGE)
    try:
        out = _out_dir(args)
    except OSError as exc:
        return _error(exc, EXIT_IO)
    expected = EXPECTED_COUNTS
    summary: dict
    records: list[CensusRecord]

    if maximal:
        polys = maximal_polygons(args.genus, 3 if kind == "maximal-lw3" else 4)
        records = [CensusRecord.from_polygon(canon) for canon in polys]
        summary = {"kind": kind, "genus": args.genus, "count": len(records)}
        if kind == "maximal-lw3" and args.genus >= 4:
            formula = maximal_lw3_count_formula(args.genus)
            summary["formula"] = formula
            expected = {"count": formula}
            print(
                "maximal lw3 genus %d: enumerated %d, closed-form %d"
                % (args.genus, len(records), formula)
            )
        else:
            print("%s genus %d: %d polygons" % (kind, args.genus, len(records)))
    elif kind == "raw":
        raw = enumerate_raw()
        records = [CensusRecord.from_polygon(canonical_form(p)) for p in raw]
        summary = {"kind": kind, "raw": len(raw)}
        print("raw census: %d polygons" % len(raw))
    else:  # nonhyperelliptic | full
        raw = enumerate_raw()
        nonhyp, lw3plus = full_panoptigon_census(raw=raw)
        summary = census_summary(nonhyp, lw3plus, len(raw))
        summary["kind"] = kind
        records = nonhyp if kind == "nonhyperelliptic" else lw3plus
        print(
            "census: raw=%d nonhyperelliptic=%d sporadic=%d total=%d lw3plus=%d"
            % (
                summary["raw"],
                summary["nonhyperelliptic"],
                summary["sporadic"],
                summary["total"],
                summary["lw3plus"],
            )
        )

    try:
        ndjson_path = out / ("census_%s.ndjson" % kind)
        summary_path = out / ("census_%s_summary.json" % kind)
        ndjson_path.write_text(records_to_ndjson(records))
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        return _error(exc, EXIT_IO)
    print("wrote %s and %s" % (ndjson_path, summary_path))

    mismatches = {
        key: (summary[key], expected[key])
        for key in expected
        if key in summary and summary[key] != expected[key]
    }
    if mismatches:
        for key, (got, want) in sorted(mismatches.items()):
            print("count mismatch: %s = %d (expected %d)" % (key, got, want), file=sys.stderr)
        return EXIT_COUNT_MISMATCH
    return EXIT_OK


def _write_svg(poly: Polygon, path: str, relaxed: bool) -> int:
    from .render import RenderError, render_svg

    try:
        Path(path).write_text(render_svg(poly, relaxed=relaxed))
    except (RenderError, OSError) as exc:
        return _error(exc, EXIT_IO)
    print("wrote %s" % path)
    return EXIT_OK


def cmd_render(args) -> int:
    poly = _read_polygon(args.polygon)
    if isinstance(poly, int):
        return poly
    return _write_svg(poly, args.svg, relaxed=args.relaxed)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panoptigon",
        description="Exact-arithmetic census of lattice polygons whose lattice "
        "points are all visible from a single point.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify one polygon")
    analyze.add_argument("polygon", help="vertices 'x,y x,y ...' or @file")
    fmt = analyze.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--table", action="store_true", help="human-readable table")
    analyze.add_argument("--svg", metavar="PATH", help="also render to SVG")

    census = sub.add_parser("census", help="run an enumeration and write records")
    census.add_argument(
        "kind",
        choices=["raw", "nonhyperelliptic", "full", "maximal-lw3", "maximal-lw4"],
    )
    census.add_argument("--genus", type=int, help="genus for the maximal-* kinds")
    census.add_argument("--out", help="output directory (default $PANOPTIGON_OUT or .)")

    render = sub.add_parser("render", help="draw a polygon as SVG")
    render.add_argument("polygon", help="vertices 'x,y x,y ...' or @file")
    render.add_argument("--svg", required=True, metavar="PATH", help="output file")
    render.add_argument(
        "--relaxed", action="store_true", help="overlay the relaxed polygon"
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code; never raises ``SystemExit``.

    The parser is built on the first call and reused by every later call in
    the process.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    command = {"analyze": cmd_analyze, "census": cmd_census, "render": cmd_render}
    return command[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
