"""Command-line front end: polygon analysis, census runs, SVG figures.

Exit codes: 0 success, 1 census count mismatch, 2 usage or parse error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .census import (
    CensusRecord,
    big_face_obstruction,
    census_summary,
    enumerate_raw,
    full_panoptigon_census,
    maximal_lw3,
    maximal_lw3_count_formula,
    maximal_lw4,
    records_to_ndjson,
    sort_records,
)
from .classify import HyperellipticForm, hyperelliptic_normal_form, is_hyperelliptic, is_panoptigon
from .core import Polygon
from .formats import (
    PolygonParseError,
    hyperelliptic_form_to_json,
    parse_polygon_text,
    polygon_to_json,
    polygon_to_text,
    rational_polygon_to_json,
    resolve_polygon_source,
)
from .relaxation import RationalPolygon, is_maximal, relax
from .render import RenderError, render_svg
from .transform import canonical_form, lattice_diameter, lattice_width

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


@dataclass
class AnalysisReport:
    """Everything the library can say about one input polygon."""

    polygon: Polygon
    genus: Optional[int]
    lattice_width: Optional[int]
    width_directions: tuple
    lattice_diameter: Optional[int]
    diameter_directions: tuple
    hyperelliptic: Optional[bool]
    hyperelliptic_form: Optional[HyperellipticForm]
    panoptigon: Optional[bool]
    panoptigon_points: tuple
    interior_polygon: Optional[Polygon]
    relaxed: Optional[RationalPolygon]
    relaxation_lattice: Optional[bool]
    maximal: Optional[bool]
    canonical: Optional[Polygon]
    big_face_passes: Optional[bool]
    big_face_reason: Optional[str]

    def to_json(self) -> dict:
        return {
            "polygon": polygon_to_json(self.polygon),
            "genus": self.genus,
            "lattice_width": self.lattice_width,
            "width_directions": [str(f) for f in self.width_directions],
            "lattice_diameter": self.lattice_diameter,
            "diameter_directions": [str(f) for f in self.diameter_directions],
            "hyperelliptic": self.hyperelliptic,
            "hyperelliptic_form": None
            if self.hyperelliptic_form is None
            else hyperelliptic_form_to_json(self.hyperelliptic_form),
            "panoptigon": self.panoptigon,
            "panoptigon_points": [list(p) for p in self.panoptigon_points],
            "interior_polygon": None
            if self.interior_polygon is None
            else polygon_to_json(self.interior_polygon),
            "relaxed": None
            if self.relaxed is None
            else rational_polygon_to_json(self.relaxed),
            "relaxation_lattice": self.relaxation_lattice,
            "maximal": self.maximal,
            "canonical": None
            if self.canonical is None
            else polygon_to_json(self.canonical),
            "big_face_passes": self.big_face_passes,
            "big_face_reason": self.big_face_reason,
        }


def analyze_polygon(poly: Polygon) -> AnalysisReport:
    if poly.dimension < 2:
        return AnalysisReport(
            polygon=poly,
            genus=None,
            lattice_width=None,
            width_directions=(),
            lattice_diameter=None,
            diameter_directions=(),
            hyperelliptic=None,
            hyperelliptic_form=None,
            panoptigon=None,
            panoptigon_points=(),
            interior_polygon=None,
            relaxed=None,
            relaxation_lattice=None,
            maximal=None,
            canonical=None,
            big_face_passes=None,
            big_face_reason=None,
        )

    lw, lw_dirs = lattice_width(poly)
    ld, ld_dirs = lattice_diameter(poly)
    hyp = is_hyperelliptic(poly)
    form = None
    if hyp and poly.genus >= 2 and lw == 2:
        try:
            form = hyperelliptic_normal_form(poly)
        except ValueError:
            form = None
    report = is_panoptigon(poly)
    relaxed = relax(poly)
    maximal = is_maximal(poly) if poly.genus >= 1 else None
    verdict = big_face_obstruction(poly) if poly.genus >= 2 else None
    return AnalysisReport(
        polygon=poly,
        genus=poly.genus,
        lattice_width=lw,
        width_directions=tuple(sorted(lw_dirs)),
        lattice_diameter=ld,
        diameter_directions=tuple(sorted(ld_dirs)),
        hyperelliptic=hyp,
        hyperelliptic_form=form,
        panoptigon=report.is_panoptigon,
        panoptigon_points=tuple(sorted(report.panoptigon_points)),
        interior_polygon=poly.interior_polygon(),
        relaxed=relaxed,
        relaxation_lattice=relaxed.is_lattice,
        maximal=maximal,
        canonical=canonical_form(poly),
        big_face_passes=None if verdict is None else verdict.passes,
        big_face_reason=None if verdict is None else verdict.reason,
    )


def _report_table(report: AnalysisReport) -> str:
    def poly_str(p):
        return "-" if p is None else polygon_to_text(p)

    rows = [
        ("polygon", polygon_to_text(report.polygon)),
        ("genus", report.genus),
        ("lattice width", report.lattice_width),
        ("width directions", " ".join(str(f) for f in report.width_directions) or "-"),
        ("lattice diameter", report.lattice_diameter),
        ("diameter directions", " ".join(str(f) for f in report.diameter_directions) or "-"),
        ("hyperelliptic", report.hyperelliptic),
        ("hyperelliptic form", report.hyperelliptic_form or "-"),
        ("panoptigon", report.panoptigon),
        ("panoptigon points", " ".join("%d,%d" % p for p in report.panoptigon_points) or "-"),
        ("interior polygon", poly_str(report.interior_polygon)),
        ("relaxation lattice", report.relaxation_lattice),
        ("maximal", report.maximal),
        ("canonical form", poly_str(report.canonical)),
        ("big-face verdict", report.big_face_reason or "-"),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(
        "%-*s  %s" % (width, name, "-" if value is None else value)
        for name, value in rows
    )


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("PANOPTIGON_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_analyze(args) -> int:
    try:
        text = resolve_polygon_source(args.polygon)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    try:
        poly = parse_polygon_text(text)
    except PolygonParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    report = analyze_polygon(poly)
    if args.table:
        print(_report_table(report))
    else:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    if args.svg:
        return _write_svg(poly, args.svg, relaxed=False)
    return EXIT_OK


def cmd_census(args) -> int:
    kind = args.kind
    out = _out_dir(args)
    summary: dict
    records: list[CensusRecord]

    if kind in ("maximal-lw3", "maximal-lw4"):
        if args.genus is None:
            print("error: %s requires --genus" % kind, file=sys.stderr)
            return EXIT_USAGE
        polys = maximal_lw3(args.genus) if kind == "maximal-lw3" else maximal_lw4(args.genus)
        records = sort_records(CensusRecord.from_polygon(p) for p in polys)
        summary = {"kind": kind, "genus": args.genus, "count": len(records)}
        if kind == "maximal-lw3" and args.genus >= 4:
            formula = maximal_lw3_count_formula(args.genus)
            summary["formula"] = formula
            print(
                "maximal lw3 genus %d: enumerated %d, closed-form %d%s"
                % (
                    args.genus,
                    len(records),
                    formula,
                    "" if formula == len(records) else " (enumeration authoritative)",
                )
            )
        else:
            print("%s genus %d: %d polygons" % (kind, args.genus, len(records)))
    elif kind == "raw":
        raw = enumerate_raw()
        records = sort_records(CensusRecord.from_polygon(p) for p in raw)
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
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    print("wrote %s and %s" % (ndjson_path, summary_path))

    mismatches = {
        key: (summary[key], EXPECTED_COUNTS[key])
        for key in EXPECTED_COUNTS
        if key in summary and summary[key] != EXPECTED_COUNTS[key]
    }
    if mismatches:
        for key, (got, want) in sorted(mismatches.items()):
            print("count mismatch: %s = %d (expected %d)" % (key, got, want), file=sys.stderr)
        return EXIT_COUNT_MISMATCH
    return EXIT_OK


def _write_svg(poly: Polygon, path: str, relaxed: bool) -> int:
    try:
        svg = render_svg(poly, relaxed=relaxed)
    except RenderError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    try:
        Path(path).write_text(svg)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    print("wrote %s" % path)
    return EXIT_OK


def cmd_render(args) -> int:
    try:
        text = resolve_polygon_source(args.polygon)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    try:
        poly = parse_polygon_text(text)
    except PolygonParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    return _write_svg(poly, args.svg, relaxed=args.relaxed)


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
    analyze.set_defaults(func=cmd_analyze)

    census = sub.add_parser("census", help="run an enumeration and write records")
    census.add_argument(
        "kind",
        choices=["raw", "nonhyperelliptic", "full", "maximal-lw3", "maximal-lw4"],
    )
    census.add_argument("--genus", type=int, help="genus for the maximal-* kinds")
    census.add_argument("--out", help="output directory (default $PANOPTIGON_OUT or .)")
    census.set_defaults(func=cmd_census)

    render = sub.add_parser("render", help="draw a polygon as SVG")
    render.add_argument("polygon", help="vertices 'x,y x,y ...' or @file")
    render.add_argument("--svg", required=True, metavar="PATH", help="output file")
    render.add_argument(
        "--relaxed", action="store_true", help="overlay the relaxed polygon"
    )
    render.set_defaults(func=cmd_render)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes.
        return EXIT_USAGE if exc.code not in (0,) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
