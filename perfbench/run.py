"""Benchmark of the panoptigon program: end-to-end figures or a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload census-full|enumerate|analyze \
        --seed N --seconds S --trace 0|1

The program is imported from ./src.  One process runs one workload,
single-threaded.  Before every pass the program is imported afresh, so each
pass pays what a new `panoptigon` process pays (no module-level cache
survives from one pass to the next); set-up is that import plus building the
seeded inputs.  Passes repeat until S seconds of operations have run, and
the run always ends on a whole pass.  Every reported time is rescaled for
the machine's speed at the moment it was measured (see calibrate.py).
Outputs are checked after the timed passes.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; a summary of the raw pass times goes to standard error.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
program's layers are wrapped from outside and the metrics are per-layer
figures per pass (median over passes).  The spans are written to
.bench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "panoptigon"
MODULES = ("core", "transform", "relaxation", "classify", "census", "formats", "cli")

# Set-up is repeated this many times before the first pass; setup_s is the
# median of these and of the re-imports before later passes.
SETUPS = 7

sys.path.insert(0, str(HERE))
from calibrate import Calibrator  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("census-full", "enumerate", "analyze")

PER_LAYER = (
    # (metric, layer, field, unit)
    ("core.convex_hull.calls", "core.convex_hull", "calls", "count"),
    ("core.convex_hull.self_s", "core.convex_hull", "self_s", "s"),
    ("core.lattice_point_set.scans", "core.lattice_point_set", "calls", "count"),
    ("core.lattice_point_set.points", "core.lattice_point_set", "work", "count"),
    ("core.lattice_point_set.self_s", "core.lattice_point_set", "self_s", "s"),
    ("census.enumerate_raw.calls", "census.enumerate_raw", "calls", "count"),
    ("census.enumerate_raw.self_s", "census.enumerate_raw", "self_s", "s"),
    ("census.enumerate_raw.hulls_per_polygon", "census.enumerate_raw", "hulls/work", "hull/polygon"),
    ("census.genus1_classes.self_s", "census.genus1_classes", "self_s", "s"),
    ("census.genus1_classes.hulls", "census.genus1_classes", "hulls", "count"),
    ("census.sporadic_ld2.self_s", "census.sporadic_ld2", "self_s", "s"),
    ("census.sporadic_ld2.hulls", "census.sporadic_ld2", "hulls", "count"),
    ("census.maximal_lw3.self_s", "census.maximal_lw3", "self_s", "s"),
    ("census.maximal_lw4.self_s", "census.maximal_lw4", "self_s", "s"),
    ("census.CensusRecord.from_polygon.calls", "census.CensusRecord.from_polygon", "calls", "count"),
    ("census.CensusRecord.from_polygon.self_s", "census.CensusRecord.from_polygon", "self_s", "s"),
    ("census.records_to_ndjson.self_s", "census.records_to_ndjson", "self_s", "s"),
    ("transform.lattice_width.calls", "transform.lattice_width", "calls", "count"),
    ("transform.lattice_width.self_s", "transform.lattice_width", "self_s", "s"),
    ("transform.canonical_form.calls", "transform.canonical_form", "calls", "count"),
    ("transform.canonical_form.self_s", "transform.canonical_form", "self_s", "s"),
    ("classify.hyperelliptic_normal_form.calls", "classify.hyperelliptic_normal_form", "calls", "count"),
    ("classify.hyperelliptic_normal_form.self_s", "classify.hyperelliptic_normal_form", "self_s", "s"),
    ("transform.lattice_diameter.calls", "transform.lattice_diameter", "calls", "count"),
    ("transform.lattice_diameter.pairs", "transform.lattice_diameter", "work", "count"),
    ("transform.lattice_diameter.self_s", "transform.lattice_diameter", "self_s", "s"),
    ("classify.is_panoptigon.calls", "classify.is_panoptigon", "calls", "count"),
    ("classify.is_panoptigon.pairs", "classify.is_panoptigon", "work", "count"),
    ("classify.is_panoptigon.self_s", "classify.is_panoptigon", "self_s", "s"),
    ("relaxation.is_maximal.calls", "relaxation.is_maximal", "calls", "count"),
    ("relaxation.is_maximal.self_s", "relaxation.is_maximal", "self_s", "s"),
    ("relaxation.relax.calls", "relaxation.relax", "calls", "count"),
    ("relaxation.relax.self_s", "relaxation.relax", "self_s", "s"),
    ("cli.analyze_polygon.calls", "cli.analyze_polygon", "calls", "count"),
    ("cli.analyze_polygon.self_s", "cli.analyze_polygon", "self_s", "s"),
    ("formats.parse_polygon_text.self_s", "formats.parse_polygon_text", "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
)


def load_program() -> dict:
    """Import the program afresh: drop every loaded module of the package first."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    mods = {}
    for short in MODULES:
        try:
            mods[short] = importlib.import_module("%s.%s" % (PACKAGE, short))
        except ImportError:
            if short == "cli":
                raise
    return mods


def build_ops(workload: str, seed: int, mods: dict) -> list:
    if workload == "census-full":
        return workloads.census_full_ops()
    if workload == "enumerate":
        return workloads.enumerate_ops(mods.get("census"))
    return workloads.analyze_ops(seed)


def setup(workload: str, seed: int, clock):
    t0 = clock()
    mods = load_program()
    ops = build_ops(workload, seed, mods)
    return (t0, clock()), mods, ops


def commands(op, out_dir: Path) -> list[list[str]]:
    """The argv of each CLI command of an operation; census commands get an output directory each."""
    if op.steps is None:
        return [op.argv]
    return [list(argv) + ["--out", str(out_dir / ("step%d" % n))] for n, argv in enumerate(op.steps)]


def run_op(op, mods: dict, out_dir: Path, clock):
    """Run one operation; returns ((start, end), failed, output).  Only the calls are timed."""
    argvs = None if op.call is not None else commands(op, out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            result, rc = None, 0
            if op.call is not None:
                result = op.call()
            else:
                for argv in argvs:
                    rc = mods["cli"].main(argv)
                    if rc != 0:
                        break
            t1 = clock()
    except Exception:
        t1 = clock()
        print("operation %s raised:\n%s" % (op.key, traceback.format_exc()), file=sys.stderr)
        return (t0, t1), True, None
    if rc != 0:
        print("operation %s exited %d: %s" % (op.key, rc, stderr.getvalue().strip()), file=sys.stderr)
        return (t0, t1), True, None
    return (t0, t1), False, (result, stdout.getvalue())


def collect(workload: str, op, output, out_dir: Path):
    """Turn an operation's output into plain data (after the timed pass)."""
    result, stdout = output
    if op.call is not None:
        return [list(r.canonical.vertices) for r in result]
    if op.steps is None:
        return stdout
    step_dirs = [out_dir / ("step%d" % n) for n in range(len(op.steps))]
    return [{p.name: p.read_text() for p in sorted(d.iterdir())} for d in step_dirs]


def genus1_snapshot(mods: dict):
    """Copy of the cached genus-1 classes; the cached list is never mutated."""
    census = mods.get("census")
    fn = getattr(census, "genus1_classes", None)
    if fn is None:
        return None
    return [[tuple(v) for v in p.vertices] for p in fn()]


def check_outputs(workload: str, first: dict, mods: dict) -> list[str]:
    """Check the first pass's outputs; later passes must equal them."""
    errors: list[str] = []
    references: dict = {}
    for key, value in first.items():
        if key == "genus1":
            if value is not None:
                errors += workloads.check_genus1(value)
            continue
        op, data = value
        if workload == "census-full":
            summary = json.loads(data[0]["census_full_summary.json"])
            errors += workloads.check_census_full(summary, data[0]["census_full.ndjson"])
        elif key == "sporadic":
            errors += workloads.check_sporadic([[tuple(v) for v in p] for p in data])
        elif workload == "enumerate":
            kind = op.info["kind"]
            for genus, step in zip(op.info["genera"], data):
                polys = workloads.records_vertices(step["census_maximal-%s.ndjson" % kind])
                errors += workloads.check_maximal(kind, genus, polys)
        else:
            item = op.info["item"]
            reference = None
            if item["group"] != "T_d":
                original = item["original"]
                if original not in references:
                    _, _, ref = run_op(workloads.Op("reference", ["analyze", original]), mods, OUT, perf_counter)
                    references[original] = None if ref is None else json.loads(ref[1])
                reference = references[original]
                if reference is None:
                    errors.append("analyze of the original %s failed" % original)
            errors += workloads.check_analyze(item, json.loads(data), reference)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print("error: no program source at %s" % (SRC / PACKAGE), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    cal = Calibrator()
    cal.sample()
    setup_times = []

    def timed_setup():
        window, mods, ops = setup(args.workload, args.seed, cal.now)
        cal.sample()
        setup_times.append((window[1] - window[0]) * cal.factor(*window))
        return mods, ops

    for _ in range(SETUPS):
        mods, ops = timed_setup()

    tracer = tracing.Tracer(cal.now) if args.trace else None
    spans: list[tuple[int, int]] = []
    layers_per_pass: list[dict] = []
    walls: list[float] = []
    raw_walls: list[float] = []
    latencies: list[float] = []
    attempted = failed = 0
    first: dict = {}
    mismatches: list[str] = []
    measured = 0.0
    k = 0
    try:
        while True:
            if k:
                mods, ops = timed_setup()
            if tracer is not None:
                tracer.install(PACKAGE, mods)
                lo = tracer.mark()
            pass_dir = run_dir / ("pass%d" % k)
            gc.collect()
            with cal.sampling():
                results = [run_op(op, mods, pass_dir / ("op%d" % n), cal.now) for n, op in enumerate(ops)]
            cal.sample()
            raw = [b - a for (a, b), _, _ in results]
            scaled = [(b - a) * cal.factor(a, b) for (a, b), _, _ in results]
            if tracer is not None:
                tracer.uninstall()
                spans.append((lo, tracer.mark()))
                layers_per_pass.append(tracer.aggregate(lo, tracer.mark(), sum(scaled) / sum(raw)))
            measured += sum(raw)
            raw_walls.append(sum(raw))
            walls.append(sum(scaled))
            for n, (op, (_, op_failed, output)) in enumerate(zip(ops, results)):
                attempted += 1
                if op_failed:
                    failed += 1
                    continue
                latencies.append(scaled[n])
                data = collect(args.workload, op, output, pass_dir / ("op%d" % n))
                if op.key not in first:
                    first[op.key] = (op, data)
                elif first[op.key][1] != data:
                    mismatches.append("pass %d: output of %s differs from pass 0" % (k, op.key))
            if args.workload == "enumerate":
                snapshot = genus1_snapshot(mods)
                if "genus1" not in first:
                    first["genus1"] = snapshot
                elif first["genus1"] != snapshot:
                    mismatches.append("pass %d: genus-1 classes differ from pass 0" % k)
            shutil.rmtree(pass_dir, ignore_errors=True)
            k += 1
            if measured >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = mismatches + check_outputs(args.workload, first, mods)
    finally:
        if tracer is not None:
            tracer.uninstall()

    print(
        "passes: %d; measured pass seconds %s; rescaled %s; calibration median %.4f s"
        % (
            len(raw_walls),
            " ".join("%.3f" % w for w in raw_walls),
            " ".join("%.3f" % w for w in walls),
            statistics.median(cal.values),
        ),
        file=sys.stderr,
    )
    for line in errors[:50]:
        print("check failed: %s" % line, file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_p50_ms": (statistics.median(latencies) * 1000.0 if latencies else 0.0, "ms"),
        }
    else:
        layers = tracing.median_layers(layers_per_pass)
        metrics = {"traced_wall_s": (statistics.median(walls), "s")}
        for metric, layer, field, unit in PER_LAYER:
            row = layers.get(layer)
            if row is None:
                value = 0
            elif field == "hulls/work":
                value = row["hulls"] / row["work"] if row["work"] else 0
            else:
                value = row[field]
            metrics[metric] = (value, unit)
        stem = run_dir.name
        tracer.write(OUT / (stem + ".spans.tsv.gz"), spans)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "passes": len(walls),
            "pass_wall_s": walls,
            "absent": sorted(tracer.absent),
            "layers_median_per_pass": layers,
        }
        (OUT / (stem + ".layers.json")).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
