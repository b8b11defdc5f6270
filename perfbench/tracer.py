"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces module attributes of the freshly imported program with
wrappers; every module that imported the same function object gets the
wrapper, so calls between modules are seen too.  `Polygon.lattice_point_set`
is wrapped as a property and records a span only when it actually scans
(the polygon's cached set is still empty).  Spans are kept in flat arrays
with parent links and written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import statistics
import sys
from array import array
from math import comb
from time import perf_counter

# (module, attribute path, work counter).  The work counter maps the call's
# arguments and result to an exact count of the work done in the span.
LAYERS = (
    ("core", "convex_hull", None),
    ("census", "enumerate_raw", lambda args, result: len(result)),
    ("census", "genus1_classes", None),
    ("census", "sporadic_ld2", None),
    ("census", "maximal_lw3", None),
    ("census", "maximal_lw4", None),
    ("census", "nonhyperelliptic_census", None),
    ("census", "full_panoptigon_census", None),
    ("census", "CensusRecord.from_polygon", None),
    ("census", "records_to_ndjson", None),
    ("transform", "lattice_width", None),
    ("transform", "canonical_form", None),
    ("transform", "lattice_diameter", "pairs"),
    ("classify", "is_panoptigon", "pairs"),
    ("classify", "is_hyperelliptic", None),
    ("classify", "hyperelliptic_normal_form", None),
    ("relaxation", "relax", None),
    ("relaxation", "relaxed_lattice", None),
    ("relaxation", "is_maximal", None),
    ("formats", "parse_polygon_text", None),
    ("cli", "main", None),
    ("cli", "analyze_polygon", None),
)
SCAN = "core.lattice_point_set"
HULL = "core.convex_hull"


class Tracer:
    """Records spans (name, parent, start, end, work) for wrapped calls."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.stack = [-1]
        self.absent: set[str] = set()
        self._undo: list = []

    def _nid(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.work.append(0)
        self.end.append(0.0)
        self.start.append(self.clock())
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self.stack.pop()

    def _wrap(self, fn, name: str, work):
        nid, tracer = self._nid(name), self

        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    tracer.work[sid] = work(args, result)
                return result
            finally:
                tracer._close(sid)

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str, modules: dict) -> None:
        """Wrap every layer in the freshly imported modules of `package`."""
        scan_points = self._wrap_lattice_point_set(modules.get("core"))
        pairs = lambda args, result: comb(len(scan_points(args[0])), 2)
        loaded = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for mod_name, path, work in LAYERS:
            name = "%s.%s" % (mod_name, path)
            owner = modules.get(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.absent.add(name)
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, None))
                self._set(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(raw, name, pairs if work == "pairs" else work)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, raw, wrapped)

    def _wrap_lattice_point_set(self, core):
        """Wrap the property; returns a reader of the points that records nothing."""
        polygon = getattr(core, "Polygon", None)
        prop = vars(polygon).get("lattice_point_set") if polygon is not None else None
        if not isinstance(prop, property):
            self.absent.add(SCAN)
            return lambda poly: poly.lattice_point_set
        fget, nid, tracer = prop.fget, self._nid(SCAN), self

        def traced(poly):
            if getattr(poly, "_lattice", None) is not None:
                return fget(poly)
            sid = tracer._open(nid)
            try:
                points = fget(poly)
                tracer.work[sid] = len(points)
                return points
            finally:
                tracer._close(sid)

        self._set(polygon, "lattice_point_set", prop, property(traced, doc=prop.__doc__))
        return fget

    def _set(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def mark(self) -> int:
        return len(self.start)

    def aggregate(self, lo: int, hi: int, scale: float = 1.0) -> dict:
        """Per layer: calls, self seconds (times `scale`), work and hull builds under its spans."""
        n = hi - lo
        child = [0.0] * n
        hulls = [0] * n
        hull_id = self.name_id.get(HULL, -1)
        for i in range(n - 1, -1, -1):
            sid = lo + i
            if self.name[sid] == hull_id:
                hulls[i] += 1
            p = self.parent[sid]
            if p >= lo:
                child[p - lo] += self.end[sid] - self.start[sid]
                hulls[p - lo] += hulls[i]
        out: dict = {}
        for i in range(n):
            sid = lo + i
            row = out.setdefault(
                self.names[self.name[sid]], {"calls": 0, "self_s": 0.0, "work": 0, "hulls": 0}
            )
            row["calls"] += 1
            row["self_s"] += (self.end[sid] - self.start[sid] - child[i]) * scale
            row["work"] += self.work[sid]
            row["hulls"] += hulls[i]
        return out

    def write(self, path, passes: list[tuple[int, int]]) -> None:
        """All spans as gzipped TSV: pass, id, parent, name, start, end, work."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("pass\tid\tparent\tname\tstart_s\tend_s\twork\n")
            for k, (lo, hi) in enumerate(passes):
                for sid in range(lo, hi):
                    fh.write(
                        "%d\t%d\t%d\t%s\t%.9f\t%.9f\t%d\n"
                        % (
                            k,
                            sid,
                            self.parent[sid],
                            self.names[self.name[sid]],
                            self.start[sid],
                            self.end[sid],
                            self.work[sid],
                        )
                    )


def median_layers(per_pass: list[dict]) -> dict:
    """Median over passes of each layer's figures; layers absent in a pass count 0.

    Counts take the lower median, so a count that repeats in every pass is
    reported exactly.
    """
    names = sorted({name for layers in per_pass for name in layers})
    out = {}
    for name in names:
        rows = [layers.get(name, {"calls": 0, "self_s": 0.0, "work": 0, "hulls": 0}) for layers in per_pass]
        out[name] = {
            key: (statistics.median if key == "self_s" else statistics.median_low)(r[key] for r in rows)
            for key in rows[0]
        }
    return out
