"""Regenerate census_forms.txt, the majority group of the `analyze` corpus.

    python3 perfbench/make_census_forms.py

Runs `panoptigon census full` from ./src into .bench_out/ and writes the 71
canonical forms of lattice width >= 3, one polygon per line as `x,y x,y ...`.
The file is an input only: the benchmark never compares outputs with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from panoptigon import cli

    out = ROOT / ".bench_out" / "census-forms"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["census", "full", "--out", str(out)])
    if rc != 0:
        print("census full exited %d" % rc, file=sys.stderr)
        return 1
    lines = [
        " ".join("%d,%d" % tuple(v) for v in json.loads(line)["canonical"])
        for line in (out / "census_full.ndjson").read_text().splitlines()
    ]
    (HERE / "census_forms.txt").write_text("\n".join(lines) + "\n")
    print("wrote %d polygons to %s" % (len(lines), HERE / "census_forms.txt"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
