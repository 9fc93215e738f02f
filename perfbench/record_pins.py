"""Record ``pins.json``: the outputs every benchmark run is checked against.

Run once, at the commit whose outputs are taken as correct, from the root
of a checkout::

    python3 perfbench/record_pins.py

It runs the whole acceptance-2 sweep (every cell with d <= 4, t + s <= 5),
the dedup cells, and every call of the cli pool in a fresh interpreter,
which takes a few minutes.  A change that claims a speed-up must not
re-record the pins.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import parkscope as ps  # noqa: E402

import workloads  # noqa: E402


def sweep_pins() -> dict:
    pins = {}
    for d, t, s in workloads.ALL_CELLS:
        classes = ps.enumerate_monodromies(d, t, s).classes
        matched = rejected = 0
        for cls in classes:
            try:
                ps.monodromy_to_park(cls.representative)
                matched += 1
            except ps.NonRealizableError:
                rejected += 1
        pins[workloads.cell_key((d, t, s))] = [len(classes), matched, rejected]
    for d, expected in workloads.ACCEPTANCE_2.items():
        rows = [v for k, v in pins.items() if k.startswith(f"{d},")]
        got = (sum(r[1] for r in rows), sum(r[2] for r in rows))
        if got != expected:
            raise SystemExit(f"sweep d={d}: {got} != acceptance-2 pin {expected}")
    return pins


def dedup_pins() -> dict:
    pins = {}
    for cell in sorted(set(workloads.DEDUP_CELLS)):
        result = ps.enumerate_monodromies(*cell, dedup="park")
        sizes = sorted(c.size for c in result.classes)
        pins[workloads.cell_key(cell)] = [result.raw_count, result.class_count, sizes]
    return pins


def cli_pins() -> dict:
    work = tempfile.mkdtemp(prefix="pins-", dir=HERE)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PARKSCOPE_CACHE=os.path.join(work, "cache"))
    pins = {}
    try:
        for call in workloads.pool_calls(workloads.build_pool(work)):
            proc = subprocess.run(
                [sys.executable, "-m", "parkscope.cli", *call.argv],
                cwd=work, env=env, capture_output=True, timeout=120,
            )
            if b"Traceback" in proc.stderr or (call.malformed and proc.returncode != 2):
                raise SystemExit(f"{call.case}: exit {proc.returncode}\n{proc.stderr.decode()}")
            written = None
            if call.writes is not None:
                with open(os.path.join(work, call.writes), "rb") as fh:
                    written = workloads.sha256(fh.read())
            pins[call.case] = [proc.returncode, workloads.sha256(proc.stdout), written]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return pins


def main() -> int:
    pins = {"cli": cli_pins(), "dedup": dedup_pins(), "sweep": sweep_pins()}
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.PINS_PATH.relative_to(ROOT)}: "
          + ", ".join(f"{len(v)} {k} pins" for k, v in pins.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
