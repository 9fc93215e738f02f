"""parkscope benchmark: one command for every workload and metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload cli --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --repeat 10 --workload dedup --seed 1
    python3 perfbench/run.py --smoke

A run prints one line per metric, with its unit, then a detail line with
the machine record, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.  It exits 1 when
any output differs from its pin, and 2 when the checkout holds no
``src/parkscope`` to measure.

``--repeat N`` runs the benchmark N times with seeds seed..seed+N-1 and
prints each metric's median, quartiles and spread (quartile distance over
median) against its bound in BENCHMARK.json.  ``--smoke`` runs every
workload at a tiny size, checks the metric names and that the correctness
gates pass, and fire when the pins are corrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pacing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / ".work"
WORKER = HERE / "worker.py"
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def machine_record(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "commit": commit,
        "seed": seed,
    }


def worker_env(workdir: str) -> dict:
    """Isolation: a fresh Hurwitz cache per process, never ~/.cache/parkscope."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PARKSCOPE_CACHE"] = os.path.join(workdir, "cache")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workdir: str, args: list[str]) -> tuple[float, dict]:
    """Run ``worker.py`` in a fresh process; return its set-up time and report."""
    os.makedirs(workdir)
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workdir", workdir, *args],
        cwd=ROOT, env=worker_env(workdir), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["ready"] - launched, report


def run_once(workload: str, seed: int, seconds: int, trace: int, smoke=False, perturb=False) -> dict:
    """One benchmark run: set-up probes, then the measured run."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--trace-file", str(WORK_ROOT / f"trace-{workload}.tsv")]
    if smoke:
        args.append("--smoke")
    if perturb:
        args.append("--perturb-pins")
    probes = 0 if trace else 1 if smoke else SETUP_PROBES

    def probe(i: int) -> float:
        """Set-up time of one fresh worker, scaled to the reference speed
        measured right before and after it."""
        before = pacing.slowdown_now()
        seconds = spawn(os.path.join(work, f"setup-{i}"), args + ["--setup-only"])[0]
        return seconds * 2 / (before + pacing.slowdown_now())

    try:
        # half the set-up probes before the measured run and half after it,
        # so that their median does not rest on one stretch of time
        setups = [probe(i) for i in range(probes // 2)]
        report = spawn(os.path.join(work, "run"), args)[1]
        setups += [probe(i) for i in range(probes // 2, probes)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = report["metrics"]
    if not trace:
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
    report["detail"]["setup_samples"] = len(setups)
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": report["detail"],
        "problems": report["problems"],
    }


def print_report(result: dict, header: dict) -> None:
    print(f"# parkscope benchmark: {json.dumps(header, sort_keys=True)}")
    detail = result["detail"]
    for name, metric in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {detail['setup_samples']} set-ups)"
        elif name.startswith("latency_"):
            pct = 50 if name == "latency_p50_ms" else detail["tail_percentile"]
            note = f"  (p{pct}, n={detail['latency_n']})"
        print(f"{name:48s} {metric['value']:>16.6f} {metric['unit']}{note}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{'failed_ratio':48s} {ratio:>16.6f} ratio  ({result['failed']}/{result['attempted']})")
    for problem in result["problems"]:
        print(f"# FAILED: {problem}")
    print(f"# detail: {json.dumps(detail, sort_keys=True)}")


def repeat(workload: str, seed: int, seconds: int, trace: int, count: int) -> int:
    """Steadiness: run ``count`` times with fresh seeds; report quartiles."""
    bounds = {m["name"]: m.get("bound") for m in load_spec()["end_to_end"]}
    values: dict[str, list[float]] = {}
    ok = True
    for i in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed + i), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and proc.returncode == 0 and final["correct"]
        for name, metric in final["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"# run {i + 1}/{count} seed={seed + i} correct={final['correct']}", flush=True)
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above a third of its bound"
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")
        print(f"#   values: {' '.join(f'{v:.6g}' for v in vals)}")
    return 0 if ok else 1


def smoke() -> int:
    """Tiny runs of every workload: metric names, units and gates."""
    spec = load_spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run_once(workload, 1, 1, trace, smoke=True)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace={trace}: metric names or units differ from BENCHMARK.json")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: gates failed: {result['problems']}")
        result = run_once(workload, 1, 1, 0, smoke=True, perturb=True)
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{workload}: corrupted pins did not fail every unit")
        print(f"# smoke {workload}: {'ok' if not problems else 'FAILED'}", flush=True)
    for problem in problems:
        print(f"# FAILED: {problem}")
    print("smoke: " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=("sweep", "dedup", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "parkscope" / "__init__.py").is_file():
        print(f"error: no src/parkscope under {ROOT}; run from a parkscope checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.repeat:
        return repeat(args.workload, args.seed, args.seconds, args.trace, args.repeat)

    try:
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              **machine_record(args.seed)}
    print_report(result, header)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
