"""Run one workload in this (fresh) process and print its figures as JSON.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only``
the process stops right before its first timed unit and reports when it got
there, which is how ``run.py`` measures set-up time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import parkscope  # noqa: E402,F401  (set-up includes the library import)

import tracing  # noqa: E402
import workloads  # noqa: E402
from pacing import Pacer  # noqa: E402

TAIL_CAP = 99.9
PROBE_REPEATS = 5
def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of sorted samples.

    A weighted mean of the order statistics near rank ``p * n``.  Units
    here come in a few dozen kinds of very different cost, so the plain
    order statistic jumps from one kind to the next when noise swaps two
    neighbours; this estimate moves smoothly instead.
    """
    n = len(ordered)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    spread = 12 * math.sqrt(p * (1.0 - p) / n) + 2.0 / n
    lo, hi = max(0, int((p - spread) * n)), min(n, int((p + spread) * n) + 1)
    total, previous = 0.0, _betainc(a, b, lo / n)
    for i in range(lo, hi):
        current = _betainc(a, b, (i + 1) / n)
        total += (current - previous) * ordered[i]
        previous = current
    return total


def latency_summary(latencies: list[float]) -> dict:
    """Median and tail.  The tail is at the highest percentile, at most
    ``TAIL_CAP``, that still has at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n > 10:
        percentile = min(TAIL_CAP, 100.0 * (n - 10) / n)
        tail = quantile(ordered, percentile / 100.0)
    else:
        percentile, tail = 100.0, ordered[-1]
    return {
        "p50_ms": (quantile(ordered, 0.5) if n > 1 else ordered[0]) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_percentile": round(percentile, 2),
        "n": n,
    }


def measure(run_pass, passes: int, tracer=None, pace=None) -> tuple["workloads.Outcome", list[dict]]:
    """Run every pass; record each pass's span, wall time and CPU time
    (children included), and which units it ran."""
    outcome = workloads.Outcome()
    if pace is not None:
        outcome.pace = pace
    records = []
    for index in range(passes):
        first = len(outcome.latencies)
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        run_pass(index, outcome, tracer)
        end = time.perf_counter()
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (self1.ru_utime - self0.ru_utime) + (self1.ru_stime - self0.ru_stime)
        cpu += (kids1.ru_utime - kids0.ru_utime) + (kids1.ru_stime - kids0.ru_stime)
        records.append({"start": start, "end": end, "cpu": cpu,
                        "units": slice(first, len(outcome.latencies))})
    return outcome, records


def end_to_end(workload) -> tuple[dict, "workloads.Outcome"]:
    """End-to-end figures, each scaled to the reference speed and taken as a
    median, so that the drift of a shared machine moves them less.

    Rates and CPU time are medians over the run's passes.  Units and passes
    lose the reference samples that fell inside them.  A unit that a run
    repeats counts once, with the median of its repeats.
    """
    with Pacer(threaded=workload.in_process) as pacer:
        outcome, records = measure(workload.run_pass, workload.passes, pace=pacer.sample)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = 0 if workload.in_process else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    inside = pacer.overlaps(outcome.starts, outcome.latencies)
    scaled = [
        (latency - covered) / pacer.slowdown(start + latency / 2)
        for start, latency, covered in zip(outcome.starts, outcome.latencies, inside)
    ]
    rates, cpus, slowdowns = [], [], []
    for r in records:
        sample_wall, sample_cpu, slowdown = pacer.between(r["start"], r["end"])
        wall = r["end"] - r["start"] - sample_wall
        rates.append((r["units"].stop - r["units"].start) * slowdown / wall)
        cpus.append((r["cpu"] - sample_cpu) / slowdown)
        slowdowns.append(slowdown)
    repeats: dict[object, list[float]] = {}
    for key, value in zip(outcome.keys, scaled):
        repeats.setdefault(key, []).append(value)
    samples = [statistics.median(values) for values in repeats.values()]
    tail = latency_summary(samples)
    metrics = {
        "units_per_s": (statistics.median(rates), "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "latency_p50_ms": (tail["p50_ms"], "ms"),
        "latency_tail_ms": (tail["tail_ms"], "ms"),
        "peak_rss_mib": ((self_rss + kids) / 1024.0, "MiB"),
    }
    walls = [r["end"] - r["start"] for r in records]
    detail = {
        "passes": len(records),
        "pass_wall_s": [round(w, 4) for w in walls],
        "pass_slowdown": [round(x, 4) for x in slowdowns],
        "reference_samples": len(pacer.samples),
        "unscaled_units_per_s": statistics.median(
            (r["units"].stop - r["units"].start) / w for r, w in zip(records, walls)
        ),
        "units_per_pass": records[0]["units"].stop - records[0]["units"].start,
        "latency_n": tail["n"],
        "tail_percentile": tail["tail_percentile"],
    }
    return {"metrics": metrics, "detail": detail}, outcome


def probe_ms(code: str) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def traced_run(name: str, workload, trace_file: str) -> tuple[dict, list]:
    """An untraced and a traced run of the same work; per-layer figures."""
    run_pass = workload.replay_pass if name == "cli" else workload.run_pass
    if name == "cli":
        workload.start_replay("untraced")
    plain, records = measure(run_pass, workload.passes)
    untraced_wall = sum(r["end"] - r["start"] for r in records)
    tracer = tracing.Tracer()
    if name == "cli":
        workload.start_replay("traced")
    tracer.install()
    try:
        traced, records = measure(run_pass, workload.passes, tracer)
    finally:
        tracer.uninstall()
    traced_wall = sum(r["end"] - r["start"] for r in records)
    extra = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    if name == "cli":
        start_ms = probe_ms("pass")
        extra["interpreter_start_ms"] = start_ms
        extra["import_ms"] = probe_ms("import parkscope.cli") - start_ms
        if os.path.exists(workload.cache_file):
            extra["cache_file_bytes"] = os.path.getsize(workload.cache_file)
    metrics = tracing.per_layer_metrics(tracer, traced.attempted, traced.cli_calls, extra)
    spans = tracer.write_spans(trace_file)
    detail = {"spans": spans, "trace_file": os.path.relpath(trace_file, ROOT)}
    if name == "cli":
        detail["note"] = (
            "cli traced and untraced runs both replay the argv list in-process; "
            "the overhead is not comparable with the subprocess end-to-end run"
        )
    return {"metrics": metrics, "detail": detail}, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb-pins", action="store_true",
                        help="corrupt every pinned value, to prove the gates fire")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # long enough that a reference sample runs whole once it has the lock
    sys.setswitchinterval(0.05)

    kind = workloads.WORKLOADS[args.workload]
    # whole passes over the workload's fixed work, about --seconds in all
    passes = 1 if args.smoke else max(1, round(args.seconds / kind.nominal_pass_s))
    workload = kind(args.seed, passes, args.smoke, workloads.load_pins())
    workload.setup(args.workdir)
    if args.perturb_pins:
        workload.pins = {k: [v[0] + 1, *v[1:]] for k, v in workload.pins.items()}
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if args.trace:
        report, outcomes = traced_run(args.workload, workload, args.trace_file)
    else:
        report, outcome = end_to_end(workload)
        outcomes = [outcome]
    report["ready"] = ready
    report["attempted"] = sum(o.attempted for o in outcomes)
    report["failed"] = sum(o.failed for o in outcomes)
    report["problems"] = [p for o in outcomes for p in o.problems][: workloads.MAX_PROBLEMS]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
