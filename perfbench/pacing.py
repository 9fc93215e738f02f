"""Scaling measured times to a reference speed.

The machine this benchmark was set up on is shared, and how fast it runs
Python drifts by a tenth or more over tens of seconds.  ``reference_loop``
is fixed work whose time tracks that speed; dividing a measured time by the
slowdown seen around it makes runs at different moments comparable.
"""

from __future__ import annotations

import statistics
import threading
import time
from bisect import bisect_left

PACE_INTERVAL_S = 0.05
SMOOTH_SAMPLES = 9
# About the time of one reference_loop() on the machine the baseline was
# taken on; end-to-end times are scaled to that speed.
REFERENCE_S = 0.001


def reference_loop() -> int:
    """Fixed pure-Python work in the library's style (small tuples, a dict
    union-find, sorting).  It never changes, so its time tracks how fast the
    machine runs Python at that moment."""
    acc = 0
    base = tuple(range(8))
    for k in range(150):
        perm = tuple(base[(i * 3 + k) % 8] for i in range(8))
        parent = {i: i for i in range(8)}
        for i in range(8):
            a, b = i, perm[i]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[max(a, b)] = min(a, b)
        acc += len(sorted(set(parent.values())))
    return acc


def slowdown_now(samples: int = 3) -> float:
    """Slowdown against the reference speed now: the median of a few samples."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_S


class Pacer:
    """Times ``reference_loop`` while a workload runs.

    For units that run in this process, a second thread takes a sample
    every ``PACE_INTERVAL_S``, taking its turn through the interpreter lock,
    so samples land inside long library calls too.  Units that run in child
    processes instead call ``sample`` between units: a sample taken while a
    child runs would share the machine with it.
    """

    def __init__(self, threaded: bool) -> None:
        self.samples: list[tuple[float, float, float]] = []  # start, end, thread CPU
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True) if threaded else None

    def __enter__(self) -> "Pacer":
        self.sample()
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
        self.sample()
        self._mids = [(a + b) / 2 for a, b, _ in self.samples]
        durations = [b - a for a, b, _ in self.samples]
        half = SMOOTH_SAMPLES // 2
        self._smoothed = [
            statistics.median(durations[max(0, j - half) : j + half + 1]) / REFERENCE_S
            for j in range(len(durations))
        ]

    def _run(self) -> None:
        while not self._stop.wait(PACE_INTERVAL_S):
            self.sample()

    def sample(self) -> None:
        cpu = time.thread_time()
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.samples.append((start, end, time.thread_time() - cpu))

    def slowdown(self, t: float) -> float:
        """Smoothed slowdown against the reference speed at time ``t``."""
        j = min(bisect_left(self._mids, t), len(self._mids) - 1)
        if j > 0 and t - self._mids[j - 1] < self._mids[j] - t:
            j -= 1
        return self._smoothed[j]

    def between(self, t0: float, t1: float) -> tuple[float, float, float]:
        """Wall time and CPU time of the samples inside ``[t0, t1]``, and the
        mean slowdown over that stretch."""
        inside = [(a, b, c) for a, b, c in self.samples if t0 <= a and b <= t1]
        if not inside:
            return 0.0, 0.0, self.slowdown((t0 + t1) / 2)
        wall = sum(b - a for a, b, _ in inside)
        return wall, sum(c for _, _, c in inside), wall / len(inside) / REFERENCE_S

    def overlaps(self, starts: list[float], latencies: list[float]) -> list[float]:
        """For each unit, the sample time that fell inside it."""
        out = []
        j = 0
        for start, latency in zip(starts, latencies):
            end = start + latency
            while j < len(self.samples) and self.samples[j][1] <= start:
                j += 1
            covered = 0.0
            k = j
            while k < len(self.samples) and self.samples[k][0] < end:
                a, b, _ = self.samples[k]
                covered += max(0.0, min(b, end) - max(a, start))
                k += 1
            out.append(covered)
        return out
