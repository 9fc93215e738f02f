"""The benchmark's three workloads: ``sweep``, ``dedup`` and ``cli``.

Each workload runs in one process, on one thread, as a closed loop with one
client: the next unit starts only when the previous one has finished.  A run
is a whole number of passes over a fixed list of work, so every run of a
workload does the same amount of work whatever its seed; the seed only sets
the order (and, for ``cli``, which pool cases each batch draws).  Every
output is checked against ``pins.json``, recorded at the seed commit.

Library calls go through ``parkscope`` module attributes at call time, so a
traced run sees them through the wrappers of ``tracing.Tracer``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import parkscope as ps

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
MAX_PROBLEMS = 20

# Per-degree (matched, rejected) totals of the acceptance-2 sweep, as pinned
# in tests/test_acceptance.py; the per-cell pins must add up to them.
ACCEPTANCE_2 = {1: (1, 0), 2: (11, 6), 3: (972, 612), 4: (21024, 67500)}
ALL_CELLS = [(d, t, s) for d in (1, 2, 3, 4) for t in range(6) for s in range(6 - t)]

# One sweep pass: every d <= 3 cell, and d = 4 cells of all three kinds:
# realize-only (4,3,0) (4,4,0); reject-only (4,0,3) (4,0,4) (4,1,2) (4,2,0)
# (4,2,1) (4,3,1); mixed (4,2,2).  A run repeats the pass four or five
# times, so that its medians ride out the slow spells of a shared machine;
# the bigger cells (4,0,5) (4,1,3) (4,1,4) (4,2,3) (4,3,2) (4,4,1) (4,5,0)
# would not fit that often in a run.  (4,1,4) is the core of ``dedup``.
SWEEP_CELLS = [c for c in ALL_CELLS if c[0] <= 3] + [
    (4, 0, 3), (4, 0, 4), (4, 1, 2), (4, 2, 0), (4, 2, 1),
    (4, 2, 2), (4, 3, 0), (4, 3, 1), (4, 4, 0),
]
SWEEP_SMOKE = [(2, 1, 1), (3, 2, 0), (3, 2, 1), (3, 1, 2)]

# One dedup pass: every d = 3 cell and the d = 4 cells that dedup in under
# a second, all with at least one representation, and (4,1,4): 641 classes,
# the only cell that loads the pairwise ``park_isomorphic`` merging.  Cells
# without representations are left out: they exercise only the enumeration
# that ``sweep`` measures.
DEDUP_CELLS = [
    (3, 0, 4), (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 2, 0), (3, 2, 1), (3, 2, 2),
    (3, 2, 3), (3, 3, 0), (3, 3, 1), (3, 3, 2), (3, 4, 0), (3, 4, 1), (3, 5, 0),
    (4, 0, 3), (4, 0, 4), (4, 1, 2), (4, 2, 0), (4, 2, 1), (4, 3, 0), (4, 1, 4),
]
DEDUP_SMOKE = [(3, 2, 0), (3, 1, 3), (3, 2, 2)]
DEDUP_REPEATS = 3

# The cli case pool is fixed: its inputs and pins never depend on --seed.
POOL_SEED = 1609_05755
REALIZABLE_CELLS = [(3, 2, 0), (3, 3, 0), (3, 4, 0), (3, 1, 2), (3, 2, 2), (3, 3, 2), (3, 0, 4), (4, 3, 0)]
UNREALIZABLE_CELLS = [(3, 2, 1), (3, 1, 3), (4, 2, 1)]
REPS_PER_CELL = 2
SIGNATURES = [
    ("0", "1"), ("0", "3"), ("0", "4"), ("0", "5"), ("0", "1,1"), ("0", "2,1"),
    ("0", "2,2"), ("0", "3,2"), ("0", "1,1,1"), ("1", "2"), ("1", "3"), ("1", "4"),
    ("1", "2,1"), ("1", "2,2"), ("2", "3"), ("2", "4"), ("0", "7"),
]
ENUMERATIONS = [
    ["--degree", "3", "--cone", "2", "--corner", "0", "--dedup", "park"],
    ["--degree", "3", "--cone", "1", "--corner", "2", "--dedup", "jequiv", "--json"],
    ["--degree", "2", "--cone", "2", "--corner", "2", "--json"],
    ["--degree", "3", "--cone", "3", "--corner", "0"],
    ["--degree", "6", "--cone", "1", "--corner", "0"],
]
# Calls per cli batch: realizable groups (10 calls each), unrealizable
# groups (3 each), single-hurwitz, enumerate, malformed inputs.
BATCH = {"realizable": 2, "unrealizable": 1, "signatures": 2, "enumerations": 1, "malformed": 3}
BATCH_SMOKE = {"realizable": 1, "unrealizable": 1, "signatures": 1, "enumerations": 1, "malformed": 2}


def load_pins() -> dict:
    with open(PINS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cell_key(cell) -> str:
    return ",".join(str(v) for v in cell)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    """Per-unit latencies of one run, and the units that failed."""

    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    keys: list = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cli_calls: list[tuple[str, float, int]] = field(default_factory=list)
    # called between units of child-process workloads: a reference sample
    pace: Callable[[], None] = lambda: None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, key, start: float, end: float) -> None:
        """One unit; units with equal ``key`` repeat the same work."""
        self.keys.append(key)
        self.starts.append(start)
        self.latencies.append(end - start)

    def fail(self, units: int, why: str) -> None:
        self.failed += units
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(why)


class Sweep:
    """The acceptance-2 job: enumerate each cell with no dedup, then extract
    a park from every representation.  Unit: one ``monodromy_to_park`` call."""

    nominal_pass_s = 6.0
    in_process = True

    def __init__(self, seed: int, passes: int, smoke: bool, pins: dict):
        cells = SWEEP_SMOKE if smoke else SWEEP_CELLS
        self.cells = random.Random(seed).sample(cells, len(cells))
        self.passes = passes
        self.pins = pins["sweep"]

    def setup(self, workdir: str) -> None:
        for d, (matched, rejected) in ACCEPTANCE_2.items():
            rows = [v for k, v in self.pins.items() if k.startswith(f"{d},")]
            if (sum(r[1] for r in rows), sum(r[2] for r in rows)) != (matched, rejected):
                raise SystemExit(f"pins.json sweep table disagrees with acceptance 2 at d={d}")

    def run_pass(self, index: int, out: Outcome, tracer=None) -> None:
        clock = time.perf_counter
        for d, t, s in self.cells:
            expected = self.pins[cell_key((d, t, s))]
            forced_twice = 2 * t + s - 2 * d + 2
            try:
                classes = ps.enumerate_monodromies(d, t, s).classes
            except Exception as exc:  # a failed cell counts every unit it should have run
                now = clock()
                for i in range(expected[0]):
                    out.add((d, t, s, i), now, now)
                out.fail(expected[0], f"enumerate{(d, t, s)}: {exc!r}")
                continue
            matched = rejected = 0
            for i, cls in enumerate(classes):
                if tracer is not None:
                    tracer.unit = len(out.latencies)
                start = clock()
                try:
                    park = ps.monodromy_to_park(cls.representative)
                except ps.NonRealizableError:
                    out.add((d, t, s, i), start, clock())
                    rejected += 1
                    continue
                except Exception as exc:
                    out.add((d, t, s, i), start, clock())
                    out.fail(1, f"monodromy_to_park in {(d, t, s)}: {exc!r}")
                    continue
                out.add((d, t, s, i), start, clock())
                if forced_twice >= 0 and forced_twice % 2 == 0 and ps.genus(park) == forced_twice // 2:
                    matched += 1
                else:
                    out.fail(1, f"genus formula fails in {(d, t, s)}")
            got = [len(classes), matched, rejected]
            if got != expected:
                out.fail(len(classes), f"cell {(d, t, s)}: (raw, matched, rejected) {got} != {expected}")


class Dedup:
    """``enumerate_monodromies(d, t, s, dedup="park")`` over the dedup cells.
    Unit: one cell run.  Every cell but (4,1,4) runs ``DEDUP_REPEATS`` times
    per pass, which gives the latency quantiles more samples; (4,1,4) alone
    is most of the pass and runs once."""

    nominal_pass_s = 30.0
    in_process = True

    def __init__(self, seed: int, passes: int, smoke: bool, pins: dict):
        cells = DEDUP_SMOKE if smoke else DEDUP_CELLS
        runs = [c for c in cells for _ in range(1 if c == (4, 1, 4) else DEDUP_REPEATS)]
        self.runs = random.Random(seed).sample(runs, len(runs))
        self.passes = passes
        self.pins = pins["dedup"]

    def setup(self, workdir: str) -> None:
        pass

    def run_pass(self, index: int, out: Outcome, tracer=None) -> None:
        clock = time.perf_counter
        for d, t, s in self.runs:
            if tracer is not None:
                tracer.unit = len(out.latencies)
            start = clock()
            try:
                result = ps.enumerate_monodromies(d, t, s, dedup="park")
            except Exception as exc:
                out.add(len(out.latencies), start, clock())
                out.fail(1, f"dedup {(d, t, s)}: {exc!r}")
                continue
            out.add(len(out.latencies), start, clock())
            got = [result.raw_count, result.class_count, sorted(c.size for c in result.classes)]
            expected = self.pins[cell_key((d, t, s))]
            if got != expected:
                out.fail(1, f"dedup {(d, t, s)}: (raw, classes, sizes) differ from the pins")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of the pool; ``writes`` names the file it creates."""

    case: str
    argv: tuple[str, ...]
    writes: str | None = None
    malformed: bool = False


def build_pool(workdir: str) -> dict[str, list]:
    """Write the pool's input files into ``workdir`` and return its calls,
    grouped by kind.  Paths are relative: calls run with ``workdir`` as cwd."""
    rng = random.Random(POOL_SEED)

    def write(name: str, text: str) -> str:
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name

    def rep_text(rep) -> str:
        return json.dumps(ps.monodromy.to_json_dict(rep), indent=2) + "\n"

    def relabeled(rep):
        d = rep.degree
        whites = rng.sample(range(d), d)
        blacks = rng.sample(range(d), d)
        return ps.conjugate_rep(rep, tuple(whites) + tuple(b + d for b in blacks))

    def picks(cells):
        for cell in cells:
            classes = ps.enumerate_monodromies(*cell).classes
            for index in sorted(rng.sample(range(len(classes)), REPS_PER_CELL)):
                yield cell, index, classes[index].representative

    pool: dict[str, list] = {k: [] for k in BATCH}
    for cell, index, rep in picks(REALIZABLE_CELLS):
        tag = f"R{''.join(map(str, cell))}_{index}"
        rep_file = write(f"{tag}.json", rep_text(rep))
        rel_file = write(f"{tag}_rel.json", rep_text(relabeled(rep)))
        park_file, rel_park = f"{tag}_park.json", f"{tag}_rel_park.json"
        pool["realizable"].append([
            Call(f"{tag}.validate", ("validate", rep_file)),
            Call(f"{tag}.validate-strict", ("validate", rel_file, "--strict")),
            Call(f"{tag}.info-rep", ("info", rep_file)),
            Call(f"{tag}.extract", ("extract", rep_file, "-o", park_file), writes=park_file),
            Call(f"{tag}.extract-rel", ("extract", rel_file, "-o", rel_park, "--json"), writes=rel_park),
            Call(f"{tag}.validate-park", ("validate-park", park_file)),
            Call(f"{tag}.info-park", ("info", park_file, "--json")),
            Call(f"{tag}.hurwitz", ("hurwitz", park_file)),
            Call(f"{tag}.isomorphic", ("isomorphic", park_file, rel_park, "--allow-reflection")),
            Call(f"{tag}.equivalent", ("equivalent", rep_file, rel_file)),
        ])
    for cell, index, rep in picks(UNREALIZABLE_CELLS):
        tag = f"U{''.join(map(str, cell))}_{index}"
        rep_file = write(f"{tag}.json", rep_text(rep))
        pool["unrealizable"].append([
            Call(f"{tag}.validate", ("validate", rep_file, "--json")),
            Call(f"{tag}.extract", ("extract", rep_file, "-o", f"{tag}_park.json")),
            Call(f"{tag}.info-rep", ("info", rep_file, "--json")),
        ])
    for genus, degrees in SIGNATURES:
        case = f"S{genus}_{degrees.replace(',', '-')}"
        pool["signatures"].append([Call(case, ("single-hurwitz", genus, degrees))])
    for i, args in enumerate(ENUMERATIONS):
        pool["enumerations"].append([Call(f"E{i}", ("enumerate", *args))])
    pool["malformed"] = [[call] for call in _malformed_calls(rng, write, rep_text)]
    return pool


def _malformed_calls(rng: random.Random, write, rep_text) -> list[Call]:
    """Seeded mutations of valid representation and park files; every one
    must end in exit code 2 without a traceback."""
    rep = ps.enumerate_monodromies(3, 2, 2).classes[rng.randrange(81)].representative
    good_rep = write("M_good.json", rep_text(rep))
    rep_obj = ps.monodromy.to_json_dict(rep)
    park_obj = ps.park.to_json_dict(ps.monodromy_to_park(rep))
    text = rep_text(rep)

    def mutated(obj, edit):
        obj = json.loads(json.dumps(obj))
        edit(obj)
        return json.dumps(obj, indent=2)

    def set_key(key, value):
        return lambda obj: obj.__setitem__(key, value)

    cases = [
        ("truncated", "validate", text[: rng.randrange(5, len(text) - 5)]),
        ("not-json", "info", "degree: 3\n"),
        ("not-object", "validate", json.dumps(rep_obj["x"])),
        ("no-x", "extract", mutated(rep_obj, lambda o: o.pop("x"))),
        ("degree-str", "validate", mutated(rep_obj, set_key("degree", "3"))),
        ("c-entry", "equivalent", mutated(rep_obj, lambda o: o["c"].__setitem__(rng.randrange(len(o["c"])), "swap"))),
        ("unknown-schema", "info", json.dumps({"sheets": rep_obj["degree"]})),
        ("no-involution", "validate-park", mutated(park_obj, lambda o: o.pop("involution"))),
        ("gardens-str", "hurwitz", mutated(park_obj, set_key("gardens", "none"))),
        ("bad-role", "info", mutated(park_obj, lambda o: o["nodes"][rng.randrange(len(o["nodes"]))].__setitem__("role", "sideways"))),
        ("bad-map", "validate-park", mutated(park_obj, lambda o: o["involution"].__setitem__("nodes", {"a": 1}))),
        ("negative-t", "isomorphic", mutated(park_obj, set_key("t", -1))),
    ]
    calls = []
    for name, command, body in cases:
        path = write(f"M_{name}.json", body)
        if command == "equivalent":
            argv = (command, good_rep, path)
        elif command == "isomorphic":
            argv = (command, path, path, "--json")
        else:
            argv = (command, path)
        calls.append(Call(f"M.{name}", argv, malformed=True))
    calls.append(Call("M.sig-letters", ("single-hurwitz", "0", "2,x"), malformed=True))
    calls.append(Call("M.sig-negative", ("single-hurwitz", "-1", "3", "--json"), malformed=True))
    return calls


def pool_calls(pool: dict[str, list]) -> list[Call]:
    """Every call of the pool once, in pool order (used to record pins)."""
    return [call for kind in BATCH for chain in pool[kind] for call in chain]


class Cli:
    """A seeded batch of ``python -m parkscope.cli`` processes, one at a time,
    on files generated from the pool.  Unit: one call."""

    nominal_pass_s = 3.6
    in_process = False

    def __init__(self, seed: int, passes: int, smoke: bool, pins: dict):
        self.seed = seed
        self.passes = passes
        self.mix = BATCH_SMOKE if smoke else BATCH
        self.pins = pins["cli"]
        self.batches: list[list[Call]] = []

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        pool = build_pool(workdir)
        rng = random.Random(self.seed)
        # deal each kind's cases from shuffled decks, so that every run draws
        # the pool's cases in the same proportions whatever its seed
        decks = {}
        for kind, count in self.mix.items():
            decks[kind] = []
            while len(decks[kind]) < count * self.passes:
                decks[kind] += rng.sample(pool[kind], len(pool[kind]))
        for index in range(self.passes):
            chains = [
                list(chain)
                for kind, count in self.mix.items()
                for chain in decks[kind][index * count : (index + 1) * count]
            ]
            batch = []
            # interleave the chains at random, keeping each chain's order
            while chains:
                chain = rng.choice(chains)
                batch.append(chain.pop(0))
                if not chain:
                    chains.remove(chain)
            self.batches.append(batch)
        self.env = dict(os.environ)

    def run_pass(self, index: int, out: Outcome, tracer=None) -> None:
        """Each call of batch ``index`` in a fresh interpreter, as a batch
        user runs it."""
        clock = time.perf_counter
        command = [sys.executable, "-m", "parkscope.cli"]
        for call in self.batches[index]:
            out.pace()
            start = clock()
            proc = subprocess.run(
                command + list(call.argv),
                cwd=self.workdir,
                env=self.env,
                capture_output=True,
                timeout=120,
            )
            out.add(len(out.latencies), start, clock())
            self._check(out, call, proc.returncode, proc.stdout, proc.stderr)

    def start_replay(self, label: str) -> None:
        """Give in-process replays a fresh, empty Hurwitz cache."""
        cache = os.path.join(self.workdir, f"cache-{label}")
        os.environ["PARKSCOPE_CACHE"] = cache
        ps.hurwitz.clear_cache()
        self.cache_file = os.path.join(cache, "hurwitz.json")

    def replay_pass(self, index: int, out: Outcome, tracer=None) -> None:
        """Batch ``index`` in-process through ``parkscope.cli.main``."""
        clock = time.perf_counter
        previous = os.getcwd()
        os.chdir(self.workdir)
        try:
            for call in self.batches[index]:
                if tracer is not None:
                    tracer.unit = len(out.latencies)
                stdout, stderr = io.StringIO(), io.StringIO()
                start = clock()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = ps.cli.main(list(call.argv))
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 1
                    except Exception:
                        code = -1
                        stderr.write("Traceback (in-process replay)\n")
                end = clock()
                out.add(len(out.latencies), start, end)
                out.cli_calls.append((call.argv[0], end - start, code))
                self._check(out, call, code, stdout.getvalue().encode(), stderr.getvalue().encode())
        finally:
            os.chdir(previous)

    def _check(self, out: Outcome, call: Call, code: int, stdout: bytes, stderr: bytes) -> None:
        exit_code, stdout_sha, file_sha = self.pins[call.case]
        problems = []
        if code != exit_code or (call.malformed and code != 2):
            problems.append(f"exit {code}, pinned {exit_code}")
        if sha256(stdout) != stdout_sha:
            problems.append("stdout differs from the pin")
        if b"Traceback" in stderr:
            problems.append("traceback on stderr")
        if call.writes is not None:
            try:
                with open(os.path.join(self.workdir, call.writes), "rb") as fh:
                    written = sha256(fh.read())
            except OSError:
                written = None
            if written != file_sha:
                problems.append(f"{call.writes} differs from the pin")
        if problems:
            out.fail(1, f"{call.case} {' '.join(call.argv)}: {'; '.join(problems)}")


WORKLOADS = {"sweep": Sweep, "dedup": Dedup, "cli": Cli}
