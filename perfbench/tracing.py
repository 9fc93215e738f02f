"""Span tracer that wraps parkscope's public functions from outside.

A traced run replaces each function named in ``TRACED`` with a wrapper in
every ``parkscope`` module that binds it, including the names other modules
import with ``from .x import f``.  The library itself is not modified.

Each wrapped call is a span: name, start, end, parent span and unit id.
Spans live in compact in-memory arrays and are written out when the run
ends.  The ``permgroup`` primitives run millions of times per workload, so
they are only counted and timed (their time still leaves their parent's
self time); their times include the wrapper's own cost.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

TRACED = {
    "permgroup": ("orbits", "cycles", "compose"),
    "monodromy": ("validate_relations", "validate_genericity", "build"),
    "park": ("validate_park", "genus", "from_json_dict", "to_json_dict"),
    "extraction": ("monodromy_to_park",),
    "hurwitz": ("single_hurwitz", "park_hurwitz"),
    "equivalence": (
        "enumerate_monodromies",
        "canonical_form",
        "park_isomorphic",
        "monodromy_equivalent",
    ),
    "cli": ("main",),
}
AGGREGATE_ONLY = frozenset(f"permgroup.{name}" for name in TRACED["permgroup"])
CLI_COMMANDS = (
    "validate",
    "extract",
    "validate-park",
    "info",
    "hurwitz",
    "single-hurwitz",
    "isomorphic",
    "equivalent",
    "enumerate",
)
EXIT_CODES = (0, 1, 2, 3)
NO_UNIT = -1


class Tracer:
    """Collects spans and per-function counters while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_unit = array("l")
        self.span_raised = array("b")
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.unit = NO_UNIT
        self.enumerating = 0
        self.completions_tried = 0
        self.raw_reps = 0
        self.witnesses = 0
        self.signatures: set[tuple[int, tuple[int, ...]]] = set()
        # one frame per open call: [time covered by children, nearest recorded span]
        self._stack: list[list] = [[0.0, -1]]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import parkscope  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items() if k == "parkscope" or k.startswith("parkscope.")]
        for layer, functions in TRACED.items():
            home = sys.modules[f"parkscope.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        if name in AGGREGATE_ONLY:

            def counted(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    calls[name] += 1
                    self_s[name] += elapsed - frame[0]

            return counted

        self.names.append(name)
        name_id = len(self.names) - 1
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            span = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][1])
            self.span_unit.append(self.unit)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_raised.append(0)
            frame = [0.0, span]
            stack.append(frame)
            if name == "equivalence.enumerate_monodromies":
                self.enumerating += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.span_raised[span] = 1
                raise
            finally:
                end = clock()
                stack.pop()
                stack[-1][0] += end - start
                calls[name] += 1
                self_s[name] += end - start - frame[0]
                self.span_start[span] = start
                self.span_end[span] = end
                if name == "equivalence.enumerate_monodromies":
                    self.enumerating -= 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- counters read at layer boundaries ---------------------------------

    def _observe_monodromy_build(self, args, result) -> None:
        if self.enumerating:
            self.completions_tried += 1

    def _observe_equivalence_enumerate_monodromies(self, args, result) -> None:
        self.raw_reps += result.raw_count

    def _observe_equivalence_park_isomorphic(self, args, result) -> None:
        if result is not None:
            self.witnesses += 1

    def _observe_hurwitz_single_hurwitz(self, args, result) -> None:
        self.signatures.add((int(args[0]), tuple(sorted(args[1]))))

    # -- output ------------------------------------------------------------

    def span_durations(self, name: str, raised: bool) -> list[float]:
        if name not in self.names:
            return []
        name_id = self.names.index(name)
        return [
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_name[i] == name_id and bool(self.span_raised[i]) == raised
        ]

    def write_spans(self, path: str) -> int:
        """Write one tab-separated line per recorded span; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tunit\traised\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t"
                    f"{self.span_unit[i]}\t{self.span_raised[i]}\n"
                )
        return len(self.span_name)


def per_layer_metrics(tracer: Tracer, units: int, cli_calls, extra: dict) -> dict:
    """Every per-layer metric, as ``{name: (value, unit)}``.

    ``cli_calls`` lists ``(command, seconds, exit_code)`` for each in-process
    CLI call of the traced run; ``extra`` supplies measurements taken outside
    the tracer (interpreter start, import time, cache size, walls).
    """
    out: dict[str, tuple[float, str]] = {}
    for layer, functions in TRACED.items():
        if layer == "cli":
            continue
        for fn_name in functions:
            name = f"{layer}.{fn_name}"
            out[f"{name}.calls"] = (tracer.calls[name], "count")
            unit = "s-traced" if name in AGGREGATE_ONLY else "s"
            out[f"{name}.self_s"] = (tracer.self_s[name], unit)

    validations = (
        tracer.calls["monodromy.validate_relations"]
        + tracer.calls["monodromy.validate_genericity"]
    )
    out["monodromy.validations_per_unit"] = (_ratio(validations, units), "count/unit")

    rejected = tracer.span_durations("extraction.monodromy_to_park", raised=True)
    realized = tracer.span_durations("extraction.monodromy_to_park", raised=False)
    out["extraction.rejected_ratio"] = (_ratio(len(rejected), len(rejected) + len(realized)), "ratio")
    out["extraction.rejected_s"] = (sum(rejected), "s")
    out["extraction.realized_s"] = (sum(realized), "s")

    out["hurwitz.single_hurwitz.distinct"] = (len(tracer.signatures), "count")
    out["hurwitz.cache_file_bytes"] = (extra.get("cache_file_bytes", 0), "B")

    out["equivalence.raw_reps"] = (tracer.raw_reps, "count")
    out["equivalence.completions_tried"] = (tracer.completions_tried, "count")
    out["equivalence.completion_yield"] = (
        _ratio(tracer.raw_reps, tracer.completions_tried),
        "ratio",
    )
    out["equivalence.park_isomorphic.merge_ratio"] = (
        _ratio(tracer.witnesses, tracer.calls["equivalence.park_isomorphic"]),
        "ratio",
    )

    by_command: defaultdict[str, list[float]] = defaultdict(list)
    exits: Counter[int] = Counter()
    for command, seconds, code in cli_calls:
        by_command[command].append(seconds)
        exits[code] += 1
    for command in CLI_COMMANDS:
        times = by_command.get(command, [])
        out[f"cli.{command}.calls"] = (len(times), "count")
        out[f"cli.{command}.p50_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    for code in EXIT_CODES:
        out[f"cli.exit_{code}.calls"] = (exits[code], "count")
    out["cli.interpreter_start_ms"] = (extra.get("interpreter_start_ms", 0.0), "ms")
    out["cli.import_ms"] = (extra.get("import_ms", 0.0), "ms")

    untraced, traced = extra["untraced_wall_s"], extra["traced_wall_s"]
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.traced_wall_s"] = (traced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
