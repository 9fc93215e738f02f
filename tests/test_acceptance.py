"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Every test prints exactly one ``acceptance N (<label>): PASS|FAIL`` line;
a FAIL line is followed by the usual assertion traceback.
"""

from __future__ import annotations

import copy
import json
import os
import random
import time
from fractions import Fraction

import pytest

from parkscope import (
    NonRealizableError,
    build,
    conjugate_rep,
    enumerate_monodromies,
    find_park_involution,
    genus,
    monodromy_equivalent,
    monodromy_to_park,
    park_hurwitz,
    park_isomorphic,
    single_hurwitz,
    validate_park,
)
from parkscope import monodromy
from parkscope.park import from_json_dict, to_json_dict

from conftest import (
    EXAMPLE_PARK_PATH,
    interleaving_factor,
    load_example_park,
    make_chord_rep,
    make_loop3_rep,
    make_two_entrance_rep,
    one_part_oracle,
    run_cli,
    single_hurwitz_brute,
    total_degree,
)


def _verdict(num: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"acceptance {num} ({label}): FAIL")
        raise
    print(f"acceptance {num} ({label}): PASS")


# ---------------------------------------------------------------------------
# 1: reference covering counts
# ---------------------------------------------------------------------------


def test_acceptance_1_single_cover_counts():
    def body():
        cases = [
            (0, (1,), Fraction(1)),
            (0, (2,), Fraction(1, 2)),
            (0, (1, 1), Fraction(1, 2)),
            (0, (3,), Fraction(1)),
            (0, (4,), Fraction(4)),
            (1, (1,), Fraction(0)),
        ]
        for g, degrees, expected in cases:
            start = time.monotonic()
            fast = single_hurwitz(g, degrees)
            brute = single_hurwitz_brute(g, degrees)
            elapsed = time.monotonic() - start
            assert fast == expected, (g, degrees, fast)
            assert brute == expected, (g, degrees, brute)
            if g == 0 and len(degrees) == 1:
                assert fast == one_part_oracle(degrees[0])
            assert elapsed < 10.0, (g, degrees, elapsed)

    _verdict(1, "reference covering counts", body)


# ---------------------------------------------------------------------------
# 2: exhaustive genus agreement
# ---------------------------------------------------------------------------


def test_acceptance_2_genus_sweep():
    def body():
        start = time.monotonic()
        expected_per_degree = {1: (1, 0), 2: (11, 6), 3: (972, 612), 4: (21024, 67500)}
        for d in range(1, 5):
            matched = rejected = 0
            for t in range(0, 6):
                for s in range(0, 6 - t):
                    forced_twice = 2 * t + s - 2 * d + 2
                    for cls in enumerate_monodromies(d, t, s).classes:
                        try:
                            park = monodromy_to_park(cls.representative)
                        except NonRealizableError:
                            rejected += 1
                            continue
                        assert forced_twice >= 0 and forced_twice % 2 == 0, (d, t, s)
                        assert genus(park) == forced_twice // 2, (d, t, s)
                        matched += 1
            assert (matched, rejected) == expected_per_degree[d], (
                d,
                matched,
                rejected,
            )
        assert time.monotonic() - start < 300.0

    _verdict(2, "exhaustive genus agreement", body)


# ---------------------------------------------------------------------------
# 3: shipped genus-1 park file
# ---------------------------------------------------------------------------


def test_acceptance_3_shipped_park_file():
    def body():
        assert EXAMPLE_PARK_PATH.exists()
        park = load_example_park()
        assert validate_park(park).ok
        assert total_degree(park) == 4
        assert genus(park) == 1
        assert 2 * park.cone_points + park.corner_points == 8
        roles = {n.id: n.role for n in park.nodes}
        assert roles == {1: "entrance", 2: "entrance", 3: "exit", 4: "exit"}
        found = find_park_involution(park)
        assert found is not None
        # each entrance pairs with the exit of the same index offset
        assert found.nodes == {1: 3, 3: 1, 2: 4, 4: 2}
        assert found.nodes == park.involution.nodes
        assert found.faces == park.involution.faces
        assert found.edges == park.involution.edges
        assert found.vertices == park.involution.vertices
        assert found.gardens == park.involution.gardens

    _verdict(3, "shipped genus-1 park file", body)


# ---------------------------------------------------------------------------
# 4: hand-checked small extractions
# ---------------------------------------------------------------------------


def test_acceptance_4_small_extractions():
    def body():
        start = time.monotonic()
        loop3 = monodromy_to_park(make_loop3_rep())
        assert time.monotonic() - start < 1.0
        assert len(loop3.gardens) == 1
        edges = loop3.gardens[0].edges
        assert [(e.kind, e.length) for e in edges] == [("loop", 3)]

        start = time.monotonic()
        chord = monodromy_to_park(make_chord_rep())
        assert time.monotonic() - start < 1.0
        garden = chord.gardens[0]
        lengths = {e.id: e.length for e in garden.edges}
        multisets = sorted(
            tuple(sorted(lengths[abs(entry)] for entry in f.boundary))
            for f in garden.faces
        )
        assert multisets == [(0, 0, 1), (0, 0, 1), (1,), (1,)]
        for f in garden.faces:
            if f.degree == 2:
                assert tuple(sorted(lengths[abs(entry)] for entry in f.boundary)) == (
                    0,
                    0,
                    1,
                )

    _verdict(4, "hand-checked small extractions", body)


# ---------------------------------------------------------------------------
# 5: relabeling soundness sweep
# ---------------------------------------------------------------------------


def test_acceptance_5_relabeling_soundness():
    def body():
        pool = []
        for d in range(1, 5):
            for t in range(0, 4):
                for s in range(0, 4 - t):
                    for cls in enumerate_monodromies(d, t, s).classes:
                        rep = cls.representative
                        try:
                            park = monodromy_to_park(rep)
                        except NonRealizableError:
                            continue
                        pool.append((rep, park))
        assert len(pool) >= 50
        rng = random.Random(20260825)
        failures = 0
        for _ in range(1000):
            rep, park = pool[rng.randrange(len(pool))]
            d = rep.degree
            sigma_w = rng.sample(range(d), d)
            sigma_b = rng.sample(range(d), d)
            relabel = tuple(sigma_w) + tuple(v + d for v in sigma_b)
            moved = conjugate_rep(rep, relabel)
            witness = monodromy_equivalent(rep, moved)
            if witness is None:
                failures += 1
                continue
            moved_park = monodromy_to_park(moved)
            if park_isomorphic(park, moved_park) is None:
                failures += 1
        assert failures == 0

    _verdict(5, "relabeling soundness sweep", body)


# ---------------------------------------------------------------------------
# 6: composite count formula
# ---------------------------------------------------------------------------


def test_acceptance_6_composite_counts():
    def body():
        park = monodromy_to_park(make_two_entrance_rep())
        entrances = [n for n in park.nodes if n.role == "entrance"]
        assert len(entrances) == 2
        assert park_hurwitz(park) == Fraction(1, 2)
        assert interleaving_factor([1, 1]) == 2

        for d in range(1, 4):
            for t in range(0, 6):
                for s in range(0, 6 - t):
                    result = enumerate_monodromies(d, t, s, dedup="park")
                    for cls in result.classes:
                        values = set()
                        for member in cls.members:
                            try:
                                values.add(park_hurwitz(monodromy_to_park(member)))
                            except NonRealizableError:
                                values.add(None)
                        assert len(values) == 1, (d, t, s, values)

    _verdict(6, "composite count formula", body)


# ---------------------------------------------------------------------------
# 7: validator discrimination
# ---------------------------------------------------------------------------


def test_acceptance_7_validator_discrimination():
    def body():
        with open(EXAMPLE_PARK_PATH, "r", encoding="utf-8") as fh:
            base = json.load(fh)
        assert validate_park(from_json_dict(base)).ok

        # attach an entrance to a black face (and an exit to a white one)
        obj = copy.deepcopy(base)
        obj["alleys"][3]["face"], obj["alleys"][7]["face"] = (
            obj["alleys"][7]["face"],
            obj["alleys"][3]["face"],
        )
        report = validate_park(from_json_dict(obj))
        assert not report.ok
        assert any(code == "alley-color" for code, _ in report.violations)
        assert all(detail for _, detail in report.violations)

        # delete one alley: a face loses its connector
        obj = copy.deepcopy(base)
        del obj["alleys"][7]
        report = validate_park(from_json_dict(obj))
        assert not report.ok
        assert any(code == "alley-bijection" for code, _ in report.violations)

        # cross the node pairing: structure no longer mirrors
        obj = copy.deepcopy(base)
        obj["involution"]["nodes"] = {"1": 4, "4": 1, "2": 3, "3": 2}
        report = validate_park(from_json_dict(obj))
        assert not report.ok
        assert any(
            code.startswith("involution") for code, _ in report.violations
        )

        # re-point one segment end: a vertex stops having four edge-ends
        chord = to_json_dict(monodromy_to_park(make_chord_rep()))
        assert validate_park(from_json_dict(chord)).ok
        chord["gardens"][0]["edges"][1]["ends"] = [2, 2]
        report = validate_park(from_json_dict(chord))
        assert not report.ok
        assert any(code == "vertex-edge-ends" for code, _ in report.violations)

    _verdict(7, "validator discrimination", body)


# ---------------------------------------------------------------------------
# 8: machine-readable output determinism
# ---------------------------------------------------------------------------


def test_acceptance_8_json_determinism(tmp_path):
    def body():
        rep_path = tmp_path / "loop3.json"
        rep_path.write_text(json.dumps(monodromy.to_json_dict(make_loop3_rep())))
        park_path = tmp_path / "loop3_park.json"
        first = run_cli(["extract", str(rep_path), "-o", str(park_path), "--json"])
        assert first.returncode == 0, first.stderr

        example = str(EXAMPLE_PARK_PATH)
        # (arguments, expected exit code): an error payload printed twice is
        # deterministic too, so each command must first give its real answer
        commands = [
            (["validate", str(rep_path), "--json"], 0),
            # loop3 fails the strict audit (see test_validate_strict_negative)
            (["validate", str(rep_path), "--strict", "--json"], 1),
            (["extract", str(rep_path), "--json"], 0),
            (["validate-park", str(park_path), "--json"], 0),
            (["info", example, "--json"], 0),
            (["info", str(rep_path), "--json"], 0),
            (["hurwitz", str(park_path), "--json"], 0),
            (["single-hurwitz", "0", "4", "--json"], 0),
            (["isomorphic", example, example, "--json"], 0),
            (["equivalent", str(rep_path), str(rep_path), "--json"], 0),
        ]
        for args, code in commands:
            one = run_cli(args)
            two = run_cli(args)
            assert one.returncode == code, (args, one.stderr)
            assert two.returncode == code, (args, two.stderr)
            assert one.stdout == two.stdout, args
            assert one.stdout.strip(), args
            json.loads(one.stdout)

        enum_base = [
            "enumerate",
            "--degree",
            "3",
            "--cone",
            "2",
            "--corner",
            "0",
            "--dedup",
            "park",
            "--json",
        ]
        runs = [
            run_cli(enum_base, env=dict(os.environ, PYTHONHASHSEED=str(seed)))
            for seed in (0, 1, 4242)
        ]
        for run in runs:
            assert run.returncode == 0, run.stderr
            assert run.stdout == runs[0].stdout

    _verdict(8, "machine-readable output determinism", body)
