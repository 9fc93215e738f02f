"""Shared fixtures: small hand representations and the shipped park file."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from parkscope import build, monodromy_to_park
from parkscope.park import Park, from_json_dict

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_PARK_PATH = REPO_ROOT / "examples" / "example1_park.json"
EXAMPLE_REP_PATH = REPO_ROOT / "examples" / "f3_monodromy.json"


def run_cli(args, cwd=REPO_ROOT, env=None):
    """The CLI in a fresh interpreter, importable from any working directory.

    The timeout makes a computation that never ends fail its test instead
    of hanging the suite.
    """
    env = dict(os.environ if env is None else env)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    return subprocess.run(
        [sys.executable, "-m", "parkscope.cli", *args],
        capture_output=True,
        cwd=str(cwd),
        env=env,
        timeout=60,
    )


def make_loop3_rep():
    """Degree 3, two branch points, no boundary corners; its single real
    cycle closes after three sheets."""
    return build(3, [(1, 0, 2, 4, 3, 5), (0, 2, 1, 3, 5, 4)], [(3, 4, 5, 0, 1, 2)])


def make_single_sheet_rep():
    """Degree 1, no critical values at all."""
    return build(1, [], [(1, 0)])


def make_chord_rep():
    """Degree 3, one branch point and two boundary corners; its garden
    carries two vertices and chords of length 0."""
    return build(
        3,
        [(0, 2, 1, 4, 3, 5)],
        [(3, 4, 5, 0, 1, 2), (3, 5, 4, 0, 2, 1), (4, 5, 3, 2, 0, 1)],
    )


def make_two_entrance_rep():
    """Degree 4, two branch points, two corners; the park has two
    entrances, each of genus 0 with a single degree-2 face."""
    return build(
        4,
        [(0, 1, 3, 2, 5, 4, 7, 6), (1, 0, 2, 3, 4, 5, 6, 7)],
        [
            (4, 5, 6, 7, 0, 1, 2, 3),
            (4, 6, 5, 7, 0, 2, 1, 3),
            (4, 5, 6, 7, 0, 1, 2, 3),
        ],
    )


def make_unrealizable_rep():
    """Valid generic degree-2 data whose critical-value count admits no
    closed orientable surface (odd Euler characteristic)."""
    return build(2, [(1, 0, 2, 3)], [(2, 3, 0, 1), (3, 2, 1, 0)])


@pytest.fixture
def loop3_rep():
    return make_loop3_rep()


@pytest.fixture
def single_sheet_rep():
    return make_single_sheet_rep()


@pytest.fixture
def chord_rep():
    return make_chord_rep()


@pytest.fixture
def two_entrance_rep():
    return make_two_entrance_rep()


@pytest.fixture
def unrealizable_rep():
    return make_unrealizable_rep()


@pytest.fixture
def loop3_park(loop3_rep):
    return monodromy_to_park(loop3_rep)


@pytest.fixture
def chord_park(chord_rep):
    return monodromy_to_park(chord_rep)


def load_example_park() -> Park:
    with open(EXAMPLE_PARK_PATH, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


@pytest.fixture
def example_park() -> Park:
    return load_example_park()


@pytest.fixture
def example_park_dict() -> dict:
    with open(EXAMPLE_PARK_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)
