"""Golden outputs: every case of ``tests/golden/regenerate.py`` gives its
checked-in output again, strings and integers exactly and floats to a
relative ``1e-12``."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    regenerate.write_inputs(folder)
    return folder


def mismatches(got, want, path="output"):
    """Where ``got`` differs from ``want``: the same JSON types and keys,
    equal non-floats, and floats within a relative ``1e-12``."""
    if type(got) is not type(want):
        return [f"{path}: {got!r} is not of the type of {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} against {list(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} items against {len(want)}"]
        return [m for k, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{k}]")]
    if isinstance(want, float):
        return [] if math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0) else [f"{path}: {got!r} against {want!r}"]
    return [] if got == want else [f"{path}: {got!r} against {want!r}"]


@pytest.mark.parametrize("name", list(regenerate.CASES))
def test_a_command_gives_its_golden_output(name, inputs):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = regenerate.run_case(name, inputs)
    assert got["argv"] == want["argv"] and got["exit"] == want["exit"]
    assert mismatches(got["output"], want["output"]) == []


def test_every_golden_file_is_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(regenerate.CASES)


def test_the_comparison_sees_a_relative_change_of_1e_11():
    want = {"q": 2.5, "rows": [{"n": 3, "x": -0.125, "error": None}]}
    assert mismatches(json.loads(json.dumps(want)), want) == []
    moved = {"q": 2.5 * (1 + 1e-11), "rows": [{"n": 3, "x": -0.125, "error": None}]}
    assert mismatches(moved, want) == ["output.q: 2.500000000025 against 2.5"]
    assert mismatches({"q": 2.5, "rows": [{"n": 3.0, "x": -0.125, "error": None}]}, want)
