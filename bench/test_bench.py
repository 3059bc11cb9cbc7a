"""Self-tests for the benchmark's checks and span recorder, on small inputs.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import perfci  # noqa: E402
import perfci.cli  # noqa: E402
import perfci.quantiles  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "analyze_csv": {"rows": 2_000, "rules": 2},
    "analyze_large": {"rows": 3_000, "rules": 2},
    "coverage_mixture": {"replications": 20},
}


def small(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, str(tmp_path), **SMALL[name])


class Canned:
    """A workload whose outputs come from a list."""

    def __init__(self, real, outputs):
        self.real = real
        self.outputs = iter(outputs)

    def op(self):
        return next(self.outputs)

    def check(self, text):
        return self.real.check(text)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_real_output_passes(name, tmp_path):
    workload = small(name, tmp_path)
    assert workload.check(workload.op()) == []


@pytest.mark.parametrize("name", ["analyze_csv", "analyze_large"])
def test_perturbed_estimate_is_flagged(name, tmp_path):
    workload = small(name, tmp_path)
    text = workload.op()
    value = re.search(r'"estimate": ([0-9.e-]+)', text).group(1)
    bumped = text.replace(value, repr(float(value) * (1 + 1e-6)), 1)
    assert any("estimate" in p for p in workload.check(bumped))


def test_coverage_outside_band_is_flagged(tmp_path):
    workload = small("coverage_mixture", tmp_path)
    doc = json.loads(workload.op())
    doc["report"]["joint_sets"][0]["coverage"] = 0.5
    assert any("joint coverage" in p for p in workload.check(json.dumps(doc)))


def test_bare_nan_fails_the_operation(tmp_path):
    real = small("analyze_large", tmp_path)
    text = re.sub(r'"upper": [0-9.e-]+', '"upper": NaN', real.op(), count=1)
    tally = run.Tally()
    tally.record(Canned(real, [text]))
    assert (tally.attempted, tally.failed, tally.reference) == (1, 1, None)


def test_nondeterministic_output_fails(tmp_path):
    real = small("analyze_large", tmp_path)
    good = real.op()
    other = good.replace('"seed": 0', '"seed": 0 ', 1)
    workload = Canned(real, [good, good, other])
    tally = run.Tally()
    for _ in range(3):
        tally.record(workload)
    assert (tally.attempted, tally.failed) == (3, 1)


def test_wrappers_reach_every_namespace_and_are_undone():
    original = perfci.quantiles.max_abs_quantile
    holders = [perfci, perfci.quantiles, perfci.intervals, perfci.simulation, perfci.cli]
    with spans.installed(spans.SpanRecorder()):
        wrapped = {id(m.max_abs_quantile) for m in holders}
        assert len(wrapped) == 1 and id(original) not in wrapped
        for fn in ("influence", "correct", "correlation"):
            assert getattr(perfci.intervals, fn) is getattr(perfci.covariance, fn)
            assert hasattr(getattr(perfci.intervals, fn), "__wrapped__")
    assert all(m.max_abs_quantile is original for m in holders)
    assert not hasattr(perfci.intervals.influence, "__wrapped__")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_fit_in_the_operation(name, tmp_path):
    workload = small(name, tmp_path)
    recorder = spans.SpanRecorder()
    walls = []
    with spans.installed(recorder):
        for op in range(2):
            recorder.op = op
            start = time.perf_counter_ns()
            workload.op()
            walls.append(time.perf_counter_ns() - start)
    per_op = [0, 0]
    for (_name, op), (ns, _calls) in recorder.self_ns().items():
        per_op[op] += ns
    assert all(0 < s <= w for s, w in zip(per_op, walls))
    metrics = spans.layer_metrics(recorder, 2)
    assert metrics["quantiles.max_abs_quantile_calls"][0] > 0
    assert metrics["measures.evaluate_calls"][0] > 0


def test_recomputed_measures_match_closed_forms():
    # tp, fp, fn, tn = 30, 10, 20, 40: precision 0.75, recall 0.6
    assert checks.measure_from_counts("accuracy", 30, 10, 20, 40) == 0.7
    assert checks.close(checks.measure_from_counts("f1", 30, 10, 20, 40), 2 * 0.75 * 0.6 / 1.35)
    assert checks.close(checks.measure_from_counts("tversky(0.5,0.5)", 30, 10, 20, 40),
                        checks.measure_from_counts("f1", 30, 10, 20, 40))
    assert checks.close(checks.measure_from_counts("overlap", 30, 10, 20, 40), 0.75)


def test_benchmark_json_lists_every_layer_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in doc["per_layer"]]
    assert names == [m[0] for m in spans.LAYER_METRICS] + [
        "tracing.traced_op_s", "tracing.overhead_s"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
