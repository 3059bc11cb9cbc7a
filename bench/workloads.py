"""Benchmark workloads: inputs made from a seed, one operation, its checks.

Every workload repeats one fixed operation in a closed loop, so all
outputs of a run must be byte-identical and the quantile standard error
it reports is exact for the seed.  ``op`` returns the operation's output
as text; ``check`` returns the problems found in one output.
"""

from __future__ import annotations

import json
import os

import numpy as np

import perfci.cli
import perfci.dataset
import perfci.intervals
import perfci.simulation

import checks

ALL_MEASURES = (
    "accuracy", "f1", "f_beta(0.5)", "jaccard", "tversky(0.3,0.4)",
    "correlation", "cosine", "lift", "overlap",
)
CLI_MEASURES = ("accuracy", "f1")


class OperationFailed(Exception):
    """The program reported failure without raising (exit code, no output)."""


def make_table(seed: int, tag: int, rows: int, rules: int):
    """Labels with base rate 0.4 and ``rules`` noisy copies of them.

    Rule ``r`` misses a share ``0.20 + 0.02 r`` of positives and flags a
    share ``0.02 + 0.01 r`` of negatives, so every rule predicts fewer
    positives than there are (``m_a < m_z``): ``overlap`` has a gradient
    and no target fails on any seed.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag])))
    z = rng.random(rows) < 0.4
    columns = {}
    for r in range(rules):
        u = rng.random(rows)
        columns[f"rule{r}"] = np.where(z, u >= 0.20 + 0.02 * r, u < 0.02 + 0.01 * r).astype(np.uint8)
    return z.astype(np.uint8), columns


def expected_estimates(z, columns, measure_ids) -> dict[tuple[str, str], float]:
    """Recomputed estimates, rule-major like ``perfci.dataset.make_targets``."""
    out = {}
    for rule, a in columns.items():
        counts = checks.confusion_counts(z, a)
        for mid in measure_ids:
            out[(rule, mid)] = checks.measure_from_counts(mid, *counts)
    return out


def report_dict(report) -> dict:
    """An ``IntervalReport`` in the CLI's JSON layout."""
    targets = []
    for row in report.rows:
        entry = {"rule": row.rule_id, "measure": row.measure_id}
        if row.ok:
            entry.update(estimate=row.estimate, lower=row.lower, upper=row.upper,
                         half_width=row.half_width)
        else:
            entry["error"] = row.error
        targets.append(entry)
    meta = {"n": report.n, "alpha": report.alpha, "choice": report.choice,
            "mode": report.mode, "q": report.q, "mc_stderr": report.mc_stderr,
            "seed": report.seed}
    return {"meta": meta, "targets": targets}


class AnalyzeCsv:
    """``perfci analyze <table> --format json`` with every other flag at its
    default, through ``perfci.cli.main``.  The table is written once."""

    name = "analyze_csv"
    replications = 1

    def __init__(self, seed: int, workdir: str, rows: int = 200_000, rules: int = 10):
        z, columns = make_table(seed, 1, rows, rules)
        self.table = os.path.join(workdir, "table.csv")
        self.output = os.path.join(workdir, "report.json")
        grid = np.stack([z, *columns.values()], axis=1)
        text = np.empty((rows, 2 * grid.shape[1]), dtype=np.uint8)
        text[:, 0::2] = grid + ord("0")
        text[:, 1::2] = ord(",")
        text[:, -1] = ord("\n")
        with open(self.table, "wb") as fh:
            fh.write((",".join(["z", *columns]) + "\n").encode())
            fh.write(text.tobytes())
        self.n = rows
        self.expected = expected_estimates(z, columns, CLI_MEASURES)
        self.rules = list(columns)
        self.size = {"rows": rows, "rules": rules, "targets": len(self.expected),
                     "csv_bytes": os.path.getsize(self.table)}

    def op(self) -> str:
        if os.path.exists(self.output):
            os.remove(self.output)
        argv = ["analyze", self.table, "--format", "json", "--output", self.output]
        code = perfci.cli.main(argv)
        if code != 0:
            raise OperationFailed(f"perfci analyze exited with {code}")
        if not os.path.exists(self.output):
            raise OperationFailed("perfci analyze wrote no output")
        with open(self.output) as fh:
            text = fh.read()
        if not text:
            raise OperationFailed("perfci analyze wrote an empty output")
        return text

    def check(self, text: str) -> list[str]:
        reports = checks.strict_loads(text)
        if not isinstance(reports, list) or len(reports) != len(self.rules):
            return [f"expected one report per rule ({len(self.rules)})"]
        problems = []
        for rule, report in zip(self.rules, reports):
            want = {k: v for k, v in self.expected.items() if k[0] == rule}
            problems += checks.check_report(report, want, n=self.n, mode="joint", choice=2)
        return problems

    def q_stderr(self, text: str) -> float:
        return float(np.mean([r["meta"]["mc_stderr"] for r in json.loads(text)]))


class AnalyzeLarge:
    """Library path: ``from_arrays``, then ``analyze`` in joint mode over all
    targets (one dim-K quantile), then in individual mode."""

    name = "analyze_large"
    replications = 1

    def __init__(self, seed: int, workdir: str, rows: int = 250_000, rules: int = 10):
        self.z, self.columns = make_table(seed, 2, rows, rules)
        self.n = rows
        self.expected = expected_estimates(self.z, self.columns, ALL_MEASURES)
        self.size = {"rows": rows, "rules": rules, "targets": len(self.expected)}

    def op(self) -> str:
        data = perfci.dataset.BinaryDataset.from_arrays(self.z, self.columns)
        targets = perfci.dataset.make_targets(data.rule_ids, ALL_MEASURES)
        reports = [
            perfci.intervals.analyze(data, targets, perfci.intervals.IntervalSpec(mode=mode))
            for mode in ("joint", "individual")
        ]
        return json.dumps([report_dict(r) for r in reports], allow_nan=False) + "\n"

    def check(self, text: str) -> list[str]:
        joint, individual = checks.strict_loads(text)
        return (
            checks.check_report(joint, self.expected, n=self.n, mode="joint", choice=2)
            + checks.check_report(individual, self.expected, n=self.n, mode="individual", choice=2)
            + checks.check_joint_vs_individual(joint, individual)
        )

    def q_stderr(self, text: str) -> float:
        return json.loads(text)[0]["meta"]["mc_stderr"]


class CoverageMixture:
    """``run_coverage`` on the acceptance mixture study: thresholds
    0.3/0.5/0.7, ``f_beta(0.5)`` and ``accuracy``, n = 500, choice 1, one
    joint set over all six targets, 20k quantile draws."""

    name = "coverage_mixture"
    thetas = (0.3, 0.5, 0.7)
    measure_ids = ("f_beta(0.5)", "accuracy")
    n = 500
    draws = 20_000

    def __init__(self, seed: int, workdir: str, replications: int = 250):
        self.seed = seed
        self.replications = replications
        sim = perfci.simulation
        self.config = sim.CoverageConfig(
            process=sim.GaussianMixtureProcess(),
            rules=tuple(sim.ThresholdRule(t) for t in self.thetas),
            measure_ids=self.measure_ids, n=self.n, replications=replications,
            alpha=checks.ALPHA, choice=1, joint_sets="all", draws=self.draws, seed=seed,
        )
        self.size = {"rows": self.n, "rules": len(self.thetas),
                     "targets": len(self.thetas) * len(self.measure_ids),
                     "replications": replications}

    def op(self) -> str:
        result = perfci.simulation.run_coverage(self.config)
        diag = result.diagnostics
        doc = {"report": result.as_dict(),
               "joint_q": diag.joint_q["all"].tolist(),
               "joint_mc_stderr": diag.joint_mc_stderr["all"].tolist()}
        return json.dumps(doc) + "\n"

    def check(self, text: str) -> list[str]:
        return checks.check_coverage(
            checks.strict_loads(text), thetas=self.thetas, measure_ids=self.measure_ids,
            n=self.n, replications=self.replications, seed=self.seed, draws=self.draws,
        )

    def q_stderr(self, text: str) -> float:
        return float(np.mean(json.loads(text)["joint_mc_stderr"]))


WORKLOADS = {w.name: w for w in (AnalyzeCsv, AnalyzeLarge, CoverageMixture)}
