"""Output checks for the benchmark workloads, independent of perfci's code.

Estimates are recomputed here from confusion counts (tp, fp, fn, tn) with
closed forms written out in count space, not through ``perfci.measures``.
JSON is parsed strictly: the bare ``NaN`` / ``Infinity`` tokens that
Python's encoder can write are rejected.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist

ALPHA = 0.05
# two-sided individual quantile z_{1-alpha/2}; every joint q must reach it
Z_INDIVIDUAL = NormalDist().inv_cdf(1.0 - ALPHA / 2.0)
# half-width of the joint-coverage band, in binomial standard deviations
COVERAGE_BAND_SIGMAS = 4.5
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def strict_loads(text: str):
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``."""
    return json.loads(text, parse_constant=_reject_constant)


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= ABS_TOL + REL_TOL * abs(expected)


def confusion_counts(z, a) -> tuple[int, int, int, int]:
    """``(tp, fp, fn, tn)`` of a 0/1 prediction column against labels."""
    z = z.astype(bool)
    a = a.astype(bool)
    tp = int((z & a).sum())
    fp = int((~z & a).sum())
    fn = int((z & ~a).sum())
    return tp, fp, fn, int(z.size) - tp - fp - fn


def measure_from_counts(measure_id: str, tp, fp, fn, tn) -> float:
    """Value of a measure from confusion counts (or cell probabilities).

    ``tversky(a,b)`` weighs false positives by ``a`` and false negatives
    by ``b``, as ``perfci.measures.make_tversky`` documents.
    """
    n = tp + fp + fn + tn
    pred = tp + fp
    pos = tp + fn
    if measure_id == "accuracy":
        return (tp + tn) / n
    if measure_id == "f1":
        return 2 * tp / (2 * tp + fp + fn)
    if measure_id.startswith("f_beta("):
        b2 = float(measure_id[len("f_beta(") : -1]) ** 2
        return (1 + b2) * tp / ((1 + b2) * tp + b2 * fn + fp)
    if measure_id == "jaccard":
        return tp / (tp + fp + fn)
    if measure_id.startswith("tversky("):
        wa, wb = (float(t) for t in measure_id[len("tversky(") : -1].split(","))
        return tp / (tp + wa * fp + wb * fn)
    if measure_id == "correlation":
        return (tp * tn - fp * fn) / math.sqrt(float(pred * pos * (tn + fp) * (tn + fn)))
    if measure_id == "cosine":
        return tp / math.sqrt(float(pred * pos))
    if measure_id == "lift":
        return tp * n / (pred * pos)
    if measure_id == "overlap":
        return tp / min(pred, pos)
    raise KeyError(f"no reference formula for {measure_id!r}")


def check_report(
    report: dict, expected: dict[tuple[str, str], float], *, n: int, mode: str, choice: int
) -> list[str]:
    """One analyze report (CLI JSON layout) against recomputed estimates.

    ``expected`` maps ``(rule, measure)`` to the recomputed estimate, in
    report order.
    """
    problems = []
    meta = report.get("meta", {})
    want_meta = {"n": n, "alpha": ALPHA, "choice": choice, "mode": mode}
    for key, want in want_meta.items():
        if meta.get(key) != want:
            problems.append(f"meta.{key} = {meta.get(key)!r}, expected {want!r}")
    q = meta.get("q")
    stderr = meta.get("mc_stderr")
    if not isinstance(q, float):
        return problems + [f"meta.q = {q!r} is not a number"]
    if mode == "joint":
        if q < Z_INDIVIDUAL:
            problems.append(f"joint q {q} below z_(1-alpha/2) = {Z_INDIVIDUAL}")
        if not (isinstance(stderr, float) and stderr > 0.0):
            problems.append(f"joint mc_stderr {stderr!r} is not positive")
    elif not close(q, Z_INDIVIDUAL):
        problems.append(f"individual q {q} differs from z_(1-alpha/2) = {Z_INDIVIDUAL}")

    rows = report.get("targets", [])
    keys = [(row.get("rule"), row.get("measure")) for row in rows]
    if keys != list(expected):
        return problems + [f"targets {keys} differ from expected {list(expected)}"]
    for row, want in zip(rows, expected.values()):
        label = f"{row['rule']}:{row['measure']}"
        if "error" in row:
            problems.append(f"{label} failed: {row['error']}")
            continue
        est, lo, hi = row["estimate"], row["lower"], row["upper"]
        if not close(est, want):
            problems.append(f"{label} estimate {est!r} != recomputed {want!r}")
        if not lo <= est <= hi:
            problems.append(f"{label} interval ({lo}, {hi}) excludes estimate {est}")
    return problems


def check_joint_vs_individual(joint: dict, individual: dict) -> list[str]:
    """Same data and variance choice: joint half-widths are the individual
    ones scaled by ``q / z``."""
    ratio = joint["meta"]["q"] / individual["meta"]["q"]
    problems = []
    for j, i in zip(joint["targets"], individual["targets"]):
        if "error" in j or "error" in i:
            continue
        if not close(j["half_width"], i["half_width"] * ratio):
            problems.append(
                f"{j['rule']}:{j['measure']} joint half-width {j['half_width']} "
                f"!= individual {i['half_width']} * q/z"
            )
    return problems


def coverage_band(replications: int, level: float = 1.0 - ALPHA) -> tuple[float, float]:
    """Binomial band around the nominal level for a coverage estimate."""
    half = COVERAGE_BAND_SIGMAS * math.sqrt(level * (1.0 - level) / replications)
    return level - half, min(1.0, level + half)


def mixture_threshold_cells(theta: float) -> tuple[float, float, float, float]:
    """Cell probabilities ``(tp, fp, fn, tn)`` of ``x > theta`` under the
    fair-coin mixture ``x ~ N(z, 1)``."""
    above1 = 1.0 - NormalDist(1.0, 1.0).cdf(theta)
    above0 = 1.0 - NormalDist(0.0, 1.0).cdf(theta)
    return 0.5 * above1, 0.5 * above0, 0.5 * (1.0 - above1), 0.5 * (1.0 - above0)


def check_coverage(
    doc: dict, *, thetas, measure_ids, n: int, replications: int, seed: int, draws: int
) -> list[str]:
    """A coverage study of threshold rules on the mixture, joint set ``all``.

    ``doc`` holds the study's ``report`` (``CoverageResult.as_dict``) and
    the per-replication ``joint_q`` / ``joint_mc_stderr`` of set ``all``.
    """
    problems = []
    report = doc["report"]
    want_meta = {"n": n, "alpha": ALPHA, "choice": 1, "replications": replications,
                 "seed": seed, "draws": draws}
    for key, want in want_meta.items():
        if report["meta"].get(key) != want:
            problems.append(f"meta.{key} = {report['meta'].get(key)!r}, expected {want!r}")
    targets = report["targets"]
    if len(targets) != len(thetas) * len(measure_ids):
        return problems + [f"{len(targets)} targets reported"]
    for row, (theta, mid) in zip(targets, ((t, m) for t in thetas for m in measure_ids)):
        want = measure_from_counts(mid, *mixture_threshold_cells(theta))
        if row["measure"] != mid or not close(row["true_value"], want):
            problems.append(f"{row['rule']}:{row['measure']} true value {row['true_value']} != {want}")
        if row["error_count"] != 0:
            problems.append(f"{row['rule']}:{row['measure']} failed in {row['error_count']} replications")
        if not 0.0 <= row["individual_coverage"] <= 1.0:
            problems.append(f"{row['rule']}:{row['measure']} coverage {row['individual_coverage']}")
    (joint,) = report["joint_sets"]
    lo, hi = coverage_band(replications)
    if not lo <= joint["coverage"] <= hi:
        problems.append(f"joint coverage {joint['coverage']} outside [{lo:.4f}, {hi:.4f}]")
    if joint["error_rate"] != 0.0:
        problems.append(f"joint set failed in a share {joint['error_rate']} of replications")
    if not joint["avg_q"] >= Z_INDIVIDUAL:
        problems.append(f"joint avg_q {joint['avg_q']} below z_(1-alpha/2)")
    low_q = [q for q in doc["joint_q"] if not q >= Z_INDIVIDUAL]
    if low_q or len(doc["joint_q"]) != replications:
        problems.append(f"{len(low_q)} replication quantiles below z_(1-alpha/2)")
    if not all(s > 0.0 for s in doc["joint_mc_stderr"]):
        problems.append("a replication quantile has no positive mc_stderr")
    return problems
