"""Command line front end.

Three subcommands:

* ``analyze``: read an evaluation CSV (column ``z`` plus one 0/1 column
  per rule), compute estimates and confidence intervals for the chosen
  measures, print JSON or an aligned table.
* ``coverage``: run a coverage study described by a key=value config
  file (with flag overrides) and print the aggregated result.
* ``quantile``: the equicoordinate max-|z| quantile for a correlation
  matrix given inline, as a CSV file, or as an identity dimension; exact
  at dimensions 1 and 2, simulated above.

Exit codes: 0 on full success, 2 when some (but not all) targets failed
and their errors are reported inline, 1 on hard errors such as a
malformed table or an unknown measure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import asdict
from typing import Sequence

import numpy as np

from .covariance import estimate_targets
from .dataset import make_joint_sets, make_targets, read_csv
from .errors import PerfciError
from .intervals import IntervalReport, IntervalSpec, set_report
from .measures import resolve_measure
from .quantiles import DEFAULT_DRAWS, QuantileRequest, check_budget, max_abs_quantile
from .simulation import (
    CoverageConfig,
    EmpiricalBootstrapProcess,
    FixedPredictionRule,
    GaussianMixtureProcess,
    OneNNRule,
    ThresholdRule,
    run_coverage,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_HARD = 1
EXIT_PARTIAL = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfci",
        description="Confidence intervals for performance measures of binary rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="intervals for rules in an evaluation CSV")
    pa.add_argument("table", help="CSV with a 'z' column and one 0/1 column per rule")
    pa.add_argument(
        "--measures",
        default="accuracy,f1",
        help="comma-separated measure ids, e.g. accuracy,f_beta(0.5) (default: accuracy,f1)",
    )
    pa.add_argument("--alpha", type=float, default=0.05, help="miscoverage level (default 0.05)")
    pa.add_argument(
        "--choice",
        type=int,
        choices=(1, 2),
        default=2,
        help="variance estimate: 1 plug-in, 2 corrected (default 2)",
    )
    pa.add_argument(
        "--joint",
        default="per-rule",
        help="joint sets: 'all', 'per-rule' (default), 'none' for individual "
        "intervals, index groups like '0,1;2,3', or mixes like 'per-rule,all;0,3'",
    )
    pa.add_argument("--draws", type=int, default=DEFAULT_DRAWS, help="quantile simulation draws (default 200000)")
    pa.add_argument("--seed", type=int, default=0, help="quantile simulation seed (default 0)")
    pa.add_argument("--format", choices=("json", "table"), default="table", dest="fmt")
    pa.add_argument("--clamp", action="store_true", help="truncate unit-range intervals to [0, 1]")
    pa.add_argument("--output", default=None, help="write to this path instead of stdout")

    pc = sub.add_parser("coverage", help="coverage study from a config file")
    pc.add_argument("--config", default=None, help="key=value config file")
    pc.add_argument("--process", default=None, help="gaussian_mixture | bootstrap")
    pc.add_argument("--population", default=None, help="population CSV (bootstrap process)")
    pc.add_argument("--rules", default=None, help="comma list: threshold(0.3), one_nn(500), or column names")
    pc.add_argument("--measures", default=None, help="comma-separated measure ids")
    pc.add_argument("--n", type=int, default=None, help="test-set size per replication")
    pc.add_argument("--replications", type=int, default=None)
    pc.add_argument("--alpha", type=float, default=None)
    pc.add_argument("--choice", type=int, choices=(1, 2), default=None)
    pc.add_argument("--joint", default=None, help="joint sets, as for analyze (default per-rule)")
    pc.add_argument("--draws", type=int, default=None)
    pc.add_argument("--seed", type=int, default=None)
    pc.add_argument("--format", choices=("json", "table"), default="table", dest="fmt")
    pc.add_argument("--output", default=None)

    pq = sub.add_parser("quantile", help="equicoordinate max-|z| quantile")
    pq.add_argument("--alpha", type=float, default=0.05)
    group = pq.add_mutually_exclusive_group(required=True)
    group.add_argument("--dim", type=int, default=None, help="identity correlation of this dimension")
    group.add_argument(
        "--corr",
        default=None,
        help="correlation matrix: inline rows '1,.5;.5,1' or a headerless CSV path",
    )
    pq.add_argument("--draws", type=int, default=DEFAULT_DRAWS)
    pq.add_argument("--seed", type=int, default=0)
    pq.add_argument("--format", choices=("json", "table"), default="table", dest="fmt")
    pq.add_argument("--output", default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _analyze_cmd(args)
        if args.command == "coverage":
            return _coverage_cmd(args)
        return _quantile_cmd(args)
    except (PerfciError, ValueError, OSError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _split_csv_list(raw: str) -> list[str]:
    """Split at commas outside parentheses: ``tversky(0.3,0.4)`` stays whole."""
    return [tok.strip() for tok in re.split(r",(?![^()]*\))", raw) if tok.strip()]


def _measure_ids(raw: str) -> list[str]:
    """The resolved ids of a comma list of measures: at least one, none twice."""
    ids = [resolve_measure(m).id for m in _split_csv_list(raw)]
    if not ids:
        raise ValueError("--measures must name at least one measure")
    for k, measure_id in enumerate(ids):
        if measure_id in ids[:k]:
            raise ValueError(f"duplicate measure id {measure_id!r}")
    return ids


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _analyze_cmd(args) -> int:
    data = read_csv(args.table)
    measure_ids = _measure_ids(args.measures)
    targets = make_targets(data.rule_ids, measure_ids)

    if args.joint.strip() == "none":
        mode, sets = "individual", [("all", tuple(range(len(targets))))]
    else:
        try:
            mode, sets = "joint", make_joint_sets(args.joint, targets)
        except ValueError as exc:
            raise ValueError(f"--joint {args.joint!r}: {exc}") from None
    spec = IntervalSpec(
        alpha=args.alpha,
        mode=mode,
        choice=args.choice,
        draws=args.draws,
        seed=args.seed,
        clamp=args.clamp,
    )
    fit = estimate_targets(data, targets)
    reports = [set_report(fit, targets, members, spec) for _, members in sets]

    if args.fmt == "json":
        payload = [_report_dict(r) for r in reports]
        text = _dump_json(payload[0] if len(payload) == 1 else payload)
    else:
        text = _report_table(reports, [label for label, _ in sets], measure_ids)
    _emit(text, args.output)

    rows = [row for r in reports for row in r.rows]
    if all(row.ok for row in rows):
        return EXIT_OK
    if any(row.ok for row in rows):
        return EXIT_PARTIAL
    return EXIT_HARD


def _report_dict(report: IntervalReport) -> dict:
    targets = []
    for row in report.rows:
        entry: dict = {"rule": row.rule_id, "measure": row.measure_id}
        if row.ok:
            entry.update(
                estimate=row.estimate,
                lower=row.lower,
                upper=row.upper,
                half_width=row.half_width,
            )
        else:
            entry["error"] = row.error
        targets.append(entry)
    q, mc, jitter = report.q, report.mc_stderr, report.jitter
    return {
        "meta": {
            "n": report.n,
            "alpha": report.alpha,
            "choice": report.choice,
            "mode": report.mode,
            "q": None if q != q else q,  # NaN -> null
            "mc_stderr": None if mc != mc else mc,
            "quantile_method": report.quantile_method,
            "jitter": None if jitter != jitter else jitter,
            "draws": report.draws,
            "seed": report.seed,
        },
        "targets": targets,
    }


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _report_table(
    reports: Sequence[IntervalReport], labels: Sequence[str], measure_ids: Sequence[str]
) -> str:
    """One row per rule of each set, with a ``set`` column once a rule has
    more than one row; q columns once the sets' q differ."""
    first = reports[0]
    methods = dict.fromkeys(r.quantile_method for r in reports if r.quantile_method)
    lines = [
        f"n={first.n}  alpha={first.alpha:g}  choice={first.choice}  mode={first.mode}  "
        f"method={','.join(methods) or '-'}"
    ]
    rows: dict[tuple[str, str], tuple[IntervalReport, dict[str, str]]] = {}
    for label, report in zip(labels, reports):
        for row in report.rows:
            cells = rows.setdefault((label, row.rule_id), (report, {}))[1]
            if row.ok:
                cells[row.measure_id] = f"({row.lower:.4f}, {row.upper:.4f})"
            else:
                cells[row.measure_id] = f"error({(row.error or 'error').split(':')[0]})"
    rules = [rid for _, rid in rows]
    show_set = len(set(rules)) < len(rules)
    single_q = len({round(r.q, 12) for r, _ in rows.values() if r.q == r.q}) <= 1
    header = ["set"] * show_set + ["rule"] + ["q", "mc_stderr"] * (not single_q) + [*measure_ids]
    # a set with no usable target has no q; show the first set that has one
    shown = next((r for r in reports if r.q == r.q), None)
    # mc_stderr in g notation: an exact quantile's error bound is near 1e-14
    if single_q and shown is not None:
        lines.append(f"q={shown.q:.4f}  mc_stderr={shown.mc_stderr:.3g}")
    table_rows = []
    for (label, rid), (report, cells) in rows.items():
        row = [label] * show_set + [rid]
        if not single_q:
            q = report.q
            row += [f"{q:.4f}", f"{report.mc_stderr:.3g}"] if q == q else ["-", "-"]
        table_rows.append(row + [cells.get(mid, "-") for mid in measure_ids])
    return "\n".join(lines + _aligned([header, *table_rows])) + "\n"


def _aligned(rows: Sequence[Sequence[str]]) -> list[str]:
    """The rows as lines, each column left-justified to its widest cell."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

# defaults of the keys that only the command line reads; CoverageConfig's
# fields keep the dataclass defaults when neither a file nor a flag sets them
_COVERAGE_DEFAULTS = dict(
    process="gaussian_mixture", replace="true", measures="accuracy,f1", joint="per-rule"
)
_COVERAGE_FIELDS = dict(n=int, replications=int, alpha=float, choice=int, draws=int, seed=int)
_COVERAGE_KEYS = (*_COVERAGE_DEFAULTS, "population", "rules", *_COVERAGE_FIELDS)


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            if key not in _COVERAGE_KEYS:
                known = ", ".join(_COVERAGE_KEYS)
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; known keys: {known}")
            out[key] = value
    return out


def _coverage_cmd(args) -> int:
    settings = dict(_COVERAGE_DEFAULTS)
    if args.config:
        settings.update(_read_config_file(args.config))
    for key in _COVERAGE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = str(value)

    if "n" not in settings:
        raise ValueError("coverage needs n (config key n= or flag --n)")
    if "rules" not in settings:
        raise ValueError("coverage needs rules (config key rules= or flag --rules)")

    fields = {k: cast(settings[k]) for k, cast in _COVERAGE_FIELDS.items() if k in settings}
    seed = fields.get("seed", CoverageConfig.seed)
    if seed < 0:  # a one_nn rule trains from it before CoverageConfig checks it
        raise ValueError(f"seed must be non-negative, got {seed}")
    process, rules = _build_process_and_rules(settings, seed)
    config = CoverageConfig(
        process=process,
        rules=tuple(rules),
        measure_ids=_measure_ids(settings["measures"]),
        joint_sets=settings["joint"],
        **fields,
    )
    result = run_coverage(config)

    text = _dump_json(result.as_dict()) if args.fmt == "json" else _coverage_table(result)
    _emit(text, args.output)
    return EXIT_OK


def _build_process_and_rules(settings: dict[str, str], seed: int):
    kind = settings["process"].strip().lower()
    rule_tokens = _split_csv_list(settings["rules"])
    if kind in ("gaussian_mixture", "mixture"):
        process = GaussianMixtureProcess()
        rules = []
        # several 1-NN rules are told apart by position, whatever their sizes
        lone_nn = sum(token.startswith("one_nn(") for token in rule_tokens) == 1
        for pos, token in enumerate(rule_tokens):
            if token.startswith("threshold(") and token.endswith(")"):
                rules.append(ThresholdRule(float(token[len("threshold(") : -1])))
            elif token.startswith("one_nn(") and token.endswith(")"):
                size = int(token[len("one_nn(") : -1])
                rule_id = "one_nn" if lone_nn else f"one_nn_{pos}"
                rules.append(
                    OneNNRule.train(
                        process, size, seed=seed + 0x51_000 + pos, rule_id=rule_id
                    )
                )
            else:
                raise ValueError(
                    f"rule {token!r} not valid for the mixture process; "
                    "use threshold(x) or one_nn(train_size)"
                )
        return process, rules
    if kind in ("empirical_bootstrap", "bootstrap"):
        if "population" not in settings:
            raise ValueError("bootstrap process needs population=<csv path>")
        population = read_csv(settings["population"])
        replace = settings["replace"].strip().lower() not in ("false", "0", "no")
        process = EmpiricalBootstrapProcess(population, with_replacement=replace)
        rules = [FixedPredictionRule(token) for token in rule_tokens]
        return process, rules
    raise ValueError(f"unknown process {settings['process']!r}")


def _coverage_table(result) -> str:
    lines = [
        f"n={result.n}  replications={result.replications}  alpha={result.alpha:g}  "
        f"choice={result.choice}  seed={result.seed}"
    ]
    rows = [["target", "true", "indiv_cov", "avg_len", "errors"]]
    for k, t in enumerate(result.targets):
        rows.append(
            [
                t.label(),
                f"{result.true_values[k]:.4f}",
                f"{result.individual_coverage[k]:.4f}",
                f"{result.avg_individual_length[k]:.4f}",
                str(int(result.target_error_counts[k])),
            ]
        )
    lines += _aligned(rows)
    lines.append(f"joint-of-individual: {result.joint_of_individual:.4f}")
    for js in result.joint_sets:
        lines.append(
            f"joint[{js.label}]: coverage={js.coverage:.4f}  avg_q={js.avg_q:.4f}  "
            f"error_rate={js.error_rate:.4f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------


def _parse_corr_argument(raw: str) -> np.ndarray:
    """A correlation matrix from a CSV file (one row per line) or inline
    (rows separated by ``;``)."""
    if os.path.exists(raw):
        # utf-8-sig drops the byte-order mark spreadsheet exports start with
        with open(raw, encoding="utf-8-sig") as fh:
            lines = list(fh)
    else:
        lines = raw.split(";")
    rows = [[float(tok) for tok in line.split(",")] for line in lines if line.strip()]
    if not rows:
        raise ValueError(f"could not parse correlation matrix from {raw!r}")
    return np.asarray(rows, dtype=float)


def _quantile_cmd(args) -> int:
    if args.dim is not None:
        check_budget(args.dim, args.draws)  # before the dim x dim identity
        corr = np.eye(args.dim)
    else:
        corr = _parse_corr_argument(args.corr)
    request = QuantileRequest(alpha=args.alpha, corr=corr, draws=args.draws, seed=args.seed)
    result = max_abs_quantile(request)
    if args.fmt == "json":
        text = _dump_json(asdict(result))
    else:
        text = (
            f"q={result.q:.6f}  mc_stderr={result.mc_stderr:.3g}  "
            f"alpha={result.alpha:g}  dim={result.dim}  draws={result.draws}  "
            f"seed={result.seed}  method={result.method}\n"
        )
    _emit(text, args.output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
