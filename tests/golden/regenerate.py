"""Golden outputs of the ``perfci`` command: the cases and their regeneration.

Each case is one ``perfci`` command on inputs written here from fixed
seeds.  Its golden file ``<name>.json`` beside this script holds the
command's arguments (input paths relative to the input directory), its exit
code and its JSON output.  ``tests/test_golden.py`` reruns every case and
compares the outputs: strings, integers, booleans and nulls exactly, floats
to a relative ``1e-12``, since BLAS kernels may round differently on other
CPUs.

Regenerate every file from the root of a checkout with::

    PYTHONPATH=src python tests/golden/regenerate.py

A change that moves a stream or the estimator reruns it; ``git diff
tests/golden`` then shows which values moved, and by how much.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
TINY = "z,a\n1,1\n1,0\n0,1\n0,0\n1,1\n0,0\n"
NINE = "accuracy,f1,f_beta(0.5),jaccard,tversky(0.5,0.5),correlation,cosine,lift,overlap"
MIXTURE = (
    "coverage", "--process", "mixture", "--rules", "threshold(0.3),threshold(0.5),threshold(0.7)",
    "--measures", "f_beta(0.5),accuracy", "--n", "500", "--replications", "130", "--draws", "20000",
    "--joint", "per-rule,all",
)


def _ruled(rows: int, rules: int, seed: int) -> np.ndarray:
    """``rows`` rows of ``z`` and ``rules`` rule columns that flag fewer
    positives than ``z`` has, as 0/1 ints."""
    rng = np.random.default_rng(seed)
    z = rng.random(rows) < 0.4
    u = rng.random((rows, rules))
    a = np.where(z[:, None], u > 0.25, u < 0.05)
    return np.column_stack([z, a]).astype(int)


def _save(path: Path, table: np.ndarray, fmt: str) -> None:
    header = ",".join(["z"] + [f"r{j}" for j in range(table.shape[1] - 1)])
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=header, comments="")


def write_inputs(folder: Path) -> None:
    """The input tables of the cases, written into ``folder``."""
    (folder / "tiny.csv").write_text(TINY)
    _save(folder / "wide.csv", _ruled(2000, 40, seed=1), "%d")
    _save(folder / "float.csv", _ruled(500, 4, seed=2), "%.1f")  # "0.0"/"1.0" cells, read by csv.reader
    # 25 columns, past the one-bin-per-row cap, in chunks of 2,621 csv.reader rows
    _save(folder / "float24.csv", _ruled(6000, 24, seed=3), "%.1f")
    (folder / "zeros.csv").write_text("z,a\n1,0\n0,0\n1,0\n0,0\n")
    # a rare-positive population: its zero-overlap samples have singular rows
    rows = ["1,1"] + ["1,0"] * 39 + ["0,1"] * 4 + ["0,0"] * 356
    (folder / "population.csv").write_text("z,weak\n" + "\n".join(rows) + "\n")


# name -> arguments after ``perfci``; "{dir}" is the input directory
CASES: dict[str, tuple[str, ...]] = {
    "analyze_tiny": ("analyze", "{dir}/tiny.csv", "--format", "json"),
    "analyze_float": ("analyze", "{dir}/float.csv", "--format", "json", "--joint", "per-rule;0,2,4,6", "--measures", NINE),
    "analyze_wide_per_rule": ("analyze", "{dir}/wide.csv", "--format", "json", "--joint", "per-rule"),
    "analyze_wide_none": ("analyze", "{dir}/wide.csv", "--format", "json", "--joint", "none", "--measures", NINE),
    "analyze_wide_per_rule_all": ("analyze", "{dir}/wide.csv", "--format", "json", "--joint", "per-rule,all"),
    "analyze_float24": ("analyze", "{dir}/float24.csv", "--format", "json", "--joint", "per-rule;0,10,20,30"),
    # a rule of all zeros: the f1 variance is singular under choice 1, so the set has
    # no quantile and the run exits 1 with a null q
    "analyze_zeros": ("analyze", "{dir}/zeros.csv", "--format", "json", "--choice", "1", "--measures", "f1", "--joint", "0"),
    "quantile_dim2": ("quantile", "--dim", "2", "--format", "json"),
    "quantile_pair": ("quantile", "--corr", "1,0.6;0.6,1", "--format", "json"),
    "quantile_dim3": ("quantile", "--dim", "3", "--format", "json"),
    "quantile_dim6": ("quantile", "--dim", "6", "--format", "json"),
    "quantile_dim30": ("quantile", "--dim", "30", "--format", "json"),
    "coverage_mixture_choice1": MIXTURE + ("--format", "json", "--choice", "1"),
    "coverage_mixture_choice2": MIXTURE + ("--format", "json", "--choice", "2"),
    "coverage_bootstrap": (
        "coverage", "--process", "bootstrap", "--population", "{dir}/population.csv", "--rules", "weak",
        "--measures", "f_beta(0.5),accuracy", "--n", "300", "--replications", "150", "--draws", "1000",
        "--joint", "0,1", "--format", "json",
    ),
}


def run_case(name: str, folder: Path) -> dict:
    """The golden record of case ``name``, its inputs in ``folder``."""
    from perfci.cli import main

    argv = [arg.replace("{dir}", str(folder)) for arg in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": list(CASES[name]), "exit": code, "output": json.loads(out.getvalue())}


def dump(record: dict) -> str:
    """``record`` as the text of its golden file."""
    return json.dumps(record, indent=1) + "\n"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        write_inputs(folder)
        for name in CASES:
            (HERE / f"{name}.json").write_text(dump(run_case(name, folder)))
            print(f"wrote {name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
