"""perfci benchmark: one workload per process, closed loop with one client.

    python3 bench/run.py --workload analyze_csv --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; perfci is imported from ``src/``.
Inputs are generated in-process from ``--seed``.  After one warm-up
operation the workload repeats its operation until ``--seconds`` have
passed (at least ``MIN_OPS`` times).  Every output is checked.  Times
are scaled for machine speed by a calibration kernel (see ``Calibration``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with every perfci entry point wrapped in spans
(see ``spans.py``), prints per-operation layer metrics and the tracing
overhead, and writes the spans to ``.bench_out/``.

Human-readable lines come first (environment, metrics by name and unit,
``error_rate``); the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 3
SETUP_SAMPLES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyze_csv", "analyze_large", "coverage_mixture"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_seconds() -> float:
    """Median time from starting a fresh interpreter until ``perfci.cli``
    is imported, over ``SETUP_SAMPLES`` interpreters after an untimed one
    that brings the files into the page cache.  Each sample is scaled for
    machine speed like an operation (see ``Calibration``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import time, perfci.cli; print(repr(time.time())); print(perfci.cli.__file__)"
    calibration = Calibration()
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        if index:
            calibration.run()
        start = time.time()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        imported, where = done.stdout.split("\n")[:2]
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"setup imported perfci from {where}, not {SRC}")
        samples.append(float(imported) - start)
    return calibration.median(samples[1:])


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_commit():
    """Commit of the checkout read from ``.git``, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "perfci").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": blas_threads(), "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(), "input": workload.size,
    }


class Tally:
    """Attempted and failed operations; the first output is the reference
    every later output must equal byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def record(self, workload) -> float:
        """Run one operation, check it, and return its wall seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            text = workload.op()
        except Exception as exc:  # any failure of the program counts against error_rate
            elapsed = time.perf_counter() - start
            self._fail(f"operation raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        if self.reference is None:
            try:
                problems = workload.check(text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"malformed output: {type(exc).__name__}: {exc}"]
            if problems:
                self._fail("; ".join(problems[:5]))
            else:
                self.reference = text
        elif text != self.reference:
            self._fail("output differs from the first output of the same seed")
        return elapsed

    def _fail(self, message: str):
        self.failed += 1
        print(f"FAILED operation {self.attempted}: {message}", file=sys.stderr)


def closed_loop(workload, tally, seconds, on_op=None) -> list[float]:
    """Repeat the operation until ``seconds`` pass and ``MIN_OPS`` ran;
    ``on_op(index)`` runs before each one, outside its time."""
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        if on_op is not None:
            on_op(len(times))
        times.append(tally.record(workload))
    return times


class Calibration:
    """A fixed mix of interpreter, array and BLAS work, run before each
    timed operation.

    On a machine whose cores are shared, speed drifts by tens of percent
    within seconds and minutes, so raw medians of separate runs spread too
    widely to bound.  Each operation's time is therefore scaled by
    ``REFERENCE_S`` over the kernel time measured just before it.  The
    result reads as seconds on a machine that runs the kernel in
    ``REFERENCE_S``; a 2-core x86-64 VM with Python 3.11 and numpy 2.4
    does.  The arrays are small so the kernel adds little to peak memory.
    """

    REFERENCE_S = 0.05

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vector = rng.random(200_000)
        self.matrix = rng.random((16, 25_000))
        self.samples = []

    def run(self, _index=None):
        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i
        v = self.vector
        for _ in range(20):
            v = np.sqrt(v * 1.0001 + 1.0)
        for _ in range(10):
            self.matrix @ self.matrix.T
        self.samples.append(time.perf_counter() - start)

    def median(self, times) -> float:
        """Median operation time, each scaled by the kernel run before it."""
        return statistics.median(
            t * self.REFERENCE_S / k for t, k in zip(times, self.samples, strict=True))


def end_to_end(args, workload, tally) -> dict:
    """The ``end_to_end`` metrics of ``BENCHMARK.json``, untraced."""
    setup = setup_seconds()
    tally.record(workload)  # warm-up: caches, lazy imports, page faults
    calibration = Calibration()
    times = closed_loop(workload, tally, args.seconds, on_op=calibration.run)
    op_s = calibration.median(times)
    print(f"samples {len(times)} operations: wall median {statistics.median(times):.4f} s, "
          f"min {min(times):.4f} s, max {max(times):.4f} s; calibration kernel "
          f"median {statistics.median(calibration.samples):.4f} s "
          f"(reference {Calibration.REFERENCE_S} s)")
    # with no output that passed its checks there is no quantile to report
    q_stderr = workload.q_stderr(tally.reference) if tally.reference else 0.0
    return {
        "setup_s": (setup, "s"),
        "analyze_s": (op_s, "s"),
        "reps_per_s": (workload.replications / op_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "q_stderr": (q_stderr, "1"),
        "ok_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
    }


def traced(args, workload, tally, env) -> dict:
    """Half the time untraced, half traced; per-layer metrics per operation."""
    tally.record(workload)  # warm-up
    plain_calibration = Calibration()
    plain = closed_loop(workload, tally, args.seconds / 2, on_op=plain_calibration.run)
    calibration = Calibration()
    recorder = spans.SpanRecorder()

    def before_op(index):
        calibration.run()
        recorder.op = index

    with spans.installed(recorder):
        traced_times = closed_loop(workload, tally, args.seconds / 2, on_op=before_op)

    per_op = {}
    for (_name, op), (ns, _calls) in recorder.self_ns().items():
        per_op[op] = per_op.get(op, 0) + ns
    over = [op for op, ns in per_op.items() if ns > traced_times[op] * 1e9]
    if over:
        raise RuntimeError(f"span self times exceed the wall time of operations {over}")

    with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"env": env, "op_wall_s": traced_times, "spans": recorder.spans}, fh)

    metrics = spans.layer_metrics(recorder, len(traced_times))
    traced_s = calibration.median(traced_times)
    metrics["tracing.traced_op_s"] = (traced_s, "s")
    metrics["tracing.overhead_s"] = (traced_s - plain_calibration.median(plain), "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "perfci" / "__init__.py").is_file():
        print(f"error: no perfci sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        env = environment(args, workload)
        print("env " + json.dumps(env))
        tally = Tally()
        if args.trace:
            metrics = traced(args, workload, tally, env)
        else:
            metrics = end_to_end(args, workload, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric error_rate = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
