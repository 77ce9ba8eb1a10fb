#!/usr/bin/env python3
"""nashlq benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``BENCHMARK.json`` or ``all``.  Run it from
the root of a source checkout; the program is imported from ``src``, never
from an installed copy.  This process only orchestrates and never imports
numpy: every measurement runs in a fresh child (``worker.py``), one at a
time, with BLAS pinned to one thread, so one workload's memory peak cannot
leak into another's and the load comes from a single process.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``
(median of fresh-process imports plus input building), ``wall_s`` (median
repetition, scaled to nominal CPU speed by ``worker.SpeedProbe``) and
``peak_rss_mb``.  With ``--trace 1`` it holds the per-layer
metrics of ``tracer.py`` plus ``learning.nash_residual`` and
``trace.overhead_s``.  Earlier stdout lines give the environment stamp and a
readable summary, including the nash residual and the failed-op share; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 1 means a correctness check failed, 2 a usage or
checkout problem.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

WORKLOADS = ("repro-model-free", "exact-play", "rosen-ensemble", "model-free-n20")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics that come from the harness rather than the tracer.
HARNESS_LAYER = {"learning.nash_residual": "gain", "trace.overhead_s": "s"}

# Fresh processes timed for setup_s; the median damps the cold first import.
SETUP_RUNS = 3

# One BLAS thread: the figures then measure the program, not the scheduler.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Child time limits in seconds, on top of the measuring time.
SETUP_TIMEOUT = 60
MEASURE_SLACK = 100


class BenchError(RuntimeError):
    """A child process failed; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in _BLAS_VARS})
    # The harness's own modules are named too, so the child finds them even
    # when the interpreter leaves the script's directory off sys.path.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), str(HERE), env.get("PYTHONPATH"))))
    return env


def _child(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args[:2])} exceeded {timeout:g} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args[:2])} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; returns the result object for the last line."""
    outdir = SCRATCH / f"{workload}-{os.getpid()}"
    try:
        setups = []
        if not trace:
            setups = [_child(["setup", workload, str(seed)], SETUP_TIMEOUT) for _ in range(SETUP_RUNS)]
        args = ["measure", workload, str(seed), str(seconds), "1" if trace else "0", str(outdir)]
        report = _child(args, seconds + MEASURE_SLACK)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only once no other run is using it

    env = {**report["env"], "nproc": _nproc(), "commit": git_commit(), "workload": workload, "seed": seed}
    raw_wall = statistics.median(report["walls"])
    summary = f"{workload} seed {seed}: reps {report['reps']}, raw wall {raw_wall:.4f} s, "
    if trace:
        values = dict(report["layers"])
        values["learning.nash_residual"] = report["nash_residual"]
        values["trace.overhead_s"] = statistics.median(report["traced_walls"]) - raw_wall
        units = {**report["layer_units"], **HARNESS_LAYER}
    else:
        values = {
            "setup_s": statistics.median(c["setup_s"] for c in setups),
            "wall_s": statistics.median(report["nominal_walls"]),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END
        summary += (
            f"wall_s {values['wall_s']:.4f} s, "
            f"raw setup {statistics.median(c['raw_s'] for c in setups):.4f} s, "
            f"setup_s {values['setup_s']:.4f} s, "
        )
    share = report["failed"] / report["attempted"]
    print("env " + json.dumps(env, sort_keys=True))
    print(
        summary + f"peak_rss_mb {report['peak_rss_mb']:.1f} MiB, "
        f"nash_residual {report['nash_residual']:.3e} gain, "
        f"failed_ops {share:g} ({report['failed']}/{report['attempted']})"
    )
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nashlq" / "__init__.py").is_file():
        print(f"error: no nashlq sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {name: r["metrics"] for name, r in zip(names, results)},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
