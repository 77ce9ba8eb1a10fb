"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS TRACE OUTDIR

``setup`` times ``import nashlq`` plus building the workload's inputs, which
is what a CLI user pays on every run.  ``measure`` repeats the workload as
often as fits in SECONDS and reports per-repetition wall times, the checks, the
nash residual and the process's peak resident memory; with TRACE=1 it
alternates untraced and traced repetitions, without the probe, and adds the
per-layer metrics.
Both give times raw and at nominal CPU speed (see :class:`SpeedProbe`), and
both print one JSON object as their last stdout line.  The parent sets
PYTHONPATH to the checkout's ``src`` and this directory and pins the BLAS
thread count.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Failing ops echoed to stderr per repetition; the count is always complete.
_SHOWN_FAILURES = 5

# Probe period in seconds of wall time.
PROBE_INTERVAL_S = 0.025

# Each probe kernel's warm time at the nominal speed: its fast-phase time in
# a tight loop on a 2-vCPU KVM Xeon guest under Python 3.11 and numpy 2.4.
LAPACK_NOMINAL_S = 4.8e-5
PYTHON_NOMINAL_S = 1.2e-4


def python_kernel() -> None:
    """Pure-Python probe kernel, usable before numpy is imported."""
    total = 0
    for i in range(2000):
        total += i * i


def lapack_kernel():
    """Probe kernel of eight eigensolves of a fixed 5x5 symmetric matrix."""
    import numpy as np

    eigvalsh, matrix = np.linalg.eigvalsh, np.eye(5) * 2.0 + 0.1

    def kernel() -> None:
        for _ in range(8):
            eigvalsh(matrix)

    return kernel


class SpeedProbe:
    """Measures how fast the CPU ran while a timed section ran.

    On a shared virtual machine the vCPU's speed switches between phases up
    to 1.5x apart, several times a second, as other tenants load the host.
    Steal time stays near zero and CPU time slows with wall time, so
    neither repeats from run to run.  While active, a timer signal runs a
    fixed kernel every ``PROBE_INTERVAL_S``, and once at the start.  The
    kernel runs twice per probe and only the second, warm call is timed, so
    the sample reflects the CPU's speed rather than what the program left
    in the caches.  ``scale`` is the mean of ``nominal_s / sample``.  The
    section's wall time times ``scale`` is the time it would take at the
    nominal speed.  The kernels are the harness's own code, so a change to
    the program cannot move them.  They cost about 1% of the section.
    """

    def __init__(self, kernel, nominal_s: float):
        self._kernel = kernel
        self._nominal_s = nominal_s
        self.samples: list[float] = []
        self._previous = None

    def _probe(self, *_):
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        return statistics.fmean(self._nominal_s / sample for sample in self.samples)


def _load(workload: str, seed: int, **size):
    """Import the program, check it is the checkout's, and build the inputs."""
    import workloads

    import nashlq

    if Path(nashlq.__file__).resolve().parent != SRC / "nashlq":
        raise SystemExit(f"nashlq was imported from {nashlq.__file__}, not from {SRC}")
    spec = workloads.WORKLOADS[workload]
    return spec, spec.setup(seed, **size)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, outdir: Path, **size) -> dict:
    """Repeat one workload within ``seconds``; checks run between repetitions."""
    spec, inputs = _load(workload, seed, **size)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    outdir.mkdir(parents=True, exist_ok=True)

    walls, nominal_walls, traced_walls, layers = [], [], [], []
    attempted = failed = 0
    ref = result = None
    probe = SpeedProbe(lapack_kernel(), LAPACK_NOMINAL_S)
    began = last = time.perf_counter()
    rep = 0
    while True:
        # With tracing, repetitions alternate untraced / traced, untraced first.
        traced = trace and rep % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                raw, wall = _timed(spec.run, inputs, outdir)
            finally:
                tracer.remove()
            traced_walls.append(wall)
            layers.append(tracer.metrics())
        elif trace:
            raw, wall = _timed(spec.run, inputs, outdir)
            walls.append(wall)
        else:
            with probe:
                raw, wall = _timed(spec.run, inputs, outdir)
            walls.append(wall)
            nominal_walls.append(wall * probe.scale())

        result = spec.collect(inputs, raw)
        ops = spec.check(inputs, result, ref)
        ref = result if ref is None else ref
        bad = [op for op in ops if not op.ok]
        attempted += len(ops)
        failed += len(bad)
        for op in bad[:_SHOWN_FAILURES]:
            print(f"CHECK FAILED {workload} rep {rep} {op.name}: {op.detail}", file=sys.stderr)

        rep += 1
        now = time.perf_counter()
        # Stop once another repetition as long as the last one would end
        # past ``seconds``, so that a run measures for at most that long.
        if rep >= (2 if trace else 1) and now + (now - last) - began > seconds:
            break
        last = now

    report = {
        "walls": walls,
        "nominal_walls": nominal_walls,
        "attempted": attempted,
        "failed": failed,
        "reps": rep,
        "nash_residual": spec.residual(inputs, result),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if trace:
        report["traced_walls"] = traced_walls
        report["layers"] = {
            key: statistics.median(sample[key] for sample in layers) for key in layers[0]
        }
        report["layer_units"] = {row["name"]: row["unit"] for row in tracing.metric_table()}
    return report


def main(argv: list[str]) -> int:
    role, workload, seed = argv[0], argv[1], int(argv[2])
    if role == "setup":
        # numpy is not imported yet: its import is part of what is timed.
        with SpeedProbe(python_kernel, PYTHON_NOMINAL_S) as probe:
            start = time.perf_counter()
            _load(workload, seed)
            wall = time.perf_counter() - start
        report = {"raw_s": wall, "setup_s": wall * probe.scale()}
    elif role == "measure":
        report = measure(workload, seed, float(argv[3]), argv[4] == "1", Path(argv[5]))
    else:
        raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
