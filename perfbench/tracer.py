"""In-memory span tracer for the traced benchmark run.

The tracer wraps nashlq's public functions at the names their callers look
up.  Most modules bind names at import (``from .game import evaluate``), so
``nashlq.learning.evaluate`` must be patched as well as
``nashlq.game.evaluate``; ``GameSpec`` is traced through its
``__post_init__``, which every construction runs.  Spans (name, start, end,
parent) are kept in parallel lists and reduced to per-layer metrics when the
repetition ends; :meth:`Tracer.remove` restores every original.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from nashlq import analysis, cli, game, learning, output, simulate

# Span names, in the order their metrics are reported.
SPANS = (
    "cli.main",
    "config.load_experiment",
    "learning.run_gradient_play",
    "game.evaluate",
    "game.pseudogradient_jacobian",
    "game.GameSpec",
    "simulate.monte_carlo_cost",
    "simulate.pair_integrals",
    "analysis.conjecture_sweep",
    "analysis.rosen_sweep",
    "analysis.rosen_check",
    "analysis.game_from_matrix",
    "output.write_history",
    "output.write_json",
)

# (span, metric suffix, scale): percentiles of inclusive span durations.
PERCENTILES = (
    ("game.evaluate", "us", 1e6),
    ("analysis.rosen_check", "us", 1e6),
    ("simulate.monte_carlo_cost", "ms", 1e3),
)

COUNTS = (
    ("learning.stages", "count", "lower"),
    ("learning.converged_ratio", "ratio", "higher"),
    ("simulate.trajectories", "count", "higher"),
    ("analysis.spot_checks", "count", "higher"),
    ("game.not_pd.count", "count", "lower"),
    ("output.write_history.bytes", "bytes", "lower"),
)


def metric_table() -> list[dict]:
    """Name, unit and direction of every per-layer metric the tracer gives."""
    table = []
    for span in SPANS:
        table.append({"name": f"{span}.self_s", "unit": "s", "better": "lower"})
        table.append({"name": f"{span}.calls", "unit": "count", "better": "lower"})
    for span, unit, _ in PERCENTILES:
        for q in ("p50", "p90"):
            table.append({"name": f"{span}.{unit}_{q}", "unit": unit, "better": "lower"})
    for name, unit, better in COUNTS:
        table.append({"name": name, "unit": unit, "better": better})
    return table


def _count_runs(counts, args, kwargs, run):
    counts["learning.runs"] += 1
    counts["learning.stages"] += run.stages_used
    counts["learning.converged"] += run.converged


def _count_trajectories(counts, args, kwargs, estimate):
    config = kwargs["config"] if "config" in kwargs else args[2]
    counts["simulate.trajectories"] += config.batch_size


def _count_spot_checks(counts, args, kwargs, sweep):
    counts["analysis.spot_checks"] += sweep.spot_checked


def _count_bytes(counts, args, kwargs, path):
    counts["output.write_history.bytes"] += path.stat().st_size


# (owner, attribute, span, counter): every binding the workloads reach.
_PATCHES = (
    (cli, "main", "cli.main", None),
    (cli, "load_experiment", "config.load_experiment", None),
    (cli, "run_gradient_play", "learning.run_gradient_play", _count_runs),
    (cli, "write_history", "output.write_history", _count_bytes),
    (cli, "write_json", "output.write_json", None),
    (learning, "run_gradient_play", "learning.run_gradient_play", _count_runs),
    (learning, "evaluate", "game.evaluate", None),
    (learning, "monte_carlo_cost", "simulate.monte_carlo_cost", _count_trajectories),
    (game, "evaluate", "game.evaluate", None),
    (game.GameSpec, "__post_init__", "game.GameSpec", None),
    (simulate, "pair_integrals", "simulate.pair_integrals", None),
    (analysis, "conjecture_sweep", "analysis.conjecture_sweep", _count_spot_checks),
    (analysis, "rosen_sweep", "analysis.rosen_sweep", None),
    (analysis, "rosen_check", "analysis.rosen_check", None),
    (analysis, "pseudogradient_jacobian", "game.pseudogradient_jacobian", None),
    (analysis, "game_from_matrix", "analysis.game_from_matrix", None),
    (output, "write_history", "output.write_history", _count_bytes),
    (output, "write_json", "output.write_json", None),
)


class Tracer:
    """Records spans while installed; one instance serves many repetitions."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(index)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except game.NotPositiveDefinite as err:
                if not getattr(err, "_counted", False):
                    err._counted = True
                    self.counts["game.not_pd.count"] += 1
                raise
            finally:
                self.ends[index] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, counter in _PATCHES:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        A span's self time is its duration minus the time its child spans
        cover; spans nest without overlap in this single-threaded program,
        so that is the sum of its children's durations.
        """
        names = np.array(self.names, dtype=object)
        duration = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=int)
        children = np.zeros(len(duration))
        nested = parents >= 0
        np.add.at(children, parents[nested], duration[nested])
        own = duration - children

        out = {}
        for span in SPANS:
            mask = names == span
            out[f"{span}.self_s"] = float(own[mask].sum())
            out[f"{span}.calls"] = int(mask.sum())
        for span, unit, scale in PERCENTILES:
            sample = duration[names == span] * scale
            for q in (50, 90):
                out[f"{span}.{unit}_p{q}"] = float(np.percentile(sample, q)) if sample.size else 0.0
        runs = self.counts["learning.runs"]
        for name, _, _ in COUNTS:
            out[name] = float(self.counts[name])
        out["learning.converged_ratio"] = self.counts["learning.converged"] / runs if runs else 0.0
        return out
