"""Projected gradient play toward a Nash equilibrium.

All players update simultaneously from the shared previous profile:

    k_i <- clip(k_i - eta * grad_i, box)

In exact mode the gradient comes from the closed form; in model-free mode
each player estimates its own cost by Monte Carlo batch averaging and maps
the estimate through the marginal-cost identity, so no player ever needs
the system matrices or the others' actions.

Play runs in lockstep over an ``(R, n)`` stack of profiles, one per start.
The gradient source is chosen once per run (:func:`_estimator`): per stage,
an exact stack takes one call of the profile kernel (a lone start its lone
path, whose Python floats become the stage's arrays with no report), a
model-free stack one estimate on the stage's common batch.  In
:func:`_lockstep`, the one loop over it, a member stops at the first stage
its gradient meets the tolerance, or at the budget, and keeps its row,
unchanged, until the last member stops.  Each row gets the bits it would
get alone in :func:`run_gradient_play`, the one-start case.

A model-free stage's batch depends on the seed and the stage only, never
on the profile.  Where its ``batch_size * n^2`` reaches ``_PREFETCH_WORK``,
the calling thread's share of a stage hides the draw, so one worker thread
draws stage ``l + 1``'s batch, and only draws it, while stage ``l`` is
certified and reduced: a batch may be drawn before its profile is
certified.  The batch's second moment and everything else are formed on
the calling thread once the stack is certified, on the same lines as
inline play: no number is formed from an uncertified profile, and every
estimate keeps its bits.  The thread lives as long as the run's
:func:`_estimator`.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field

import numpy as np

from .game import (
    ActionProfile, GameSpec, marginal_cost_from_cost, _evaluate_stack, _frozen, _lone_fields, _profile,
    _require_choice, _require_each, _require_finite, _require_int, _weighted_gains,
)
# Not called here.  The benchmark's tracer (perfbench/tracer.py) patches
# learning.evaluate when it installs and fails if the name is missing; the
# import goes when the tracer wraps _lone_fields instead (ROADMAP item 1).
from .game import evaluate
from .simulate import SimConfig, _stage_batch, monte_carlo_cost

__all__ = [
    "LearnConfig",
    "StageRecord",
    "LearnRun",
    "run_gradient_play",
    "run_lockstep",
]

_MODES = ("exact", "model-free")

# A model-free stage's batch_size * n^2, the calling thread's X0^T X0 work,
# from which the next stage's batch is drawn on a worker thread: from there
# that work hides the worker's O(B n) draw and the thread handoff.
_PREFETCH_WORK = 2**17

# Each LearnConfig field's own rule but sim's, rule(value, name), in the order a
# config's learn section lists them; config applies it also to a file's value a
# flag overrides.
_LEARN_RULES = {"stages": functools.partial(_require_int, low=1), "step_size": _require_finite,
                "mode": functools.partial(_require_choice, choices=_MODES),
                "grad_tolerance": functools.partial(_require_finite, zero_ok=True)}


@dataclass(frozen=True)
class LearnConfig:
    """Stage budget, step size, gradient source, and stopping rule.

    ``grad_tolerance > 0`` stops a run once ``max|grad| < tol``; it is
    allowed in exact mode only, because model-free gradients are noisy, so
    those runs always use the full stage budget.  ``sim`` is used in
    model-free mode only.
    """

    stages: int = 250
    step_size: float = 1.0
    mode: str = "exact"
    sim: SimConfig = field(default_factory=SimConfig)
    grad_tolerance: float = 0.0

    def __post_init__(self):
        _require_each(vars(self), _LEARN_RULES)
        if not isinstance(self.sim, SimConfig):
            raise ValueError(f"sim must be a SimConfig, got {self.sim!r}")
        if self.mode == "model-free" and self.grad_tolerance > 0:
            raise ValueError("grad_tolerance applies to exact mode only; model-free runs use every stage")


@dataclass(frozen=True, eq=False)
class StageRecord:
    """Profile at the start of a stage with the cost and gradient seen there.

    Kept only for the benchmark's ``n20_collect``, which reads
    :attr:`LearnRun.history`; the run's arrays hold the same rows.
    """

    stage: int
    profile: ActionProfile
    cost: np.ndarray
    grad: np.ndarray


@dataclass(frozen=True, eq=False)
class LearnRun:
    """Staged history of a gradient-play run.

    Row ``l`` of ``profiles``, ``costs`` and ``grads`` (each of shape
    ``(stages_used + 1, n)``) holds the profile entering stage ``l`` together
    with the (exact or estimated) cost and gradient used for that stage's
    update; the last row evaluates the final profile.
    """

    profiles: np.ndarray
    costs: np.ndarray
    grads: np.ndarray
    converged: bool

    @functools.cached_property
    def final(self) -> ActionProfile:
        """The profile play ended at, ``profiles[-1]``."""
        return ActionProfile(self.profiles[-1])

    @property
    def stages_used(self) -> int:
        """The updates made, one fewer than the recorded stages."""
        return len(self.profiles) - 1

    @functools.cached_property
    def history(self) -> tuple[StageRecord, ...]:
        """One :class:`StageRecord` per stage, built the first time it is read;
        kept only for the benchmark's ``n20_collect``."""
        rows = zip(self.profiles, self.costs, self.grads)
        return tuple(
            StageRecord(stage=stage, profile=ActionProfile(k), cost=j, grad=g)
            for stage, (k, j, g) in enumerate(rows)
        )


@contextlib.contextmanager
def _estimator(spec: GameSpec, config: LearnConfig, rows: int):
    """The run's gradient source, ``estimate(ks, stage) -> (costs, grads)``,
    held open for the run.

    ``ks`` is the run's ``(rows, n)`` stack, which keeps its rows until the
    last member stops, and both results have its shape.  An exact stack
    takes one call of the profile kernel; a lone start takes the kernel's
    lone path, :func:`~nashlq.game._lone_fields`, whose costs and gradients,
    Python floats with the bits a stack's row gets, become the two ``(1, n)``
    arrays with no report.  A model-free stack takes one estimate on the
    stage's shared batch.  Where ``batch_size * n^2`` is ``_PREFETCH_WORK``
    or more, one worker thread draws stage ``l + 1``'s batch
    (:func:`~nashlq.simulate._stage_batch`) from the start of stage ``l``,
    while stage ``l`` is certified and reduced; the estimate forms all else
    from that batch on this thread.  When the run returns or raises, a draw
    not yet begun is cancelled and the worker joined.
    """
    if config.mode == "model-free":
        def estimate(ks, stage, batch=None):
            costs = monte_carlo_cost(spec, ks, config.sim, stage, batch=batch)
            return costs, marginal_cost_from_cost(costs, _weighted_gains(spec, ks), spec.rho)
    elif rows == 1:
        def estimate(ks, stage):
            _, costs, grads = _lone_fields(spec, ks[0])
            return np.array([costs]), np.array([grads])
    else:
        def estimate(ks, stage):
            report = _evaluate_stack(spec, ks)[1]
            return report.cost, report.grad
    if config.mode == "exact" or config.sim.batch_size * spec.n**2 < _PREFETCH_WORK:
        yield estimate
        return

    from concurrent.futures import ThreadPoolExecutor

    draw = functools.partial(_stage_batch, spec, config.sim)
    worker = ThreadPoolExecutor(max_workers=1)
    try:
        pending = {0: worker.submit(draw, 0)}

        def prefetched(ks, stage):
            if stage < config.stages:
                pending[stage + 1] = worker.submit(draw, stage + 1)
            return estimate(ks, stage, batch=pending.pop(stage).result)

        yield prefetched
    finally:
        worker.shutdown(cancel_futures=True)


def run_gradient_play(spec: GameSpec, k0, config: LearnConfig) -> LearnRun:
    """Iterate gradient play from ``k0`` until the stage budget or tolerance.

    Every iterate is projected onto the action box.  The run is deterministic
    given the config (including the simulation seed in model-free mode).
    """
    return run_lockstep(spec, [k0], config)[0]


def run_lockstep(spec: GameSpec, starts, config: LearnConfig) -> list[LearnRun]:
    """Gradient play from every start at once, one :class:`LearnRun` per start.

    The runs advance stage by stage as one stack; model-free members share
    each stage's ``(sim.seed, stage)`` batch (common random numbers).  Each
    run equals :func:`run_gradient_play` from its start bit for bit.
    """
    ks = np.array([_profile(spec, k0) for k0 in starts]).reshape(-1, spec.n)
    if not len(ks):
        raise ValueError("starts must hold at least one profile")
    if not all(map(spec.contains, ks)):
        raise ValueError("initial profile must lie in the action box")
    return _lockstep(spec, ks, config)


def _meets_tolerance(grads: np.ndarray, tol: float) -> list[bool]:
    """Per row of ``grads``, whether ``max|grad| < tol``, on Python floats.

    A row meets the tolerance when every entry ``g``, read as a Python float,
    has ``-tol < g < tol``: exactly ``abs(row).max() < tol`` for a nonempty
    row, NaN, infinities, ``-0.0`` and ``tol = 0`` included, without a numpy
    reduction.
    """
    return [all(-tol < g < tol for g in row) for row in grads.tolist()]


def _lockstep(spec: GameSpec, ks: np.ndarray, config: LearnConfig) -> list[LearnRun]:
    """The play loop over the ``(R, n)`` stack ``ks`` of validated starts.

    Each stage estimates, records and updates the whole stack.  A member
    stops at the first stage its gradient meets the tolerance, or at the
    budget, and its row holds its final profile until the last member stops.
    The stop test is :func:`_meets_tolerance`.  A run's arrays are its row of
    the recorded stages up to its own stop.
    """
    tol, last, step = config.grad_tolerance, config.stages, config.step_size
    # The box per row, so that projecting the stack needs no broadcasting.
    lower, upper = (np.repeat(bound[None], len(ks), axis=0) for bound in (spec.k_lower, spec.k_upper))
    ends = np.full(len(ks), last)  # the stage each member stops at
    held = None  # the stopped members' rows, once one has stopped
    trace = []
    with _estimator(spec, config, len(ks)) as estimate:
        for stage in range(last + 1):
            costs, grads = estimate(ks, stage)
            trace.append((ks, costs, grads))
            met = _meets_tolerance(grads, tol)
            if stage == last or any(met):
                ends[(ends == last) & met] = stage
                held = ends[:, None] < last
                if stage == last or held.all():
                    break
            # A fresh array, clipped in place: recorded stages are never written to.
            moved = ks - step * grads
            np.maximum(moved, lower, out=moved)
            np.minimum(moved, upper, out=moved)
            ks = moved if held is None else np.where(held, ks, moved)

    # One read-only (stages, R, n) array per field, viewed member-major.
    blocks = [_frozen(np.array(column)).swapaxes(0, 1) for column in zip(*trace)]
    converged = ((ends < last) | met).tolist()  # a stop before the budget met the tolerance
    return [
        LearnRun(*(block[r, :end + 1] for block in blocks), converged=converged[r])
        for r, end in enumerate(ends.tolist())
    ]
