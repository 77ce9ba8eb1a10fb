"""Projected gradient play toward a Nash equilibrium.

All players update simultaneously from the shared previous profile:

    k_i <- clip(k_i - eta * grad_i, box)

In exact mode the gradient comes from the closed form; in model-free mode
each player estimates its own cost by Monte Carlo batch averaging and maps
the estimate through the marginal-cost identity, so no player ever needs
the system matrices or the others' actions.

Play runs in lockstep over an ``(R, n)`` stack of profiles, one per start.
The gradient source is chosen once per run (:func:`_estimator`) and
estimates the whole stack per stage: exact members take one call of the
stacked kernel (:func:`~nashlq.game.evaluate` while only one plays),
while model-free members share one stacked estimate on the stage's common
batch.  :func:`_lockstep` is the one loop over it: ``stages + 1``
evaluations, each followed by an update unless the budget is spent or the
tolerance met; a member whose gradient meets the tolerance leaves the stack
at that stage.  Every row of a stack gets the bits it would get alone, so
:func:`run_lockstep` over R starts equals R calls of
:func:`run_gradient_play`, which is the loop's one-member case.
:func:`gradient_play_step` is one pass of the same update.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .game import (
    ActionProfile, GameSpec, evaluate, marginal_cost_from_cost,
    _evaluate_stack, _frozen, _is_finite, _is_int, _profile,
)
from .simulate import SimConfig, monte_carlo_cost

__all__ = [
    "LearnConfig",
    "StageRecord",
    "LearnRun",
    "gradient_play_step",
    "run_gradient_play",
    "run_lockstep",
]

_MODES = ("exact", "model-free")


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
    record_history: bool = True

    def __post_init__(self):
        if not _is_int(self.stages) or self.stages < 1:
            raise ValueError(f"stages must be an integer >= 1, got {self.stages!r}")
        if not (_is_finite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be a positive finite number, got {self.step_size!r}")
        if not (_is_finite(self.grad_tolerance) and self.grad_tolerance >= 0):
            raise ValueError(
                f"grad_tolerance must be a nonnegative finite number, got {self.grad_tolerance!r}"
            )
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if not isinstance(self.record_history, bool):
            raise ValueError(f"record_history must be a bool, got {self.record_history!r}")
        if not isinstance(self.sim, SimConfig):
            raise ValueError(f"sim must be a SimConfig, got {self.sim!r}")
        if self.mode == "model-free" and self.grad_tolerance > 0:
            raise ValueError("grad_tolerance applies to exact mode only; model-free runs use every stage")


@dataclass(frozen=True, eq=False)
class StageRecord:
    """Profile at the start of a stage with the cost and gradient seen there."""

    stage: int
    profile: ActionProfile
    cost: np.ndarray
    grad: np.ndarray


@dataclass(frozen=True, eq=False)
class LearnRun:
    """Staged history of a gradient-play run.

    Row ``l`` of ``profiles``, ``costs`` and ``grads`` (each of shape
    ``(stages_used + 1, n)``, or ``(0, n)`` when history is not recorded)
    holds the profile entering stage ``l`` together with the (exact or
    estimated) cost and gradient used for that stage's update; the last row
    evaluates the final profile, so ``final == profiles[-1]`` whenever history
    is recorded.  ``history`` gives the same rows as :class:`StageRecord` entries.
    """

    profiles: np.ndarray
    costs: np.ndarray
    grads: np.ndarray
    final: ActionProfile
    converged: bool
    stages_used: int

    @functools.cached_property
    def history(self) -> tuple[StageRecord, ...]:
        """One :class:`StageRecord` per stage, built the first time it is read."""
        rows = zip(self.profiles, self.costs, self.grads)
        return tuple(
            StageRecord(stage=stage, profile=ActionProfile(k), cost=j, grad=g)
            for stage, (k, j, g) in enumerate(rows)
        )


def _estimator(spec: GameSpec, config: LearnConfig):
    """The run's gradient source: ``estimate(ks, stage) -> (costs, grads)``.

    ``ks`` is an ``(R, n)`` stack and both results have its shape.  An exact
    stack takes one call of the stacked kernel, whose rows equal
    :func:`~nashlq.game.evaluate`'s bits; a lone member takes ``evaluate``
    itself, the cheaper path.  A model-free stack takes one estimate on the
    stage's shared batch.
    """
    if config.mode == "exact":
        def estimate(ks, stage):
            if len(ks) == 1:
                report = evaluate(spec, ks[0])
                return report.cost[None], report.grad[None]
            report = _evaluate_stack(spec, ks)[1]
            return report.cost, report.grad
    else:
        def estimate(ks, stage):
            costs = monte_carlo_cost(spec, ks, config.sim, stage)
            return costs, marginal_cost_from_cost(costs, ks, spec.rho)
    return estimate


def gradient_play_step(spec: GameSpec, k, config: LearnConfig, stage: int = 0) -> ActionProfile:
    """One simultaneous update of all players from the shared profile ``k``.

    Model-free estimates draw their noise from the ``(sim.seed, stage)``
    substream, so a step is reproducible given its stage index.
    """
    k = _profile(spec, k)
    if not spec.contains(k):
        raise ValueError("profile must lie in the action box")
    _, grads = _estimator(spec, config)(k[None], stage)
    return ActionProfile(spec.clip(k - config.step_size * grads[0]))


def _start(spec: GameSpec, k0) -> np.ndarray:
    k = _profile(spec, k0)
    if not spec.contains(k):
        raise ValueError("initial profile must lie in the action box")
    return k


def run_gradient_play(spec: GameSpec, k0, config: LearnConfig) -> LearnRun:
    """Iterate gradient play from ``k0`` until the stage budget or tolerance.

    Every iterate is projected onto the action box.  The run is deterministic
    given the config (including the simulation seed in model-free mode).
    """
    return _lockstep(spec, _start(spec, k0)[None], config)[0]


def run_lockstep(spec: GameSpec, starts, config: LearnConfig) -> list[LearnRun]:
    """Gradient play from every start at once, one :class:`LearnRun` per start.

    The runs advance stage by stage as one stack; model-free members share
    each stage's ``(sim.seed, stage)`` batch (common random numbers).  Each
    run equals :func:`run_gradient_play` from its start bit for bit.
    """
    ks = np.array([_start(spec, k0) for k0 in starts]).reshape(-1, spec.n)
    if not len(ks):
        raise ValueError("starts must hold at least one profile")
    return _lockstep(spec, ks, config)


def _lockstep(spec: GameSpec, ks: np.ndarray, config: LearnConfig) -> list[LearnRun]:
    """The play loop over the ``(R, n)`` stack ``ks`` of validated starts.

    Each stage estimates, records and updates the members still playing; a
    member leaves at the stage its gradient meets the tolerance, all members
    at the budget.  The stop test reads each member's ``max|grad|`` as a
    Python float and asks whether any is below the tolerance.  Recorded stages
    are kept as whole-stack arrays, one segment per stretch of stages with
    the same members, and split into per-member histories at the end.
    """
    estimate = _estimator(spec, config)
    tol, last, step, record = config.grad_tolerance, config.stages, config.step_size, config.record_history
    # The box per row, so that projecting the stack needs no broadcasting.
    lower, upper = (np.repeat(bound[None], len(ks), axis=0) for bound in (spec.k_lower, spec.k_upper))
    members = np.arange(len(ks))  # start index of each row of the stack
    ends = [None] * len(ks)  # (stage, final profile, converged) per member
    segments = []  # (members, per-stage (ks, costs, grads) stacks)
    trace = []
    for stage in range(last + 1):
        costs, grads = estimate(ks, stage)
        if record:
            trace.append((ks, costs, grads))
        peak = abs(grads).max(axis=1)
        if stage == last or any(p < tol for p in peak.tolist()):
            converged = peak < tol
            leaving = converged | (stage == last)
            for i in np.flatnonzero(leaving):
                ends[members[i]] = (stage, ks[i], bool(converged[i]))
            segments.append((members, trace))
            trace = []
            keep = ~leaving
            if not keep.any():
                break
            members, ks, grads, lower, upper = (x[keep] for x in (members, ks, grads, lower, upper))
        # A fresh array, clipped in place: recorded stages are never written to.
        ks = ks - step * grads
        np.maximum(ks, lower, out=ks)
        np.minimum(ks, upper, out=ks)

    histories = [[] for _ in ends]  # per member, its (profiles, costs, grads) rows per segment
    for seg_members, seg_trace in segments:
        if seg_trace:
            shape = (len(seg_trace), len(seg_members), spec.n)
            blocks = [np.concatenate(column).reshape(shape) for column in zip(*seg_trace)]
            for pos, member in enumerate(seg_members):
                histories[member].append([block[:, pos] for block in blocks])
    empty = _frozen(np.empty((0, spec.n)))
    runs = []
    for (stage, final, converged), parts in zip(ends, histories):
        columns = [_frozen(np.concatenate(column)) for column in zip(*parts)] or [empty] * 3
        runs.append(LearnRun(*columns, final=ActionProfile(final), converged=converged, stages_used=stage))
    return runs
