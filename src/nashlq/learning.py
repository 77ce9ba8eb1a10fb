"""Projected gradient play toward a Nash equilibrium.

All players update simultaneously from the shared previous profile:

    k_i <- clip(k_i - eta * grad_i, box)

In exact mode the gradient comes from the closed form; in model-free mode
each player estimates its own cost by Monte Carlo batch averaging and maps
the estimate through the marginal-cost identity, so no player ever needs
the system matrices or the others' actions.

The gradient source is chosen once per run (:func:`_estimator`), and
:func:`run_gradient_play` is one loop over it: ``stages + 1`` evaluations,
each followed by an update unless the budget is spent or the tolerance met.
:func:`gradient_play_step` is one pass of the same update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game import (
    ActionProfile, GameSpec, evaluate, marginal_cost_from_cost, _is_finite, _is_int, _profile,
)
from .simulate import SimConfig, monte_carlo_cost

__all__ = [
    "LearnConfig",
    "StageRecord",
    "LearnRun",
    "project",
    "gradient_play_step",
    "run_gradient_play",
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

    ``history[l]`` holds the profile entering stage ``l`` together with the
    (exact or estimated) cost and gradient used for that stage's update; the
    last entry evaluates the final profile, so ``final == history[-1].profile``
    whenever history is recorded.
    """

    history: tuple[StageRecord, ...]
    final: ActionProfile
    converged: bool
    stages_used: int


def project(value, lower, upper):
    """Componentwise projection onto ``[lower, upper]``; idempotent."""
    if np.any(np.asarray(lower) > np.asarray(upper)):
        raise ValueError("projection bounds must satisfy lower <= upper")
    return np.clip(value, lower, upper)


def _estimator(spec: GameSpec, config: LearnConfig):
    """The run's gradient source: ``estimate(k, stage) -> (cost, grad)``."""
    if config.mode == "exact":
        def estimate(k, stage):
            report = evaluate(spec, k)
            return report.cost, report.grad
    else:
        def estimate(k, stage):
            costs = monte_carlo_cost(spec, k, config.sim, stage)
            return costs, marginal_cost_from_cost(costs, k, spec.rho)
    return estimate


def gradient_play_step(spec: GameSpec, k, config: LearnConfig, stage: int = 0) -> ActionProfile:
    """One simultaneous update of all players from the shared profile ``k``.

    Model-free estimates draw their noise from the ``(sim.seed, stage)``
    substream, so a step is reproducible given its stage index.
    """
    k = _profile(spec, k)
    if not spec.contains(k):
        raise ValueError("profile must lie in the action box")
    _, grad = _estimator(spec, config)(k, stage)
    return ActionProfile(spec.clip(k - config.step_size * grad))


def run_gradient_play(spec: GameSpec, k0, config: LearnConfig) -> LearnRun:
    """Iterate gradient play from ``k0`` until the stage budget or tolerance.

    Every iterate is projected onto the action box.  The run is deterministic
    given the config (including the simulation seed in model-free mode).
    """
    k = _profile(spec, k0)
    if not spec.contains(k):
        raise ValueError("initial profile must lie in the action box")

    estimate = _estimator(spec, config)
    tol = config.grad_tolerance
    history: list[StageRecord] = []
    for stage in range(config.stages + 1):
        costs, grads = estimate(k, stage)
        if config.record_history:
            history.append(StageRecord(stage=stage, profile=ActionProfile(k), cost=costs, grad=grads))
        converged = tol > 0 and bool(abs(grads).max() < tol)
        if converged or stage == config.stages:
            break
        k = spec.clip(k - config.step_size * grads)

    return LearnRun(history=tuple(history), final=ActionProfile(k), converged=converged, stages_used=stage)
