"""Projected gradient play toward a Nash equilibrium.

All players update simultaneously from the shared previous profile:

    k_i <- clip(k_i - eta * grad_i, box)

In exact mode the gradient comes from the closed form; in model-free mode
each player estimates its own cost by Monte Carlo batch averaging and maps
the estimate through the marginal-cost identity, so no player ever needs
the system matrices or the others' actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import ActionProfile, GameSpec, evaluate, marginal_cost_from_cost, _profile
from .simulate import SimConfig, _is_int, monte_carlo_cost

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

    ``grad_tolerance`` enables early exit on ``max|grad| < tol`` in exact
    mode only; model-free gradients are noisy, so those runs always use the
    full stage budget.  ``sim`` defaults to :class:`SimConfig`'s defaults
    when model-free mode is requested without one.
    """

    stages: int = 250
    step_size: float = 1.0
    mode: str = "exact"
    sim: SimConfig | None = None
    grad_tolerance: float = 0.0
    record_history: bool = True

    def __post_init__(self):
        if not _is_int(self.stages) or self.stages < 1:
            raise ValueError(f"stages must be an integer >= 1, got {self.stages!r}")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be positive and finite, got {self.step_size!r}")
        if not (math.isfinite(self.grad_tolerance) and self.grad_tolerance >= 0):
            raise ValueError(
                f"grad_tolerance must be nonnegative and finite, got {self.grad_tolerance!r}"
            )
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")


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


def _stage_estimate(spec: GameSpec, k: np.ndarray, config: LearnConfig, stage: int):
    if config.mode == "exact":
        report = evaluate(spec, k)
        return report.cost, report.grad
    sim = config.sim if config.sim is not None else SimConfig()
    estimate = monte_carlo_cost(spec, k, sim, stage)
    return estimate, marginal_cost_from_cost(estimate, k, spec.rho)


def gradient_play_step(spec: GameSpec, k, config: LearnConfig, stage: int = 0) -> ActionProfile:
    """One simultaneous update of all players from the shared profile ``k``.

    Model-free estimates draw their noise from the ``(sim.seed, stage)``
    substream, so a step is reproducible given its stage index.
    """
    k = _profile(spec, k)
    if not spec.contains(k):
        raise ValueError("profile must lie in the action box")
    _, grad = _stage_estimate(spec, k, config, stage)
    return ActionProfile(project(k - config.step_size * grad, spec.k_lower, spec.k_upper))


def run_gradient_play(spec: GameSpec, k0, config: LearnConfig) -> LearnRun:
    """Iterate gradient play from ``k0`` until the stage budget or tolerance.

    Every iterate is projected onto the action box.  The run is deterministic
    given the config (including the simulation seed in model-free mode).
    """
    k = _profile(spec, k0)
    if not spec.contains(k):
        raise ValueError("initial profile must lie in the action box")

    history: list[StageRecord] = []
    tol = config.grad_tolerance
    check_tol = config.mode == "exact" and tol > 0

    def record(stage: int, profile: np.ndarray, costs: np.ndarray, grads: np.ndarray):
        if config.record_history:
            history.append(
                StageRecord(stage=stage, profile=ActionProfile(profile), cost=costs, grad=grads)
            )

    converged = False
    stages_used = config.stages
    for stage in range(config.stages):
        costs, grads = _stage_estimate(spec, k, config, stage)
        record(stage, k, costs, grads)
        if check_tol and np.max(np.abs(grads)) < tol:
            converged = True
            stages_used = stage
            break
        k = project(k - config.step_size * grads, spec.k_lower, spec.k_upper)
    else:
        costs, grads = _stage_estimate(spec, k, config, config.stages)
        record(config.stages, k, costs, grads)
        if check_tol:
            converged = bool(np.max(np.abs(grads)) < tol)

    return LearnRun(
        history=tuple(history),
        final=ActionProfile(k),
        converged=converged,
        stages_used=stages_used,
    )
