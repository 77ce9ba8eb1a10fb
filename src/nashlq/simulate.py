"""Closed-loop trajectory simulation and Monte Carlo cost estimation.

Trajectories of ``xdot = (A - K) x`` from random initial states are the
model-free side of the game: each player averages its sampled finite-horizon
cost over a batch and never sees the system matrices.  Because ``A - K`` is
symmetric, one eigendecomposition per profile gives exact trajectories, and
the squared state expands bilinearly over mode pairs.  The cost integral
therefore needs only an n-by-n table of per-mode-pair integrals of
``exp((lam_m + lam_p) t)``, exact or composite trapezoid; on a uniform grid
the trapezoid sum is a geometric series, so both variants are closed forms
and no time grid is ever built.

A batch mean needs only the batch's second moment ``Sigma = x0^T x0 / B``:
in the modal coordinates of a profile it is ``S = Q^T Sigma Q``.  A Monte
Carlo stage forms ``Sigma`` once, O(B n^2), and each profile of a stack
takes O(n^3) from it, so a stage over ``R`` profiles costs
O(B n^2 + R n^3).  A batch of ``B <= n`` states is itself the smaller
factor of ``Sigma``: there each profile takes ``S = C^T C / B`` with
``C = x0 @ Q``, O(B n^2), and a batch of one costs what its trajectory
does, bit for bit.  Per-trajectory costs, O(B n^3), are computed only by
:func:`simulate_batch` and :func:`trajectory_cost`, in blocks of at most
``game.BLOCK_ENTRIES // n^2`` trajectories, so no ``(B, n, n)`` array is
formed.

Every entry, :func:`simulate_state` included, takes one ``eigh`` of
``A - K`` per profile from :func:`game._stable_modes`, whose eigenvalues
also certify stability, or else the kernel raises its
:class:`NotPositiveDefinite`, before any state is drawn or any cost formed:
an unstable profile yields no number.  This module forms no ``K - A`` of
its own.

:func:`monte_carlo_cost` also takes an ``(R, n)`` stack of profiles.  The
stack shares one draw of the ``(seed, stage)`` batch (common random
numbers) and its one ``Sigma``, and one stacked ``eigh``, stability
certificate, pair-integral table and modal reduction; numpy works matrix
by matrix over a leading axis, so row ``r`` of the estimate is the
one-profile call on ``k[r]`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .game import GameSpec, _in_blocks, _profile, _require_choice, _require_each
from .game import _require_finite, _require_int, _stable_modes, _weight, _weighted_gains, profile_array

__all__ = [
    "SQRT3",
    "SimConfig",
    "TrajectoryBatch",
    "substream",
    "sample_initial_state",
    "simulate_state",
    "pair_integrals",
    "trajectory_cost",
    "simulate_batch",
    "monte_carlo_cost",
]

# Initial states are i.i.d. uniform on (-sqrt(3), sqrt(3)): zero mean, unit
# variance, so the expected initial covariance is the identity.
SQRT3 = 1.7320508075688772

_INTEGRATORS = ("quadrature", "exact")

# Each SimConfig field's own rule, rule(value, name), in the order a config's
# sim section lists them; config applies it also to a file's value a flag overrides.
_SIM_RULES = {"batch_size": partial(_require_int, low=1), "horizon": _require_finite, "dt": _require_finite,
              "integrator": partial(_require_choice, choices=_INTEGRATORS),
              "seed": partial(_require_int, low=0)}


@dataclass(frozen=True)
class SimConfig:
    """Batch size (>= 1), sampling horizon (> 0), quadrature step ``dt`` (> 0), seed
    (>= 0), and integrator.  Only ``"quadrature"`` reads ``dt``.  It needs
    ``dt <= horizon`` and a finite ``horizon / dt``, the trapezoid's step
    count, checked as ``1 <= horizon / dt < inf``: for doubles the rounded
    quotient is at least 1 exactly when ``dt <= horizon``."""

    batch_size: int = 500
    horizon: float = 200.0
    dt: float = 0.1
    seed: int = 0
    integrator: str = "quadrature"

    def __post_init__(self):
        _require_each(vars(self), _SIM_RULES)
        if self.integrator == "quadrature" and not 1 <= self.horizon / self.dt < np.inf:
            raise ValueError(f"quadrature needs dt <= horizon and a finite horizon / dt, got {self.dt!r}")


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Sampled initial states and the finite-horizon cost of each trajectory."""

    x0: np.ndarray
    per_player_cost: np.ndarray


def substream(*key: int) -> np.random.Generator:
    """Counter-based generator keyed by integers, e.g. ``(seed, stage)``.

    Philox substreams make draws reproducible for a given key regardless of
    how work is scheduled around them.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


# Substream keys, after the seed, of learn's random start and of the matrix
# of game.generate and gen-matrix.  SeedSequence pads keys with zeros, so the
# non-zero third word keeps these apart from every (seed, stage) stream.
_START_KEY = (0, 1)
_MATRIX_KEY = (0, 2)


def sample_initial_state(rng: np.random.Generator, shape) -> np.ndarray:
    """Initial states of the given shape (``n`` for one, ``(B, n)`` for a
    batch): i.i.d. uniforms on (-sqrt(3), sqrt(3))."""
    return rng.uniform(-SQRT3, SQRT3, size=shape)


def simulate_state(spec: GameSpec, k, x0, t: float) -> np.ndarray:
    """Closed-loop state ``x(t) = exp((A - K) t) x0`` via :func:`game._stable_modes`' certified modes."""
    if not t >= 0:  # a NaN t too
        raise ValueError("t must be nonnegative")
    lam, q = _stable_modes(spec, _profile(spec, k))
    x0 = np.asarray(x0, dtype=float)
    return q @ (np.exp(lam * t) * (q.T @ x0))


def pair_integrals(eigs: np.ndarray, horizon: float, dt: float | None = None) -> np.ndarray:
    """Table of ``integral_0^T exp((lam_m + lam_p) t) dt`` over mode pairs.

    With ``dt=None`` the integrals are exact; otherwise they are composite
    trapezoid sums on a uniform grid of ``N = round(T/dt)`` steps of
    ``h = T/N``.  That sum is a geometric series in ``exp(z)``,
    ``z = (lam_m + lam_p) h``, evaluated in closed form as
    ``h (1 + e^z)/2 * expm1(N z)/expm1(z)`` (no subtractive cancellation;
    the ``z = 0`` limit is ``T``).  Squared states expand bilinearly over
    modes, so this table is the only time-dependence the cost integral
    needs.  Either variant is a nonnegative combination of rank-one terms,
    hence positive semidefinite.  A rate sum past the float range, which
    only gains near it make, is -inf: the trapezoid's limit ``h/2`` comes
    from it as it is, and the exact integral from the pair's halved rates.
    """
    eigs = np.asarray(eigs, dtype=float)
    # A rate sum or a rate times a time past the float range gives -inf, whose
    # exp and expm1 are the limits 0 and -1; only the exact integral of a pair
    # whose sum overflows needs its rates, below.
    with np.errstate(over="ignore"):
        z = eigs[..., :, None] + eigs[..., None, :]
        if dt is not None:
            steps = max(1, round(horizon / dt))
            step = horizon / steps
            z = z * step
        # Zero-rate pairs, if any, are masked to the horizon.  A negative stand-in
        # for them keeps expm1(steps * z) finite for any number of steps.
        flat = None if z.all() else z == 0.0
        if flat is not None:
            z = np.where(flat, -1.0, z)
        if dt is not None:
            table = step * 0.5 * (1.0 + np.exp(z)) * (np.expm1(steps * z) / np.expm1(z))
        else:
            table = np.expm1(z * horizon) / z
            # A pair whose sum overflows would get 0, not its ~1/|z|; its halved
            # rates sum to y = z / 2 in range, and expm1(2 y T) / (2 y) is its integral.
            over = np.isinf(z)
            if over.any():
                half = eigs / 2.0
                y = (half[..., :, None] + half[..., None, :])[over]
                table[over] = 0.5 * np.expm1(2.0 * (y * horizon)) / y
    return table if flat is None else np.where(flat, horizon, table)


def _checked_modes(spec: GameSpec, k, config: SimConfig):
    """``k`` as one profile of shape ``(n,)`` or a stack of shape ``(R, n)``,
    with the modal basis and pair-integral table of ``A - K`` at each
    profile, once :func:`game._stable_modes` has certified the whole stack."""
    ks = profile_array(k)
    if ks.ndim != 2 or ks.shape[1] != spec.n:
        ks = _profile(spec, ks)
    lam, q = _stable_modes(spec, ks)
    return ks, q, pair_integrals(lam, config.horizon, None if config.integrator == "exact" else config.dt)


def _modal_cost(spec: GameSpec, k: np.ndarray, q: np.ndarray, w: np.ndarray, s: np.ndarray):
    """Costs from modal second moments ``s`` of shape ``(..., n, n)``.

    ``k``, ``q`` and ``w`` belong to one profile or to a stack of them,
    with the stack's leading axis matching that of ``s``.

    The sampled cost integral is ``sum_mp q_im q_ip W_mp S_mp`` with
    ``d_im = q_im c_m`` expanded over the modal coordinates ``c``:
    ``S = c c^T`` for one trajectory, ``S = Q^T Sigma Q`` for a batch mean.
    """
    base = np.sum((q @ (w * s)) * q, axis=-1)
    # the integrand is a square; clamp eigensolver round-off
    return _weight(spec.rho, _weighted_gains(spec, k)) * np.maximum(base, 0.0)


def _batch_cost(spec: GameSpec, k, q: np.ndarray, w: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Per-trajectory costs, shape ``(B, n)``: O(B n^3), through :func:`game._in_blocks`
    at ``n^2`` entries per trajectory, its ``(n, n)`` moment in modal coordinates."""
    return _in_blocks(
        lambda c: _modal_cost(spec, k, q, w, c[:, :, None] * c[:, None, :]), x0 @ q, spec.n**2
    )


def trajectory_cost(spec: GameSpec, k, x0, config: SimConfig) -> np.ndarray:
    """Finite-horizon cost of one trajectory for every player.

    Integrates ``x_i(t)^2 + rho_i u_i(t)^2 = (1 + rho_i k_i^2) x_i(t)^2``
    over ``[0, horizon]`` from the given initial state, exactly or by
    composite trapezoid depending on ``config.integrator``: the one-row case
    of :func:`simulate_batch`'s per-trajectory costs, whose modal moment is
    the outer product ``c c^T`` of ``c = x0 @ Q``.  Raises
    :class:`NotPositiveDefinite` if the profile leaves the stable region,
    as :func:`monte_carlo_cost` does.
    """
    x0 = np.asarray(x0, dtype=float)
    return _batch_cost(spec, *_checked_modes(spec, _profile(spec, k), config), x0[None, :])[0]


def simulate_batch(spec: GameSpec, k, config: SimConfig, stage: int = 0) -> TrajectoryBatch:
    """Draw a batch of initial states and evaluate every trajectory's cost.

    The batch is drawn in one call from the ``(seed, stage)`` substream; row
    ``b`` is trajectory ``b``'s draw, so results are reproducible however the
    batch is later processed.  Raises :class:`NotPositiveDefinite` before
    simulating if the profile leaves the stable region.
    """
    k, q, w = _checked_modes(spec, _profile(spec, k), config)
    x0 = sample_initial_state(substream(config.seed, stage), (config.batch_size, spec.n))
    return TrajectoryBatch(x0=x0, per_player_cost=_batch_cost(spec, k, q, w, x0))


def monte_carlo_cost(spec: GameSpec, k, config: SimConfig, stage: int = 0) -> np.ndarray:
    """Batch-mean estimate of each player's cost at the given profile.

    ``k`` is one profile, giving costs of shape ``(n,)``, or an ``(R, n)``
    stack, giving one row of costs per profile from one shared batch: row
    ``r`` equals the call on ``k[r]`` bit for bit.  A stack that leaves the
    stable region raises :class:`NotPositiveDefinite` before sampling, for
    its first unstable row (:func:`game._stable_modes`).

    Unbiased for the horizon-truncated cost.  The batch is the one
    :func:`simulate_batch` draws from the ``(seed, stage)`` substream.  Its
    second moment ``Sigma = x0^T x0 / B`` is formed once, O(B n^2), and
    serves every row: a profile's modal moment is ``Q^T Sigma Q``, O(n^3).
    A batch of ``B <= n`` states is the smaller factor of ``Sigma``, and a
    row's moment is ``C^T C / B`` with ``C = x0 @ Q``, O(B n^2).
    The estimate is deterministic for a given ``(seed, stage)`` and equals
    ``simulate_batch(...).per_player_cost.mean(0)`` to round-off.
    """
    ks, q, w = _checked_modes(spec, k, config)  # before the draw, so an unstable stack draws nothing
    x0 = sample_initial_state(substream(config.seed, stage), (config.batch_size, spec.n))
    if config.batch_size <= spec.n:
        # A batch of at most n states is itself the smaller factor of Sigma.
        coords = x0 @ q
        moment = (np.swapaxes(coords, -1, -2) @ coords) / config.batch_size
    else:
        moment = np.swapaxes(q, -1, -2) @ ((x0.T @ x0) / config.batch_size) @ q
    return _modal_cost(spec, ks, q, w, moment)
