"""Numerical interrogation of equilibrium uniqueness.

A sufficient condition for a unique Nash equilibrium is that ``G + G^T``
stays positive definite over the whole action box, where ``G`` is the
Jacobian of the stacked gradient vector.  That cannot be verified
exhaustively, so this module sweeps stratified samples of the box, tracks
the smallest eigenvalue seen and where it occurred, and runs ensembles of
randomly generated symmetric strictly diagonally dominant systems to pile
up evidence (or surface a counterexample with a reproducible witness).

A sweep is stacked: the sample points go through the profile kernel of
:mod:`nashlq.game` and one stacked ``eigvalsh`` in blocks of at most
``SWEEP_BLOCK`` profiles, so its cost per point is a few array operations
rather than a Python-level factorization, and its memory does not grow with
the sample count.  The reported ``min_eig`` is a single
:func:`rosen_check` at the witness, so the pair reproduces exactly.  An
ensemble's finite-difference spot checks are stacked the same way: each
game's spot points are drawn in one call, and they and their ``2 n`` bumped
neighbours go through the kernel in blocks of the same bound.

The sample points are a Latin hypercube (McKay, Beckman & Conover, 1979)
drawn in numpy on a child spawned from the sweep's stream: one uniform
jitter per cell, then one shuffle of the strata per coordinate.  These are
the draws ``scipy.stats.qmc.LatinHypercube`` made from the same stream, so
earlier runs keep their points and witnesses bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (
    ActionProfile,
    GameSpec,
    _evaluate_stack,
    _is_finite,
    _jacobian_stack,
    _require_finite,
    _require_int,
    pseudogradient_jacobian,
)
from .simulate import substream

__all__ = [
    "PreconditionViolated",
    "MatrixEnsembleConfig",
    "RosenReport",
    "SweepRecord",
    "SweepResult",
    "rosen_check",
    "two_player_mu",
    "generate_sdd_matrix",
    "generate_negative_definite_matrix",
    "game_from_matrix",
    "rosen_sweep",
    "conjecture_sweep",
]

# Default box ceiling for sweeps: entries of G decay as gains grow, so any
# violation is expected near the lower boundary and a generous ceiling on
# the order of the diagonal rates loses nothing.
BOX_FACTOR = 10.0

# Eigenvalue magnitudes of the counterexample search's negative definite draws.
NEGATIVE_DEFINITE_EIGS = (0.02, 2.0)

# Profiles per kernel call in a sweep; bounds the stacked work arrays, so a
# sweep's peak memory does not grow with its sample count.
SWEEP_BLOCK = 4096

# Finite-difference spot checks per matrix, as a fraction of its sweep samples.
SPOT_CHECK_RATE = 0.01


class PreconditionViolated(ValueError):
    """Inputs violate a documented precondition of the analysis routine."""


@dataclass(frozen=True)
class MatrixEnsembleConfig:
    """Shape of a random-matrix ensemble for uniqueness evidence runs.  ``(n + 1) *
    offdiag_scale + dominance_margin`` must be finite: it bounds every drawn entry."""

    n: int
    count: int
    offdiag_scale: float = 1.0
    dominance_margin: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _require_int(self.n, "n", 1)
        _require_int(self.count, "count", 1)
        _require_finite(self.offdiag_scale, "offdiag_scale")
        _require_finite(self.dominance_margin, "dominance_margin")
        # an n beyond the float range has no finite bound
        bound = (self.n + 1) * self.offdiag_scale + self.dominance_margin if _is_finite(self.n) else np.inf
        if not _is_finite(bound):
            raise ValueError(f"(n + 1) * offdiag_scale + dominance_margin must be finite, got {bound!r}")
        _require_int(self.seed, "seed", 0)


@dataclass(frozen=True, eq=False)
class RosenReport:
    """Smallest eigenvalue of ``G + G^T`` over sampled profiles.

    ``witness`` is the sampled profile attaining ``min_eig``; ``violated``
    flags ``min_eig <= 0``, i.e. the uniqueness certificate failed somewhere.
    """

    min_eig: float
    witness: ActionProfile
    samples: int
    violated: bool


@dataclass(frozen=True, eq=False)
class SweepRecord:
    """One ensemble member: its game, sweep report, and reproduction keys."""

    matrix_index: int
    seed: int
    spec: GameSpec
    report: RosenReport


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Aggregate of an ensemble sweep with finite-difference spot checks."""

    records: tuple[SweepRecord, ...]
    min_eig: float
    spot_checked: int
    spot_check_max_rel_err: float

    @property
    def violations(self) -> tuple[SweepRecord, ...]:
        return tuple(r for r in self.records if r.report.violated)


def _rosen_values(g: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of ``G + G^T`` for each matrix of a ``(P, n, n)`` stack."""
    return np.linalg.eigvalsh(g + g.transpose(0, 2, 1)).min(axis=1)


def rosen_check(spec: GameSpec, k) -> float:
    """Smallest eigenvalue of ``G(k) + G(k)^T``; positive certifies k."""
    return float(_rosen_values(pseudogradient_jacobian(spec, k)[None])[0])


def two_player_mu(a11: float, a12: float, a22: float, k1: float, k2: float) -> float:
    """Sylvester determinant deciding 2-player uniqueness with zero tradeoffs.

        mu = 4 (k1 - a11)^3 (k2 - a22)^3 - a12^4 (k1 - a11 + k2 - a22)^2

    Under strict diagonal dominance with negative diagonal (``a11 < -|a12|``,
    ``a22 < -|a12|``) and nonnegative gains, ``mu > 0`` is equivalent to
    ``G + G^T`` being positive definite at ``(k1, k2)``.
    """
    if not (a11 < -abs(a12) and a22 < -abs(a12)):
        raise PreconditionViolated(
            "need a11 < -|a12| and a22 < -|a12| (strict diagonal dominance, negative diagonal)"
        )
    if k1 < 0 or k2 < 0:
        raise PreconditionViolated("gains must be nonnegative")
    d1 = k1 - a11
    d2 = k2 - a22
    return 4.0 * d1**3 * d2**3 - a12**4 * (d1 + d2) ** 2


def generate_sdd_matrix(config: MatrixEnsembleConfig, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric strictly diagonally dominant matrix, negative diagonal.

    Off-diagonal entries are uniform on ``[-offdiag_scale, offdiag_scale]``;
    each diagonal entry is set below minus the absolute row sum by at least
    ``dominance_margin``, so the output is negative definite by Gershgorin.
    """
    n = config.n
    a = np.zeros((n, n))
    upper = np.triu_indices(n, 1)
    if upper[0].size:
        vals = rng.uniform(-config.offdiag_scale, config.offdiag_scale, size=upper[0].size)
        a[upper] = vals
        a.T[upper] = vals
    offdiag = np.sum(np.abs(a), axis=1)
    diag = -(offdiag + config.dominance_margin + rng.uniform(0.0, config.offdiag_scale, size=n))
    a[np.diag_indices(n)] = diag
    return a


def generate_negative_definite_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric negative definite matrix, generally NOT diagonally dominant.

    Used by the counterexample search: eigenvalues are drawn uniform in
    ``-NEGATIVE_DEFINITE_EIGS`` against a random orthogonal basis, which
    produces strong off-diagonal coupling well outside the diagonally
    dominant class.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(*NEGATIVE_DEFINITE_EIGS, size=n)
    a = -(q * eigs) @ q.T
    return (a + a.T) / 2.0


def game_from_matrix(a: np.ndarray, rho, box_factor: float = BOX_FACTOR) -> GameSpec:
    """Wrap a stable state matrix in a sweep-ready game.

    The box ceiling is ``box_factor * max(1, |a_ii|)`` per player.
    """
    _require_finite(box_factor, "box_factor")
    a = np.asarray(a, dtype=float)
    k_upper = box_factor * np.maximum(1.0, np.abs(np.diag(a)))
    return GameSpec(a=a, rho=rho, k_upper=k_upper)


def _box_samples(spec: GameSpec, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Latin-hypercube points over the box, plus the lower corner.

    Each coordinate puts one point in each of ``samples`` equal strata: a
    shuffled stratum index minus a uniform jitter, drawn from a child
    spawned off ``rng`` in the order of
    ``scipy.stats.qmc.LatinHypercube(d=n, seed=rng)``.  That keeps earlier
    runs' points and witnesses, and ``rng``'s later draws.  Violations, if
    any, are expected near the lower boundary, so the corner is always
    evaluated.
    """
    child = rng.spawn(1)[0]
    jitter = child.uniform(size=(samples, spec.n))
    strata = np.tile(np.arange(1, samples + 1), (spec.n, 1))
    for row in strata:
        child.shuffle(row)
    unit = (strata.T - jitter) / samples
    points = spec.k_lower + unit * (spec.k_upper - spec.k_lower)
    return np.vstack([spec.k_lower, points])


def _check_sweep(samples, generator: str = "sdd", rho_range=(0.0, 1.0)) -> None:
    """Refuse an unknown generator, then a sample count that is not an integer
    >= 1, then a ``rho_range`` that is not a list or tuple of two finite numbers
    ``0 <= lo <= hi``."""
    if generator not in ("sdd", "negative-definite"):
        raise ValueError("generator must be 'sdd' or 'negative-definite'")
    _require_int(samples, "samples", 1)
    pair = isinstance(rho_range, (list, tuple)) and len(rho_range) == 2
    if not (pair and all(map(_is_finite, rho_range)) and 0 <= rho_range[0] <= rho_range[1]):
        raise ValueError(f"rho_range must be two finite numbers with 0 <= lo <= hi, got {rho_range!r}")


def rosen_sweep(spec: GameSpec, samples: int = 200, seed=0) -> RosenReport:
    """Sweep the action box and report the smallest ``G + G^T`` eigenvalue.

    ``seed`` may be an integer or a Generator to continue an existing stream.
    The points are evaluated in stacked blocks of ``SWEEP_BLOCK``; the
    witness is the first point attaining the minimum.  The sweep is sampled
    evidence, not a proof.
    """
    _check_sweep(samples)
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    points = _box_samples(spec, samples, rng)
    values = _in_blocks(lambda block: _rosen_values(_jacobian_stack(spec, block)), points)
    witness = points[np.argmin(values)]
    # Report the witness's own single-profile check, so that
    # rosen_check(spec, witness) == min_eig holds by construction.
    min_eig = rosen_check(spec, witness)
    return RosenReport(
        min_eig=min_eig,
        witness=ActionProfile(witness),
        samples=points.shape[0],
        violated=bool(min_eig <= 0.0),
    )


def _in_blocks(fn, ks: np.ndarray, per_profile: int = 1) -> np.ndarray:
    """``fn`` over blocks of the ``(P, n)`` stack ``ks``, joined (empty for ``P = 0``);
    a block holds at most ``SWEEP_BLOCK`` kernel profiles, ``per_profile`` per row."""
    step = max(1, SWEEP_BLOCK // per_profile)
    return np.concatenate([fn(ks[i : i + step]) for i in range(0, len(ks), step)] or [[]])


def _fd_jacobian_gap(spec: GameSpec, ks: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Per row of a ``(P, n)`` stack, the relative gap between the closed-form
    Jacobian and differenced gradients; one kernel call takes all ``2 n P`` bumps."""
    n = spec.n
    g = _jacobian_stack(spec, ks)
    bumps = step * np.eye(n)
    bumped = np.concatenate([ks[:, None] + bumps, ks[:, None] - bumps], axis=1)
    grads = _evaluate_stack(spec, bumped.reshape(-1, n))[1].grad.reshape(-1, 2 * n, n)
    fd = (grads[:, :n] - grads[:, n:]).transpose(0, 2, 1) / (2 * step)
    return np.max(np.abs(fd - g), axis=(1, 2)) / np.max(np.abs(g), axis=(1, 2))


def conjecture_sweep(
    ensemble: MatrixEnsembleConfig,
    samples_per_matrix: int = 200,
    rho_range: tuple[float, float] = (0.0, 1.0),
    generator: str = "sdd",
) -> SweepResult:
    """Sweep an ensemble of random games for uniqueness-certificate failures.

    ``generator="sdd"`` draws symmetric strictly diagonally dominant systems
    (the conjectured-safe class, where no violation is expected);
    ``generator="negative-definite"`` searches outside that class, where
    violations are genuine findings and are reported with full reproduction
    keys.  A fraction ``SPOT_CHECK_RATE`` of extra box points per matrix
    cross-checks the closed-form Jacobian against finite differences.
    """
    _check_sweep(samples_per_matrix, generator, rho_range)
    spot_count = max(1, round(samples_per_matrix * SPOT_CHECK_RATE)) if SPOT_CHECK_RATE > 0 else 0
    records = []
    gaps = []
    for index in range(ensemble.count):
        rng = substream(ensemble.seed, index)
        if generator == "sdd":
            a = generate_sdd_matrix(ensemble, rng)
        else:
            a = generate_negative_definite_matrix(ensemble.n, rng)
        rho = rng.uniform(rho_range[0], rho_range[1], size=ensemble.n)
        spec = game_from_matrix(a, rho)
        report = rosen_sweep(spec, samples_per_matrix, seed=rng)
        records.append(
            SweepRecord(matrix_index=index, seed=ensemble.seed, spec=spec, report=report)
        )
        points = spec.k_lower + rng.random((spot_count, spec.n)) * (spec.k_upper - spec.k_lower)
        gaps += _in_blocks(lambda block: _fd_jacobian_gap(spec, block), points, 2 * spec.n).tolist()
    return SweepResult(
        records=tuple(records),
        min_eig=float(min(r.report.min_eig for r in records)),
        spot_checked=len(gaps),
        spot_check_max_rel_err=max([0.0, *gaps]),
    )
