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
``game.BLOCK_ENTRIES`` (2^14) array entries, ``n^2`` per point, so its cost
per point is a few array operations rather than a Python-level
factorization, and its work arrays stay that size however many points there
are (the points themselves take ``n`` doubles each).  An ensemble is such
a sweep per chunk of whole games holding at most ``game.BLOCK_ENTRIES // n``
points, drawn and swept in index order, so it holds one chunk's points at a
time: the points of a chunk's games share the blocks, each row read with
its own game (:func:`game._game_rows`), so a block may hold several games
or part of one, and each game gets the bits of its own sweep.  Most
points skip the eigensolve: a point whose Gershgorin lower bound on the
smallest eigenvalue, less a round-off slack, lies above the smallest
diagonal entry, plus that slack, of some point of its game in its block
cannot hold its game's minimum (:func:`_rosen_values`, per (game, block)
segment), so each minimum, its first witness and every reported number
are those of a full solve.  The reported ``min_eig`` is a single
:func:`rosen_check` at the witness, so the pair reproduces exactly.  An
ensemble's finite-difference spot checks are stacked the same way: each
game's spot points are drawn in one call, and a chunk's points and their
``2 n`` bumped neighbours go through one kernel call per block of the same
bound, ``(2 n + 1) * n^2`` entries per point, which gives both the points'
Jacobians and the bumps' gradients; a point is never split.

The sample points are a Latin hypercube (McKay, Beckman & Conover, 1979)
drawn in numpy on a child spawned from the sweep's stream: one uniform
jitter per cell, then the strata of every coordinate shuffled by one
``permuted`` call, which draws as a shuffle per coordinate does.  These are
the draws ``scipy.stats.qmc.LatinHypercube`` made from the same stream, so
earlier runs keep their points and witnesses bit for bit.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import game
from .game import (
    ActionProfile,
    GameSpec,
    _eigenvalue_slack,
    _evaluate_stack,
    _game_rows,
    _in_blocks,
    _is_finite,
    _jacobian,
    _jacobian_stack,
    _require_each,
    _require_finite,
    _require_int,
    pseudogradient_jacobian,
)
from .simulate import _SMALLEST_NORMAL, substream

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

# Finite-difference spot checks per matrix, as a fraction of its sweep samples.
SPOT_CHECK_RATE = 0.01


# Each MatrixEnsembleConfig field's own rule, rule(value, name), in the order a
# config's ensemble section lists them; config applies it also to a file's value
# a flag overrides.
_ENSEMBLE_RULES = {"n": partial(_require_int, low=1), "offdiag_scale": _require_finite,
                   "dominance_margin": _require_finite, "seed": partial(_require_int, low=0),
                   "count": partial(_require_int, low=1)}


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
        _require_each(vars(self), _ENSEMBLE_RULES)
        # an n beyond the float range has no finite bound
        bound = (self.n + 1) * self.offdiag_scale + self.dominance_margin if _is_finite(self.n) else np.inf
        if not _is_finite(bound):
            raise ValueError(f"(n + 1) * offdiag_scale + dominance_margin must be finite, got {bound!r}")


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


def _rosen_values(g: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of ``H = G + G^T`` for each matrix of a ``(P, n, n)``
    stack, or ``+inf`` for a matrix whose smallest eigenvalue is not its
    segment's: a segment is a run of matrices with one ``owner``, here one
    game's rows of a block.

    Two bounds decide which matrices can hold a segment's minimum.
    Gershgorin's theorem bounds each matrix from below, ``lambda_min(H_p) >=
    b_p = min_i (h_ii - sum_{j != i} |h_ij|)``; each diagonal entry bounds it
    from above, ``lambda_min(H_q) <= d_q``, the smallest diagonal entry of
    ``H_q``.  Matrix ``p`` is skipped only when ``b_p - s_p > d_q + s_q`` for
    some matrix ``q`` of its segment, with ``s_p`` the
    :func:`game._eigenvalue_slack` of ``||H_p||_inf``; only the kept matrices
    go through one stacked ``eigvalsh``, which gives each the bits it gets
    alone.

    A skip is sound.  The computed ``b_p``, ``d_q``, norms and test err on
    each side by at most ``(n + 3) u`` times that side's norm, ``u = 2^-53``,
    since ``|b_p|`` and ``|d_q|`` are at most their matrices' norms; the slack
    covers that and the eigenvalues' round-off, so a skipped matrix's computed
    minimum lies strictly above matrix ``q``'s, and it neither is nor ties the
    segment's minimum.  The ``q`` with the smallest ``d_q + s_q`` is never
    skipped, as ``b_q <= d_q``; an overflow in a matrix keeps it, and a NaN
    anywhere in a segment keeps the whole segment.
    """
    h = g + g.transpose(0, 2, 1)
    diag = h.diagonal(0, 1, 2)
    sums = abs(h).sum(axis=2)
    slack = _eigenvalue_slack(sums.max(axis=1))
    starts = np.flatnonzero(np.diff(owner, prepend=owner[:1] - 1))
    ceiling = np.minimum.reduceat(diag.min(axis=1) + slack, starts)  # nan-propagating
    ceiling = np.repeat(ceiling, np.diff(starts, append=len(owner)))
    keep = ~((diag + abs(diag) - sums).min(axis=1) - slack > ceiling)
    values = np.full(len(h), np.inf)
    values[keep] = np.linalg.eigvalsh(h[keep]).min(axis=1)
    return values


def rosen_check(spec: GameSpec, k) -> float:
    """Smallest eigenvalue of ``G(k) + G(k)^T``; positive certifies k."""
    g = pseudogradient_jacobian(spec, k)
    return float(np.linalg.eigvalsh(g + g.T).min())


def two_player_mu(a11: float, a12: float, a22: float, k1: float, k2: float) -> float:
    """Sylvester determinant deciding 2-player uniqueness with zero tradeoffs.

        mu = 4 (k1 - a11)^3 (k2 - a22)^3 - a12^4 (k1 - a11 + k2 - a22)^2

    Under strict diagonal dominance with negative diagonal (``a11 < -|a12|``,
    ``a22 < -|a12|``) and nonnegative gains, ``mu > 0`` is equivalent to
    ``G + G^T`` being positive definite at ``(k1, k2)``.  A NaN gain, or a
    ``mu`` outside the float range, raises :class:`PreconditionViolated`, so
    every ``mu`` returned is finite; so does a ``mu`` below the normal
    numbers, where a term underflows and the sign is lost.

    Under that precondition ``mu > 0`` on every box in ``k >= 0``, so
    two-player SDD games with zero tradeoffs always have a unique Nash
    equilibrium.  Proof: ``d_i = k_i - a_ii >= -a_ii > |a12|``.  With
    ``m = min(d1, d2)`` and ``M = max(d1, d2)``,

        a12^4 (d1 + d2)^2 < m^4 4 M^2 <= 4 m^3 M^3 = 4 d1^3 d2^3,

    using ``|a12| < m`` (or ``a12 = 0``, where the left side is 0),
    ``d1 + d2 <= 2 M`` and ``m <= M``.  A computed ``mu`` below the normal
    numbers therefore comes from a term that underflowed: ``d1 = 1e-110``
    and ``d2 = 1e100`` give ``d1**3 = 0`` though ``mu`` is about ``4e-30``.
    """
    if not (a11 < -abs(a12) and a22 < -abs(a12)):
        raise PreconditionViolated(
            "need a11 < -|a12| and a22 < -|a12| (strict diagonal dominance, negative diagonal)"
        )
    if not (k1 >= 0 and k2 >= 0):
        raise PreconditionViolated("gains must be nonnegative")
    d1 = k1 - a11
    d2 = k2 - a22
    mu = np.inf  # kept where a Python float's ** raises OverflowError; numpy's gives inf
    with np.errstate(over="ignore", invalid="ignore"), contextlib.suppress(OverflowError):
        mu = 4.0 * d1**3 * d2**3 - a12**4 * (d1 + d2) ** 2
    if not np.isfinite(mu):
        raise PreconditionViolated("mu overflows the float range in this box")
    if not mu >= _SMALLEST_NORMAL:
        raise PreconditionViolated("mu underflows the float range in this box")
    return mu


def generate_sdd_matrix(config: MatrixEnsembleConfig, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric strictly diagonally dominant matrix, negative diagonal.

    Off-diagonal entries are uniform on ``[-offdiag_scale, offdiag_scale]``;
    each diagonal entry is set below minus the absolute row sum by at least
    ``dominance_margin``, so the output is negative definite by Gershgorin.
    """
    n = config.n
    a = np.zeros((n, n))
    index = np.arange(n)
    upper = index[:, None] < index  # filled in row-major order
    vals = rng.uniform(-config.offdiag_scale, config.offdiag_scale, size=n * (n - 1) // 2)
    a[upper] = vals
    a.T[upper] = vals
    offdiag = np.sum(np.abs(a), axis=1)
    a.flat[:: n + 1] = -(offdiag + config.dominance_margin + rng.uniform(0.0, config.offdiag_scale, size=n))
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
    shuffled stratum index minus a uniform jitter.  A child spawned off
    ``rng`` draws the jitter, then shuffles every coordinate's strata in one
    ``permuted`` call, coordinate by coordinate, as
    ``scipy.stats.qmc.LatinHypercube(d=n, seed=rng)`` draws them.  That
    keeps earlier runs' points and witnesses, and ``rng``'s later draws.
    Violations, if any, are expected near the lower boundary, so the corner
    is always evaluated.
    """
    child = rng.spawn(1)[0]
    jitter = child.uniform(size=(samples, spec.n))
    strata = child.permuted(np.tile(np.arange(1, samples + 1), (spec.n, 1)), axis=1)
    unit = (strata.T - jitter) / samples
    points = spec.k_lower + unit * (spec.k_upper - spec.k_lower)
    return np.vstack([spec.k_lower, points])


# Each ensemble generator's draw of one matrix for an ensemble from a stream.
_GENERATORS = {
    "sdd": generate_sdd_matrix,
    "negative-definite": lambda ensemble, rng: generate_negative_definite_matrix(ensemble.n, rng),
}


def _check_sweep(samples, generator: str = "sdd", rho_range=(0.0, 1.0)) -> None:
    """Refuse an unknown generator, then a sample count that is not an integer
    >= 1, then a ``rho_range`` that is not a list or tuple of two finite numbers
    ``0 <= lo <= hi``."""
    if generator not in tuple(_GENERATORS):  # a JSON list or object is refused, not hashed
        raise ValueError(f"generator must be {' or '.join(map(repr, _GENERATORS))}")
    _require_int(samples, "samples", 1)
    pair = isinstance(rho_range, (list, tuple)) and len(rho_range) == 2
    if not (pair and all(map(_is_finite, rho_range)) and 0 <= rho_range[0] <= rho_range[1]):
        raise ValueError(f"rho_range must be two finite numbers with 0 <= lo <= hi, got {rho_range!r}")


def _reports(specs: list, point_sets: list) -> list[RosenReport]:
    """The :func:`rosen_sweep` report of each of the last ``len(point_sets)``
    games of ``specs`` over its points: one kernel call per block of all their
    points, each row numbered by its game's index in ``specs``, the minima per
    (game, block) segment, then one :func:`rosen_check` per game at its witness."""
    sizes = [len(points) for points in point_sets]
    first = len(specs) - len(point_sets)
    owner = np.repeat(np.arange(first, len(specs)), sizes)
    values = _in_blocks(
        lambda block, owners: _rosen_values(_jacobian_stack(_game_rows(specs, owners), block), owners),
        np.concatenate(point_sets), specs[0].n ** 2, owner,
    )
    reports = []
    for spec, points, game_values in zip(specs[first:], point_sets, np.split(values, np.cumsum(sizes)[:-1])):
        witness = points[np.argmin(game_values)]
        # Report the witness's own single-profile check, so that
        # rosen_check(spec, witness) == min_eig holds by construction.
        min_eig = rosen_check(spec, witness)
        if min_eig <= 0.0 and not pseudogradient_jacobian(spec, witness).diagonal().all():
            raise ValueError(f"curvature underflows to 0 at witness {witness.tolist()}: box too wide to sweep")
        reports.append(RosenReport(min_eig, ActionProfile(witness), len(points), bool(min_eig <= 0.0)))
    return reports


def rosen_sweep(spec: GameSpec, samples: int = 200, seed=0) -> RosenReport:
    """Sweep the action box and report the smallest ``G + G^T`` eigenvalue.

    ``seed`` may be an integer or a Generator to continue an existing stream.
    It is the one-game case of :func:`conjecture_sweep`'s path: the points are
    evaluated in stacked blocks of ``game.BLOCK_ENTRIES // n^2`` points (at
    least one); the witness is the first point attaining the minimum.  Within
    a block, only the points that may hold the block's minimum are
    eigensolved (:func:`_rosen_values`); a skipped point lies strictly above
    its block's minimum, so above the sweep's, and the witness is the point a
    full solve picks.  The sweep is sampled evidence, not a proof.  A violation at a
    witness whose Jacobian has a zero diagonal entry raises ``ValueError``:
    each curvature is strictly positive at a stable profile, so a computed 0
    has underflowed, which a box too wide to sweep allows.
    """
    _check_sweep(samples)
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    return _reports([spec], [_box_samples(spec, samples, rng)])[0]


def _fd_jacobian_gap(specs: list, ks: np.ndarray, owner: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Per row of a ``(P, n)`` stack, a profile of ``specs[owner[p]]``, the
    relative gap between the closed-form Jacobian and differenced gradients;
    one kernel call takes the ``P`` points and their ``2 n P`` bumps."""
    n, p = specs[0].n, len(ks)
    bumps = step * np.eye(n)
    bumped = np.concatenate([ks[:, None] + bumps, ks[:, None] - bumps], axis=1)
    view = _game_rows(specs, np.concatenate([owner, np.repeat(owner, 2 * n)]))
    m, report = _evaluate_stack(view, np.concatenate([ks, bumped.reshape(-1, n)]))
    g = _jacobian(view.rho[:p], ks, m[:p], report.cost[:p], report.curvature[:p])
    grads = report.grad[p:].reshape(-1, 2 * n, n)
    fd = (grads[:, :n] - grads[:, n:]).transpose(0, 2, 1) / (2 * step)
    return np.max(np.abs(fd - g), axis=(1, 2)) / np.max(np.abs(g), axis=(1, 2))


def _sweep_games(specs: list, chunk: list) -> tuple[list[RosenReport], list[float]]:
    """The reports and spot-check gaps of the last ``len(chunk)`` games of
    ``specs``, each ``(points, spot points)`` of one ``n``: the points of all
    of them in shared blocks, then all spot points and their bumps in shared
    blocks of ``(2 n + 1) n^2`` entries per point.

    When the chunk fails, its games are swept again one at a time, so the
    error raised is that of its lowest-index failing game, as each raises it
    alone; a chunk that only ran out of memory gets its games' lone results.
    """
    point_sets, spot_sets = (list(column) for column in zip(*chunk))
    first = len(specs) - len(chunk)
    try:
        reports = _reports(specs, point_sets)
        owner = np.repeat(np.arange(first, len(specs)), [len(spots) for spots in spot_sets])
        entries = (2 * specs[0].n + 1) * specs[0].n ** 2  # a point and its 2 n bumps
        gaps = _in_blocks(lambda block, owners: _fd_jacobian_gap(specs, block, owners),
                          np.concatenate(spot_sets), entries, owner)
    except (ValueError, RuntimeError, MemoryError):  # a game's refusal, NotPositiveDefinite or the chunk's size
        if len(chunk) == 1:
            raise
        alone = [_sweep_games(specs[: first + i + 1], [drawn]) for i, drawn in enumerate(chunk)]
        return [swept[0][0] for swept in alone], [gap for _, lone_gaps in alone for gap in lone_gaps]
    return reports, gaps.tolist()


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

    The games are drawn and swept in index order, in chunks of whole games
    holding at most ``game.BLOCK_ENTRIES // n`` sweep points (at least one
    game), so an ensemble holds one chunk's points at a time.  Each game is
    drawn from its own substream: its matrix, ``rho``, sweep points and spot
    points.  The sweep points of a chunk's games then share blocks of at
    most ``game.BLOCK_ENTRIES`` entries, one kernel call each, with the
    pruning per (game, block) segment (:func:`_rosen_values`); the spot
    points share blocks too.  Each game keeps the bits of its own
    :func:`rosen_sweep`.  A chunk that fails is swept again one game at a
    time (:func:`_sweep_games`), and a game that fails to construct first
    lets the chunk's games drawn before it sweep, so the error raised is
    that of the lowest-index failing game, as each raises it alone.
    """
    _check_sweep(samples_per_matrix, generator, rho_range)
    spot_count = max(1, round(samples_per_matrix * SPOT_CHECK_RATE)) if SPOT_CHECK_RATE > 0 else 0

    def draw(index):  # game index's points and spot points, once its spec joins specs
        rng = substream(ensemble.seed, index)
        a = _GENERATORS[generator](ensemble, rng)
        spec = game_from_matrix(a, rng.uniform(rho_range[0], rho_range[1], size=ensemble.n))
        points = _box_samples(spec, samples_per_matrix, rng)
        spots = spec.k_lower + rng.random((spot_count, spec.n)) * (spec.k_upper - spec.k_lower)
        specs.append(spec)
        return points, spots

    per_chunk = max(1, game.BLOCK_ENTRIES // ensemble.n // (samples_per_matrix + 1))
    specs, reports, gaps = [], [], []
    for start in range(0, ensemble.count, per_chunk):
        chunk = []  # the last chunk's points go before this one's are drawn
        try:
            for index in range(start, min(start + per_chunk, ensemble.count)):
                chunk.append(draw(index))
        except (ValueError, RuntimeError, MemoryError):  # a game's refusal: the chunk's lower games sweep first
            if chunk:
                _sweep_games(specs, chunk)
            raise
        chunk_reports, chunk_gaps = _sweep_games(specs, chunk)
        reports += chunk_reports
        gaps += chunk_gaps
    return SweepResult(
        records=tuple(
            SweepRecord(matrix_index=index, seed=ensemble.seed, spec=spec, report=report)
            for index, (spec, report) in enumerate(zip(specs, reports))
        ),
        min_eig=float(min(report.min_eig for report in reports)),
        spot_checked=len(gaps),
        spot_check_max_rel_err=max([0.0, *gaps]),
    )
