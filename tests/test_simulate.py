import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashlq import game, learning
from nashlq import (
    GameSpec,
    LearnConfig,
    NotPositiveDefinite,
    SimConfig,
    cost,
    five_player_game,
    monte_carlo_cost,
    pair_integrals,
    run_lockstep,
    sample_initial_state,
    scalar_game,
    simulate_batch,
    simulate_state,
    substream,
    trajectory_cost,
)
from util import random_game, rel_gap

SQRT3 = np.sqrt(3.0)


def loop_pair_integrals(eigs, horizon, dt, chunk=8192):
    """Reference: the retired chunked time-grid trapezoid over mode pairs."""
    eigs = np.asarray(eigs, dtype=float)
    s = eigs[:, None] + eigs[None, :]
    steps = max(1, round(horizon / dt))
    step = horizon / steps
    out = np.zeros_like(s)
    for start in range(0, steps + 1, chunk):
        t = step * np.arange(start, min(start + chunk, steps + 1))
        w = np.full(t.shape, step)
        if start == 0:
            w[0] *= 0.5
        if start + chunk > steps:
            w[-1] *= 0.5
        out += (np.exp(s[:, :, None] * t) * w).sum(axis=-1)
    return out


def plus_one_trapezoid(eigs, horizon, dt):
    """Reference: the closed-form trapezoid table with ``z = 1`` standing in for zero-rate pairs.

    That stand-in overflows ``expm1(steps * z)`` beyond ~709 steps; the
    overflowed entries are masked to the horizon, every other entry is kept.
    """
    s = eigs[:, None] + eigs[None, :]
    steps = max(1, round(horizon / dt))
    step = horizon / steps
    z = s * step
    flat = z == 0.0
    z = np.where(flat, 1.0, z)
    with np.errstate(over="ignore"):
        trapezoid = step * 0.5 * (1.0 + np.exp(z)) * (np.expm1(steps * z) / np.expm1(z))
    return np.where(flat, horizon, trapezoid), flat


def retired_pair_integrals(eigs, horizon, dt=None):
    """Reference: the retired pair-integral table, which masked zero-rate
    pairs with ``np.where`` whether or not any pair had a zero rate."""
    eigs = np.asarray(eigs, dtype=float)
    s = eigs[..., :, None] + eigs[..., None, :]
    if dt is None:
        denom = np.where(s == 0.0, 1.0, s)
        return np.where(s == 0.0, horizon, np.expm1(s * horizon) / denom)
    steps = max(1, round(horizon / dt))
    step = horizon / steps
    z = s * step
    flat = z == 0.0
    z = np.where(flat, -1.0, z)
    trapezoid = step * 0.5 * (1.0 + np.exp(z)) * (np.expm1(steps * z) / np.expm1(z))
    return np.where(flat, horizon, trapezoid)


def retired_draw(spec, ks, config, stage):
    """Reference: the retired stage's start, a Cholesky check of every
    ``K - A`` (``game._cholesky``), then the ``(seed, stage)`` draw."""
    game._cholesky(game._closed_loop(spec, ks.reshape(-1, spec.n)))
    return sample_initial_state(substream(config.seed, stage), (config.batch_size, spec.n))


def retired_modes(spec, ks, config):
    """Reference: the retired second ``K - A``, its ``eigh`` and the pair-integral table."""
    lam, q = np.linalg.eigh(-game._closed_loop(spec, ks))
    return q, retired_pair_integrals(lam, config.horizon, None if config.integrator == "exact" else config.dt)


def retired_modal_cost(spec, k, q, w, s):
    """Reference: the retired costs from modal second moments ``s``."""
    base = np.sum((q @ (w * s)) * q, axis=-1)
    return (1.0 + spec.rho * k**2) * np.maximum(base, 0.0)


def retired_mean_cost(spec, ks, q, w, x0):
    """Reference: the retired batch mean through the modal second moment."""
    coords = x0 @ q
    return retired_modal_cost(spec, ks, q, w, (np.swapaxes(coords, -1, -2) @ coords) / x0.shape[0])


def retired_monte_carlo_cost(spec, ks, config, stage=0):
    """Reference: the retired stage, check, draw, modes and batch mean in that order."""
    ks = np.asarray(ks, dtype=float)
    x0 = retired_draw(spec, ks, config, stage)
    return retired_mean_cost(spec, ks, *retired_modes(spec, ks, config), x0)


def gamma(m):
    """Higham's ``gamma_m = m u / (1 - m u)``, ``u = 2^-53``."""
    u = 2.0**-53
    return m * u / (1.0 - m * u)


def second_moment_bound(spec, ks, config, stage=0):
    """Largest gap, per entry, between the stage's cost and the retired batch mean.

    Both evaluate ``g_i sum_mp q_im q_ip W_mp S_mp``, ``g_i = 1 + rho_i k_i^2``,
    on the same draw ``X0`` and modes, with ``S = Q^T X0^T X0 Q / B`` formed
    in different orders: the retired ``C^T C / B`` with ``C = X0 Q``, the stage
    ``Q^T (X0^T X0 / B) Q`` once ``B > n`` (up to ``B = n`` the stage is the
    retired mean, and the gap is 0).  Either is a triple product with inner lengths
    ``B``, ``n`` and ``n`` and one division, so its computed ``S_mp`` is within
    ``gamma_{B+2n+1} M_mp`` of the exact value, ``M = |Q|^T |X0|^T |X0| |Q| / B``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, 3.5),
    and ``|S_mp| <= (1 + gamma_{B+2n+1}) M_mp``.  The reduction over ``m, p``
    (one product with ``W >= 0``, a length-``n`` inner product, one product,
    a length-``n`` sum) adds ``gamma_{2n+2}`` relative to its absolute terms,
    the clamp at zero is 1-Lipschitz, and the product with ``g_i`` one
    rounding.  The two paths' errors add, so the gap is at most
    ``2 gamma_{B+4n+6} g_i T_i``, ``T_i = sum_mp |q_im q_ip| W_mp M_mp``; ``T``
    is a sum of nonnegative terms, and the slack in the index covers its own
    rounding.  A stack's rows are bounded row by row.

    The same bound holds for the gap between the stage's cost and the mean
    of the per-trajectory costs: each trajectory's ``c c^T`` is within
    ``gamma_{2n+1}`` of its exact moment, relative to ``|Q|^T |x| |x|^T |Q|``,
    its reduction and weight add ``gamma_{2n+2}`` and one rounding, and the
    mean of ``B`` nonnegative costs ``gamma_B``, together no more than the
    retired path's ``gamma_{B+4n+4}``.
    """
    ks = np.asarray(ks, dtype=float)
    x0 = retired_draw(spec, ks, config, stage)
    q, w = retired_modes(spec, ks, config)
    q_abs = abs(q)
    m = np.swapaxes(q_abs, -1, -2) @ (abs(x0).T @ abs(x0)) @ q_abs / x0.shape[0]
    terms = np.sum((q_abs @ (w * m)) * q_abs, axis=-1)
    return 2.0 * gamma(config.batch_size + 4 * spec.n + 6) * (1.0 + spec.rho * ks**2) * terms


def assert_within_second_moment_bound(spec, ks, config, stage, estimate):
    """``estimate`` is within :func:`second_moment_bound` of the retired batch mean."""
    gap = abs(estimate - retired_monte_carlo_cost(spec, ks, config, stage))
    assert np.all(gap <= second_moment_bound(spec, ks, config, stage)), gap


def retired_simulate_batch(spec, k, config, stage=0):
    """Reference: the retired draw and per-trajectory costs, in ``game._in_blocks``'s blocks."""
    x0 = retired_draw(spec, k, config, stage)
    q, w = retired_modes(spec, k, config)
    costs = game._in_blocks(
        lambda c: retired_modal_cost(spec, k, q, w, c[:, :, None] * c[:, None, :]), x0 @ q, spec.n**2
    )
    return x0, costs


def outcome(fn):
    """``None`` if ``fn()`` returns, else the type and message of its stability error."""
    try:
        fn()
    except (NotPositiveDefinite, np.linalg.LinAlgError) as err:
        return type(err), str(err)
    return None


def certificate_case(seed, n, kinds, coupling, walk):
    """A spec and an ``(R, n)`` stack with one row per entry of ``kinds``.

    ``A`` has a nonpositive diagonal and a first row that dominates both the
    gains and ``|A|``'s row sums, so the certificate's norm bound ``B`` is
    ``||K - A||_inf`` up to its ``(1 + 4 n u)``, the sharpest case.  The last
    player is coupled to the others by ``coupling`` times the other entries.
    Row kinds: ``"spd"`` is strictly diagonally dominant; ``"indefinite"``
    has one negative diagonal entry of ``K - A``; ``"nonfinite"`` has a NaN
    or infinite gain; ``"near"`` sets the last gain so that the last
    Cholesky pivot, squared, is ``(1 + walk) PIVOT_RTOL ||K - A||_inf`` in
    exact arithmetic.
    """
    rng = substream(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, -rng.uniform(0.0, 1.0, size=n))
    a[-1, :-1] *= coupling
    a[:-1, -1] *= coupling
    a[-1, -1] = 0.0
    a[0, 0] = -10.0 * n
    spec = GameSpec(a=a, rho=0.0, k_upper=np.full(n, 1e6))
    offdiag = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    rows = []
    for kind in kinds:
        k = np.diag(a) + offdiag + rng.uniform(0.01, 3.0, size=n)
        k[0] = 10.0 * n
        if kind == "indefinite":
            i = int(rng.integers(n))
            k[i] = a[i, i] - rng.uniform(1e-3, 2.0)
        elif kind == "nonfinite":
            k[int(rng.integers(n))] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == "near":
            s11 = np.diag(k[:-1]) - a[:-1, :-1]
            b = a[:-1, -1]
            k[-1] = b @ np.linalg.solve(s11, b) if n > 1 else 0.0
            norm = np.abs(np.diag(k) - a).sum(axis=1).max()
            k[-1] += (1.0 + walk) * game.PIVOT_RTOL * norm
        rows.append(k)
    return spec, np.array(rows)


def max_rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


def einsum_batch_cost(spec, k, x0, config):
    """Reference: the retired per-trajectory einsum over ``d_bim = q_im c_bm``.

    Returns the costs and, per entry, the same sum over absolute terms: the
    scale round-off is measured against, since one player's sampled cost can
    be far smaller than the terms that cancel into it.
    """
    lam, q = np.linalg.eigh(spec.a - np.diag(k))
    w = pair_integrals(lam, config.horizon, None if config.integrator == "exact" else config.dt)
    d = q[None, :, :] * (x0 @ q)[:, None, :]
    gain = 1.0 + spec.rho * k**2
    base = np.einsum("bim,mp,bip->bi", d, w, d)
    scale = np.einsum("bim,mp,bip->bi", np.abs(d), np.abs(w), np.abs(d))
    return gain * np.maximum(base, 0.0), gain * scale


class TestSampling:
    def test_bounds(self):
        draws = substream(0).uniform(-SQRT3, SQRT3, size=10**5)
        assert np.all(draws > -SQRT3) and np.all(draws < SQRT3)

    def test_single_state_shape_and_bounds(self):
        x0 = sample_initial_state(substream(1), 4)
        assert x0.shape == (4,)
        assert np.all(np.abs(x0) < SQRT3)

    def test_law_of_large_numbers(self):
        draws = substream(12).uniform(-SQRT3, SQRT3, size=10**6)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.02

    def test_same_seed_bit_identical(self):
        spec, k = random_game(2, n=3)
        config = SimConfig(batch_size=64, horizon=20.0, dt=0.1, seed=9)
        b1 = simulate_batch(spec, k, config)
        b2 = simulate_batch(spec, k, config)
        assert np.array_equal(b1.x0, b2.x0)
        assert np.array_equal(b1.per_player_cost, b2.per_player_cost)

    def test_stage_substreams_differ(self):
        spec, k = random_game(2, n=3)
        config = SimConfig(batch_size=16, horizon=10.0, seed=9)
        assert not np.array_equal(
            simulate_batch(spec, k, config, stage=0).x0,
            simulate_batch(spec, k, config, stage=1).x0,
        )


class TestSimulateState:
    def test_diagonal_exponential(self):
        spec = GameSpec(a=np.diag([-1.0, -2.0]), rho=0.0, k_upper=5.0)
        x = simulate_state(spec, [0.0, 0.0], [1.0, 0.0], 1.0)
        assert np.allclose(x, [np.exp(-1.0), 0.0], rtol=1e-14, atol=1e-16)

    def test_time_zero_is_identity(self):
        spec, k = random_game(4)
        x0 = substream(5).standard_normal(spec.n)
        assert np.allclose(simulate_state(spec, k, x0, 0.0), x0, rtol=1e-14, atol=0)

    def test_negative_time_rejected(self):
        spec, k = random_game(4)
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_state(spec, k, np.zeros(spec.n), -1.0)

    def test_nan_time_rejected(self):
        spec, k = random_game(4)
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_state(spec, k, np.zeros(spec.n), np.nan)

    @given(st.integers(0, 10**6), st.integers(1, 11), st.floats(0.0, 50.0))
    def test_certified_modes_keep_the_retired_state(self, seed, n, t):
        """Bit for bit at box profiles: the retired state, an uncertified
        ``eigh`` of ``A - K``, kept here as the reference."""
        spec, k = random_game(seed, n=n)
        x0 = substream(seed, 1).uniform(-SQRT3, SQRT3, n)
        lam, q = np.linalg.eigh(-game._closed_loop(spec, k))
        retired = q @ (np.exp(lam * t) * (q.T @ x0))
        assert simulate_state(spec, k, x0, t).tobytes() == retired.tobytes()

    def test_monotone_decay(self):
        spec, k = random_game(6)
        x0 = substream(7).standard_normal(spec.n)
        norms = [np.linalg.norm(simulate_state(spec, k, x0, t)) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b <= a for a, b in zip(norms, norms[1:]))


class TestTrajectoryCost:
    def test_scalar_analytic_integral(self):
        # a = -1, k = 0, rho = 0, x0 = 1: integral of exp(-2t) = 1/2
        spec = GameSpec(a=[[-1.0]], rho=0.0, k_upper=3.0)
        exact = SimConfig(batch_size=1, horizon=50.0, integrator="exact")
        assert trajectory_cost(spec, [0.0], [1.0], exact)[0] == pytest.approx(0.5, rel=1e-12)
        quad = SimConfig(batch_size=1, horizon=50.0, dt=0.01)
        assert trajectory_cost(spec, [0.0], [1.0], quad)[0] == pytest.approx(0.5, rel=1e-4)

    def test_zero_state_zero_cost(self):
        spec, k = random_game(8)
        for integrator in ("exact", "quadrature"):
            config = SimConfig(batch_size=1, horizon=30.0, dt=0.1, integrator=integrator)
            assert np.array_equal(
                trajectory_cost(spec, k, np.zeros(spec.n), config), np.zeros(spec.n)
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_agrees_with_fine_quadrature(self, seed):
        # trapezoid resolution (2 lam_max dt)^2 / 12 needs closed-loop rates
        # below ~1.7 for 1e-4 agreement at dt = 0.01, so sample slow systems
        rng = substream(seed + 40)
        n = int(rng.integers(2, 6))
        off = rng.uniform(-0.05, 0.05, size=(n, n))
        off = (off + off.T) / 2
        np.fill_diagonal(off, 0.0)
        diag = -(np.abs(off).sum(axis=1) + rng.uniform(0.05, 0.5, size=n))
        spec = GameSpec(a=off + np.diag(diag), rho=rng.uniform(0, 1, n), k_upper=1.0)
        k = rng.uniform(0.0, 1.0, size=n)
        x0 = rng.uniform(-SQRT3, SQRT3, spec.n)
        exact = trajectory_cost(spec, k, x0, SimConfig(horizon=40.0, integrator="exact"))
        quad = trajectory_cost(spec, k, x0, SimConfig(horizon=40.0, dt=0.01))
        assert rel_gap(quad, exact) < 1e-4

    def test_quadrature_equals_direct_grid_sum(self):
        # the factored per-mode-pair evaluation must agree with literally
        # simulating the state on the grid and trapezoid-summing its square
        spec, k = random_game(9, n=3)
        x0 = substream(3).uniform(-SQRT3, SQRT3, spec.n)
        horizon, dt = 20.0, 0.05
        config = SimConfig(horizon=horizon, dt=dt)
        steps = round(horizon / dt)
        weights = np.full(steps + 1, horizon / steps)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        states = np.stack(
            [simulate_state(spec, k, x0, i * horizon / steps) for i in range(steps + 1)]
        )
        direct = (1.0 + spec.rho * np.asarray(k) ** 2) * (weights[:, None] * states**2).sum(axis=0)
        lib = trajectory_cost(spec, k, x0, config)
        assert np.max(np.abs(lib - direct) / direct) < 1e-10

    def test_unstable_profile_raises_like_monte_carlo_cost(self):
        spec, config = scalar_game(), SimConfig(batch_size=8, horizon=10.0)
        with pytest.raises(NotPositiveDefinite) as refused:
            trajectory_cost(spec, [-5.0], [1.0], config)
        with pytest.raises(NotPositiveDefinite) as sibling:
            monte_carlo_cost(spec, [-5.0], config)
        assert str(refused.value) == str(sibling.value)

    def test_truncation_monotone_in_horizon(self):
        spec, k = random_game(10)
        batch = simulate_batch(spec, k, SimConfig(batch_size=32, horizon=5.0, integrator="exact"))
        longer = np.stack(
            [
                trajectory_cost(spec, k, x0, SimConfig(horizon=20.0, integrator="exact"))
                for x0 in batch.x0
            ]
        )
        assert np.all(batch.per_player_cost <= longer + 1e-15)


class TestMonteCarlo:
    def test_scalar_oracle_within_5_percent(self):
        spec = GameSpec(a=[[-1.0]], rho=0.0, k_upper=3.0)
        config = SimConfig(batch_size=10**4, horizon=50.0, dt=0.1, seed=0)
        estimate = monte_carlo_cost(spec, [0.0], config)[0]
        assert abs(estimate - 0.5) < 0.05 * 0.5

    def test_five_player_estimate_near_closed_form(self):
        spec = five_player_game()
        k = np.array([1.31, 1.89, 1.46, 3.85, 1.03])
        config = SimConfig(batch_size=500, horizon=200.0, dt=0.01, seed=4)
        estimate = monte_carlo_cost(spec, k, config)
        exact = cost(spec, k)
        assert np.max(np.abs(estimate - exact) / exact) < 0.10

    def test_single_trajectory_batch_degenerates(self):
        spec, k = random_game(12)
        config = SimConfig(batch_size=1, horizon=25.0, seed=3)
        batch = simulate_batch(spec, k, config)
        assert np.array_equal(
            monte_carlo_cost(spec, k, config), trajectory_cost(spec, k, batch.x0[0], config)
        )

    @settings(max_examples=40)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 20),
        st.integers(1, 300),
        st.sampled_from(["quadrature", "exact"]),
        st.floats(1.0, 200.0),
        st.floats(0.005, 0.5),
    )
    def test_second_moment_mean_matches_per_trajectory_mean(
        self, seed, n, batch_size, integrator, horizon, dt
    ):
        spec, k = random_game(seed, n=n)
        config = SimConfig(
            batch_size=batch_size, horizon=horizon, dt=min(dt, horizon),
            seed=seed, integrator=integrator,
        )
        batch = simulate_batch(spec, k, config, stage=3)
        mean = batch.per_player_cost.mean(axis=0)
        estimate = monte_carlo_cost(spec, k, config, stage=3)
        assert max_rel(estimate, mean) <= 1e-12
        assert np.all(abs(estimate - mean) <= second_moment_bound(spec, k, config, stage=3))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 20),
        st.integers(1, 64),
        st.sampled_from(["quadrature", "exact"]),
        st.floats(1.0, 200.0),
        st.floats(0.005, 0.5),
        st.integers(1, 2000),
    )
    def test_per_trajectory_costs_match_retired_einsum(
        self, seed, n, batch_size, integrator, horizon, dt, block
    ):
        """Also across trajectory blocks: ``game.BLOCK_ENTRIES`` is patched down."""
        spec, k = random_game(seed, n=n)
        config = SimConfig(
            batch_size=batch_size, horizon=horizon, dt=min(dt, horizon),
            seed=seed, integrator=integrator,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game, "BLOCK_ENTRIES", block)
            batch = simulate_batch(spec, k, config)
        reference, scale = einsum_batch_cost(spec, k, batch.x0, config)
        assert rel_gap(batch.per_player_cost, reference) <= 1e-12
        assert np.all(np.abs(batch.per_player_cost - reference) <= 1e-12 * scale)

    def test_costs_nonnegative(self):
        spec, k = random_game(13)
        batch = simulate_batch(spec, k, SimConfig(batch_size=256, horizon=30.0, seed=5))
        assert np.all(batch.per_player_cost >= 0)

    def test_unstable_profile_raises_before_simulating(self):
        spec = GameSpec(a=[[1.0, 0.0], [0.0, -1.0]], rho=0.0, k_upper=5.0)
        with pytest.raises(NotPositiveDefinite):
            monte_carlo_cost(spec, [0.0, 0.0], SimConfig(batch_size=8, horizon=10.0))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 20),
        st.integers(1, 4),
        st.integers(1, 300),
        st.sampled_from(["quadrature", "exact"]),
        st.sampled_from([5.0, 200.0]),
        st.sampled_from([0.01, 0.1]),
    )
    def test_stack_rows_equal_single_calls(self, seed, n, count, batch_size, integrator, horizon, dt):
        spec, k = random_game(seed, n=n)
        rng = substream(seed, 1)
        others = [spec.k_lower + rng.random(n) * (spec.k_upper - spec.k_lower) for _ in range(count - 1)]
        ks = np.array([k] + others)
        config = SimConfig(batch_size=batch_size, horizon=horizon, dt=dt, seed=seed, integrator=integrator)
        stacked = monte_carlo_cost(spec, ks, config, stage=seed % 7)
        assert stacked.shape == (count, n)
        for row, k_row in zip(stacked, ks):
            assert row.tobytes() == monte_carlo_cost(spec, k_row, config, stage=seed % 7).tobytes()

    def test_unstable_stack_row_is_named(self):
        spec = GameSpec(a=[[1.0, 0.0], [0.0, -1.0]], rho=0.0, k_upper=5.0)
        with pytest.raises(NotPositiveDefinite, match="at profile 1"):
            monte_carlo_cost(spec, [[2.0, 0.0], [0.0, 0.0]], SimConfig(batch_size=8, horizon=10.0))

    def test_error_shrinks_with_batch_size(self):
        # shrinkage in probability, checked as aggregate mean error over a
        # frozen seed schedule plus per-seed orderings across the full span
        spec = GameSpec(a=[[-1.0]], rho=0.0, k_upper=3.0)
        seeds = range(20)
        errors = {}
        for batch in (10, 100, 1000):
            errors[batch] = np.array(
                [
                    abs(
                        monte_carlo_cost(
                            spec, [0.0], SimConfig(batch_size=batch, horizon=50.0, dt=0.1, seed=s)
                        )[0]
                        - 0.5
                    )
                    for s in seeds
                ]
            )
        means = [errors[b].mean() for b in (10, 100, 1000)]
        assert means[0] > means[1] > means[2]
        span_violations = int(np.sum(errors[1000] >= errors[10]))
        assert span_violations <= 1


class TestRetiredPath:
    """Every cost keeps the bits of the retired Cholesky-then-eigh stage,
    except the batch mean of more than ``n`` states, whose second moment is
    formed in another order: it stays within :func:`second_moment_bound` of
    the retired one."""

    @settings(max_examples=60)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 20),
        st.integers(1, 4),
        st.integers(1, 300),
        st.sampled_from(["quadrature", "exact"]),
        st.sampled_from([5.0, 200.0]),
        st.sampled_from([0.01, 0.1]),
        st.booleans(),
    )
    def test_monte_carlo_and_trajectory_costs(self, seed, n, count, batch_size, integrator, horizon, dt, flat):
        spec, k = random_game(seed, n=n)
        rng = substream(seed, 1)
        others = [spec.k_lower + rng.random(n) * (spec.k_upper - spec.k_lower) for _ in range(count - 1)]
        ks = np.array([k] + others)
        if flat and count == 1:
            ks = ks[0]  # one profile, without the stack axis
        config = SimConfig(batch_size=batch_size, horizon=horizon, dt=dt, seed=seed, integrator=integrator)
        estimate = monte_carlo_cost(spec, ks, config, stage=seed % 7)
        assert estimate.shape == ks.shape
        assert_within_second_moment_bound(spec, ks, config, seed % 7, estimate)
        x0 = sample_initial_state(rng, n)
        for row in ks.reshape(-1, n):
            reference = retired_mean_cost(spec, row, *retired_modes(spec, row, config), x0[None, :])
            assert trajectory_cost(spec, row, x0, config).tobytes() == reference.tobytes()

    @settings(max_examples=60)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 20),
        st.integers(1, 4),
        st.integers(1, 300),
        st.sampled_from(["quadrature", "exact"]),
        st.sampled_from([5.0, 200.0]),
        st.sampled_from([0.01, 0.1]),
    )
    def test_batch_mean_is_second_moment_of_retired_draw_and_modes(
        self, seed, n, count, batch_size, integrator, horizon, dt
    ):
        """Bit for bit: the retired draw and modes, then, past ``B = n``,
        ``Sigma = X0^T X0 / B`` once and ``Q^T Sigma Q`` per row into the
        retired modal cost; up to ``B = n``, the retired batch mean."""
        spec, k = random_game(seed, n=n)
        rng = substream(seed, 1)
        ks = np.array([k] + [spec.k_lower + rng.random(n) * (spec.k_upper - spec.k_lower) for _ in range(count - 1)])
        config = SimConfig(batch_size=batch_size, horizon=horizon, dt=dt, seed=seed, integrator=integrator)
        x0 = retired_draw(spec, ks, config, seed % 7)
        q, w = retired_modes(spec, ks, config)
        if batch_size <= n:
            expected = retired_mean_cost(spec, ks, q, w, x0)
        else:
            second = (x0.T @ x0) / batch_size
            expected = retired_modal_cost(spec, ks, q, w, np.swapaxes(q, -1, -2) @ second @ q)
        assert monte_carlo_cost(spec, ks, config, stage=seed % 7).tobytes() == expected.tobytes()

    @settings(max_examples=30)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 12),
        st.integers(1, 200),
        st.sampled_from(["quadrature", "exact"]),
    )
    def test_simulate_batch(self, seed, n, batch_size, integrator):
        spec, k = random_game(seed, n=n)
        config = SimConfig(batch_size=batch_size, horizon=50.0, dt=0.05, seed=seed, integrator=integrator)
        batch = simulate_batch(spec, k, config, stage=seed % 5)
        x0, costs = retired_simulate_batch(spec, k, config, stage=seed % 5)
        assert batch.x0.tobytes() == x0.tobytes()
        assert batch.per_player_cost.tobytes() == costs.tobytes()

    @settings(max_examples=15)
    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 3), st.sampled_from(["quadrature", "exact"]))
    def test_lockstep_model_free_rows(self, seed, n, count, integrator):
        spec, k = random_game(seed, n=n)
        rng = substream(seed, 1)
        starts = [k] + [spec.k_lower + rng.random(n) * (spec.k_upper - spec.k_lower) for _ in range(count - 1)]
        sim = SimConfig(batch_size=40, horizon=20.0, dt=0.05, seed=seed, integrator=integrator)
        self.assert_lockstep_rows(spec, starts, LearnConfig(stages=6, step_size=0.5, mode="model-free", sim=sim))

    def test_lockstep_five_player_study(self):
        # the published study's game, starts and simulation settings, for a few stages
        sim = SimConfig(batch_size=500, horizon=200.0, dt=0.01, seed=0)
        starts = [[1.0] * 5, [2.0, 2.0, 2.0, 5.0, 2.0]]
        self.assert_lockstep_rows(five_player_game(), starts, LearnConfig(stages=8, mode="model-free", sim=sim))

    @staticmethod
    def assert_lockstep_rows(spec, starts, config):
        """Every stage's estimate is within the bound of the retired batch mean
        at that stage's stack, and each run keeps the estimates it was given."""
        estimates = []

        def checked(spec, ks, sim, stage):
            costs = monte_carlo_cost(spec, ks, sim, stage)
            assert_within_second_moment_bound(spec, ks, sim, stage, costs)
            estimates.append(costs)
            return costs

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(learning, "monte_carlo_cost", checked)
            runs = run_lockstep(spec, starts, config)
        assert len(estimates) == config.stages + 1
        for r, run in enumerate(runs):
            assert run.costs.tobytes() == np.array([costs[r] for costs in estimates]).tobytes()

    @settings(max_examples=80)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.integers(1, 8),
        st.sampled_from([None, 0.01, 0.1, 0.5]),
        st.booleans(),
    )
    def test_pair_integrals_with_and_without_zero_rate_pairs(self, seed, count, n, dt, zero_rate):
        eigs = -substream(seed).uniform(0.0, 8.0, size=(count, n))
        if zero_rate:
            if n > 1:
                eigs[-1, -2:] = [0.7, -0.7]  # a pair summing to zero
            eigs[0, 0] = 0.0  # lam_0 + lam_0 = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pair_integrals(eigs, 5.0, dt)
        assert out.tobytes() == retired_pair_integrals(eigs, 5.0, dt).tobytes()
        assert np.any(out == 5.0) == zero_rate


class TestStabilityCertificate:
    """The eigenvalue certificate, ``game._stable_modes``, decides as ``_cholesky`` does."""

    @settings(max_examples=200)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 20),
        st.lists(st.sampled_from(["spd", "near", "indefinite", "nonfinite"]), min_size=1, max_size=4),
        st.floats(0.0, 8.0),
    )
    def test_raises_exactly_when_cholesky_does(self, seed, n, kinds, coupling):
        """The stack and each of its rows alone, as a one-row stack.

        Near-singular rows walk the last pivot across ``PIVOT_RTOL
        ||K - A||_inf`` in relative steps of ``+-10^-2`` down to ``+-10^-10``,
        at a coupling of ``10^-coupling``.  At n >= 8, within about ``10^-5``
        of the limit, the eigensolver's round-off exceeds the distance, which
        only the slack covers.
        """
        for walk in [sign * 10.0**-e for e in range(2, 11) for sign in (-1.0, 1.0)]:
            spec, stack = certificate_case(seed, n, kinds, 10.0**-coupling, walk)
            for ks in [stack, *stack[:, None]]:
                expected = outcome(lambda: game._cholesky(game._closed_loop(spec, ks)))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = outcome(lambda: game._stable_modes(spec, ks))
                assert got == expected, (walk, ks)

    def test_eigensolver_failure_on_a_stable_stack_is_raised(self, monkeypatch):
        def fails(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        spec, k = random_game(0, n=3)
        ks = np.vstack([k, spec.k_lower])
        game._cholesky(game._closed_loop(spec, ks))  # the factor check passes the stack
        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            game._stable_modes(spec, ks)

    def test_stable_stages_take_no_factorization(self, monkeypatch):
        def refuse(s):
            raise AssertionError("a stable stack went to the factor check")

        config = SimConfig(batch_size=50, horizon=200.0, dt=0.01)
        cases = []
        for seed in range(20):
            spec, k = random_game(seed, n=1 + seed % 20)
            ks = spec.k_lower + substream(seed, 1).random((3, spec.n)) * (spec.k_upper - spec.k_lower)
            cases.append((spec, k, ks))
        # only now: building a spec runs the factor check on its box's lower corner
        monkeypatch.setattr(game, "_cholesky", refuse)
        for spec, k, ks in cases:
            monte_carlo_cost(spec, np.vstack([k, ks]), config)
            simulate_batch(spec, k, config)


class TestPairIntegrals:
    def test_exact_scalar_value(self):
        out = pair_integrals(np.array([-1.0]), 50.0)
        assert out[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_zero_rate_limit(self):
        out = pair_integrals(np.array([0.0]), 7.5)
        assert out[0, 0] == 7.5

    @given(st.integers(0, 10**6))
    def test_positive_semidefinite(self, seed):
        rng = substream(seed)
        eigs = -rng.uniform(0.05, 3.0, size=int(rng.integers(1, 6)))
        for dt in (None, 0.1):
            w = pair_integrals(eigs, 30.0, dt)
            assert np.linalg.eigvalsh(w).min() > -1e-12 * np.max(w)

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(-8.0, -1e-3), min_size=1, max_size=6),
        st.floats(0.5, 300.0),
        st.floats(0.005, 0.5),
    )
    def test_closed_form_trapezoid_matches_grid_loop(self, eigs, horizon, dt):
        dt = min(dt, horizon)
        out = pair_integrals(np.array(eigs), horizon, dt)
        assert max_rel(out, loop_pair_integrals(eigs, horizon, dt)) <= 1e-12

    @settings(max_examples=60)
    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 20), st.sampled_from([None, 0.01, 0.1]))
    def test_leading_axis_rows_equal_row_calls(self, seed, count, n, dt):
        rng = substream(seed)
        eigs = -rng.uniform(0.0, 8.0, size=(count, n))
        eigs[0, 0] = 0.0  # the zero-rate limit inside a stack
        out = pair_integrals(eigs, 5.0, dt)
        assert out.shape == (count, n, n)
        for table, row in zip(out, eigs):
            assert table.tobytes() == pair_integrals(row, 5.0, dt).tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 8191, 8192, 8193, 16385])
    def test_closed_form_trapezoid_at_chunk_boundaries(self, steps):
        eigs = -substream(steps).uniform(0.01, 4.0, size=4)
        horizon, dt = 0.01 * steps, 0.01
        assert round(horizon / dt) == steps
        out = pair_integrals(eigs, horizon, dt)
        assert max_rel(out, loop_pair_integrals(eigs, horizon, dt)) <= 1e-12

    def test_closed_form_trapezoid_exact_zero_rate_pair(self):
        # lam_0 + lam_1 == 0 exactly: the z = 0 limit is the horizon itself
        eigs = np.array([0.7, -0.7, -1.3])
        out = pair_integrals(eigs, 3.0, 0.01)
        assert out[0, 1] == out[1, 0] == 3.0
        assert np.all(np.isfinite(out))
        assert max_rel(out, loop_pair_integrals(eigs, 3.0, 0.01)) <= 1e-12

    def test_zero_rate_pair_on_a_long_grid_warns_nothing(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            out = pair_integrals(np.array([0.0]), 20.0, 0.01)
        assert out[0, 0] == 20.0

    @pytest.mark.parametrize("dt", [None, 1.0, 1e300, 1e308])
    def test_huge_horizon_warns_nothing_and_keeps_its_bits(self, dt):
        """``rate * horizon`` overflows to -inf, whose expm1 gives the limit: the
        retired table's bits with that overflow ignored, and no warning."""
        eigs = np.array([-2.0, -1e-300, 0.0])
        with np.errstate(over="ignore"):
            expected = retired_pair_integrals(eigs, 1e308, dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pair_integrals(eigs, 1e308, dt)
        assert out.tobytes() == expected.tobytes()
        # the integral of exp(-4 t) to infinity, and the infinite trapezoid sum of it
        assert out[0, 0] == pytest.approx(0.25 if dt is None else dt / 2 / np.tanh(2 * dt), rel=1e-15)

    @given(
        st.lists(st.tuples(st.floats(-10.0, -1.0), st.integers(-150, 300)), min_size=1, max_size=5),
        st.floats(1.0, 1.7),
        st.integers(-10, 307),
        st.sampled_from([None, 1, 2, 1000]),
    )
    def test_an_overflow_the_horizon_makes_warns_nothing(self, mantissas, scale, exponent, steps):
        """Rates from 1e-150 to 1e301 and horizons up to 1.7e307: no warning,
        and the retired table's bits with its overflows ignored."""
        eigs = np.array([m * 10.0**e for m, e in mantissas])
        horizon = scale * 10.0**exponent
        dt = None if steps is None else horizon / steps
        with np.errstate(over="ignore"):
            expected = retired_pair_integrals(eigs, horizon, dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pair_integrals(eigs, horizon, dt)
        assert out.tobytes() == expected.tobytes()

    @given(
        st.lists(st.floats(1.0, 2.0, exclude_max=True), min_size=1, max_size=4),
        st.lists(st.floats(-1e300, 0.0), max_size=3),
        st.one_of(st.floats(1e-310, 1e-306), st.floats(1e-300, 1e308)),
        st.sampled_from([None, 1, 1000]),
    )
    def test_a_rate_sum_past_the_float_range_gets_its_integral(self, mantissas, others, horizon, steps):
        """Rates below -2^1023 sum past the float range.  The exact integral of
        such a pair is ``expm1(2 y T) / (2 y)`` of its half sum ``y = lam_m / 2
        + lam_p / 2``, ``0.5 / |y|`` once its decay is complete, and the
        trapezoid's is half its step.  Every other pair keeps the retired
        table's bits, and nothing warns."""
        eigs = np.array([-m * 2.0**1023 for m in mantissas] + others)
        dt = None if steps is None else horizon / steps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pair_integrals(eigs, horizon, dt)
        half = eigs / 2.0
        y = half[:, None] + half[None, :]
        with np.errstate(all="ignore"):  # the references' own overflows and 0 / 0
            over = np.isinf(eigs[:, None] + eigs[None, :])
            exact = 0.5 * np.expm1(2.0 * (y * horizon)) / y
            complete = over & (y * horizon < -40.0)
            expected = retired_pair_integrals(eigs, horizon, dt)
        assert over.any() and np.all(out[over] > 0.0)
        if dt is None:
            assert out[over].tobytes() == exact[over].tobytes()
            assert out[complete].tobytes() == (0.5 / abs(y[complete])).tobytes()
        else:
            assert np.all(out[over] == horizon / max(1, round(horizon / dt)) / 2.0)
        assert out[~over].tobytes() == expected[~over].tobytes()

    @given(
        st.lists(st.floats(2.0**1020, 2.0**1022), min_size=1, max_size=5),
        st.floats(1e-300, 1e308),
        st.sampled_from([None, 1, 1000]),
    )
    def test_rate_sums_at_the_top_of_the_float_range_keep_their_bits(self, rates, horizon, steps):
        """Sums up to 2^1023 stay in range: the table is the retired one, bit for bit."""
        eigs = -np.array(rates)
        dt = None if steps is None else horizon / steps
        with np.errstate(over="ignore"):
            expected = retired_pair_integrals(eigs, horizon, dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pair_integrals(eigs, horizon, dt)
        assert out.tobytes() == expected.tobytes()

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(-8.0, 0.0), min_size=1, max_size=6),
        st.floats(0.5, 300.0),
        st.floats(0.005, 0.5),
    )
    def test_nonzero_rate_pairs_keep_their_bits(self, eigs, horizon, dt):
        dt = min(dt, horizon)
        eigs = np.array(eigs)
        expected, flat = plus_one_trapezoid(eigs, horizon, dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pair_integrals(eigs, horizon, dt)
        assert out[~flat].tobytes() == expected[~flat].tobytes()
        assert np.all(out[flat] == horizon)

    def test_matrix_exponential_integral_identity(self):
        # trapezoid quadrature of exp(2(A - K) t) over [0, 50/lam_min]
        # approaches (K - A)^{-1}/2; the quadrature side uses expm powers,
        # independent of the eigendecomposition route used by the library
        linalg = pytest.importorskip("scipy.linalg")
        rng = substream(77)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            q, _r = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = rng.uniform(0.5, 2.0, size=n)
            ka = (q * eigs) @ q.T
            horizon = 50.0 / eigs.min()
            steps = int(np.ceil(horizon / 1e-3))
            dt = horizon / steps
            step_matrix = linalg.expm(-2.0 * ka * dt)
            total = 0.5 * np.eye(n) + 0.5 * np.linalg.matrix_power(step_matrix, steps)
            power = step_matrix.copy()
            for _j in range(1, steps):
                total += power
                power = power @ step_matrix
            total *= dt
            target = 0.5 * np.linalg.inv(ka)
            assert np.max(np.abs(total - target)) < 1e-6


class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"horizon": 0.0},
            {"dt": 0.0},
            {"dt": 300.0},
            {"integrator": "rk4"},
            {"batch_size": 2.5},
            {"batch_size": True},
            # with quadrature, round(inf / dt) would overflow deep inside
            {"horizon": float("inf")},
            {"horizon": float("nan")},
            {"seed": -1},
            {"seed": 1.5},
            {"dt": True},
            {"horizon": True},
            {"dt": "0.1"},
            {"horizon": "200"},
            {"horizon": 10**400},
            # the exact integrator never reads dt, but it must still be a step
            {"dt": 0.0, "integrator": "exact"},
            {"dt": float("inf"), "integrator": "exact"},
            {"dt": float("nan"), "integrator": "exact"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("horizon, dt", [(0.05, 0.1), (1e300, 1e-10)])
    def test_exact_integrator_takes_any_positive_step(self, horizon, dt):
        # dt > horizon, or a horizon / dt that overflows, would refuse the quadrature
        config = SimConfig(horizon=horizon, dt=dt, integrator="exact")
        assert (config.horizon, config.dt) == (horizon, dt)

    def test_numpy_integers_accepted(self):
        config = SimConfig(batch_size=np.int64(4), seed=np.uint32(7))
        assert config.batch_size == 4 and config.seed == 7
