import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nashlq import (
    GameSpec,
    LearnConfig,
    SimConfig,
    cost,
    exact_gradient,
    five_player_game,
    gradient_play_step,
    marginal_cost_from_cost,
    monte_carlo_cost,
    project,
    run_gradient_play,
    scalar_game,
    substream,
)
from util import random_game

SCALAR_EQUILIBRIUM = np.sqrt(2.0) - 1.0


class TestProject:
    def test_clips_above(self):
        assert project(5.0, 0.0, 3.0) == 3.0

    def test_clips_below(self):
        assert project(-1.0, 0.0, 3.0) == 0.0

    def test_interior_fixed_point(self):
        assert project(1.5, 0.0, 3.0) == 1.5

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="lower"):
            project(1.0, 3.0, 0.0)

    @given(st.floats(-100, 100), st.floats(-10, 5), st.floats(5, 20))
    def test_idempotent(self, value, lower, upper):
        once = project(value, lower, upper)
        assert project(once, lower, upper) == once
        assert lower <= once <= upper


class TestStep:
    def test_scalar_step(self):
        step = gradient_play_step(scalar_game(), [1.0], LearnConfig(step_size=1.0))
        assert step.k[0] == pytest.approx(0.75, rel=1e-14)

    def test_stationary_profile_is_fixed(self):
        # run the scalar game to its floating-point fixed point first
        spec = scalar_game()
        run = run_gradient_play(spec, [1.0], LearnConfig(stages=300))
        again = gradient_play_step(spec, run.final, LearnConfig(step_size=1.0))
        assert np.array_equal(again.k, run.final.k)

    def test_projection_keeps_step_in_box(self):
        spec = scalar_game()
        step = gradient_play_step(spec, [0.0], LearnConfig(step_size=50.0))
        assert spec.contains(step.k)

    def test_out_of_box_profile_rejected(self):
        with pytest.raises(ValueError, match="box"):
            gradient_play_step(scalar_game(), [7.0], LearnConfig())

    def test_model_free_step_matches_manual_composition(self):
        spec = five_player_game()
        sim = SimConfig(batch_size=64, horizon=100.0, dt=0.1, seed=21)
        config = LearnConfig(mode="model-free", sim=sim, step_size=1.0)
        k = np.array([1.0, 2.0, 1.5, 3.0, 1.2])
        stepped = gradient_play_step(spec, k, config, stage=3)
        estimate = monte_carlo_cost(spec, k, sim, stage=3)
        manual = np.clip(
            k - marginal_cost_from_cost(estimate, k, spec.rho), spec.k_lower, spec.k_upper
        )
        assert np.array_equal(stepped.k, manual)


class TestRun:
    def test_scalar_convergence_within_200_stages(self):
        run = run_gradient_play(scalar_game(), [1.0], LearnConfig(stages=200))
        assert abs(run.final.k[0] - SCALAR_EQUILIBRIUM) < 1e-8

    def test_convergence_flag_and_tolerance(self):
        config = LearnConfig(stages=500, grad_tolerance=1e-10)
        run = run_gradient_play(scalar_game(), [1.0], config)
        assert run.converged
        assert run.stages_used < 500
        assert np.max(np.abs(exact_gradient(scalar_game(), run.final))) < 1e-10

    def test_start_at_equilibrium_converges_immediately(self):
        spec = scalar_game()
        settled = run_gradient_play(spec, [1.0], LearnConfig(stages=300)).final
        run = run_gradient_play(spec, settled, LearnConfig(stages=100, grad_tolerance=1e-9))
        assert run.converged
        assert run.stages_used == 0
        assert np.array_equal(run.final.k, settled.k)
        assert len(run.history) == 1

    def test_history_layout(self):
        run = run_gradient_play(scalar_game(), [1.0], LearnConfig(stages=10))
        assert [rec.stage for rec in run.history] == list(range(11))
        assert np.array_equal(run.history[-1].profile.k, run.final.k)
        assert run.stages_used == 10

    def test_history_profiles_stay_in_box(self):
        spec = scalar_game()
        run = run_gradient_play(spec, [0.0], LearnConfig(stages=40, step_size=25.0))
        ks = np.array([rec.profile.k[0] for rec in run.history])
        assert np.all(ks >= spec.k_lower[0]) and np.all(ks <= spec.k_upper[0])
        # a step this large must actually hit the bounds at least once
        assert np.any((ks == spec.k_lower[0]) | (ks == spec.k_upper[0]))

    def test_record_history_off(self):
        run = run_gradient_play(scalar_game(), [1.0], LearnConfig(stages=50, record_history=False))
        assert run.history == ()
        assert abs(run.final.k[0] - SCALAR_EQUILIBRIUM) < 1e-6

    def test_out_of_box_start_rejected(self):
        with pytest.raises(ValueError, match="box"):
            run_gradient_play(scalar_game(), [9.0], LearnConfig())

    def test_initialization_independence(self):
        # strictly positive tradeoffs and a wide box keep the equilibrium
        # interior, so the gradient-tolerance stop is reachable
        base, _ = random_game(33, n=3)
        spec = GameSpec(a=base.a, rho=[0.7, 0.8, 0.4], k_upper=10.0 * np.abs(np.diag(base.a)))
        config = LearnConfig(stages=20000, grad_tolerance=1e-10)
        rng = substream(8)
        finals = []
        for _ in range(10):
            k0 = spec.k_lower + rng.random(spec.n) * (spec.k_upper - spec.k_lower)
            run = run_gradient_play(spec, k0, config)
            assert run.converged
            finals.append(run.final.k)
        finals = np.array(finals)
        assert np.max(finals.max(axis=0) - finals.min(axis=0)) < 1e-5

    def test_boundary_equilibrium_agreement(self):
        # a zero-tradeoff player pins at its ceiling; runs still agree even
        # though the raw gradient never vanishes there
        spec, _ = random_game(33, n=3)
        assert np.any(spec.rho == 0)
        config = LearnConfig(stages=3000)
        rng = substream(8)
        finals = np.array(
            [
                run_gradient_play(
                    spec,
                    spec.k_lower + rng.random(spec.n) * (spec.k_upper - spec.k_lower),
                    config,
                ).final.k
                for _ in range(5)
            ]
        )
        assert np.max(finals.max(axis=0) - finals.min(axis=0)) < 1e-5
        assert np.any(finals[0] == spec.k_upper)

    def test_model_free_deterministic(self):
        spec = five_player_game()
        sim = SimConfig(batch_size=32, horizon=50.0, dt=0.1, seed=11)
        config = LearnConfig(stages=5, mode="model-free", sim=sim)
        k0 = np.ones(5)
        run1 = run_gradient_play(spec, k0, config)
        run2 = run_gradient_play(spec, k0, config)
        assert np.array_equal(run1.final.k, run2.final.k)
        for rec1, rec2 in zip(run1.history, run2.history):
            assert np.array_equal(rec1.cost, rec2.cost)

    def test_model_free_seed_changes_noise(self):
        spec = five_player_game()
        config = lambda s: LearnConfig(
            stages=3, mode="model-free", sim=SimConfig(batch_size=32, horizon=50.0, seed=s)
        )
        k0 = np.ones(5)
        run_a = run_gradient_play(spec, k0, config(1))
        run_b = run_gradient_play(spec, k0, config(2))
        assert not np.array_equal(run_a.final.k, run_b.final.k)

    def test_model_free_default_sim(self):
        spec = scalar_game()
        run = run_gradient_play(
            spec, [1.0], LearnConfig(stages=2, mode="model-free", sim=SimConfig(batch_size=16, horizon=20.0))
        )
        assert run.stages_used == 2
        assert not run.converged

    def test_descent_violations_reported_not_asserted(self):
        # simultaneous play is not a potential-game descent; count and show
        # per-player cost increases at a small step size instead of asserting
        spec = five_player_game()
        run = run_gradient_play(
            spec, [1.0, 2.0, 1.5, 3.0, 1.2], LearnConfig(stages=50, step_size=0.1)
        )
        costs = np.array([rec.cost for rec in run.history])
        increases = int(np.sum(np.diff(costs, axis=0) > 0))
        print(f"descent check at step 0.1: {increases} per-player cost increases over 50 stages")
        assert increases >= 0


class TestLearnConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stages": 0},
            {"step_size": 0.0},
            {"grad_tolerance": -1.0},
            {"mode": "bestresponse"},
            {"grad_tolerance": float("nan")},
            {"grad_tolerance": float("inf")},
            {"stages": 2.5},
            {"stages": True},
            {"step_size": float("inf")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LearnConfig(**kwargs)
