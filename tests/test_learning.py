import math
import threading
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nashlq import (
    FIVE_PLAYER_ROUND1_START,
    FIVE_PLAYER_ROUND2_START,
    ActionProfile,
    GameSpec,
    LearnConfig,
    LearnRun,
    NotPositiveDefinite,
    SimConfig,
    StageRecord,
    cost,
    exact_gradient,
    five_player_game,
    marginal_cost_from_cost,
    monte_carlo_cost,
    run_gradient_play,
    run_lockstep,
    scalar_game,
    substream,
)
from nashlq import learning, simulate
from nashlq.game import _evaluate_stack, _profile
from util import random_game

SCALAR_EQUILIBRIUM = np.sqrt(2.0) - 1.0


# The loop that run_gradient_play replaced, kept as the reference for the
# single stage loop: the stage estimate branched on the mode at every stage,
# and a for...else tail evaluated the final profile.
# Exact estimates come from the stacked kernel, apart from evaluate's path.
def _reference_stage_estimate(spec, k, config, stage):
    if config.mode == "exact":
        _, report = _evaluate_stack(spec, k[None])
        return report.cost[0], report.grad[0]
    sim = config.sim if config.sim is not None else SimConfig()
    estimate = monte_carlo_cost(spec, k, sim, stage)
    return estimate, marginal_cost_from_cost(estimate, k, spec.rho)


def _reference_step(spec, k, config, stage=0):
    k = _profile(spec, k)
    if not spec.contains(k):
        raise ValueError("profile must lie in the action box")
    _, grad = _reference_stage_estimate(spec, k, config, stage)
    return ActionProfile(np.clip(k - config.step_size * grad, spec.k_lower, spec.k_upper))


def _reference_run(spec, k0, config):
    k = _profile(spec, k0)
    if not spec.contains(k):
        raise ValueError("initial profile must lie in the action box")

    history = []
    tol = config.grad_tolerance
    check_tol = config.mode == "exact" and tol > 0

    def record(stage, profile, costs, grads):
        history.append(StageRecord(stage=stage, profile=ActionProfile(profile), cost=costs, grad=grads))

    converged = False
    stages_used = config.stages
    for stage in range(config.stages):
        costs, grads = _reference_stage_estimate(spec, k, config, stage)
        record(stage, k, costs, grads)
        if check_tol and np.max(np.abs(grads)) < tol:
            converged = True
            stages_used = stage
            break
        k = np.clip(k - config.step_size * grads, spec.k_lower, spec.k_upper)
    else:
        costs, grads = _reference_stage_estimate(spec, k, config, config.stages)
        record(config.stages, k, costs, grads)
        if check_tol:
            converged = bool(np.max(np.abs(grads)) < tol)

    return _ReferenceRun(
        history=tuple(history),
        final=ActionProfile(k),
        converged=converged,
        stages_used=stages_used,
    )


# The fields of the LearnRun the reference loop built, before runs kept
# their stages as arrays.
_ReferenceRun = namedtuple("_ReferenceRun", "history final converged stages_used")


def _bits(array):
    return np.asarray(array, dtype=float).tobytes()


def _assert_derived_fields(run):
    """``final`` and ``stages_used`` are read off the recorded profiles."""
    assert _bits(run.final.k) == _bits(run.profiles[-1])
    assert run.stages_used == len(run.profiles) - 1
    assert run.final is run.final


@st.composite
def _play_case(draw):
    """A random SDD game (n <= 8), a start in its box, and a learn config.

    Budgets include 1 stage; exact tolerances include 0, one met at stage 0
    and ones met part way; model-free runs take no tolerance.
    """
    spec, k0 = random_game(draw(st.integers(0, 2**32 - 1)), n=draw(st.integers(1, 8)))
    mode = draw(st.sampled_from(["exact", "model-free"]))
    stages = draw(st.sampled_from([1, 2, 3, 8, 40]))
    step_size = draw(st.sampled_from([0.1, 1.0, 7.5]))
    tolerance = 0.0
    sim = SimConfig(
        batch_size=draw(st.integers(1, 24)),
        horizon=draw(st.sampled_from([5.0, 20.0])),
        dt=0.1,
        seed=draw(st.integers(0, 2**32 - 1)),
        integrator=draw(st.sampled_from(["quadrature", "exact"])),
    )
    if mode == "exact":
        start = float(np.max(np.abs(exact_gradient(spec, k0))))
        tolerance = draw(st.sampled_from([0.0, 2.0 * start + 1e-300, 0.5 * start, 1e-3, 1e-9]))
    config = LearnConfig(
        stages=stages,
        step_size=step_size,
        mode=mode,
        sim=sim,
        grad_tolerance=tolerance,
    )
    return spec, k0, config


class TestProject:
    """Projection onto the action box, :meth:`GameSpec.clip`."""

    BOX = GameSpec(a=[[-20.0]], rho=1.0, k_upper=3.0)

    def test_clips_above(self):
        assert self.BOX.clip(5.0) == 3.0

    def test_clips_below(self):
        assert self.BOX.clip(-1.0) == 0.0

    def test_interior_fixed_point(self):
        assert self.BOX.clip(1.5) == 1.5

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="empty action box"):
            GameSpec(a=[[-20.0]], rho=1.0, k_lower=3.0, k_upper=0.0)

    @given(st.floats(-100, 100), st.floats(-10, 5, exclude_max=True), st.floats(5, 20))
    def test_idempotent(self, value, lower, upper):
        spec = GameSpec(a=[[-20.0]], rho=1.0, k_lower=lower, k_upper=upper)
        once = spec.clip(value)
        assert np.array_equal(once, np.clip([value], lower, upper))
        assert np.array_equal(spec.clip(once), once)
        assert lower <= once[0] <= upper


def _one_step(spec, k, **config):
    """The profile after one stage of play from ``k``."""
    step = run_gradient_play(spec, k, LearnConfig(stages=1, **config)).profiles[1]
    assert _bits(step) == _bits(_reference_step(spec, k, LearnConfig(**config)).k)
    return step


class TestStep:
    def test_scalar_step(self):
        step = _one_step(scalar_game(), [1.0], step_size=1.0)
        assert step[0] == pytest.approx(0.75, rel=1e-14)

    def test_stationary_profile_is_fixed(self):
        # run the scalar game to its floating-point fixed point first
        spec = scalar_game()
        run = run_gradient_play(spec, [1.0], LearnConfig(stages=300))
        again = _one_step(spec, run.final, step_size=1.0)
        assert np.array_equal(again, run.final.k)

    def test_projection_keeps_step_in_box(self):
        spec = scalar_game()
        step = _one_step(spec, [0.0], step_size=50.0)
        assert spec.contains(step)

    def test_out_of_box_profile_rejected(self):
        with pytest.raises(ValueError, match="box"):
            run_gradient_play(scalar_game(), [7.0], LearnConfig(stages=1))

    def test_model_free_step_matches_manual_composition(self):
        spec = five_player_game()
        sim = SimConfig(batch_size=64, horizon=100.0, dt=0.1, seed=21)
        config = LearnConfig(stages=4, mode="model-free", sim=sim, step_size=1.0)
        run = run_gradient_play(spec, [1.0, 2.0, 1.5, 3.0, 1.2], config)
        # each stage s draws its own batch, the (seed, s) substream
        for stage, (k, stepped) in enumerate(zip(run.profiles, run.profiles[1:])):
            estimate = monte_carlo_cost(spec, k, sim, stage=stage)
            manual = np.clip(
                k - marginal_cost_from_cost(estimate, k, spec.rho), spec.k_lower, spec.k_upper
            )
            assert np.array_equal(stepped, manual)


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


class TestSingleLoopMatchesReference:
    @settings(max_examples=150)
    @given(_play_case())
    def test_run_is_bit_identical(self, case):
        spec, k0, config = case
        run = run_gradient_play(spec, k0, config)
        ref = _reference_run(spec, k0, config)
        assert len(run.history) == len(ref.history)
        for rec, expected in zip(run.history, ref.history):
            assert rec.stage == expected.stage
            assert _bits(rec.profile.k) == _bits(expected.profile.k)
            assert _bits(rec.cost) == _bits(expected.cost)
            assert _bits(rec.grad) == _bits(expected.grad)
        assert _bits(run.final.k) == _bits(ref.final.k)
        assert run.stages_used == ref.stages_used
        assert run.converged == ref.converged

    @settings(max_examples=60)
    @given(_play_case())
    def test_step_is_bit_identical_at_a_nonzero_stage(self, case):
        spec, k0, config = case
        run = run_gradient_play(spec, k0, config)
        for stage in range(1, run.stages_used):
            step = _reference_step(spec, run.profiles[stage], config, stage)
            assert _bits(run.profiles[stage + 1]) == _bits(step.k)

    @settings(max_examples=60)
    @given(_play_case())
    def test_final_and_stages_used_derive_from_the_profiles(self, case):
        spec, k0, config = case
        _assert_derived_fields(run_gradient_play(spec, k0, config))


@st.composite
def _lockstep_case(draw):
    """A play case with 1-4 starts in the game's box.

    Exact tolerances are set from the starts' gradients, so that members
    converge at different stages, some at stage 0 and some never.
    """
    spec, k0, config = draw(_play_case())
    rng = substream(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 4))
    starts = [k0] + [
        spec.k_lower + rng.random(spec.n) * (spec.k_upper - spec.k_lower) for _ in range(count - 1)
    ]
    if config.mode == "exact" and draw(st.booleans()):
        peaks = sorted(float(np.max(np.abs(exact_gradient(spec, k)))) for k in starts)
        tolerance = draw(st.sampled_from([0.5 * peaks[0], 0.5 * (peaks[0] + peaks[-1]) + 1e-300]))
        config = LearnConfig(
            stages=config.stages,
            step_size=config.step_size,
            mode="exact",
            grad_tolerance=tolerance,
        )
    return spec, starts, config


def _counted_lockstep(spec, starts, config):
    """:func:`run_lockstep`, counting the exact estimate's stacked and single-profile calls."""
    calls = {"stack": 0, "single": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learning, "_evaluate_stack", counted("stack", learning._evaluate_stack))
        patch.setattr(learning, "_lone_fields", counted("single", learning._lone_fields))
        runs = run_lockstep(spec, starts, config)
    return runs, calls


def _expected_exact_calls(runs):
    """One call per stage up to the last member's stop: stacked for two or more
    starts, since a stopped member keeps its row, and the kernel's lone path,
    ``_lone_fields``, for one."""
    stages = max(run.stages_used for run in runs) + 1
    return {"stack": 0, "single": stages} if len(runs) == 1 else {"stack": stages, "single": 0}


@st.composite
def _gradient_rows(draw):
    """A tolerance and an ``(R, n)`` gradient stack whose entries sit on and
    around it, with NaN, infinities, signed zeros and subnormals."""
    tol = draw(st.one_of(st.sampled_from([0.0, 5e-324, 2.0**-1030, 1e-9, 1.0]), st.floats(0.0, 1e300)))
    edges = [tol, math.nextafter(tol, 0.0), math.nextafter(tol, math.inf)]
    specials = [0.0, math.nan, math.inf, 5e-324, 2.0**-1030] + edges
    # Mostly inside the tolerance, so that one entry on an edge decides its row.
    inside = st.floats(0.0, tol)
    magnitude = st.one_of(st.sampled_from(specials), inside, inside, st.floats(0.0, allow_infinity=True))
    entry = st.builds(lambda x, sign: sign * x, magnitude, st.sampled_from([1.0, -1.0]))
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    grads = np.array(draw(st.lists(entry, min_size=rows * n, max_size=rows * n)))
    return grads.reshape(rows, n), tol


class TestLockstep:
    @settings(max_examples=300)
    @given(_gradient_rows())
    def test_float_stop_test_equals_the_peak_reduction(self, case):
        grads, tol = case
        assert learning._meets_tolerance(grads, tol) == (abs(grads).max(axis=1) < tol).tolist()

    @settings(max_examples=120)
    @given(_lockstep_case())
    def test_each_member_equals_its_single_run(self, case):
        spec, starts, config = case
        runs, calls = _counted_lockstep(spec, starts, config)
        assert len(runs) == len(starts)
        if config.mode == "exact":
            assert calls == _expected_exact_calls(runs)
        else:
            assert calls == {"stack": 0, "single": 0}
        for run, start in zip(runs, starts):
            alone = run_gradient_play(spec, start, config)
            assert len(run.history) == len(alone.history)
            for rec, expected in zip(run.history, alone.history):
                assert rec.stage == expected.stage
                assert _bits(rec.profile.k) == _bits(expected.profile.k)
                assert _bits(rec.cost) == _bits(expected.cost)
                assert _bits(rec.grad) == _bits(expected.grad)
            assert _bits(run.final.k) == _bits(alone.final.k)
            assert run.stages_used == alone.stages_used
            assert run.converged == alone.converged

    def test_members_leave_at_different_stages(self):
        spec = five_player_game()
        config = LearnConfig(stages=20000, grad_tolerance=1e-9)
        starts = [FIVE_PLAYER_ROUND1_START, FIVE_PLAYER_ROUND2_START, spec.k_upper]
        runs, calls = _counted_lockstep(spec, starts, config)
        assert all(run.converged for run in runs)
        assert len({run.stages_used for run in runs}) == 3
        assert calls == _expected_exact_calls(runs)
        assert calls == {"stack": max(run.stages_used for run in runs) + 1, "single": 0}
        for run, start in zip(runs, starts):
            _assert_derived_fields(run)
            alone = run_gradient_play(spec, start, config)
            assert run.stages_used == alone.stages_used
            for name in ("profiles", "costs", "grads"):
                assert _bits(getattr(run, name)) == _bits(getattr(alone, name))

    def test_settled_member_stops_at_stage_zero(self):
        spec = five_player_game()
        settle = LearnConfig(stages=20000, grad_tolerance=1e-12)
        settled = run_gradient_play(spec, FIVE_PLAYER_ROUND1_START, settle).final.k
        config = LearnConfig(stages=20000, grad_tolerance=1e-9)
        starts = [settled, FIVE_PLAYER_ROUND1_START, FIVE_PLAYER_ROUND2_START]
        runs, calls = _counted_lockstep(spec, starts, config)
        assert [run.stages_used == 0 for run in runs] == [True, False, False]
        assert all(run.converged for run in runs)
        assert calls == _expected_exact_calls(runs)
        assert _bits(runs[0].final.k) == _bits(settled)
        for run, start in zip(runs, starts):
            alone = run_gradient_play(spec, start, config)
            assert (run.stages_used, run.converged) == (alone.stages_used, alone.converged)
            assert _bits(run.final.k) == _bits(alone.final.k)
            for name in ("profiles", "costs", "grads"):
                assert _bits(getattr(run, name)) == _bits(getattr(alone, name))
                assert getattr(run, name).shape == (run.stages_used + 1, spec.n)
        assert len(runs[0].history) == 1
        assert _bits(runs[0].profiles[0]) == _bits(settled)

    def test_zero_tolerance_uses_every_stage(self):
        spec = five_player_game()
        config = LearnConfig(stages=60, grad_tolerance=0.0)
        settle = LearnConfig(stages=20000, grad_tolerance=1e-12)
        settled = run_gradient_play(spec, FIVE_PLAYER_ROUND1_START, settle).final.k
        starts = [FIVE_PLAYER_ROUND1_START, FIVE_PLAYER_ROUND2_START, settled]
        runs, calls = _counted_lockstep(spec, starts, config)
        lone = [_counted_lockstep(spec, [start], config) for start in starts]
        assert calls == {"stack": config.stages + 1, "single": 0}
        assert all(single == {"stack": 0, "single": config.stages + 1} for _, single in lone)
        for run, start, ([alone], _) in zip(runs, starts, lone):
            ref = _reference_run(spec, start, config)
            for played in (run, alone):
                assert played.stages_used == config.stages and not played.converged
                assert len(played.history) == len(ref.history) == config.stages + 1
                for rec, expected in zip(played.history, ref.history):
                    assert rec.stage == expected.stage
                    assert _bits(rec.profile.k) == _bits(expected.profile.k)
                    assert _bits(rec.cost) == _bits(expected.cost)
                    assert _bits(rec.grad) == _bits(expected.grad)
                assert _bits(played.final.k) == _bits(ref.final.k)

    def test_starts_are_validated(self):
        spec = scalar_game()
        with pytest.raises(ValueError, match="at least one"):
            run_lockstep(spec, [], LearnConfig())
        with pytest.raises(ValueError, match="box"):
            run_lockstep(spec, [[1.0], [9.0]], LearnConfig())
        with pytest.raises(ValueError, match="shape"):
            run_lockstep(spec, [[1.0, 1.0]], LearnConfig())


def _prefetched_lockstep(spec, starts, config, prefetch=None):
    """:func:`run_lockstep` with the prefetch gate forced open (``True``) or
    shut (``False``), or left as it is (``None``), and the stages whose
    batches the worker thread drew."""
    drawn = []

    def counted(*args):
        drawn.append(args[-1])
        return simulate._stage_batch(*args)

    with pytest.MonkeyPatch.context() as patch:
        if prefetch is not None:
            patch.setattr(learning, "_PREFETCH_WORK", 1 if prefetch else math.inf)
        patch.setattr(learning, "_stage_batch", counted)
        runs = run_lockstep(spec, starts, config)
    return runs, sorted(drawn)


def _assert_same_runs(runs, expected):
    assert len(runs) == len(expected)
    for run, other in zip(runs, expected):
        for name in ("profiles", "costs", "grads"):
            assert _bits(getattr(run, name)) == _bits(getattr(other, name))
        assert (run.stages_used, run.converged) == (other.stages_used, other.converged)


class TestPrefetch:
    """Model-free play may draw stage ``l + 1``'s batch on a worker thread
    while stage ``l`` is estimated; its histories keep their bytes."""

    @pytest.mark.parametrize("count", [1, 2], ids=["lone", "lockstep"])
    @pytest.mark.parametrize("n, batch_size", [(6, 4), (6, 6), (4, 40)], ids=["B<n", "B=n", "B>n"])
    @pytest.mark.parametrize("integrator", ["quadrature", "exact"])
    def test_histories_are_byte_identical_with_prefetch_on_and_off(self, count, n, batch_size, integrator):
        spec, k0 = random_game(n + batch_size, n=n)
        rng = substream(n, batch_size)
        starts = [k0] + [spec.k_lower + rng.random(n) * (spec.k_upper - spec.k_lower) for _ in range(count - 1)]
        sim = SimConfig(batch_size=batch_size, horizon=20.0, dt=0.1, seed=n, integrator=integrator)
        config = LearnConfig(stages=7, step_size=0.5, mode="model-free", sim=sim)
        inline, none = _prefetched_lockstep(spec, starts, config, prefetch=False)
        ahead, stages = _prefetched_lockstep(spec, starts, config, prefetch=True)
        assert none == [] and stages == list(range(config.stages + 1))
        _assert_same_runs(ahead, inline)
        _assert_same_runs(inline, [run_gradient_play(spec, start, config) for start in starts])

    @settings(max_examples=40)
    @given(_lockstep_case())
    def test_random_model_free_plays_keep_their_bytes(self, case):
        spec, starts, config = case
        assume(config.mode == "model-free")
        inline, _ = _prefetched_lockstep(spec, starts, config, prefetch=False)
        ahead, stages = _prefetched_lockstep(spec, starts, config, prefetch=True)
        assert stages == list(range(config.stages + 1))
        _assert_same_runs(ahead, inline)

    @pytest.mark.parametrize(
        "n, batch_size, ahead",
        [
            (5, 500, False),  # repro-model-free's shape
            (20, 2000, True),  # model-free-n20's shape
            (8, 2048, True),  # batch_size * n^2 = 2^17
            (8, 2047, False),
            # The gate table's decisive cells (CHANGES.md): each that pays draws ahead ...
            (15, 2000, True),
            (20, 500, True),
            (20, 800, True),
            (25, 400, True),
            (32, 313, True),
            (40, 200, True),
            (40, 250, True),
            (40, 500, True),
            (60, 167, True),
            (80, 125, True),
            # ... and each that loses stays inline.
            (2, 5000, False),
            (3, 5000, False),
            (5, 2000, False),
            (5, 3000, False),
            (8, 1250, False),
            (10, 1000, False),
            (12, 834, False),
            (20, 300, False),
        ],
    )
    def test_gate_follows_the_measured_table(self, n, batch_size, ahead):
        """Play draws ahead from ``batch_size * n^2 = 2^17`` and inline below,
        which puts every cell of the gate table that paid on one side and every
        cell that lost on the other."""
        spec = GameSpec(a=-np.eye(n), rho=1.0, k_upper=2.0)
        sim = SimConfig(batch_size=batch_size, horizon=5.0, integrator="exact")
        config = LearnConfig(stages=1, mode="model-free", sim=sim)
        assert _prefetched_lockstep(spec, [[1.0] * n], config)[1] == ([0, 1] if ahead else [])

    def test_no_thread_outlives_a_run(self):
        spec, k0 = random_game(3, n=5)
        config = LearnConfig(stages=6, mode="model-free", sim=SimConfig(batch_size=20, horizon=10.0))
        baseline = threading.active_count()
        _, stages = _prefetched_lockstep(spec, [k0, k0], config, prefetch=True)
        assert stages == list(range(7))
        assert threading.active_count() == baseline

    def test_a_stage_that_raises_joins_the_worker_and_reaches_the_caller(self):
        spec, k0 = random_game(3, n=5)
        config = LearnConfig(stages=6, mode="model-free", sim=SimConfig(batch_size=20, horizon=10.0))
        baseline = threading.active_count()
        seen = []

        def unstable_at_stage_3(*args):
            seen.append(threading.active_count())
            if len(seen) == 4:
                raise NotPositiveDefinite("stage 3")
            return certified(*args)

        certified = simulate._checked_modes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_checked_modes", unstable_at_stage_3)
            with pytest.raises(NotPositiveDefinite, match="stage 3"):
                _prefetched_lockstep(spec, [k0], config, prefetch=True)
        assert seen == [baseline + 1] * 4  # the worker ran beside stages 0 to 3
        assert threading.active_count() == baseline


class TestLearnRunArrays:
    def test_arrays_hold_every_stage(self):
        """Read-only, alone and in lockstep, for both gradient sources."""
        starts = [FIVE_PLAYER_ROUND1_START, FIVE_PLAYER_ROUND2_START]
        played = []
        for mode in ("exact", "model-free"):
            config = LearnConfig(stages=6, mode=mode, sim=SimConfig(batch_size=10, horizon=20.0))
            played.append([run_gradient_play(five_player_game(), starts[0], config)])
            played.append(run_lockstep(five_player_game(), starts, config))
        for runs in played:
            for run, start in zip(runs, starts):
                for name in ("profiles", "costs", "grads"):
                    assert getattr(run, name).shape == (run.stages_used + 1, 5)
                    assert not getattr(run, name).flags.writeable
                    with pytest.raises(ValueError):
                        getattr(run, name).setflags(write=True)
                assert np.array_equal(run.profiles[-1], run.final.k)
                assert np.array_equal(run.profiles[0], start)

    def test_history_is_built_once_from_the_arrays(self):
        run = run_gradient_play(scalar_game(), [1.0], LearnConfig(stages=4))
        assert run.history is run.history
        for stage, rec in enumerate(run.history):
            assert rec.stage == stage
            assert np.array_equal(rec.profile.k, run.profiles[stage])
            assert np.array_equal(rec.cost, run.costs[stage])
            assert np.array_equal(rec.grad, run.grads[stage])


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
            {"grad_tolerance": True},
            {"step_size": True},
            {"step_size": "0.5"},
            {"grad_tolerance": "0"},
            {"mode": "model-free", "grad_tolerance": 0.5},
            {"mode": "model-free", "sim": None},
            {"sim": {"batch_size": 10}},
            {"stages": "10"},
            {"step_size": -1.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LearnConfig(**kwargs)

    def test_sim_defaults_to_sim_config(self):
        assert LearnConfig().sim == SimConfig()
