import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import nashlq
from nashlq import analysis
from nashlq import (
    GameSpec,
    MatrixEnsembleConfig,
    PreconditionViolated,
    conjecture_sweep,
    five_player_game,
    game_from_matrix,
    generate_negative_definite_matrix,
    generate_sdd_matrix,
    pseudogradient_jacobian,
    rosen_check,
    rosen_sweep,
    substream,
    two_player_mu,
)
from nashlq.game import _evaluate_stack, _jacobian_stack
from util import random_game


def _reference_rosen_sweep(spec, samples, seed):
    """The sweep as a running first minimum over blocks, its witness re-checked
    one profile at a time: ``(min_eig, witness, samples)``."""
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    points = analysis._box_samples(spec, samples, rng)
    best = np.inf
    witness = points[0]
    for start in range(0, points.shape[0], analysis.SWEEP_BLOCK):
        block = points[start : start + analysis.SWEEP_BLOCK]
        g = _jacobian_stack(spec, block)
        values = np.linalg.eigvalsh(g + g.transpose(0, 2, 1)).min(axis=1)
        i = int(np.argmin(values))
        if values[i] < best:
            best = values[i]
            witness = block[i]
    g = pseudogradient_jacobian(spec, witness)
    return float(np.linalg.eigvalsh(g + g.T).min()), witness, points.shape[0]


def _reference_fd_jacobian_gap(spec, k, step=1e-5):
    """The finite-difference spot check of one profile."""
    g = pseudogradient_jacobian(spec, k)
    bumps = step * np.eye(spec.n)
    grads = _evaluate_stack(spec, np.vstack([k + bumps, k - bumps]))[1].grad
    fd = (grads[: spec.n] - grads[spec.n :]).T / (2 * step)
    return float(np.max(np.abs(fd - g)) / np.max(np.abs(g)))


def _reference_conjecture_sweep(ensemble, samples, generator, rate):
    """The ensemble loop on the references above, one spot point per draw:
    each game's ``(min_eig, witness, samples)``, every gap, and each game's stream."""
    spot_count = round(samples * rate)
    if rate > 0:
        spot_count = max(1, spot_count)
    reports, gaps, streams = [], [], []
    for index in range(ensemble.count):
        rng = substream(ensemble.seed, index)
        if generator == "sdd":
            a = generate_sdd_matrix(ensemble, rng)
        else:
            a = generate_negative_definite_matrix(ensemble.n, rng)
        spec = game_from_matrix(a, rng.uniform(0.0, 1.0, size=ensemble.n))
        reports.append(_reference_rosen_sweep(spec, samples, rng))
        for _ in range(spot_count):
            point = spec.k_lower + rng.random(spec.n) * (spec.k_upper - spec.k_lower)
            gaps.append(_reference_fd_jacobian_gap(spec, point))
        streams.append(rng)
    return reports, gaps, streams


def _ensemble_game(seed, n, generator):
    """A sweep-ready game from either ensemble generator."""
    rng = substream(seed)
    if generator == "sdd":
        a = generate_sdd_matrix(MatrixEnsembleConfig(n=n, count=1), rng)
    else:
        a = generate_negative_definite_matrix(n, rng)
    return game_from_matrix(a, rng.uniform(0.0, 1.0, size=n)), rng


GENERATORS = st.sampled_from(["sdd", "negative-definite"])


class TestTwoPlayerMu:
    def test_worked_value_exact(self):
        assert two_player_mu(-2.0, -0.5, -2.0, 0.0, 0.0) == 255.0

    def test_decoupled_positive(self):
        rng = substream(1)
        for _ in range(50):
            a11, a22 = -rng.uniform(0.1, 4.0, 2)
            k1, k2 = rng.uniform(0.0, 5.0, 2)
            mu = two_player_mu(a11, 0.0, a22, k1, k2)
            assert mu == pytest.approx(4 * (k1 - a11) ** 3 * (k2 - a22) ** 3)
            assert mu > 0

    def test_dominance_precondition(self):
        with pytest.raises(PreconditionViolated, match="dominance"):
            two_player_mu(-0.5, -1.0, -2.0, 0.0, 0.0)

    def test_gain_precondition(self):
        with pytest.raises(PreconditionViolated, match="nonnegative"):
            two_player_mu(-2.0, -0.5, -2.0, -1.0, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_sign_matches_eigenvalue_test(self, seed):
        rng = substream(seed + 50)
        for _ in range(50):
            a12 = rng.uniform(-2.0, 2.0)
            a11 = -abs(a12) - rng.uniform(0.01, 3.0)
            a22 = -abs(a12) - rng.uniform(0.01, 3.0)
            k1, k2 = rng.uniform(0.0, 5.0, 2)
            mu = two_player_mu(a11, a12, a22, k1, k2)
            spec = GameSpec(a=[[a11, a12], [a12, a22]], rho=0.0, k_upper=10.0)
            assert (mu > 0) == (rosen_check(spec, [k1, k2]) > 0)


class TestGenerateSdd:
    def test_constructive_guarantees(self):
        config = MatrixEnsembleConfig(n=6, count=1, offdiag_scale=1.5, dominance_margin=0.2, seed=0)
        for seed in range(20):
            a = generate_sdd_matrix(config, substream(seed))
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) < 0)
            offdiag = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
            assert np.all(np.abs(np.diag(a)) - offdiag >= config.dominance_margin)
            assert np.linalg.eigvalsh(a).max() < 0

    def test_deterministic_given_seed(self):
        config = MatrixEnsembleConfig(n=4, count=1, seed=0)
        assert np.array_equal(
            generate_sdd_matrix(config, substream(9)), generate_sdd_matrix(config, substream(9))
        )

    def test_scalar_dimension(self):
        config = MatrixEnsembleConfig(n=1, count=1, seed=0)
        a = generate_sdd_matrix(config, substream(2))
        assert a.shape == (1, 1) and a[0, 0] < 0

    def test_offdiag_within_scale(self):
        config = MatrixEnsembleConfig(n=5, count=1, offdiag_scale=0.3, seed=0)
        a = generate_sdd_matrix(config, substream(3))
        off = a - np.diag(np.diag(a))
        assert np.max(np.abs(off)) <= 0.3


class TestGenerateNegativeDefinite:
    def test_symmetric_and_stable(self):
        for seed in range(10):
            a = generate_negative_definite_matrix(4, substream(seed))
            assert np.array_equal(a, a.T)
            assert np.linalg.eigvalsh(a).max() < 0


class TestRosenCheck:
    def test_diagonal_zero_tradeoff_closed_form(self):
        # decoupled players: G = diag(f_i^3), so min eig of G + G^T is
        # twice the smallest cubed resolvent diagonal
        diag = np.array([-1.0, -2.0, -0.5])
        spec = GameSpec(a=np.diag(diag), rho=0.0, k_upper=10.0)
        k = np.array([0.3, 1.0, 2.0])
        f = 1.0 / (k - diag)
        assert rosen_check(spec, k) == pytest.approx(2.0 * np.min(f**3), rel=1e-12)

    def test_two_player_sign_matches_mu(self):
        spec = GameSpec(a=[[-2.0, -0.5], [-0.5, -2.0]], rho=0.0, k_upper=10.0)
        assert rosen_check(spec, [0.0, 0.0]) > 0
        assert two_player_mu(-2.0, -0.5, -2.0, 0.0, 0.0) > 0


class TestRosenSweep:
    def test_five_player_box_positive(self):
        spec = five_player_game()
        report = rosen_sweep(spec, samples=300, seed=0)
        assert not report.violated
        assert report.min_eig > 0
        assert report.samples == 301
        assert spec.contains(report.witness.k)

    def test_witness_attains_min(self):
        spec = five_player_game()
        report = rosen_sweep(spec, samples=100, seed=1)
        assert rosen_check(spec, report.witness.k) == report.min_eig

    @staticmethod
    def per_profile_min(spec, samples, seed):
        """The sweep as a loop of single-profile checks over the same points."""
        points = analysis._box_samples(spec, samples, substream(seed))
        values = [rosen_check(spec, point) for point in points]
        best = int(np.argmin(values))
        return values[best], points[best]

    @given(st.integers(0, 10**6), st.integers(1, 12), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_blocks_match_per_profile_loop(self, seed, n, block):
        spec, _ = random_game(seed, n=n)
        samples = 3 * block + seed % block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "SWEEP_BLOCK", block)
            report = rosen_sweep(spec, samples=samples, seed=seed)
        min_eig, witness = self.per_profile_min(spec, samples, seed)
        assert report.min_eig == min_eig
        assert np.array_equal(report.witness.k, witness)

    def test_sweep_past_one_default_block(self):
        spec, _ = random_game(4, n=3)
        samples = analysis.SWEEP_BLOCK + 100
        report = rosen_sweep(spec, samples=samples, seed=2)
        min_eig, witness = self.per_profile_min(spec, samples, 2)
        assert report.samples == samples + 1
        assert report.min_eig == min_eig
        assert np.array_equal(report.witness.k, witness)

    @pytest.mark.parametrize("samples", [0, -3, 2.7, True])
    def test_invalid_sample_count_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            rosen_sweep(five_player_game(), samples=samples)


class TestBoxSamples:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_latin_hypercube(self, seed, n, samples):
        """Bit for bit the points of the scipy sampler the sweep used to call,
        and the parent stream's next draw is unchanged."""
        spec, _ = random_game(seed, n=n)
        rng, ref_rng = substream(seed), substream(seed)
        unit = qmc.LatinHypercube(d=n, seed=ref_rng).random(samples)
        reference = np.vstack([spec.k_lower, spec.k_lower + unit * (spec.k_upper - spec.k_lower)])
        assert np.array_equal(analysis._box_samples(spec, samples, rng), reference)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n, samples", [(1, 1), (3, 7), (5, 200), (2, 1000)])
    def test_each_column_hits_every_stratum_once(self, n, samples):
        spec = GameSpec(a=-np.eye(n), rho=0.0, k_upper=1.0)
        points = analysis._box_samples(spec, samples, substream(samples))
        assert np.array_equal(points[0], np.zeros(n))
        strata = np.sort(np.floor(points[1:] * samples), axis=0)
        assert np.array_equal(strata, np.tile(np.arange(samples), (n, 1)).T)

    def test_runtime_imports_no_scipy(self):
        path = [str(Path(nashlq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        code = (
            "import sys, nashlq, nashlq.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"


class TestConjectureSweep:
    def test_sdd_ensemble_clean(self):
        ens = MatrixEnsembleConfig(n=4, count=10, seed=3)
        result = conjecture_sweep(ens, samples_per_matrix=50)
        assert result.min_eig > 0
        assert result.violations == ()
        assert result.spot_checked > 0
        assert result.spot_check_max_rel_err < 1e-5
        assert len(result.records) == 10

    def test_counterexample_search_reports_reproducible_witness(self, monkeypatch):
        # outside the diagonally dominant class the certificate can fail;
        # the finding must carry enough to rebuild the exact game
        ens = MatrixEnsembleConfig(n=3, count=10, seed=5)
        monkeypatch.setattr(analysis, "SPOT_CHECK_RATE", 0.0)
        result = conjecture_sweep(ens, samples_per_matrix=50, generator="negative-definite")
        assert len(result.violations) >= 1
        rec = result.violations[0]
        assert rec.report.min_eig <= 0
        assert rec.spec.contains(rec.report.witness.k)
        rng = substream(rec.seed, rec.matrix_index)
        rebuilt = generate_negative_definite_matrix(ens.n, rng)
        assert np.array_equal(rebuilt, np.asarray(rec.spec.a))
        assert rosen_check(rec.spec, rec.report.witness.k) == rec.report.min_eig

    def test_bad_generator_rejected(self):
        with pytest.raises(ValueError, match="generator"):
            conjecture_sweep(MatrixEnsembleConfig(n=2, count=1, seed=0), generator="cauchy")

    @pytest.mark.parametrize(
        "rho_range",
        [(0.0, float("inf")), (0.5, 0.1), (True, 1.0), [1.0], 3, [0.1, 0.2, 0.3], {"a": 1, "b": 2}],
    )
    def test_bad_rho_range_rejected(self, rho_range):
        with pytest.raises(ValueError, match="rho_range must be two finite numbers"):
            conjecture_sweep(MatrixEnsembleConfig(n=2, count=1, seed=0), rho_range=rho_range)


class TestStackedMatchesReference:
    """The stacked sweep and spot checks give the references' bits."""

    @given(st.integers(0, 10**6), st.integers(1, 8), GENERATORS, st.integers(1, 80), st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_sweep(self, seed, n, generator, samples, block):
        spec, _ = _ensemble_game(seed, n, generator)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "SWEEP_BLOCK", block)
            report = rosen_sweep(spec, samples=samples, seed=seed)
            min_eig, witness, count = _reference_rosen_sweep(spec, samples, seed)
        assert report.min_eig == min_eig
        assert np.array_equal(report.witness.k, witness)
        assert report.samples == count
        assert report.violated == (min_eig <= 0.0)

    @given(st.integers(0, 10**6), st.integers(1, 8), GENERATORS, st.integers(0, 30), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_spot_gaps(self, seed, n, generator, count, block):
        spec, rng = _ensemble_game(seed, n, generator)
        points = spec.k_lower + rng.random((count, n)) * (spec.k_upper - spec.k_lower)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "SWEEP_BLOCK", block)
            gaps = analysis._in_blocks(lambda ks: analysis._fd_jacobian_gap(spec, ks), points, 2 * n)
        assert gaps.tolist() == [_reference_fd_jacobian_gap(spec, point) for point in points]

    @given(
        st.integers(0, 10**6),
        st.integers(1, 8),
        st.integers(1, 3),
        GENERATORS,
        st.integers(1, 60),
        st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]),
        st.integers(1, 24),
    )
    @settings(max_examples=40, deadline=None)
    def test_ensemble(self, seed, n, count, generator, samples, rate, block):
        ensemble = MatrixEnsembleConfig(n=n, count=count, seed=seed)
        streams = []

        def recorded(*key):
            streams.append(substream(*key))
            return streams[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "SWEEP_BLOCK", block)
            patch.setattr(analysis, "substream", recorded)
            patch.setattr(analysis, "SPOT_CHECK_RATE", rate)
            result = conjecture_sweep(ensemble, samples, generator=generator)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "SWEEP_BLOCK", block)
            reports, gaps, ref_streams = _reference_conjecture_sweep(ensemble, samples, generator, rate)
        for record, (min_eig, witness, points) in zip(result.records, reports, strict=True):
            assert record.report.min_eig == min_eig
            assert np.array_equal(record.report.witness.k, witness)
            assert record.report.samples == points
        assert result.spot_checked == len(gaps)
        assert result.spot_check_max_rel_err == functools.reduce(max, gaps, 0.0)
        assert [rng.random() for rng in streams] == [rng.random() for rng in ref_streams]


class TestJacobianConsistency:
    @pytest.mark.parametrize("seed", range(5))
    def test_rosen_matrix_is_the_gradient_jacobian(self, seed):
        # the eigenvalue test and the Jacobian op must see the same matrix
        spec, k = random_game(seed + 900)
        g = pseudogradient_jacobian(spec, k)
        assert rosen_check(spec, k) == pytest.approx(
            float(np.linalg.eigvalsh(g + g.T).min()), rel=0, abs=0
        )


class TestEnsembleConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "count": 1},
            {"n": 2, "count": 0},
            {"n": 2, "count": 1, "offdiag_scale": 0.0},
            {"n": 2, "count": 1, "dominance_margin": 0.0},
            {"n": 2.5, "count": 1},
            {"n": True, "count": 1},
            {"n": 2, "count": 1.5},
            {"n": 2, "count": True},
            {"n": 2, "count": 1, "offdiag_scale": float("inf")},
            {"n": 2, "count": 1, "dominance_margin": float("inf")},
            {"n": 2, "count": 1, "seed": -1},
            {"n": 2, "count": 1, "seed": 1.5},
            {"n": 2, "count": 1, "seed": True},
            {"n": 2, "count": 1, "offdiag_scale": True},
            {"n": 2, "count": 1, "dominance_margin": True},
            {"n": 2, "count": 1, "offdiag_scale": "1.0"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MatrixEnsembleConfig(**kwargs)


class TestGameFromMatrix:
    def test_box_ceiling_rule(self):
        a = np.diag([-0.03, -2.0])
        spec = game_from_matrix(a, rho=0.5)
        assert np.allclose(spec.k_upper, [10.0, 20.0])

    @pytest.mark.parametrize("box_factor", [True, "10", 0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_box_factor_rejected(self, box_factor):
        with pytest.raises(ValueError, match="box_factor"):
            game_from_matrix(np.diag([-1.0, -2.0]), rho=0.5, box_factor=box_factor)
