import functools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nashlq
from nashlq import analysis, cli, game
from nashlq import (
    GameSpec,
    MatrixEnsembleConfig,
    NotPositiveDefinite,
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
    step = max(1, game.BLOCK_ENTRIES // spec.n**2)
    for start in range(0, points.shape[0], step):
        block = points[start : start + step]
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


def _retired_conjecture_sweep(ensemble, samples, generator):
    """The retired game-by-game loop: each game's ``rosen_sweep``, then its spot
    checks in their own blocks; ``(reports, gaps)``, or the first error raised."""
    spot_count = max(1, round(samples * analysis.SPOT_CHECK_RATE)) if analysis.SPOT_CHECK_RATE > 0 else 0
    reports, gaps = [], []
    for index in range(ensemble.count):
        rng = substream(ensemble.seed, index)
        a = analysis._GENERATORS[generator](ensemble, rng)
        spec = analysis.game_from_matrix(a, rng.uniform(0.0, 1.0, size=ensemble.n))
        reports.append(rosen_sweep(spec, samples, seed=rng))
        points = spec.k_lower + rng.random((spot_count, spec.n)) * (spec.k_upper - spec.k_lower)
        entries = (2 * spec.n + 1) * spec.n**2
        gaps += game._in_blocks(lambda ks: _lone_gaps(spec, ks), points, entries).tolist()
    return reports, gaps


def _lone_gaps(spec, ks):
    """``_fd_jacobian_gap`` on profiles of the one game ``spec``."""
    return analysis._fd_jacobian_gap([spec], ks, np.zeros(len(ks), dtype=int))


def _ensemble_game(seed, n, generator):
    """A sweep-ready game from either ensemble generator."""
    rng = substream(seed)
    if generator == "sdd":
        a = generate_sdd_matrix(MatrixEnsembleConfig(n=n, count=1), rng)
    else:
        a = generate_negative_definite_matrix(n, rng)
    return game_from_matrix(a, rng.uniform(0.0, 1.0, size=n)), rng


GENERATORS = st.sampled_from(["sdd", "negative-definite"])

# Nonnegative finite doubles, subnormals included.
_MAGNITUDE = st.floats(0.0, allow_infinity=False)


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

    @settings(max_examples=300)
    @given(
        st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(lambda x: -x)),
        st.tuples(_MAGNITUDE, _MAGNITUDE, st.integers(1, 60), st.integers(1, 60)),
        _MAGNITUDE,
        _MAGNITUDE,
    )
    def test_sdd_games_have_positive_mu_on_every_box(self, a12, margins, k1, k2):
        """The docstring's proof, on random SDD ``(a11, a12, a22)`` and
        nonnegative gains: every ``mu`` returned is positive, and one outside
        the float range is refused.  A margin is absolute, or ``|a12| 2^-j``,
        down to an ulp of ``|a12|``."""
        m1, m2, j1, j2 = margins
        a11 = -abs(a12) - (m1 if j1 == 60 else abs(a12) * 2.0**-j1)
        a22 = -abs(a12) - (m2 if j2 == 60 else abs(a12) * 2.0**-j2)
        assume(a11 < -abs(a12) and a22 < -abs(a12))
        try:
            mu = two_player_mu(a11, a12, a22, k1, k2)
        except PreconditionViolated as err:
            assert "float range" in str(err)
        else:
            assert mu > 0

    @pytest.mark.parametrize(
        "a11, a12, a22",
        [(-1.0, 0.0, -9.6e-237), (-1e-60, 5e-61, -1e-60), (-1e-110, 5e-111, -1e100)],
        ids=["tiny-rate", "tiny-game", "term-underflows"],
    )
    def test_underflow_is_refused(self, a11, a12, a22):
        """These once gave ``mu = 0``, which reads as no certificate; the last
        has a ``mu`` of about ``4e-30`` whose ``d1**3`` underflows."""
        with pytest.raises(PreconditionViolated, match="mu underflows the float range"):
            two_player_mu(a11, a12, a22, 0.0, 0.0)

    def test_dominance_precondition(self):
        with pytest.raises(PreconditionViolated, match="dominance"):
            two_player_mu(-0.5, -1.0, -2.0, 0.0, 0.0)

    def test_gain_precondition(self):
        with pytest.raises(PreconditionViolated, match="nonnegative"):
            two_player_mu(-2.0, -0.5, -2.0, -1.0, 0.0)

    @pytest.mark.parametrize("gains", [(np.nan, 0.0), (0.0, np.nan)])
    def test_nan_gain_is_refused(self, gains):
        with pytest.raises(PreconditionViolated, match="nonnegative"):
            two_player_mu(-2.0, -0.5, -2.0, *gains)

    @pytest.mark.parametrize("scalar", [float, np.float64], ids=["python", "numpy"])
    def test_overflow_is_refused_without_a_warning(self, scalar):
        args = map(scalar, (-2.0, -0.5, -2.0, 1e120, 1e120))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionViolated, match="mu overflows the float range"):
                two_player_mu(*args)

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

    @pytest.mark.parametrize("n", range(1, 61))
    def test_matches_the_retired_index_form(self, n):
        """Bit for bit the matrix of the retired ``triu_indices``/``diag_indices``
        form, and the stream's next draw is unchanged."""
        config = MatrixEnsembleConfig(n=n, count=1, offdiag_scale=0.7, dominance_margin=0.3)
        rng, ref_rng = substream(n, 11), substream(n, 11)
        reference = np.zeros((n, n))
        upper = np.triu_indices(n, 1)
        if upper[0].size:
            vals = ref_rng.uniform(-0.7, 0.7, size=upper[0].size)
            reference[upper] = vals
            reference.T[upper] = vals
        offdiag = np.sum(np.abs(reference), axis=1)
        reference[np.diag_indices(n)] = -(offdiag + 0.3 + ref_rng.uniform(0.0, 0.7, size=n))
        assert generate_sdd_matrix(config, rng).tobytes() == reference.tobytes()
        assert rng.random() == ref_rng.random()

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

    @given(st.integers(0, 10**6), st.integers(1, 8), st.lists(st.integers(0, 3), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_stacked_check_equals_per_profile_checks(self, seed, n, owner):
        """A ``(P, n)`` stack, read row by row with its game through a
        ``_game_rows`` view or with one spec, gives each row the bits of the
        single-profile check."""
        games = [random_game(seed + index, n=n) for index in range(max(owner) + 1)]
        specs = [spec for spec, _ in games]
        ks = np.array([spec.k_lower + (index + 1) / 13 * (spec.k_upper - spec.k_lower)
                       for index, spec in enumerate(specs[o] for o in owner)])
        stacked = rosen_check(game._game_rows(specs, np.array(owner)), ks)
        alone = np.array([rosen_check(specs[o], k) for o, k in zip(owner, ks)])
        assert stacked.shape == (len(owner),)
        assert stacked.tobytes() == alone.tobytes()
        one_game = rosen_check(specs[0], ks)
        assert one_game.tobytes() == np.array([rosen_check(specs[0], k) for k in ks]).tobytes()

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
            patch.setattr(game, "BLOCK_ENTRIES", block * n**2)
            report = rosen_sweep(spec, samples=samples, seed=seed)
        min_eig, witness = self.per_profile_min(spec, samples, seed)
        assert report.min_eig == min_eig
        assert np.array_equal(report.witness.k, witness)

    def test_sweep_past_one_default_block(self):
        """Past one block of 4096 profiles: n^2 = 9 entries each."""
        spec, _ = random_game(4, n=3)
        samples = 4096 + 100
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game, "BLOCK_ENTRIES", 4096 * 9)
            report = rosen_sweep(spec, samples=samples, seed=2)
        min_eig, witness = self.per_profile_min(spec, samples, 2)
        assert report.samples == samples + 1
        assert report.min_eig == min_eig
        assert np.array_equal(report.witness.k, witness)

    @pytest.mark.parametrize("samples", [0, -3, 2.7, True])
    def test_invalid_sample_count_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            rosen_sweep(five_player_game(), samples=samples)

    @pytest.mark.parametrize("rho, k_upper", [(0.0, 4.149515568880993e180), (1.0, 1e120)])
    def test_underflowed_curvature_is_not_a_violation(self, rho, k_upper):
        # The curvature, about 1 / k^3 at large gains, is positive at every stable
        # profile, but underflows to 0 past k ~ 1e108, which would read as min_eig = 0.
        spec = GameSpec(a=[[-1.0]], rho=rho, k_upper=k_upper)
        with pytest.raises(ValueError, match=r"curvature underflows to 0 at witness \[") as err:
            rosen_sweep(spec, samples=20)
        witness = [float(err.value.args[0].split("[")[1].split("]")[0])]
        assert pseudogradient_jacobian(spec, witness)[0, 0] == 0.0


class TestBoxSamples:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_latin_hypercube(self, seed, n, samples):
        """Bit for bit the points of the scipy sampler the sweep used to call,
        and the parent stream's next draw is unchanged."""
        qmc = pytest.importorskip("scipy.stats").qmc
        spec, _ = random_game(seed, n=n)
        rng, ref_rng = substream(seed), substream(seed)
        unit = qmc.LatinHypercube(d=n, seed=ref_rng).random(samples)
        reference = np.vstack([spec.k_lower, spec.k_lower + unit * (spec.k_upper - spec.k_lower)])
        assert np.array_equal(analysis._box_samples(spec, samples, rng), reference)
        assert rng.random() == ref_rng.random()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 1000))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_retired_per_row_shuffle(self, seed, n, samples):
        """Bit for bit the points of the retired loop, which shuffled the strata
        one coordinate at a time, and the parent stream's next draw is unchanged."""
        spec, _ = random_game(seed, n=n)
        rng, ref_rng = substream(seed), substream(seed)
        child = ref_rng.spawn(1)[0]
        jitter = child.uniform(size=(samples, n))
        strata = np.tile(np.arange(1, samples + 1), (n, 1))
        for row in strata:
            child.shuffle(row)
        unit = (strata.T - jitter) / samples
        reference = np.vstack([spec.k_lower, spec.k_lower + unit * (spec.k_upper - spec.k_lower)])
        assert analysis._box_samples(spec, samples, rng).tobytes() == reference.tobytes()
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

    @pytest.mark.parametrize("generator", [["sdd"], {"sdd": 1}, None])
    def test_non_string_generator_rejected_by_name(self, generator):
        with pytest.raises(ValueError, match="^generator must be 'sdd' or 'negative-definite'$"):
            conjecture_sweep(MatrixEnsembleConfig(n=2, count=1, seed=0), generator=generator)

    @pytest.mark.parametrize("samples", [0, 2.5, True, "10"])
    def test_both_sweeps_refuse_samples_alike(self, samples):
        with pytest.raises(ValueError) as lone:
            rosen_sweep(five_player_game(), samples)
        with pytest.raises(ValueError) as ensemble:
            conjecture_sweep(MatrixEnsembleConfig(n=2, count=1, seed=0), samples)
        assert str(lone.value) == str(ensemble.value) == f"samples must be an integer >= 1, got {samples!r}"

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
            patch.setattr(game, "BLOCK_ENTRIES", block * n**2)
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
            patch.setattr(game, "BLOCK_ENTRIES", block * n**2)  # block // (2 n + 1) points per call
            entries = (2 * n + 1) * n**2
            gaps = game._in_blocks(lambda ks: _lone_gaps(spec, ks), points, entries)
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
            patch.setattr(game, "BLOCK_ENTRIES", block * n**2)
            patch.setattr(analysis, "substream", recorded)
            patch.setattr(analysis, "SPOT_CHECK_RATE", rate)
            result = conjecture_sweep(ensemble, samples, generator=generator)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game, "BLOCK_ENTRIES", block * n**2)
            reports, gaps, ref_streams = _reference_conjecture_sweep(ensemble, samples, generator, rate)
        for record, (min_eig, witness, points) in zip(result.records, reports, strict=True):
            assert record.report.min_eig == min_eig
            assert np.array_equal(record.report.witness.k, witness)
            assert record.report.samples == points
        assert result.spot_checked == len(gaps)
        assert result.spot_check_max_rel_err == functools.reduce(max, gaps, 0.0)
        assert [rng.random() for rng in streams] == [rng.random() for rng in ref_streams]


class TestEntryBound:
    """Every stacked call of an ensemble sweep, its ``rosen_sweep`` included, holds
    at most ``game.BLOCK_ENTRIES`` entries, or the profiles of one row, and a
    sweep block holds the points of every game of its chunk it reaches."""

    @staticmethod
    def spy(patch, n):
        """Record ``(profiles, one row's profiles, games, rechecking)`` of each
        Jacobian and kernel call; a call on one game's spec counts one game, and
        ``rechecking`` marks the calls of the witnesses' ``rosen_check``, a stack
        with one row per game."""
        calls, rechecking = [], [False]

        def spied(fn, one_row):
            def call(spec, ks):
                games = getattr(spec, "games", 1)
                # a lone (n,) profile is one
                calls.append((len(np.atleast_2d(ks)), one_row, games, rechecking[0]))
                return fn(spec, ks)

            return call

        def recheck(spec, ks):
            rechecking[0] = True
            try:
                return check(spec, ks)
            finally:
                rechecking[0] = False

        def rows(specs, owner):
            view = game_rows(specs, owner)
            view.games = len(np.unique(owner))
            return view

        jacobian, kernel, game_rows, check = game._jacobian_stack, game._evaluate_stack, game._game_rows, rosen_check
        patch.setattr(analysis, "rosen_check", recheck)
        patch.setattr(analysis, "_game_rows", rows)
        patch.setattr(analysis, "_jacobian_stack", spied(jacobian, 1))
        patch.setattr(game, "_evaluate_stack", spied(kernel, 1))  # inside _jacobian_stack
        patch.setattr(analysis, "_evaluate_stack", spied(kernel, 2 * n + 1))  # a spot point and its bumps
        return calls

    @given(
        st.integers(0, 10**6),
        st.sampled_from([5, 20, 60]),
        GENERATORS,
        st.integers(1, 3),
        st.integers(1, 300),
        st.sampled_from([0.01, 0.1]),
    )
    @settings(max_examples=15, deadline=None)
    def test_blocks_stay_within_the_bound(self, seed, n, generator, count, samples, rate):
        ensemble = MatrixEnsembleConfig(n=n, count=count, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "SPOT_CHECK_RATE", rate)
            calls = self.spy(patch, n)
            result = conjecture_sweep(ensemble, samples, generator=generator)
        assert calls and any(rechecked for *_, rechecked in calls)
        for profiles, one_row, *_ in calls:
            assert profiles * n**2 <= game.BLOCK_ENTRIES or profiles == one_row
        # A sweep block that reaches past a game's last point holds the next game's
        # too, unless that game starts the next chunk, whose blocks start with it.
        step = max(1, game.BLOCK_ENTRIES // n**2)
        per_chunk = max(1, game.BLOCK_ENTRIES // n // (samples + 1))
        straddled = any((samples + 1) * (index % per_chunk) % step for index in range(1, count))
        swept = [games for _, one_row, games, rechecked in calls if one_row == 1 and not rechecked]
        assert (max(swept) > 1) == straddled
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "SPOT_CHECK_RATE", rate)
            patch.setattr(game, "BLOCK_ENTRIES", 2**62)  # one block per sweep and per spot check
            whole = conjecture_sweep(ensemble, samples, generator=generator)
        for record, reference in zip(result.records, whole.records, strict=True):
            assert record.report.min_eig == reference.report.min_eig
            assert np.array_equal(record.report.witness.k, reference.report.witness.k)
        assert result.spot_checked == whole.spot_checked
        assert result.spot_check_max_rel_err == whole.spot_check_max_rel_err

    def test_witness_recheck_stays_within_the_bound(self, monkeypatch):
        """A chunk holds more games than a block holds witnesses where a game has
        fewer points than ``n``: its witnesses are rechecked in blocks too."""
        monkeypatch.setattr(game, "BLOCK_ENTRIES", 2 * 60**2)  # two witnesses a block, 60 games a chunk
        ensemble = MatrixEnsembleConfig(n=60, count=5, seed=1)
        whole = conjecture_sweep(ensemble, 1)
        calls = self.spy(monkeypatch, 60)
        result = conjecture_sweep(ensemble, 1)
        # each block's Jacobian call and the kernel call inside it
        assert [profiles for profiles, *_, rechecked in calls if rechecked] == [2, 2, 2, 2, 1, 1]
        for profiles, one_row, *_ in calls:
            assert profiles * 60**2 <= game.BLOCK_ENTRIES or profiles == one_row
        for record, reference in zip(result.records, whole.records, strict=True):
            assert record.report.min_eig == reference.report.min_eig
            assert rosen_check(record.spec, record.report.witness.k) == record.report.min_eig


class TestStackedEnsemble:
    """The ensemble's shared blocks give the retired game-by-game loop's bits, and
    the error of its lowest-index failing game."""

    @given(
        st.integers(0, 10**6),
        st.sampled_from([2, 5, 20]),
        st.integers(1, 4),
        GENERATORS,
        st.integers(1, 60),
        st.sampled_from([0.0, 0.01, 0.1, 0.5]),
        st.integers(1, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_retired_loop(self, seed, n, count, generator, samples, rate, block):
        """``block`` profiles per sweep block: fewer than a game's ``samples + 1``
        points split the game across blocks, more pack several games into one."""
        ensemble = MatrixEnsembleConfig(n=n, count=count, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "SPOT_CHECK_RATE", rate)
            reports, gaps = _retired_conjecture_sweep(ensemble, samples, generator)
            patch.setattr(game, "BLOCK_ENTRIES", block * n**2)
            result = conjecture_sweep(ensemble, samples, generator=generator)
        for record, report in zip(result.records, reports, strict=True):
            assert record.report.min_eig == report.min_eig
            assert record.report.witness.k.tobytes() == report.witness.k.tobytes()
            assert record.report.samples == report.samples
            assert record.report.violated == report.violated
        assert result.spot_checked == len(gaps)
        assert result.spot_check_max_rel_err == max([0.0, *gaps])

    # Games of n = 2, built as the ensemble draws them: one that sweeps cleanly,
    # one whose box reaches a numerically singular K - A, two whose curvatures
    # underflow at their witnesses, and one whose box overflows at construction.
    GAMES = {
        "clean": lambda: GameSpec(a=-np.eye(2), rho=0.5, k_upper=4.0),
        "sweep": lambda: GameSpec(a=-np.eye(2), rho=0.0, k_upper=[1.0, 1e300]),
        "witness": lambda: GameSpec(a=-np.eye(2), rho=1.0, k_upper=1e120),
        "witness-free": lambda: GameSpec(a=-np.eye(2), rho=0.0, k_upper=4.149515568880993e180),
        "construction": lambda: GameSpec(a=-np.eye(2), rho=1.0, k_upper=1e200),
    }

    # Orders of those games, with the retired loop's error and the CLI's exit code.
    ORDERS = [
        (("clean", "sweep", "clean", "construction"), NotPositiveDefinite, 3),
        (("clean", "witness", "sweep"), ValueError, 2),
        (("clean", "construction", "sweep"), ValueError, 2),
        (("clean", "clean", "sweep", "witness", "sweep"), NotPositiveDefinite, 3),
        (("construction",), ValueError, 2),
        # Two games whose curvatures underflow at their witnesses: the first names its own.
        (("clean", "witness-free", "witness"), ValueError, 2),
        (("witness", "witness-free"), ValueError, 2),
        # With two games a chunk, the failing game starts or ends the second.
        (("clean", "clean", "sweep", "construction"), NotPositiveDefinite, 3),
        (("clean", "clean", "witness", "construction"), ValueError, 2),
        (("clean", "clean", "clean", "sweep"), NotPositiveDefinite, 3),
        (("clean", "clean", "clean", "construction"), ValueError, 2),
    ]
    PER_CHUNK = pytest.mark.parametrize("per_chunk", [None, 1, 2], ids=["one-chunk", "chunks-of-1", "chunks-of-2"])

    @pytest.mark.parametrize("kinds, error, code", ORDERS)
    @PER_CHUNK
    def test_the_lowest_failing_game_raises(self, monkeypatch, capsys, tmp_path, kinds, error, code, per_chunk):
        """The retired loop's error, type and message: a stacked block names its
        failing profile by its place in the block, so that is not the message.
        ``per_chunk`` games of 21 points a chunk, or all of them in one."""
        if per_chunk:
            monkeypatch.setattr(game, "BLOCK_ENTRIES", 2 * 21 * per_chunk)
        ensemble = MatrixEnsembleConfig(n=2, count=len(kinds), seed=4)

        def drawn_in_order():
            games = iter(kinds)
            monkeypatch.setattr(analysis, "game_from_matrix", lambda a, rho: self.GAMES[next(games)]())

        drawn_in_order()
        with pytest.raises(error) as retired:
            _retired_conjecture_sweep(ensemble, 20, "sdd")
        drawn_in_order()
        with pytest.raises(error) as stacked:
            conjecture_sweep(ensemble, 20)
        assert str(stacked.value) == str(retired.value)
        config = tmp_path / "ensemble.json"
        config.write_text(json.dumps({"ensemble": {"n": 2, "count": len(kinds), "seed": 4, "samples": 20}}))
        drawn_in_order()
        assert cli.main(["check-rosen", "--config", str(config), "--out", str(tmp_path / "r.json")]) == code
        label = "solver failure" if code == 3 else "error"
        assert capsys.readouterr().err == f"{label}: {retired.value}\n"

    @pytest.mark.parametrize("kinds", [("clean", "witness-free", "witness"), ("witness", "witness-free")])
    def test_one_sweep_raises_its_lowest_underflowed_witness(self, kinds):
        """The witnesses of one sweep are rechecked together, and the first game
        whose curvature underflows raises, as it does alone."""
        games = [(spec, analysis._box_samples(spec, 20, substream(index)), np.empty((0, 2)))
                 for index, spec in enumerate(self.GAMES[kind]() for kind in kinds)]
        lowest = next(index for index, kind in enumerate(kinds) if kind.startswith("witness"))
        with pytest.raises(ValueError) as alone:
            analysis._sweep_games(games[lowest : lowest + 1])
        with pytest.raises(ValueError) as together:
            analysis._sweep_games(games)
        assert str(together.value) == str(alone.value)
        assert str(alone.value).startswith("curvature underflows to 0 at witness")

    def test_memory_error_replays_only_its_chunk(self, monkeypatch):
        """A chunk whose shared blocks run out of memory is swept again one game at
        a time, the other chunks as they are, and every game keeps its bits."""
        ensemble = MatrixEnsembleConfig(n=5, count=5, seed=2)
        whole = conjecture_sweep(ensemble, 20)
        monkeypatch.setattr(game, "BLOCK_ENTRIES", 5 * 21 * 2)  # two games of 21 points a chunk
        calls = []

        def spied(games):
            first = next(i for i, record in enumerate(whole.records) if np.array_equal(record.spec.a, games[0][0].a))
            calls.append((first, len(games)))
            if (first, len(games)) == (2, 2):
                raise MemoryError("Unable to allocate")
            return sweep_games(games)

        sweep_games = analysis._sweep_games
        monkeypatch.setattr(analysis, "_sweep_games", spied)
        result = conjecture_sweep(ensemble, 20)
        assert calls == [(0, 2), (2, 2), (2, 1), (3, 1), (4, 1)]
        for record, reference in zip(result.records, whole.records, strict=True):
            assert record.report.min_eig == reference.report.min_eig
            assert record.report.witness.k.tobytes() == reference.report.witness.k.tobytes()
        assert (result.spot_checked, result.spot_check_max_rel_err) == (whole.spot_checked,
                                                                        whole.spot_check_max_rel_err)

    @staticmethod
    def draws(patch):
        """``_box_samples`` calls per game, told by the ``substream(seed, index)`` key
        of the stream it draws from."""
        keys, counts = {}, {}

        def keyed(*key):
            rng = substream(*key)
            keys[id(rng)] = rng, key  # holding rng keeps its id from being reused
            return rng

        def counted(spec, samples, rng):
            key = keys[id(rng)][1]
            counts[key] = counts.get(key, 0) + 1
            return box_samples(spec, samples, rng)

        box_samples = analysis._box_samples
        patch.setattr(analysis, "substream", keyed)
        patch.setattr(analysis, "_box_samples", counted)
        return counts

    def test_each_game_is_drawn_once(self, monkeypatch):
        monkeypatch.setattr(game, "BLOCK_ENTRIES", 5 * 21 * 2)  # two games of 21 points a chunk
        counts = self.draws(monkeypatch)
        conjecture_sweep(MatrixEnsembleConfig(n=5, count=7, seed=2), 20)
        assert counts == {(2, index): 1 for index in range(7)}

    @pytest.mark.parametrize("kinds, error, code", ORDERS)
    @PER_CHUNK
    def test_a_failing_chunk_draws_each_game_once(self, monkeypatch, kinds, error, code, per_chunk):
        """Every game up to the failing game's chunk, short of a game that fails
        to construct, is drawn once, and none after it."""
        if per_chunk:
            monkeypatch.setattr(game, "BLOCK_ENTRIES", 2 * 21 * per_chunk)
        games = iter(kinds)
        monkeypatch.setattr(analysis, "game_from_matrix", lambda a, rho: self.GAMES[next(games)]())
        counts = self.draws(monkeypatch)
        with pytest.raises(error):
            conjecture_sweep(MatrixEnsembleConfig(n=2, count=len(kinds), seed=4), 20)
        failing = next(index for index, kind in enumerate(kinds) if kind != "clean")
        chunk_end = (failing // per_chunk + 1) * per_chunk if per_chunk else len(kinds)
        drawn = min(chunk_end, len(kinds), (*kinds, "construction").index("construction"))
        assert counts == {(4, index): 1 for index in range(drawn)}

    def test_memory_stays_that_of_one_chunk(self):
        """An ensemble holds one chunk's points at a time: 20 games of 5,000 points
        at n = 5, one game a chunk, peak within 1.5 times one game's sweep."""

        def peak(count):
            tracemalloc.start()
            try:
                conjecture_sweep(MatrixEnsembleConfig(n=5, count=count, seed=0), 5000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20) <= 1.5 * peak(1)


def _stack(seed, kind, p, n):
    """A ``(p, n, n)`` stack of ``G`` for the pruning tests: random matrices, dominant
    ones (which prune), diagonal ones with tied entries, or Jacobians over the
    five-player box, whose row sums span eight orders of magnitude.  Random and
    dominant matrices are scaled each by its own power of ten, over a span of
    none, one or 24 decades."""
    rng = substream(seed)
    spread = rng.choice([0.0, 1.0, 24.0])
    scale = 10.0 ** rng.uniform(-spread / 2, spread / 2, size=(p, 1, 1))
    if kind == "game":
        spec = five_player_game()
        return _jacobian_stack(spec, analysis._box_samples(spec, p, rng)[:p])
    if kind == "diagonal":
        g = np.zeros((p, n, n))
        g[:, range(n), range(n)] = rng.integers(-2, 3, size=(p, n)) * 10.0 ** rng.integers(-3, 4)
        return g
    g = rng.standard_normal((p, n, n))
    if kind == "dominant":
        g[:, range(n), range(n)] += n * rng.uniform(1.0, 3.0, size=(p, n))
    return g * scale


def _assert_sound(g):
    """``_rosen_values`` against a plain ``eigvalsh`` of the same stack, which it
    matches also in failing to converge on a NaN; the skipped rows."""
    h = g + g.transpose(0, 2, 1)
    try:
        plain = np.linalg.eigvalsh(h).min(axis=1)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            analysis._rosen_values(g, np.zeros(len(g), dtype=int))
        return np.zeros(len(g), dtype=bool)
    values = analysis._rosen_values(g, np.zeros(len(g), dtype=int))
    skipped = values == np.inf
    assert values[~skipped].tobytes() == plain[~skipped].tobytes()
    if skipped.any():
        assert np.all(plain[skipped] > np.nanmin(plain))
    assert np.argmin(values) == np.argmin(plain)
    assert not skipped[np.isnan(h).any(axis=(1, 2))].any()
    return skipped


class TestPrunedRosenValues:
    """The pruned eigensolve keeps every row that can hold the stack's minimum,
    with a plain ``eigvalsh``'s bits, and skips only rows strictly above it."""

    KINDS = st.sampled_from(["general", "dominant", "diagonal", "game"])

    @given(st.integers(0, 10**6), KINDS, st.integers(1, 40), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_eigvalsh(self, seed, kind, p, n):
        skipped = _assert_sound(_stack(seed, kind, p, n))
        if p == 1:
            assert not skipped.any()

    @given(st.integers(0, 10**6), KINDS, st.integers(2, 40), st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_nan_rows_are_kept(self, seed, kind, p, n, data):
        g = _stack(seed, kind, p, n)
        row, i, j = (data.draw(st.integers(0, size - 1)) for size in g.shape)
        g[row, i, j] = np.nan
        _assert_sound(g)

    @given(st.integers(0, 10**6), KINDS, st.integers(1, 20), st.integers(1, 8), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_ties_of_the_minimum_are_kept(self, seed, kind, p, n, copies):
        g = _stack(seed, kind, p, n)
        h = g + g.transpose(0, 2, 1)
        lowest = g[np.argmin(np.linalg.eigvalsh(h).min(axis=1))]
        g = np.concatenate([g, np.repeat(lowest[None], copies, axis=0)])
        plain = np.linalg.eigvalsh(g + g.transpose(0, 2, 1)).min(axis=1)
        skipped = _assert_sound(g)
        assert not skipped[plain == plain.min()].any()

    def test_a_dominant_stack_prunes(self):
        assert _assert_sound(_stack(3, "dominant", 40, 5)).sum() > 20
        assert _assert_sound(_stack(3, "game", 40, 5)).sum() > 20

    @given(st.integers(0, 10**6), st.lists(st.tuples(KINDS, st.integers(1, 20)), min_size=1, max_size=4),
           st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_each_segment_is_pruned_alone(self, seed, segments, n):
        """Rows of several games: each game's segment gets the values it gets alone,
        which keep its own minimum, however far apart the games' scales are."""
        if any(kind == "game" for kind, _ in segments):
            n = 5  # the five-player game's Jacobians
        stacks = [_stack(seed + i, kind, p, n) for i, (kind, p) in enumerate(segments)]
        owner = np.repeat(np.arange(len(stacks)) + seed % 3, [len(g) for g in stacks])
        values = analysis._rosen_values(np.concatenate(stacks), owner)
        alone = [analysis._rosen_values(g, np.zeros(len(g), dtype=int)) for g in stacks]
        assert values.tobytes() == np.concatenate(alone).tobytes()
        for g in stacks:
            _assert_sound(g)


class TestEigensolveCount:
    """Most sweep points skip the eigensolve: count the finite values ``_rosen_values``
    returns to ``rosen_sweep`` (its ``rosen_check`` solves one more)."""

    @staticmethod
    def solved(patch):
        """Each game's ``[solved, points]``, summed over the blocks its points span;
        a sweep's rows are numbered within it, so each sweep's first game index,
        the games swept before it, is added."""
        counts, first = {}, [0]

        def swept(games):
            result = sweep_games(games)
            first[0] += len(games)
            return result

        def counted(g, owner):
            values = analysis._rosen_values.__wrapped__(g, owner)
            for game_index, finite in zip((owner + first[0]).tolist(), np.isfinite(values).tolist()):
                count = counts.setdefault(game_index, [0, 0])
                count[0] += finite
                count[1] += 1
            return values

        counted.__wrapped__, sweep_games = analysis._rosen_values, analysis._sweep_games
        patch.setattr(analysis, "_rosen_values", counted)
        patch.setattr(analysis, "_sweep_games", swept)
        return counts

    def test_five_player_sweep(self, monkeypatch):
        counts = self.solved(monkeypatch)
        rosen_sweep(five_player_game(), samples=1000, seed=0)
        ((solved, points),) = counts.values()
        assert points == 1001
        assert solved <= 0.10 * points

    def test_sdd_ensemble(self, monkeypatch):
        counts = self.solved(monkeypatch)
        conjecture_sweep(MatrixEnsembleConfig(n=5, count=20, seed=0), samples_per_matrix=200)
        assert sorted(counts) == list(range(20))
        assert all(solved <= 0.15 * points for solved, points in counts.values())


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
