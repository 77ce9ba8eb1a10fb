"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.  The tolerances below are fixed; nothing here is tuned at
runtime.
"""

import json

import numpy as np
import pytest

from nashlq import (
    GameSpec,
    LearnConfig,
    MatrixEnsembleConfig,
    SimConfig,
    conjecture_sweep,
    cost,
    exact_gradient,
    five_player_game,
    marginal_cost_from_cost,
    monte_carlo_cost,
    pseudogradient_jacobian,
    rosen_check,
    run_gradient_play,
    scalar_game,
    second_derivative,
    substream,
    two_player_mu,
)
from nashlq.cli import main
from util import fd_gradient, fd_jacobian, random_game, rel_gap

SCALAR_EQUILIBRIUM = np.sqrt(2.0) - 1.0


def _verdict(number: int, description: str, passed: bool, detail: str):
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {description}: {detail}")
    assert passed, f"criterion {number}: {description}: {detail}"


def test_criterion_01_model_free_reproduction(tmp_path):
    out = tmp_path / "reproduce"
    code = main(["reproduce-paper", "--mode", "model-free", "--seed", "0", "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    gaps = {name: check["value"] for name, check in summary["checks"].items()}
    passed = (
        code == 0
        and summary["checks"]["round1_vs_published"]["value"] <= 0.1
        and summary["checks"]["round2_vs_published"]["value"] <= 0.1
        and summary["cross_round_gap"] <= 0.1
    )
    _verdict(
        1,
        "model-free two-round reproduction within 0.1",
        passed,
        f"vs published {gaps['round1_vs_published']:.3f}/{gaps['round2_vs_published']:.3f}, "
        f"cross-round {summary['cross_round_gap']:.2e}",
    )


def test_criterion_02_uniqueness_evidence_exact_mode():
    spec = five_player_game()
    config = LearnConfig(stages=20000, grad_tolerance=1e-9)
    rng = substream(2024)
    finals = []
    worst_grad = 0.0
    for _ in range(10):
        k0 = spec.k_lower + rng.random(spec.n) * (spec.k_upper - spec.k_lower)
        run = run_gradient_play(spec, k0, config)
        finals.append(run.final.k)
        worst_grad = max(worst_grad, float(np.max(np.abs(exact_gradient(spec, run.final)))))
    finals = np.array(finals)
    spread = float(np.max(finals.max(axis=0) - finals.min(axis=0)))
    passed = spread <= 1e-5 and worst_grad < 1e-8
    _verdict(
        2,
        "10 random starts converge to one profile",
        passed,
        f"spread {spread:.2e} (tol 1e-5), worst final gradient {worst_grad:.2e} (tol 1e-8)",
    )


def test_criterion_03_gradient_identity():
    worst = 0.0
    for seed in range(1000):
        spec, k = random_game(seed)
        g = exact_gradient(spec, k)
        m = marginal_cost_from_cost(cost(spec, k), k, spec.rho)
        scale = np.abs(g)
        gaps = np.abs(m - g)
        rel = np.where(gaps == 0.0, 0.0, gaps / np.where(scale == 0.0, 1.0, scale))
        worst = max(worst, float(np.max(rel)))
    passed = worst <= 1e-12
    _verdict(
        3,
        "marginal-cost identity vs closed-form gradient over 1000 games",
        passed,
        f"worst relative gap {worst:.2e} (tol 1e-12)",
    )


def test_criterion_04_finite_difference_oracle():
    worst_grad = 0.0
    worst_jac = 0.0
    for seed in range(100):
        spec, k = random_game(seed + 5000)
        worst_grad = max(worst_grad, rel_gap(fd_gradient(spec, k), exact_gradient(spec, k)))
        fd = fd_jacobian(spec, k)
        g = pseudogradient_jacobian(spec, k)
        for j in range(spec.n):
            worst_jac = max(worst_jac, rel_gap(fd[:, j], g[:, j]))
    passed = worst_grad <= 1e-6 and worst_jac <= 1e-5
    _verdict(
        4,
        "central differences confirm gradient and Jacobian over 100 games",
        passed,
        f"gradient {worst_grad:.2e} (tol 1e-6), Jacobian columns {worst_jac:.2e} (tol 1e-5)",
    )


def test_criterion_05_strict_convexity():
    violations = 0
    smallest = np.inf
    points = 0
    for game_seed in range(50):
        spec, _ = random_game(game_seed + 9000)
        rng = substream(game_seed, 1)
        draws = spec.k_lower + rng.random((200, spec.n)) * (spec.k_upper - spec.k_lower)
        for k in draws:
            h = second_derivative(spec, k)
            smallest = min(smallest, float(h.min()))
            violations += int(np.any(h <= 0))
            points += 1
    passed = violations == 0
    _verdict(
        5,
        f"second derivative positive at {points} box points across 50 games",
        passed,
        f"{violations} violations, smallest value {smallest:.3e}",
    )


def test_criterion_06_matrix_exponential_integral():
    linalg = pytest.importorskip("scipy.linalg")
    rng = substream(606)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        q, _r = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = rng.uniform(0.5, 2.0, size=n)
        ka = (q * eigs) @ q.T
        horizon = 50.0 / eigs.min()
        steps = int(np.ceil(horizon / 1e-3))
        dt = horizon / steps
        # quadrature side: trapezoid of expm powers, no eigendecomposition
        step_matrix = linalg.expm(-2.0 * ka * dt)
        total = 0.5 * np.eye(n) + 0.5 * np.linalg.matrix_power(step_matrix, steps)
        power = step_matrix.copy()
        for _j in range(1, steps):
            total += power
            power = power @ step_matrix
        total *= dt
        gap = float(np.max(np.abs(total - 0.5 * np.linalg.inv(ka))))
        worst = max(worst, gap)
    passed = worst <= 1e-6
    _verdict(
        6,
        "trapezoid matrix-exponential integral matches inverse/2 on 20 systems",
        passed,
        f"worst max-norm gap {worst:.2e} (tol 1e-6)",
    )


def test_criterion_07_monte_carlo_consistency():
    spec = GameSpec(a=[[-1.0]], rho=0.0, k_upper=3.0)

    def estimate(batch, seed):
        config = SimConfig(batch_size=batch, horizon=50.0, dt=0.1, seed=seed)
        return float(monte_carlo_cost(spec, [0.0], config)[0])

    seeds = range(20)
    small = np.array([abs(estimate(100, s) - 0.5) for s in seeds])
    large = np.array([abs(estimate(10_000, s) - 0.5) for s in seeds])
    worst_large = float(large.max())
    violations = int(np.sum(large >= small))
    passed = worst_large <= 0.05 * 0.5 and violations <= 1
    _verdict(
        7,
        "scalar Monte Carlo oracle within 5% and error shrinks with batch",
        passed,
        f"worst |B|=10^4 error {worst_large:.4f} (tol 0.025), "
        f"ordering violations {violations}/20 (allow 1)",
    )


def test_criterion_08_conjecture_sweep():
    total_matrices = 0
    global_min = np.inf
    all_violations = []
    spot_worst = 0.0
    for n in (2, 3, 4, 5, 6):
        ensemble = MatrixEnsembleConfig(n=n, count=20, seed=800 + n)
        result = conjecture_sweep(ensemble, samples_per_matrix=200, rho_range=(0.0, 1.0))
        total_matrices += len(result.records)
        global_min = min(global_min, result.min_eig)
        all_violations.extend(result.violations)
        spot_worst = max(spot_worst, result.spot_check_max_rel_err)
    for record in all_violations:
        print(
            "violation witness:",
            {
                "matrix_index": record.matrix_index,
                "seed": record.seed,
                "a": record.spec.a.tolist(),
                "rho": record.spec.rho.tolist(),
                "k": record.report.witness.k.tolist(),
            },
        )
    passed = total_matrices == 100 and not all_violations and global_min > 0
    _verdict(
        8,
        "100 SDD games x 200 profiles keep G + G^T positive definite",
        passed,
        f"global min eig {global_min:.3e}, violations {len(all_violations)}, "
        f"Jacobian spot-check max rel err {spot_worst:.2e}",
    )


def test_criterion_09_two_player_mu_equivalence():
    assert two_player_mu(-2.0, -0.5, -2.0, 0.0, 0.0) == 255.0
    rng = substream(909)
    mismatches = 0
    for _ in range(1000):
        a12 = float(rng.uniform(-2.0, 2.0))
        a11 = -abs(a12) - float(rng.uniform(0.01, 3.0))
        a22 = -abs(a12) - float(rng.uniform(0.01, 3.0))
        k1, k2 = rng.uniform(0.0, 5.0, size=2)
        mu = two_player_mu(a11, a12, a22, float(k1), float(k2))
        spec = GameSpec(a=[[a11, a12], [a12, a22]], rho=0.0, k_upper=10.0)
        if (mu > 0) != (rosen_check(spec, [k1, k2]) > 0):
            mismatches += 1
    passed = mismatches == 0
    _verdict(
        9,
        "mu sign matches G + G^T definiteness on 1000 tuples (mu(0,0) = 255 exact)",
        passed,
        f"{mismatches} sign mismatches",
    )


def test_criterion_10_scalar_analytic_equilibrium():
    run = run_gradient_play(scalar_game(), [1.0], LearnConfig(stages=200))
    gap = abs(float(run.final.k[0]) - SCALAR_EQUILIBRIUM)
    passed = gap <= 1e-8 and run.stages_used <= 200
    _verdict(
        10,
        "scalar game reaches sqrt(2) - 1 within 200 exact stages",
        passed,
        f"|k - k*| = {gap:.2e} (tol 1e-8) after {run.stages_used} stages",
    )
