"""The four benchmark workloads: seeded inputs, one timed run, and its checks.

Each workload is four functions:

- ``setup(seed)`` builds the inputs (games, starts, configs) from the seed;
  the program receives only these generated inputs.
- ``run(inputs, outdir)`` is the timed section: one whole workload run,
  including the output files it writes.
- ``collect(inputs, raw)`` reads the outputs back, untimed.
- ``check(inputs, result, ref)`` returns one :class:`Op` per operation of
  the run; ``ref`` is the first repetition's result (``None`` on the first),
  which later repetitions must repeat to round-off.

``nash_residual(spec, finals)`` is ``max |k - clip(k - grad J(k), box)|``,
computed with the closed-form gradient after the timed section.

The timed code calls nashlq through module attributes (``cli.main``,
``analysis.conjecture_sweep``, ...) so that the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import qmc

from nashlq import analysis, cli, game, learning, output, presets, simulate

# Equilibrium of the bundled 5-player game as published in the README.
FIVE_PLAYER_KSTAR = np.array([1.30975, 1.88458, 1.45289, 3.84879, 1.01584])

# Outputs of two repetitions on the same inputs must agree to this relative
# round-off; the program is deterministic, so in practice they are equal.
REPEAT_RTOL = 1e-12

# Central differences with step 1e-5 agree with the closed-form Jacobian to
# about 2e-8 relative on SDD games at n=5; the bound leaves 50x headroom.
SPOT_CHECK_BOUND = 1e-6

# Model-free batch mean against the closed-form cost, in standard errors of
# the batch itself; the horizon-200 truncation bias is below exp(-40).
BATCH_Z_BOUND = 5.0

# Substream keys for the harness's own draws, apart from the program's.
_START_STREAM = 9001


@dataclass(frozen=True)
class Op:
    """Verdict of one checked operation."""

    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    collect: Callable
    check: Callable
    residual: Callable


def nash_residual(spec: game.GameSpec, finals) -> float:
    """Largest projected-gradient step left at any of the final profiles."""
    worst = 0.0
    for k in finals:
        k = np.asarray(k, dtype=float)
        step = k - spec.clip(k - game.exact_gradient(spec, k))
        worst = max(worst, float(np.max(np.abs(step))))
    return worst


def _quiet_cli(argv) -> int:
    """Run the CLI entry point with its report lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _repeats(value, ref_value) -> bool:
    value = np.asarray(value, dtype=float)
    ref_value = np.asarray(ref_value, dtype=float)
    return value.shape == ref_value.shape and bool(
        np.all(np.abs(value - ref_value) <= REPEAT_RTOL * np.maximum(1.0, np.abs(ref_value)))
    )


def _gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


# --- repro-model-free: the paper's headline model-free reproduction --------

REPRO_GATE = 0.1

# The seed the README's reproduction command uses and the 0.1 gates are
# claimed for; at other seeds the gates give a pass rate (ROADMAP item 5).
REPRO_SEED = 0


def repro_setup(seed: int) -> dict:
    """The paper's reproduction command at ``REPRO_SEED``, whatever ``seed`` is.

    The gates are Monte Carlo tolerances: at about one program seed in 200
    a correct run misses one (seed 3839533799 lands round 2 at 0.117 from
    its published final), so at an arbitrary seed they are not a check of
    correctness.  The run's work does not depend on the seed.
    """
    return {
        "argv": ["reproduce-paper", "--mode", "model-free", "--seed", str(REPRO_SEED)],
        "spec": presets.five_player_game(),
    }


def repro_run(inputs: dict, outdir: Path):
    return _quiet_cli(inputs["argv"] + ["--out", str(outdir)]), outdir


def repro_collect(inputs: dict, raw) -> dict:
    rc, outdir = raw
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    return {"rc": rc, "summary": summary}


def repro_check(inputs: dict, result: dict, ref) -> list[Op]:
    """One op per summary gate, recomputed from the written finals."""
    summary = result["summary"]
    finals = [np.asarray(r["final"], dtype=float) for r in summary["rounds"]]
    published = (presets.FIVE_PLAYER_ROUND1_FINAL, presets.FIVE_PLAYER_ROUND2_FINAL)
    recomputed = {
        "cross_round": _gap(finals[0], finals[1]),
        "round1_vs_published": _gap(finals[0], published[0]),
        "round2_vs_published": _gap(finals[1], published[1]),
    }
    ops = []
    for name, value in recomputed.items():
        entry = summary["checks"].get(name)
        ok = (
            result["rc"] == cli.EXIT_OK
            and entry is not None
            and entry["passed"] is True
            and value <= REPRO_GATE
            and abs(entry["value"] - value) <= REPEAT_RTOL
        )
        if ref is not None:
            ok = ok and _repeats(finals, [r["final"] for r in ref["summary"]["rounds"]])
        ops.append(Op(name, ok, f"gap {value:.3e} (gate {REPRO_GATE:g}), exit {result['rc']}"))
    return ops


def repro_residual(inputs: dict, result: dict) -> float:
    return nash_residual(inputs["spec"], [r["final"] for r in result["summary"]["rounds"]])


# --- exact-play: sequential exact gradient play from many starts -----------

EXACT_TOLERANCE = 1e-9
EXACT_STAGE_CAP = 20000
EXACT_AGREE = 1e-6
EXACT_KSTAR_TOL = 1e-4
EXACT_SEEDED_STARTS = 14


def exact_setup(seed: int, seeded_starts: int = EXACT_SEEDED_STARTS) -> dict:
    """The two published starts plus seeded uniform starts in the box.

    The seeded starts are a Latin hypercube: each is uniform in the box, and
    the stratification keeps the total stage count, hence the run's work,
    nearly the same from seed to seed.
    """
    spec = presets.five_player_game()
    rng = simulate.substream(seed, _START_STREAM)
    unit = qmc.LatinHypercube(d=spec.n, seed=rng).random(seeded_starts)
    starts = [presets.FIVE_PLAYER_ROUND1_START, presets.FIVE_PLAYER_ROUND2_START]
    starts += list(spec.k_lower + unit * (spec.k_upper - spec.k_lower))
    argvs = [
        [
            "learn", "--preset", "five-player", "--mode", "exact",
            "--stages", str(EXACT_STAGE_CAP), "--grad-tolerance", repr(EXACT_TOLERANCE),
            "--k0", ",".join(repr(float(v)) for v in start),
        ]
        for start in starts
    ]
    return {"spec": spec, "argvs": argvs}


def exact_run(inputs: dict, outdir: Path):
    runs = []
    for index, argv in enumerate(inputs["argvs"]):
        path = outdir / f"start{index}"
        runs.append((_quiet_cli(argv + ["--out", str(path)]), path / "history.csv"))
    return runs


def exact_collect(inputs: dict, raw) -> list[dict]:
    result = []
    for rc, path in raw:
        history = output.read_history_csv(path)
        result.append({"rc": rc, "final": history["k"][-1], "grad": history["g"][-1]})
    return result


def exact_check(inputs: dict, result: list[dict], ref) -> list[Op]:
    """One op per start: converged, on k*, and in agreement with the rest."""
    anchor = result[0]["final"]
    ops = []
    for index, run in enumerate(result):
        grad = float(np.max(np.abs(run["grad"])))
        to_kstar = _gap(run["final"], FIVE_PLAYER_KSTAR)
        to_anchor = _gap(run["final"], anchor)
        ok = (
            run["rc"] == cli.EXIT_OK
            and grad < EXACT_TOLERANCE
            and to_kstar <= EXACT_KSTAR_TOL
            and to_anchor <= EXACT_AGREE
        )
        if ref is not None:
            ok = ok and _repeats(run["final"], ref[index]["final"])
        ops.append(
            Op(f"start{index}", ok, f"|grad| {grad:.2e}, to k* {to_kstar:.2e}, to start0 {to_anchor:.2e}")
        )
    return ops


def exact_residual(inputs: dict, result: list[dict]) -> float:
    return nash_residual(inputs["spec"], [run["final"] for run in result])


# --- rosen-ensemble: the G + G^T certificate over random SDD games ---------

ROSEN_GAMES = 20
ROSEN_SAMPLES = 200


def rosen_setup(seed: int, games: int = ROSEN_GAMES) -> dict:
    return {"ensemble": analysis.MatrixEnsembleConfig(n=5, count=games, seed=seed)}


def rosen_run(inputs: dict, outdir: Path):
    sweep = analysis.conjecture_sweep(inputs["ensemble"], ROSEN_SAMPLES)
    payload = {
        "min_eig": sweep.min_eig,
        "spot_checked": sweep.spot_checked,
        "spot_check_max_rel_err": sweep.spot_check_max_rel_err,
        "games": [
            {
                "min_eig": rec.report.min_eig,
                "witness": [float(v) for v in rec.report.witness.k],
                "violated": rec.report.violated,
            }
            for rec in sweep.records
        ],
    }
    output.write_json(outdir / "rosen.json", payload)
    return sweep


def rosen_collect(inputs: dict, sweep) -> dict:
    games = []
    for rec in sweep.records:
        witness = rec.report.witness.k
        g = game.pseudogradient_jacobian(rec.spec, witness)
        games.append(
            {
                "min_eig": rec.report.min_eig,
                "witness": np.array(witness),
                "violated": rec.report.violated,
                "in_box": rec.spec.contains(witness),
                "at_witness": float(np.linalg.eigvalsh(g + g.T).min()),
            }
        )
    return {
        "games": games,
        "spot_checked": sweep.spot_checked,
        "spot_err": sweep.spot_check_max_rel_err,
    }


def rosen_check(inputs: dict, result: dict, ref) -> list[Op]:
    """One op per game, plus one for the ensemble's finite-difference checks."""
    ops = []
    for index, rec in enumerate(result["games"]):
        ok = (
            not rec["violated"]
            and rec["min_eig"] > 0.0
            and rec["in_box"]
            and abs(rec["at_witness"] - rec["min_eig"]) <= REPEAT_RTOL * max(1.0, abs(rec["min_eig"]))
        )
        if ref is not None:
            old = ref["games"][index]
            ok = ok and _repeats(rec["min_eig"], old["min_eig"]) and _repeats(rec["witness"], old["witness"])
        ops.append(Op(f"game{index}", ok, f"min eig {rec['min_eig']:.6g}"))
    spot_ok = result["spot_checked"] >= len(result["games"]) and result["spot_err"] <= SPOT_CHECK_BOUND
    ops.append(
        Op(
            "spot_checks",
            spot_ok,
            f"{result['spot_checked']} checks, max rel err {result['spot_err']:.2e} (bound {SPOT_CHECK_BOUND:g})",
        )
    )
    return ops


def rosen_residual(inputs: dict, result: dict) -> float:
    # No equilibrium is computed here: the sweep certifies uniqueness only.
    return 0.0


# --- model-free-n20: model-free play at n=20 with the exact integrator -----

N20_PLAYERS = 20
N20_BATCH = 2000
N20_STAGES = 50


def n20_setup(seed: int, stages: int = N20_STAGES) -> dict:
    """A seeded SDD game at n=20 and a seeded start in the box's lowest tenth.

    The box ceiling is ten times the diagonal rates, far above the
    equilibrium gains of these strongly stable systems; starting in the
    lowest tenth keeps the fifty stages near the equilibrium region.
    """
    rng = simulate.substream(seed, _START_STREAM)
    ensemble = analysis.MatrixEnsembleConfig(n=N20_PLAYERS, count=1, seed=seed)
    a = analysis.generate_sdd_matrix(ensemble, rng)
    spec = analysis.game_from_matrix(a, rng.uniform(0.0, 1.0, size=N20_PLAYERS))
    k0 = spec.k_lower + rng.random(spec.n) * (spec.k_upper - spec.k_lower) / analysis.BOX_FACTOR
    sim = simulate.SimConfig(batch_size=N20_BATCH, horizon=200.0, seed=seed, integrator="exact")
    config = learning.LearnConfig(stages=stages, step_size=1.0, mode="model-free", sim=sim)
    return {"spec": spec, "k0": k0, "config": config}


def n20_run(inputs: dict, outdir: Path):
    run = learning.run_gradient_play(inputs["spec"], inputs["k0"], inputs["config"])
    output.write_history(outdir / "history.csv", run)
    return run


def n20_collect(inputs: dict, run) -> dict:
    spec, config = inputs["spec"], inputs["config"]
    final = run.final.k
    batch = simulate.simulate_batch(spec, final, config.sim, stage=config.stages)
    costs = batch.per_player_cost
    return {
        "profiles": [rec.profile.k for rec in run.history],
        "costs": [rec.cost for rec in run.history],
        "final": final,
        "batch_mean": costs.mean(axis=0),
        "batch_se": costs.std(axis=0, ddof=1) / math.sqrt(costs.shape[0]),
        "closed_form": game.cost(spec, final),
    }


def n20_check(inputs: dict, result: dict, ref) -> list[Op]:
    """One op per stage, plus the final batch against the closed form."""
    spec = inputs["spec"]
    ops = []
    for stage, (k, cost) in enumerate(zip(result["profiles"], result["costs"])):
        ok = bool(np.all(np.isfinite(cost)) and np.all(cost > 0.0)) and spec.contains(k)
        ops.append(Op(f"stage{stage}", ok, f"min cost {float(np.min(cost)):.3e}"))
    z = np.abs(result["batch_mean"] - result["closed_form"]) / result["batch_se"]
    ok = (
        bool(np.all(z <= BATCH_Z_BOUND))
        and _repeats(result["costs"][-1], result["batch_mean"])
        and (ref is None or _repeats(result["final"], ref["final"]))
    )
    ops.append(Op("final_batch", ok, f"max |z| {float(np.max(z)):.2f} (bound {BATCH_Z_BOUND:g})"))
    return ops


def n20_residual(inputs: dict, result: dict) -> float:
    return nash_residual(inputs["spec"], [result["final"]])


WORKLOADS = {
    "repro-model-free": Workload(repro_setup, repro_run, repro_collect, repro_check, repro_residual),
    "exact-play": Workload(exact_setup, exact_run, exact_collect, exact_check, exact_residual),
    "rosen-ensemble": Workload(rosen_setup, rosen_run, rosen_collect, rosen_check, rosen_residual),
    "model-free-n20": Workload(n20_setup, n20_run, n20_collect, n20_check, n20_residual),
}
