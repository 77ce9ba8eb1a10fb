"""Command-line interface.

Subcommands: ``learn``, ``reproduce-paper``, ``check-rosen``, ``gen-matrix``,
``simulate``.  Runs are configured by an optional JSON file plus flags
(flags win); ``NASHLQ_SEED`` supplies a default seed.  Histories and reports
are flat CSV/JSON files meant for external plotting tools.

Exit codes: 0 success, 1 uniqueness-condition violation found,
2 invalid configuration, 3 solver failure (unstable profile),
4 a ``reproduce-paper`` gate failed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .analysis import (
    PreconditionViolated,
    conjecture_sweep,
    generate_sdd_matrix,
    rosen_sweep,
    two_player_mu,
)
from .config import ConfigError, load_ensemble, load_experiment, load_matrix, read_config, resolve
from .game import GameSpec, NotPositiveDefinite, cost, stability_margin
from .learning import _MODES, run_gradient_play
from .output import HISTORY_FORMATS, write_history, write_json
from .presets import (
    FIVE_PLAYER_ROUND1_FINAL,
    FIVE_PLAYER_ROUND1_START,
    FIVE_PLAYER_ROUND2_FINAL,
    FIVE_PLAYER_ROUND2_START,
    FIVE_PLAYER_BATCH,
    FIVE_PLAYER_HORIZON,
    FIVE_PLAYER_STAGES,
    PRESETS,
)
from .simulate import _INTEGRATORS, monte_carlo_cost, substream

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_GATE = 4

# Gradient-play iterates stay below the published starting gains for this
# system, so quadrature at this step keeps the sampled-cost bias well under
# the Monte Carlo noise floor; 0.1 s is too coarse for the fastest closed
# loop modes here (rates up to ~8 1/s once gains approach 4).
REPRODUCE_DT = 0.01
EXACT_STAGE_CAP = 20000
EXACT_TOLERANCE = 1e-9

# The study's settings, for each reproduce-paper flag left out.
REPRODUCE_DEFAULTS = {
    "preset": "five-player",
    "mode": "model-free",
    "batch_size": FIVE_PLAYER_BATCH,
    "horizon": FIVE_PLAYER_HORIZON,
    "dt": REPRODUCE_DT,
    "output_dir": "runs/reproduce-paper",
}

_K0_STREAM = 101


def _flt(values: np.ndarray) -> list[float]:
    return [float(v) for v in np.asarray(values).ravel()]


def _fmt_vec(values) -> str:
    return "[" + ", ".join(f"{float(v):.6g}" for v in np.asarray(values).ravel()) + "]"


def _game_dict(spec: GameSpec) -> dict:
    return {
        "a": [list(map(float, row)) for row in spec.a],
        "rho": _flt(spec.rho),
        "k_lower": _flt(spec.k_lower),
        "k_upper": _flt(spec.k_upper),
    }


def _overrides(args) -> dict:
    """The flags under their config keys; an omitted flag is None."""
    return dict(vars(args), output_dir=args.out, k0=_parse_profile(getattr(args, "k0", None)))


def _parse_profile(text):
    if text is None:
        return None
    try:
        profile = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"could not parse profile {text!r}; expected comma-separated floats") from None
    if not all(math.isfinite(value) for value in profile):
        raise ConfigError(f"profile {text!r} has a non-finite entry")
    return profile


def cmd_learn(args) -> int:
    exp = load_experiment(args.config, _overrides(args))
    k0 = exp.k0
    if k0 is None:
        rng = substream(exp.sim.seed, _K0_STREAM)
        k0 = exp.game.k_lower + rng.random(exp.game.n) * (exp.game.k_upper - exp.game.k_lower)
    run = run_gradient_play(exp.game, k0, exp.learn)

    exp.output_dir.mkdir(parents=True, exist_ok=True)
    _, suffix = HISTORY_FORMATS[exp.format]
    history_path = write_history(exp.output_dir / f"history{suffix}", run, exp.format)

    final_grad = run.history[-1].grad if run.history else None
    print(f"mode {exp.learn.mode}: {run.stages_used} stages, converged={run.converged}")
    print(f"initial profile: {_fmt_vec(k0)}")
    print(f"final profile:   {_fmt_vec(run.final.k)}")
    if final_grad is not None:
        print(f"final max |gradient|: {np.max(np.abs(final_grad)):.3e}")
    print(f"history written to {history_path}")
    return EXIT_OK


def cmd_reproduce_paper(args) -> int:
    overrides = _overrides(args)
    overrides.update(resolve(overrides, {}, REPRODUCE_DEFAULTS))
    exact = overrides["mode"] == "exact"
    if exact:
        by_mode = {"stages": EXACT_STAGE_CAP, "grad_tolerance": EXACT_TOLERANCE}
    else:
        by_mode = {"stages": FIVE_PLAYER_STAGES, "grad_tolerance": 0.0}
    overrides.update(resolve(overrides, {}, by_mode))
    exp = load_experiment(None, overrides)
    # Both rounds share the per-stage noise substreams by default, so they
    # differ only in their starting profiles; --independent-rounds gives the
    # second round its own stream.
    learns = [exp.learn, exp.learn]
    if args.independent_rounds:
        learns[1] = replace(exp.learn, sim=replace(exp.sim, seed=exp.sim.seed + 1))

    starts = (FIVE_PLAYER_ROUND1_START, FIVE_PLAYER_ROUND2_START)
    runs = [run_gradient_play(exp.game, start, learn) for start, learn in zip(starts, learns)]

    out = exp.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for index, run in enumerate(runs, start=1):
        write_history(out / f"round{index}.csv", run, "csv")

    finals = [run.final.k for run in runs]
    cross_gap = float(np.max(np.abs(finals[0] - finals[1])))
    published = (FIVE_PLAYER_ROUND1_FINAL, FIVE_PLAYER_ROUND2_FINAL)

    rows = [
        (label, index, k)
        for label, profiles in (("initial", starts), ("final", finals), ("published_final", published))
        for index, k in enumerate(profiles, start=1)
    ]
    header = ["row", "round"] + [f"player_{i}" for i in range(1, exp.game.n + 1)]
    lines = [",".join(header)]
    lines += [f"{label},{index}," + ",".join(repr(float(v)) for v in k) for label, index, k in rows]
    (out / "comparison.csv").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    gaps = {"cross_round": cross_gap}
    if not exact:
        for index, (final, target) in enumerate(zip(finals, published), start=1):
            gaps[f"round{index}_vs_published"] = float(np.max(np.abs(final - target)))
    tolerance = 1e-6 if exact else 0.1
    checks = {
        name: {"tolerance": tolerance, "value": gap, "passed": gap <= tolerance}
        for name, gap in gaps.items()
    }
    passed = all(c["passed"] for c in checks.values())

    summary = {
        "mode": exp.learn.mode,
        "seed": exp.sim.seed,
        "round_seeds": [learn.sim.seed for learn in learns],
        "stages": exp.learn.stages,
        "step_size": exp.learn.step_size,
        "batch_size": exp.sim.batch_size,
        "horizon": exp.sim.horizon,
        "dt": exp.sim.dt,
        "rounds": [
            {
                "start": _flt(start),
                "final": _flt(final),
                "stages_used": run.stages_used,
                "converged": run.converged,
            }
            for start, final, run in zip(starts, finals, runs)
        ],
        "published_finals": [_flt(p) for p in published],
        "cross_round_gap": cross_gap,
        "checks": checks,
        "passed": passed,
    }
    write_json(out / "summary.json", summary)

    print(f"{'row':<16}{'round':<7}" + "".join(f"{h:<13}" for h in header[2:]).rstrip())
    for label, index, k in rows:
        print(f"{label:<16}{index:<7}" + "".join(f"{float(v):<13.4f}" for v in k).rstrip())
    for name, check in checks.items():
        verdict = "PASS" if check["passed"] else "FAIL"
        print(f"{name}: {check['value']:.3e} (tolerance {check['tolerance']:g}): {verdict}")
    print(f"overall: {'PASS' if passed else 'FAIL'}")
    print(f"reports written to {out}")
    return EXIT_OK if passed else EXIT_GATE


def cmd_check_rosen(args) -> int:
    overrides = _overrides(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    raw = read_config(args.config)
    if "ensemble" in raw:
        ensemble, sweep = load_ensemble(raw["ensemble"], overrides)
        result = conjecture_sweep(ensemble, **sweep)
        payload = {
            "ensemble": {**asdict(ensemble), **sweep},
            "min_eig": result.min_eig,
            "spot_checked": result.spot_checked,
            "spot_check_max_rel_err": result.spot_check_max_rel_err,
            "violations": [
                {
                    "matrix_index": rec.matrix_index,
                    "seed": rec.seed,
                    "game": _game_dict(rec.spec),
                    "min_eig": rec.report.min_eig,
                    "witness": _flt(rec.report.witness.k),
                    "samples": rec.report.samples,
                }
                for rec in result.violations
            ],
        }
        write_json(out, payload)
        print(
            f"{ensemble.count} matrices x {sweep['samples_per_matrix']} samples "
            f"({sweep['generator']}): "
            f"min eig {result.min_eig:.6g}, {len(result.violations)} violation(s)"
        )
        print(f"report written to {out}")
        return EXIT_VIOLATION if result.violations else EXIT_OK

    exp = load_experiment(args.config, overrides)
    samples = resolve(overrides, {}, {"samples": 1000})["samples"]
    report = rosen_sweep(exp.game, samples, seed=exp.sim.seed)
    payload = {
        "game": _game_dict(exp.game),
        "seed": exp.sim.seed,
        "samples": report.samples,
        "min_eig": report.min_eig,
        "witness": _flt(report.witness.k),
        "violated": report.violated,
    }
    print(f"min eig of G + G^T over {report.samples} samples: {report.min_eig:.6g}")
    print(f"witness profile: {_fmt_vec(report.witness.k)}")
    if exp.game.n == 2:
        a = exp.game.a
        try:
            witness_mu = two_player_mu(a[0, 0], a[0, 1], a[1, 1], *report.witness.k)
            corner_mu = two_player_mu(a[0, 0], a[0, 1], a[1, 1], *exp.game.k_lower)
        except PreconditionViolated as err:
            print(f"mu not reported: {err}")
        else:
            payload["mu"] = {"at_witness": witness_mu, "at_lower_corner": corner_mu}
            print(f"mu at witness: {witness_mu:.6g}; mu at lower corner: {corner_mu:.6g}")
    write_json(out, payload)
    print(f"report written to {out}")
    return EXIT_VIOLATION if report.violated else EXIT_OK


def cmd_gen_matrix(args) -> int:
    overrides = _overrides(args)
    ensemble = load_matrix(args.config, overrides)
    a = generate_sdd_matrix(ensemble, substream(ensemble.seed, 0))
    offdiag = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    margins = np.abs(np.diag(a)) - offdiag
    min_eig = float(np.linalg.eigvalsh(a).min())

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(
        out,
        {
            "n": ensemble.n,
            "seed": ensemble.seed,
            "offdiag_scale": ensemble.offdiag_scale,
            "dominance_margin": ensemble.dominance_margin,
            "matrix": [list(map(float, row)) for row in a],
            "verification": {
                "symmetric": bool(np.array_equal(a, a.T)),
                "negative_diagonal": bool(np.all(np.diag(a) < 0)),
                "gershgorin_margins": _flt(margins),
                "strictly_diagonally_dominant": bool(np.all(margins > 0)),
                "min_eigenvalue": min_eig,
            },
        },
    )
    print(f"{ensemble.n}x{ensemble.n} matrix, gershgorin margins {_fmt_vec(margins)}")
    print(f"smallest eigenvalue: {min_eig:.6g}")
    print(f"matrix written to {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    exp = load_experiment(args.config, _overrides(args))
    k = _parse_profile(args.k)
    if k is None:
        k = 0.5 * (exp.game.k_lower + exp.game.k_upper)
    k = np.asarray(k, dtype=float)
    if k.shape != (exp.game.n,):
        raise ConfigError(f"profile needs {exp.game.n} entries, got {k.shape[0] if k.ndim else 1}")

    estimate = monte_carlo_cost(exp.game, k, exp.sim)
    closed_form = cost(exp.game, k)
    rel = np.abs(estimate - closed_form) / np.abs(closed_form)

    print(f"profile: {_fmt_vec(k)}  (stability margin {stability_margin(exp.game, k):.6g})")
    print(
        f"batch {exp.sim.batch_size}, horizon {exp.sim.horizon:g}, "
        f"dt {exp.sim.dt:g}, integrator {exp.sim.integrator}, seed {exp.sim.seed}"
    )
    print("player   estimate      closed-form   rel-error")
    for i in range(exp.game.n):
        print(f"{i + 1:>6}   {estimate[i]:<12.6g}  {closed_form[i]:<12.6g}  {rel[i]:.3e}")

    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["player,k,estimate,closed_form,rel_error"]
        for i in range(exp.game.n):
            lines.append(
                f"{i + 1},{float(k[i])!r},{float(estimate[i])!r},"
                f"{float(closed_form[i])!r},{float(rel[i])!r}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        print(f"table written to {path}")
    return EXIT_OK


def _add_common(
    parser: argparse.ArgumentParser, *, sim_flags: bool = True, config: bool = True
) -> None:
    if config:
        parser.add_argument("--config", metavar="PATH", help="JSON experiment config")
    parser.add_argument("--seed", type=int, metavar="U64", help="RNG seed (default: $NASHLQ_SEED or 0)")
    parser.add_argument("--out", metavar="PATH", help="output directory or file")
    if sim_flags:
        parser.add_argument(
            "--batch", dest="batch_size", type=int, metavar="N", help="Monte Carlo batch size"
        )
        parser.add_argument("--horizon", type=float, metavar="F", help="sampling horizon in seconds")
        parser.add_argument("--dt", type=float, metavar="F", help="quadrature step in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashlq",
        description="Gradient-play Nash equilibrium seeking for decentralized LQ games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="run projected gradient play and write the staged history")
    _add_common(learn)
    learn.add_argument("--preset", choices=list(PRESETS))
    learn.add_argument("--mode", choices=_MODES)
    learn.add_argument("--stages", type=int, metavar="N")
    learn.add_argument("--step-size", dest="step_size", type=float, metavar="F")
    learn.add_argument("--grad-tolerance", dest="grad_tolerance", type=float, metavar="F")
    learn.add_argument("--k0", metavar="CSV", help="starting profile, comma-separated")
    learn.add_argument("--integrator", choices=_INTEGRATORS)
    learn.add_argument("--format", choices=list(HISTORY_FORMATS))
    learn.set_defaults(func=cmd_learn)

    repro = sub.add_parser(
        "reproduce-paper",
        help="replay both rounds of the bundled 5-player study and check tolerances",
    )
    _add_common(repro, config=False)
    repro.add_argument("--mode", choices=_MODES)
    repro.add_argument("--stages", type=int, metavar="N")
    repro.add_argument("--step-size", dest="step_size", type=float, metavar="F")
    repro.add_argument(
        "--independent-rounds",
        action="store_true",
        help="give round 2 its own noise stream instead of sharing round 1's",
    )
    repro.set_defaults(func=cmd_reproduce_paper)

    rosen = sub.add_parser(
        "check-rosen", help="sweep G + G^T positive definiteness over the action box"
    )
    _add_common(rosen, sim_flags=False)
    rosen.add_argument("--preset", choices=list(PRESETS))
    rosen.add_argument("--samples", type=int, metavar="N", help="box samples (per matrix)")
    rosen.set_defaults(func=cmd_check_rosen, out="rosen.json")

    gen = sub.add_parser("gen-matrix", help="generate a random SDD matrix with verification report")
    _add_common(gen, sim_flags=False)
    gen.add_argument("--n", type=int, metavar="N", help="matrix dimension")
    gen.add_argument("--offdiag-scale", dest="offdiag_scale", type=float, metavar="F")
    gen.add_argument(
        "--margin", dest="dominance_margin", type=float, metavar="F", help="diagonal dominance margin"
    )
    gen.set_defaults(func=cmd_gen_matrix, out="matrix.json")

    simulate = sub.add_parser(
        "simulate", help="Monte Carlo cost estimate at a profile vs the closed form"
    )
    _add_common(simulate)
    simulate.add_argument("--preset", choices=list(PRESETS))
    simulate.add_argument("--k", metavar="CSV", help="profile to simulate, comma-separated")
    simulate.add_argument("--integrator", choices=_INTEGRATORS)
    simulate.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NotPositiveDefinite as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
