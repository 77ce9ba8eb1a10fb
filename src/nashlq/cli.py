"""Command-line interface.

Subcommands: ``learn``, ``reproduce-paper``, ``check-rosen``, ``gen-matrix``,
``simulate``.  Runs are configured by an optional JSON file plus flags
(flags win); ``NASHLQ_SEED`` supplies a default seed.  Histories and reports
are flat CSV/JSON files meant for external plotting tools.

Exit codes: 0 success, 1 uniqueness-condition violation found, 2 invalid
configuration (an action box too wide to sweep included), an output that
cannot be written, or a request too large for memory, 3 solver failure (an
unstable profile, or one the pivot test refuses as numerically singular), 4
a ``reproduce-paper`` gate failed.  Each subcommand runs its work and writes
inside one output guard, :func:`_output`: a run that fails after making its
output location, whatever the exit code, or is interrupted, removes the
directories it made that are still empty.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .analysis import PreconditionViolated, conjecture_sweep, rosen_sweep, two_player_mu
from .config import (
    ConfigError, _draw_matrix, _experiment, _read_profile, load_ensemble, load_experiment, load_matrix,
    read_config, resolve,
)
from .game import GameSpec, NotPositiveDefinite, cost, stability_margin
from .learning import _MODES, run_gradient_play, run_lockstep
from .output import HISTORY_FORMATS, write_csv, write_history, write_json
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
from .simulate import _INTEGRATORS, _START_KEY, monte_carlo_cost, substream

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_GATE = 4

# The bundled study, per mode, as a config file that reproduce-paper's flags
# override.  Gradient-play iterates stay below the published starting gains
# for this system, so quadrature at dt = 0.01 keeps the sampled-cost bias well
# under the Monte Carlo noise floor; 0.1 s is too coarse for the fastest closed
# loop modes here (rates up to ~8 1/s once gains approach 4).
STUDY = {
    mode: {
        "game": {"preset": "five-player"},
        "learn": {"mode": mode, "stages": stages, "grad_tolerance": tolerance},
        "sim": {"batch_size": FIVE_PLAYER_BATCH, "horizon": FIVE_PLAYER_HORIZON, "dt": 0.01},
        "output_dir": "runs/reproduce-paper",
    }
    for mode, stages, tolerance in (("model-free", FIVE_PLAYER_STAGES, 0.0), ("exact", 20000, 1e-9))
}


class OutputError(ValueError):
    """An output file or directory that cannot be created or written."""


@contextlib.contextmanager
def _output(path, directory: bool = False):
    """Guard a command's work and writes, run in the ``with`` block; yields ``path`` as a Path.

    Makes the output location before the block runs: the directory itself,
    or a file's parent, refusing an existing directory as the file.  An
    ``OSError`` raised here or in the block is reported as an
    :class:`OutputError`.  If anything is raised, an interrupt included,
    the directories made here that are still empty are removed, innermost
    first, before it propagates.
    """
    path = Path(path)
    target = path if directory else path.parent
    made = []
    try:
        made = list(itertools.takewhile(lambda p: not p.exists(), (target, *target.parents)))
        if not directory and path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        target.mkdir(parents=True, exist_ok=True)
        yield path
    except BaseException as err:
        for new in made:
            with contextlib.suppress(OSError):
                new.rmdir()
        if isinstance(err, OSError):
            raise OutputError(f"cannot write {err.filename or path}: {err.strerror or err}") from err
        raise


def _fmt_vec(values) -> str:
    return "[" + ", ".join(f"{float(v):.6g}" for v in np.asarray(values).ravel()) + "]"


def _sweep_record(spec: GameSpec, seed, report) -> dict:
    """One game's ``check-rosen`` JSON record: the game, its seed and its sweep's result."""
    return {
        "game": {name: getattr(spec, name).tolist() for name in ("a", "rho", "k_lower", "k_upper")},
        "seed": seed,
        "samples": report.samples,
        "min_eig": report.min_eig,
        "witness": report.witness.k.tolist(),
    }


def cmd_learn(args) -> int:
    exp = load_experiment(args.config, vars(args))
    with _output(exp.output_dir, directory=True) as out:
        k0 = exp.k0
        if k0 is None:
            rng = substream(exp.sim.seed, *_START_KEY)
            k0 = exp.game.k_lower + rng.random(exp.game.n) * (exp.game.k_upper - exp.game.k_lower)
        run = run_gradient_play(exp.game, k0, exp.learn)
        _, suffix = HISTORY_FORMATS[exp.format]
        history_path = write_history(out / f"history{suffix}", run, exp.format)

    print(f"mode {exp.learn.mode}: {run.stages_used} stages, converged={run.converged}")
    print(f"initial profile: {_fmt_vec(k0)}")
    print(f"final profile:   {_fmt_vec(run.final.k)}")
    print(f"final max |gradient|: {np.max(np.abs(run.grads[-1])):.3e}")
    print(f"history written to {history_path}")
    return EXIT_OK


def cmd_reproduce_paper(args) -> int:
    exp = _experiment(STUDY[args.mode or "model-free"], vars(args))
    exact = exp.learn.mode == "exact"
    if args.independent_rounds and exact:
        raise ConfigError("--independent-rounds applies to model-free mode only; exact play draws no noise")
    with _output(exp.output_dir, directory=True) as out:
        starts = (FIVE_PLAYER_ROUND1_START, FIVE_PLAYER_ROUND2_START)
        # By default both rounds play as one stack on the same per-stage noise
        # substreams, so they differ only in their starting profiles;
        # --independent-rounds plays each round alone, round 2 on its own stream.
        learns = [exp.learn, exp.learn]
        if args.independent_rounds:
            learns[1] = replace(exp.learn, sim=replace(exp.sim, seed=exp.sim.seed + 1))
            runs = [run_lockstep(exp.game, [start], learn)[0] for start, learn in zip(starts, learns)]
        else:
            runs = run_lockstep(exp.game, starts, exp.learn)

        finals = [run.final.k for run in runs]
        cross_gap = float(np.max(np.abs(finals[0] - finals[1])))
        published = (FIVE_PLAYER_ROUND1_FINAL, FIVE_PLAYER_ROUND2_FINAL)

        rows = [
            (label, index, k)
            for label, profiles in (("initial", starts), ("final", finals), ("published_final", published))
            for index, k in enumerate(profiles, start=1)
        ]
        header = ["row", "round"] + [f"player_{i}" for i in range(1, exp.game.n + 1)]

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
                    "start": start.tolist(),
                    "final": final.tolist(),
                    "stages_used": run.stages_used,
                    "converged": run.converged,
                }
                for start, final, run in zip(starts, finals, runs)
            ],
            "published_finals": [p.tolist() for p in published],
            "cross_round_gap": cross_gap,
            "checks": checks,
            "passed": passed,
        }
        for index, run in enumerate(runs, start=1):
            write_history(out / f"round{index}.csv", run, "csv")
        write_csv(out / "comparison.csv", header, ([label, index, *k.tolist()] for label, index, k in rows))
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
    overrides = vars(args)
    raw = read_config(args.config)
    if "ensemble" in raw:
        ensemble, sweep = load_ensemble(raw, overrides)
        with _output(args.output_dir) as out:
            result = conjecture_sweep(ensemble, **sweep)
            payload = {
                "ensemble": {**asdict(ensemble), **sweep},
                "min_eig": result.min_eig,
                "spot_checked": result.spot_checked,
                "spot_check_max_rel_err": result.spot_check_max_rel_err,
                "violations": [
                    {**_sweep_record(rec.spec, rec.seed, rec.report), "matrix_index": rec.matrix_index}
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

    exp = _experiment(raw, overrides)
    samples = resolve(overrides, {}, {"samples": 1000})["samples"]
    with _output(args.output_dir) as out:
        report = rosen_sweep(exp.game, samples, seed=exp.sim.seed)
        payload = {**_sweep_record(exp.game, exp.sim.seed, report), "violated": report.violated}
        lines = [
            f"min eig of G + G^T over {report.samples} samples: {report.min_eig:.6g}",
            f"witness profile: {_fmt_vec(report.witness.k)}",
        ]
        if exp.game.n == 2:
            a = exp.game.a
            try:
                witness_mu = two_player_mu(a[0, 0], a[0, 1], a[1, 1], *report.witness.k)
                corner_mu = two_player_mu(a[0, 0], a[0, 1], a[1, 1], *exp.game.k_lower)
            except PreconditionViolated as err:
                lines.append(f"mu not reported: {err}")
            else:
                payload["mu"] = {"at_witness": witness_mu, "at_lower_corner": corner_mu}
                lines.append(f"mu at witness: {witness_mu:.6g}; mu at lower corner: {corner_mu:.6g}")
        write_json(out, payload)
    print(*lines, f"report written to {out}", sep="\n")
    return EXIT_VIOLATION if report.violated else EXIT_OK


def cmd_gen_matrix(args) -> int:
    ensemble = load_matrix(args.config, vars(args))
    with _output(args.output_dir) as out:
        a = _draw_matrix(ensemble)[0]
        offdiag = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
        margins = np.abs(np.diag(a)) - offdiag
        min_eig = float(np.linalg.eigvalsh(a).min())
        payload = {
            "n": ensemble.n,
            "seed": ensemble.seed,
            "offdiag_scale": ensemble.offdiag_scale,
            "dominance_margin": ensemble.dominance_margin,
            "matrix": a.tolist(),
            "verification": {
                "symmetric": bool(np.array_equal(a, a.T)),
                "negative_diagonal": bool(np.all(np.diag(a) < 0)),
                "gershgorin_margins": margins.tolist(),
                "strictly_diagonally_dominant": bool(np.all(margins > 0)),
                "min_eigenvalue": min_eig,
            },
        }
        write_json(out, payload)
    print(f"{ensemble.n}x{ensemble.n} matrix, gershgorin margins {_fmt_vec(margins)}")
    print(f"smallest eigenvalue: {min_eig:.6g}")
    print(f"matrix written to {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    exp = load_experiment(args.config, vars(args))
    k = _read_profile(args.k, 0.5 * (exp.game.k_lower + exp.game.k_upper), exp.game.n, "k")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, before --out is made
        closed_form = cost(exp.game, k)  # an unstable profile raises here
    if not np.all(np.isfinite(closed_form)):
        raise ConfigError(f"the closed-form cost overflows at k = {_fmt_vec(k)}")
    with _output(args.output_dir) if args.output_dir else contextlib.nullcontext() as path:
        estimate = monte_carlo_cost(exp.game, k, exp.sim)
        rel = np.abs(estimate - closed_form) / np.abs(closed_form)
        if path:
            columns = (k, estimate, closed_form, rel)
            rows = zip(range(1, exp.game.n + 1), *(column.tolist() for column in columns))
            write_csv(path, ["player", "k", "estimate", "closed_form", "rel_error"], rows)

    print(f"profile: {_fmt_vec(k)}  (stability margin {stability_margin(exp.game, k):.6g})")
    dt = f"dt {exp.sim.dt:g}, " if exp.sim.integrator == "quadrature" else ""
    print(
        f"batch {exp.sim.batch_size}, horizon {exp.sim.horizon:g}, "
        f"{dt}integrator {exp.sim.integrator}, seed {exp.sim.seed}"
    )
    print("player   estimate      closed-form   rel-error")
    for i in range(exp.game.n):
        print(f"{i + 1:>6}   {estimate[i]:<12.6g}  {closed_form[i]:<12.6g}  {rel[i]:.3e}")
    if path:
        print(f"table written to {path}")
    return EXIT_OK


# Each flag's argparse keywords; ``dest``, stated where argparse would derive
# another, is the config key the flag sets.
_FLAGS = {
    "--config": dict(metavar="PATH", help="JSON experiment config"),
    "--seed": dict(type=int, metavar="U64", help="RNG seed (default: $NASHLQ_SEED or 0)"),
    "--out": dict(dest="output_dir", metavar="PATH", help="output directory or file"),
    "--batch": dict(dest="batch_size", type=int, metavar="N", help="Monte Carlo batch size"),
    "--horizon": dict(type=float, metavar="F", help="sampling horizon in seconds"),
    "--dt": dict(type=float, metavar="F", help="quadrature step in seconds"),
    "--preset": dict(choices=list(PRESETS)),
    "--mode": dict(choices=_MODES),
    "--stages": dict(type=int, metavar="N"),
    "--step-size": dict(type=float, metavar="F"),
    "--grad-tolerance": dict(type=float, metavar="F"),
    "--k0": dict(metavar="CSV", help="starting profile, comma-separated"),
    "--k": dict(metavar="CSV", help="profile to simulate, comma-separated"),
    "--integrator": dict(choices=_INTEGRATORS),
    "--format": dict(choices=list(HISTORY_FORMATS)),
    "--independent-rounds": dict(
        action="store_true", help="give round 2 its own noise stream instead of sharing round 1's"
    ),
    "--samples": dict(type=int, metavar="N", help="box samples (per matrix)"),
    "--n": dict(type=int, metavar="N", help="matrix dimension"),
    "--offdiag-scale": dict(type=float, metavar="F"),
    "--margin": dict(dest="dominance_margin", type=float, metavar="F", help="diagonal dominance margin"),
}

# Each subcommand's handler, called with the parsed flags, help line, default
# --out, and flags in help order.
_COMMANDS = {
    "learn": (cmd_learn, "run projected gradient play and write the staged history", None,
              "--config --seed --out --batch --horizon --dt --preset --mode --stages --step-size"
              " --grad-tolerance --k0 --integrator --format"),
    "reproduce-paper": (cmd_reproduce_paper,
                        "replay both rounds of the bundled 5-player study and check tolerances", None,
                        "--seed --out --batch --horizon --dt --mode --stages --step-size"
                        " --independent-rounds"),
    "check-rosen": (cmd_check_rosen, "sweep G + G^T positive definiteness over the action box",
                    "rosen.json", "--config --seed --out --preset --samples"),
    "gen-matrix": (cmd_gen_matrix, "generate a random SDD matrix with verification report",
                   "matrix.json", "--config --seed --out --n --offdiag-scale --margin"),
    "simulate": (cmd_simulate, "Monte Carlo cost estimate at a profile vs the closed form", None,
                 "--config --seed --out --batch --horizon --dt --preset --k --integrator"),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for every subcommand and flag."""
    parser = argparse.ArgumentParser(
        prog="nashlq",
        description="Gradient-play Nash equilibrium seeking for decentralized LQ games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, out, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag in flags.split():
            command.add_argument(flag, **_FLAGS[flag])
        command.set_defaults(func=func, output_dir=out)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as err:  # numpy's MemoryError names the allocation
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except NotPositiveDefinite as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
