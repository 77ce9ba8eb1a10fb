import json
import sys
import warnings

import numpy as np
import pytest

from nashlq import cli, config
from nashlq.cli import EXIT_GATE, build_parser, main
from nashlq.learning import LearnConfig, run_gradient_play
from nashlq.output import read_history_csv
from nashlq.presets import FIVE_PLAYER_ROUND1_START, FIVE_PLAYER_ROUND2_START, preset_game
from nashlq.simulate import SimConfig
from nashlq.simulate import substream

SCALAR_EQUILIBRIUM = np.sqrt(2.0) - 1.0


def run_cli(*argv):
    return main(list(argv))


def test_each_subcommand_takes_exactly_its_flags():
    expected = {
        "learn": {
            "--config", "--seed", "--out", "--batch", "--horizon", "--dt", "--preset", "--mode",
            "--stages", "--step-size", "--grad-tolerance", "--k0", "--integrator", "--format",
        },
        "reproduce-paper": {
            "--seed", "--out", "--batch", "--horizon", "--dt", "--mode", "--stages", "--step-size",
            "--independent-rounds",
        },
        "check-rosen": {"--config", "--seed", "--out", "--preset", "--samples"},
        "gen-matrix": {"--config", "--seed", "--out", "--n", "--offdiag-scale", "--margin"},
        "simulate": {
            "--config", "--seed", "--out", "--batch", "--horizon", "--dt", "--preset", "--k",
            "--integrator",
        },
    }
    parser = build_parser()
    commands = next(action.choices for action in parser._actions if isinstance(action.choices, dict))
    found = {
        name: {flag for action in command._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, command in commands.items()
    }
    assert found == expected


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        outputs = []
        for _ in range(2):
            assert run_cli("learn", "--preset", "scalar", "--stages", "3", "--out", str(tmp_path)) == 0
            outputs.append(capsys.readouterr().out)
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert outputs[0] == outputs[1]
    assert build_parser() is not build_parser()


class TestLearn:
    def test_scalar_preset_reaches_equilibrium(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "learn", "--preset", "scalar", "--k0", "1.0", "--stages", "300",
            "--out", str(out),
        )
        assert code == 0
        data = read_history_csv(out / "history.csv")
        assert abs(data["k"][-1, 0] - SCALAR_EQUILIBRIUM) < 1e-6
        assert data["stage"][0] == 0 and data["k"][0, 0] == 1.0

    def test_zero_stages_is_config_error(self, tmp_path):
        assert run_cli("learn", "--preset", "scalar", "--stages", "0", "--out", str(tmp_path)) == 2

    def test_missing_game_is_config_error(self, tmp_path):
        assert run_cli("learn", "--out", str(tmp_path)) == 2

    def test_bad_config_file_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert run_cli("learn", "--config", str(bad), "--out", str(tmp_path)) == 2

    def test_out_of_box_k0_is_config_error(self, tmp_path):
        assert (
            run_cli("learn", "--preset", "scalar", "--k0", "25.0", "--out", str(tmp_path)) == 2
        )

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(
            json.dumps(
                {
                    "game": {"a": [[-1.0]], "rho": 1.0, "k_upper": 3.0},
                    "learn": {"stages": 5, "k0": [1.0]},
                    "output_dir": str(tmp_path / "from_file"),
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "from_flag"
        assert run_cli("learn", "--config", str(config), "--stages", "40", "--out", str(out)) == 0
        data = read_history_csv(out / "history.csv")
        assert data["stage"].shape == (41,)  # flag beat the file's 5 stages

    def test_config_file_k0_is_used(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(
            json.dumps({"game": {"preset": "scalar"}, "learn": {"stages": 3, "k0": [1.0]}}),
            encoding="utf-8",
        )
        assert run_cli("learn", "--config", str(config), "--out", str(tmp_path / "run")) == 0
        assert "initial profile: [1]" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [0, 7])
    def test_random_start_is_drawn_apart_from_every_stage_stream(self, tmp_path, seed):
        out = tmp_path / "run"
        argv = ["learn", "--preset", "scalar", "--stages", "1", "--seed", str(seed), "--out", str(out)]
        assert run_cli(*argv) == 0
        spec = preset_game("scalar")
        start = read_history_csv(out / "history.csv")["k"][0, 0]
        unit = (start - spec.k_lower[0]) / (spec.k_upper[0] - spec.k_lower[0])
        # Model-free stage t draws its batch's first state from the unit
        # draw that opens the (seed, t) stream.
        firsts = np.array([substream(seed, stage).random() for stage in range(1001)])
        assert np.min(np.abs(firsts - unit)) > 1e-9

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "learn", "--preset", "scalar", "--k0", "1.0", "--stages", "3",
            "--format", "json-lines", "--out", str(out),
        )
        assert code == 0
        assert (out / "history.jsonl").exists()

    def test_model_free_smoke(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "learn", "--preset", "scalar", "--mode", "model-free", "--k0", "1.0",
            "--stages", "5", "--batch", "50", "--horizon", "20", "--dt", "0.1",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0


class TestReproducePaper:
    def test_exact_mode_rounds_agree(self, tmp_path):
        out = tmp_path / "rp"
        assert run_cli("reproduce-paper", "--mode", "exact", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"]
        assert summary["checks"]["cross_round"]["value"] <= 1e-6

        round1 = read_history_csv(out / "round1.csv")
        round2 = read_history_csv(out / "round2.csv")
        assert np.array_equal(round1["k"][0], [0.69, 4.41, 3.69, 2.39, 4.24])
        assert np.array_equal(round2["k"][0], [1.15, 0.53, 2.82, 1.59, 0.54])
        assert np.max(np.abs(round1["k"][-1] - round2["k"][-1])) <= 1e-6

    def test_comparison_table_layout(self, tmp_path):
        out = tmp_path / "rp"
        run_cli("reproduce-paper", "--mode", "exact", "--out", str(out))
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "row,round,player_1,player_2,player_3,player_4,player_5"
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == ["initial", "initial", "final", "final", "published_final", "published_final"]
        assert lines[1].startswith("initial,1,0.69,4.41,3.69,2.39,4.24")

    def test_bad_mode_is_config_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("reproduce-paper", "--mode", "fictitious", "--out", str(tmp_path))
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flag, name",
        [("--step-size", "step_size"), ("--batch", "batch_size"), ("--dt", "dt")],
    )
    def test_zero_flag_is_config_error_not_default(self, tmp_path, capsys, flag, name):
        out = tmp_path / "rp"
        assert run_cli("reproduce-paper", flag, "0", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_stdout_table_matches_comparison_csv(self, tmp_path, capsys):
        out = tmp_path / "rp"
        assert run_cli("reproduce-paper", "--mode", "exact", "--out", str(out)) == 0
        printed = [line.split() for line in capsys.readouterr().out.splitlines()]
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        for row in rows:
            label, index, *gains = row.split(",")
            assert [label, index] + [f"{float(g):.4f}" for g in gains] in printed

    def test_independent_rounds_use_the_next_seed(self, tmp_path):
        out = tmp_path / "rp"
        code = run_cli(
            "reproduce-paper", "--independent-rounds", "--seed", "3", "--stages", "2",
            "--batch", "7", "--horizon", "5", "--dt", "0.5", "--out", str(out),
        )
        assert code == EXIT_GATE  # two stages cannot reach the published finals
        assert json.loads((out / "summary.json").read_text())["round_seeds"] == [3, 4]

    @pytest.mark.parametrize("independent", [False, True])
    def test_rounds_equal_single_runs(self, tmp_path, independent):
        # lockstep rounds (shared noise) and independent rounds (next seed)
        # each write the history of a lone run from that round's start
        out = tmp_path / "rp"
        flags = ["--seed", "5", "--stages", "3", "--batch", "9", "--horizon", "5", "--dt", "0.5"]
        run_cli("reproduce-paper", *flags, *(["--independent-rounds"] * independent), "--out", str(out))
        spec = preset_game("five-player")
        for index, start in enumerate((FIVE_PLAYER_ROUND1_START, FIVE_PLAYER_ROUND2_START)):
            sim = SimConfig(batch_size=9, horizon=5.0, dt=0.5, seed=5 + index * independent)
            run = run_gradient_play(spec, start, LearnConfig(stages=3, mode="model-free", sim=sim))
            history = read_history_csv(out / f"round{index + 1}.csv")
            assert np.array_equal(history["k"], run.profiles)
            assert np.array_equal(history["J"], run.costs)
            assert np.array_equal(history["g"], run.grads)

    def test_failed_gate_exits_four(self, tmp_path, capsys):
        out = tmp_path / "rp"
        assert run_cli("reproduce-paper", "--stages", "2", "--batch", "20", "--out", str(out)) == 4
        assert "overall: FAIL" in capsys.readouterr().out.splitlines()
        assert json.loads((out / "summary.json").read_text())["passed"] is False

    def test_config_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("reproduce-paper", "--config", str(tmp_path / "missing.json"))
        assert err.value.code == 2

    @pytest.mark.parametrize("mode", ["model-free", "exact"])
    @pytest.mark.parametrize(
        "flags",
        [[], ["--seed", "3", "--out", "x", "--batch", "7", "--horizon", "5", "--dt", "0.5", "--stages", "2",
              "--step-size", "0.5"]],
        ids=["study", "flags"],
    )
    def test_study_resolves_as_a_learn_config_file(self, tmp_path, monkeypatch, mode, flags):
        monkeypatch.delenv(config.SEED_ENV_VAR, raising=False)
        path = tmp_path / "study.json"
        path.write_text(json.dumps(cli.STUDY[mode]), encoding="utf-8")
        learn_args = build_parser().parse_args(["learn", "--config", str(path), "--mode", mode, *flags])
        from_file = config.load_experiment(str(path), vars(learn_args))

        class Resolved(Exception):
            pass

        def resolved(raw, overrides):
            raise Resolved(config._experiment(raw, overrides))

        monkeypatch.setattr(cli, "_experiment", resolved)
        with pytest.raises(Resolved) as stop:
            run_cli("reproduce-paper", "--mode", mode, *flags)
        exp = stop.value.args[0]
        for name in ("a", "rho", "k_lower", "k_upper"):
            assert np.array_equal(getattr(exp.game, name), getattr(from_file.game, name))
        assert np.array_equal(exp.game.a, preset_game("five-player").a)
        assert exp.learn == from_file.learn and exp.learn.mode == mode
        assert (exp.output_dir, exp.format, exp.k0) == (from_file.output_dir, from_file.format, None)
        if not flags:
            assert (exp.sim.dt, str(exp.output_dir)) == (0.01, "runs/reproduce-paper")

    def test_explicit_flags_reach_summary(self, tmp_path):
        out = tmp_path / "rp"
        code = run_cli(
            "reproduce-paper", "--stages", "2", "--batch", "7", "--horizon", "5",
            "--dt", "0.5", "--step-size", "0.5", "--out", str(out),
        )
        assert code == EXIT_GATE  # two stages cannot reach the published finals
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["stages"], summary["batch_size"], summary["step_size"]) == (2, 7, 0.5)
        assert (summary["horizon"], summary["dt"]) == (5.0, 0.5)


class TestCheckRosen:
    def test_five_player_preset_clean(self, tmp_path):
        out = tmp_path / "rosen.json"
        code = run_cli(
            "check-rosen", "--preset", "five-player", "--samples", "200",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["min_eig"] > 0
        assert not report["violated"]
        assert report["samples"] == 201
        assert len(report["witness"]) == 5

    def test_diagonal_preset_clean(self, tmp_path):
        out = tmp_path / "rosen.json"
        assert run_cli("check-rosen", "--preset", "diagonal", "--out", str(out)) == 0

    def test_two_player_preset_prints_mu(self, tmp_path, capsys):
        out = tmp_path / "rosen.json"
        assert run_cli("check-rosen", "--preset", "two-player", "--out", str(out)) == 0
        assert "mu" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["mu"]["at_lower_corner"] == 255.0

    def test_two_player_game_outside_mu_precondition(self, tmp_path, capsys):
        config = tmp_path / "game.json"
        config.write_text(json.dumps({"game": {"a": [[-1.0, -2.0], [-2.0, -1.0]]}}), encoding="utf-8")
        out = tmp_path / "rosen.json"
        code = run_cli("check-rosen", "--config", str(config), "--samples", "50", "--out", str(out))
        report = json.loads(out.read_text())
        assert code == (1 if report["violated"] else 0)
        assert "mu" not in report
        assert "mu not reported" in capsys.readouterr().out

    def test_two_player_mu_overflow_is_not_reported(self, tmp_path, capsys):
        config = tmp_path / "game.json"
        game = {"a": [[-2.0, -0.5], [-0.5, -2.0]], "rho": 1.0, "k_upper": 1e60}
        config.write_text(json.dumps({"game": game}), encoding="utf-8")
        out = tmp_path / "rosen.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("check-rosen", "--config", str(config), "--out", str(out))
        assert code == 0
        assert "mu not reported: mu overflows" in capsys.readouterr().out

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(out.read_text(), parse_constant=refuse)
        assert "mu" not in report and not report["violated"]

    def test_sdd_ensemble_clean(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({"ensemble": {"n": 3, "count": 5, "seed": 1, "samples": 40}}),
            encoding="utf-8",
        )
        out = tmp_path / "rosen.json"
        assert run_cli("check-rosen", "--config", str(config), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["violations"] == []
        assert report["min_eig"] > 0

    def test_counterexample_search_exits_one_with_witness(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps(
                {
                    "ensemble": {
                        "n": 3, "count": 10, "seed": 5, "samples": 50,
                        "generator": "negative-definite",
                    }
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "rosen.json"
        assert run_cli("check-rosen", "--config", str(config), "--out", str(out)) == 1
        report = json.loads(out.read_text())
        assert len(report["violations"]) >= 1
        witness = report["violations"][0]
        assert witness["min_eig"] <= 0
        assert {"game", "witness", "matrix_index", "seed"} <= set(witness)


class TestGenMatrix:
    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert run_cli("gen-matrix", "--n", "5", "--seed", "7", "--out", str(out1)) == 0
        assert run_cli("gen-matrix", "--n", "5", "--seed", "7", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verification_report(self, tmp_path):
        out = tmp_path / "m.json"
        run_cli("gen-matrix", "--n", "4", "--seed", "2", "--out", str(out))
        report = json.loads(out.read_text())
        verification = report["verification"]
        assert verification["symmetric"]
        assert verification["strictly_diagonally_dominant"]
        assert all(m > 0 for m in verification["gershgorin_margins"])
        assert verification["min_eigenvalue"] < 0

    def test_missing_dimension_is_config_error(self, tmp_path):
        assert run_cli("gen-matrix", "--out", str(tmp_path / "m.json")) == 2

    def test_env_seed_default(self, tmp_path, monkeypatch):
        out_env, out_flag = tmp_path / "env.json", tmp_path / "flag.json"
        monkeypatch.setenv("NASHLQ_SEED", "41")
        assert run_cli("gen-matrix", "--n", "3", "--out", str(out_env)) == 0
        monkeypatch.delenv("NASHLQ_SEED")
        assert run_cli("gen-matrix", "--n", "3", "--seed", "41", "--out", str(out_flag)) == 0
        assert json.loads(out_env.read_text())["matrix"] == json.loads(out_flag.read_text())["matrix"]


    @pytest.mark.parametrize("seed", [0, 7])
    def test_matrix_is_drawn_apart_from_every_stage_stream(self, tmp_path, seed):
        out = tmp_path / "m.json"
        assert run_cli("gen-matrix", "--n", "2", "--seed", str(seed), "--out", str(out)) == 0
        # The one off-diagonal entry is the stream's first draw, uniform on (-1, 1).
        unit = (json.loads(out.read_text())["matrix"][0][1] + 1.0) / 2.0
        firsts = np.array([substream(seed, stage).random() for stage in range(1001)])
        assert np.min(np.abs(firsts - unit)) > 1e-9

    def test_game_generate_draws_the_gen_matrix_matrix(self, tmp_path):
        matrix = tmp_path / "m.json"
        assert run_cli("gen-matrix", "--n", "3", "--seed", "4", "--out", str(matrix)) == 0
        config = tmp_path / "game.json"
        config.write_text(json.dumps({"game": {"generate": {"n": 3, "seed": 4}}}), encoding="utf-8")
        report = tmp_path / "rosen.json"
        assert run_cli("check-rosen", "--config", str(config), "--samples", "5", "--out", str(report)) == 0
        assert json.loads(report.read_text())["game"]["a"] == json.loads(matrix.read_text())["matrix"]


class TestSimulate:
    def test_scalar_estimate_near_closed_form(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_cli(
            "simulate", "--preset", "scalar", "--k", "1.0", "--batch", "4000",
            "--horizon", "50", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "player,k,estimate,closed_form,rel_error"
        _, k, est, exact, rel = lines[1].split(",")
        assert float(k) == 1.0
        assert abs(float(est) - float(exact)) / float(exact) < 0.1

    def test_exact_integrator_ignores_the_default_step(self, capsys):
        # the default dt, 0.1, exceeds the horizon, but only the quadrature reads it
        code = run_cli(
            "simulate", "--preset", "scalar", "--k", "1", "--integrator", "exact",
            "--horizon", "0.05", "--batch", "5",
        )
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert "batch 5, horizon 0.05, integrator exact, seed 0\n" in captured.out
        assert "dt" not in captured.out

    def test_quadrature_prints_its_step(self, capsys):
        code = run_cli("simulate", "--preset", "scalar", "--k", "1", "--horizon", "1", "--dt", "0.05", "--batch", "5")
        assert code == 0
        assert "batch 5, horizon 1, dt 0.05, integrator quadrature, seed 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--integrator", "exact"], ["simulate", "--dt", "1"],
         ["learn", "--mode", "model-free", "--integrator", "exact", "--stages", "2"]],
        ids=["simulate-exact", "simulate-quadrature", "learn-model-free"],
    )
    def test_huge_horizon_warns_nothing(self, tmp_path, capsys, argv):
        """``rate * horizon`` overflows to -inf, whose table entry is the limit."""
        argv = [*argv, "--preset", "scalar", "--horizon", "1e308", "--batch", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(*argv, *(["--k", "1"] if argv[0] == "simulate" else ["--out", str(tmp_path)]))
        assert (code, capsys.readouterr().err) == (0, "")

    def test_unstable_profile_is_solver_failure(self, tmp_path):
        code = run_cli(
            "simulate", "--preset", "five-player", "--k=-5,-5,-5,-5,-5",
            "--out", str(tmp_path / "new" / "sim.csv"),
        )
        assert code == 3
        assert not (tmp_path / "new").exists()

    def test_wrong_length_profile_is_config_error(self, tmp_path):
        out = tmp_path / "new" / "sim.csv"
        assert run_cli("simulate", "--preset", "five-player", "--k", "1.0", "--out", str(out)) == 2
        assert not (tmp_path / "new").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "preset, k", [("scalar", "1e300"), ("scalar", "1e160"), ("two-player", "1e200,1e200")]
    )
    def test_overflowing_cost_is_config_error(self, tmp_path, capsys, preset, k):
        out = tmp_path / "new" / "sim.csv"
        code = run_cli("simulate", "--preset", preset, "--k", k, "--batch", "3", "--out", str(out))
        err = assert_config_error(capsys, code, out)
        assert err.startswith("error: the closed-form cost overflows at k = [")
        assert not (tmp_path / "new").exists()


def _never(*args, **kwargs):
    raise AssertionError("work ran before the output location was checked")


class TestUnwritableOutput:
    """An ``--out`` below a regular file exits 2 with one ``error:`` line, not a
    traceback, before any stage, sweep, draw or estimate runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "--preset", "scalar", "--stages", "3"],
            ["reproduce-paper", "--mode", "exact", "--stages", "3"],
            ["check-rosen", "--preset", "scalar", "--samples", "5"],
            ["gen-matrix", "--n", "2"],
            ["simulate", "--preset", "scalar", "--batch", "5", "--horizon", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exits_two_with_one_error_line(self, tmp_path, capsys, monkeypatch, argv):
        work = {cli: ("run_gradient_play", "run_lockstep", "rosen_sweep", "conjecture_sweep",
                      "monte_carlo_cost", "substream"), config: ("generate_sdd_matrix",)}
        for module, names in work.items():
            for name in names:
                monkeypatch.setattr(module, name, _never)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "x"
        err = assert_config_error(capsys, run_cli(*argv, "--out", str(out)), out)
        assert err.startswith(f"error: cannot write {blocker}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-rosen", "--preset", "five-player", "--samples", "5"],
            ["gen-matrix", "--n", "2"],
            ["simulate", "--preset", "scalar", "--k", "1.0", "--batch", "5", "--horizon", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_existing_directory_is_refused_as_a_file(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {tmp_path}: Is a directory\n"
        assert not any(tmp_path.iterdir())

    def test_broken_stdout_is_not_an_output_error(self, tmp_path, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            run_cli("gen-matrix", "--n", "2", "--out", str(tmp_path / "m.json"))


# What numpy's MemoryError says for an array it cannot allocate.
ALLOCATION = "Unable to allocate 7.45 GiB for an array with shape (1000000001, 5) and data type float64"


class TestOversizeRequest:
    """A request too large for memory exits 2 with one ``error:`` line, not 1 (which
    means a violation) with a traceback, and removes the directories its ``--out``
    made.  The callee raises; nothing is allocated."""

    @staticmethod
    def oversize(monkeypatch, callee, message=ALLOCATION):
        def raises(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, callee, raises)

    @pytest.mark.parametrize(
        "argv, callee",
        [
            (["check-rosen", "--preset", "five-player", "--samples", "1000000000"], "rosen_sweep"),
            (["check-rosen", "--config", "ENSEMBLE", "--samples", "1000000000"], "conjecture_sweep"),
            (["gen-matrix", "--n", "100000"], "_draw_matrix"),
        ],
        ids=["check-rosen", "check-rosen-ensemble", "gen-matrix"],
    )
    @pytest.mark.parametrize("message", [ALLOCATION, ""], ids=["numpy", "bare"])
    def test_exits_two_with_one_error_line(self, tmp_path, capsys, monkeypatch, argv, callee, message):
        ensemble = tmp_path / "ensemble.json"
        ensemble.write_text(json.dumps({"ensemble": {"n": 3, "count": 2}}), encoding="utf-8")
        argv = [str(ensemble) if arg == "ENSEMBLE" else arg for arg in argv]
        self.oversize(monkeypatch, callee, message)
        assert run_cli(*argv, "--out", str(tmp_path / "new" / "dir" / "out.json")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message or 'out of memory'}\n"
        assert not (tmp_path / "new").exists()

    def test_keeps_directories_it_did_not_make(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "old").mkdir()
        self.oversize(monkeypatch, "_draw_matrix")
        assert run_cli("gen-matrix", "--n", "3", "--out", str(tmp_path / "old" / "new" / "m.json")) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["old"]
        assert not any((tmp_path / "old").iterdir())

    def test_keeps_a_directory_that_is_no_longer_empty(self, tmp_path, capsys, monkeypatch):
        def fills_then_raises(ensemble):
            (tmp_path / "new" / "partial").write_text("", encoding="utf-8")
            raise MemoryError(ALLOCATION)

        monkeypatch.setattr(cli, "_draw_matrix", fills_then_raises)
        assert run_cli("gen-matrix", "--n", "3", "--out", str(tmp_path / "new" / "m.json")) == 2
        assert capsys.readouterr().err == f"error: {ALLOCATION}\n"
        assert [p.name for p in (tmp_path / "new").iterdir()] == ["partial"]


class TestFailedRunLeavesNoDirectory:
    """Whatever ends a run after its ``--out`` is made, a solver failure or an
    interrupt, the directories it made that are still empty are removed."""

    def test_solver_failure_after_output_is_made(self, tmp_path, capsys):
        wide = tmp_path / "wide.json"
        game = {"a": [[-1.0, 0.0], [0.0, -1.0]], "k_upper": [1e14, 1e14]}
        wide.write_text(json.dumps({"game": game}), encoding="utf-8")
        out = tmp_path / "new3" / "run"
        code = run_cli("learn", "--config", str(wide), "--k0", "1,1e14", "--stages", "5", "--out", str(out))
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver failure: K - A is numerically singular")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "new3").exists()

    def test_failed_stability_lift_makes_no_directory(self, tmp_path, capsys):
        degenerate = tmp_path / "degenerate.json"
        game = {"a": [[1e20, 1e20], [1e20, 1e20]], "rho": 0.0, "k_upper": 1e22}
        degenerate.write_text(json.dumps({"game": game}), encoding="utf-8")
        out = tmp_path / "new" / "run"
        assert run_cli("learn", "--config", str(degenerate), "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "solver failure: stability lift failed; state matrix is numerically degenerate\n"
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "argv, callee",
        [
            (["learn", "--preset", "scalar", "--stages", "3", "--out", "{out}"], "run_gradient_play"),
            (["reproduce-paper", "--mode", "exact", "--stages", "3", "--out", "{out}"], "run_lockstep"),
            (["check-rosen", "--preset", "five-player", "--samples", "5", "--out", "{out}/r.json"],
             "rosen_sweep"),
            (["check-rosen", "--config", "{ensemble}", "--out", "{out}/r.json"], "conjecture_sweep"),
            (["gen-matrix", "--n", "2", "--out", "{out}/m.json"], "_draw_matrix"),
            (["simulate", "--preset", "scalar", "--batch", "5", "--horizon", "1", "--out", "{out}/s.csv"],
             "monte_carlo_cost"),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else value,
    )
    def test_interrupt_propagates_and_removes_new_directories(self, tmp_path, monkeypatch, argv, callee):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        ensemble = tmp_path / "ensemble.json"
        ensemble.write_text(json.dumps({"ensemble": {"n": 2, "count": 1, "samples": 5}}), encoding="utf-8")
        monkeypatch.setattr(cli, callee, interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli(*(arg.format(out=tmp_path / "kb" / "new", ensemble=ensemble) for arg in argv))
        assert [p.name for p in tmp_path.iterdir()] == ["ensemble.json"]


# A box on which the cost's weight 1 + rho k^2 overflows at the upper corner.
OVERFLOWING_BOX = {
    "game": {"a": [[-1.0]], "rho": 1.0, "k_upper": 1e200},
    "learn": {"k0": [1e170], "stages": 3, "mode": "exact"},
}


# A small check-rosen ensemble section.
ENSEMBLE = {"ensemble": {"n": 2, "count": 1, "samples": 5}}


def assert_config_error(capsys, code, out):
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err
    assert captured.out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not out.exists()
    return err


class TestConfigErrors:
    """Bad input exits 2 with a single ``error:`` line and writes nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-rosen", "--preset", "scalar", "--samples", "0"],
            ["gen-matrix", "--n", "0"],
            ["gen-matrix", "--n", "3", "--offdiag-scale", "0"],
            ["gen-matrix", "--n", "3", "--margin", "0"],
            ["gen-matrix", "--n", "3", "--offdiag-scale", "1e308"],
        ],
    )
    def test_zero_flag_is_config_error_not_default(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert_config_error(capsys, run_cli(*argv, "--out", str(out)), out)

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["gen-matrix", "--n", "0"], None),
            (["check-rosen", "--preset", "five-player", "--samples", "0"], None),
            (["check-rosen"], "{not json"),
            (["check-rosen"], {"ensemble": {"n": 2, "count": 1, "samples": 0}}),
            (["gen-matrix", "--n", "3", "--margin", "1.7e308", "--offdiag-scale", "1e307"], None),
            (["learn"], OVERFLOWING_BOX),
            (["check-rosen", "--samples", "20"], OVERFLOWING_BOX),
            (["check-rosen", "--samples", "20"], {"game": {"a": [[-1.0]], "rho": 0.0, "k_upper": 4.149515568880993e180}}),
            (["check-rosen", "--samples", "20"], {"game": {"a": [[-1.0]], "rho": 1.0, "k_upper": 1e120}}),
            (["check-rosen"], {"ensemble": {"n": 2, "count": 1, "generator": "x"}}),
        ],
        ids=[
            "gen-matrix", "check-rosen-samples", "check-rosen-json", "check-rosen-ensemble-samples",
            "gen-matrix-infinite-diagonal", "learn-overflowing-box", "check-rosen-overflowing-box",
            "check-rosen-underflowing-curvature", "check-rosen-underflowing-curvature-rho",
            "check-rosen-ensemble-generator",
        ],
    )
    def test_bad_input_makes_no_output_directory(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
            argv = [*argv, "--config", str(path)]
        out = tmp_path / "new" / "dir" / "out.json"
        assert_config_error(capsys, run_cli(*argv, "--out", str(out)), out)
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("gen-matrix", "{not json"),
            ("gen-matrix", "[1, 2]"),
            ("learn", {"game": {"preset": "scalar"}, "learn": {"stages": 2.5}}),
            ("learn", {"game": {"preset": "scalar"}, "sim": {"batch_size": 2.5}}),
            ("learn", {"game": {"preset": "scalar"}, "sim": {"seed": 2.5}}),
            ("check-rosen", {"ensemble": {"n": 2, "count": 1, "samples": 2.7}}),
            ("check-rosen", {"ensemble": {"n": 2, "count": 1, "rho_range": [1.0]}}),
            ("learn", {"game": {"generate": {"n": 3.7}}}),
            ("learn", {"game": {"generate": {"n": 3, "seed": -1}}}),
            ("learn", {"game": {"generate": {"n": 3, "rho": [0.1, 0.2]}}}),
            ("simulate", '{"game": {"a": [[NaN]]}}'),
            ("check-rosen", '{"ensemble": {"n": 3, "count": 2, "samples": 10, "rho_range": [0, 1e309]}}'),
            ("learn", {"game": {"preset": "scalar"}, "learn": {"grad_tolerance": True}}),
            ("learn", {"game": {"preset": "scalar"}, "sim": {"dt": True}}),
            ("learn", {"game": {"preset": "scalar"}, "sim": {"horizon": True}}),
            ("learn", {"game": {"preset": "scalar"}, "learn": {"step_size": "0.5"}}),
            ("gen-matrix", {"n": 3, "offdiag_scale": True}),
            ("learn", {"game": {"generate": {"n": 3, "box_factor": True}}}),
            ("learn", {"game": {"preset": "scalar"}, "learn": {"mode": "model-free", "grad_tolerance": 0.5}}),
            ("check-rosen", {"ensemble": {"n": 2, "count": 1, "rho_range": [False, True]}}),
            ("learn", {"game": {"preset": "no-such-game"}}),
            ("simulate", '{"game": {"preset": "scalar"}, "sim": {"horizon": 1%s}}' % ("0" * 400)),
            ("learn", '{"game": {"a": [[1%s]]}}' % ("0" * 400)),
            ("learn", {"game": {"a": [[True]]}}),
            ("learn", {"game": {"a": [["-1"]]}}),
            ("learn", {"game": {"a": [[-1.0, False], [False, -1.0]]}}),
            ("learn", {"game": {"a": [[-1.0]], "rho": True}}),
            ("learn", {"game": {"a": [[-1.0]], "rho": "1"}}),
            ("learn", {"game": {"a": [[-1.0, 0.0], [0.0, -1.0]], "rho": [True, 0.5]}}),
            ("learn", {"game": {"a": [[-1.0]], "k_upper": True}}),
            ("learn", {"game": {"a": [[-1.0]], "k_upper": "3"}}),
            ("learn", {"game": {"a": [[-1.0, 0.0], [0.0, -1.0]], "k_lower": [0.5, True]}}),
            ("learn", {"game": {"generate": {"n": 2, "rho": [True, 0.5]}}}),
            ("learn", {"game": {"generate": {"n": 1, "rho": "0.5"}}}),
            ("learn", {"game": {"preset": "scalar"}, "learn": {"k0": [True]}}),
            ("learn", {"game": {"preset": "scalar"}, "learn": {"k0": ["1"]}}),
            ("learn", {"game": {"preset": "two-player"}, "learn": {"k0": [True, 0.5]}}),
            ("learn", {"game": {"preset": "scalar"}, "learn": {"stage": 3}}),
            ("learn", {"game": {"preset": "scalar"}, "sim": {"batch": 7}}),
            ("check-rosen", {"ensemble": {"generatr": "negative-definite", "sample": 5}}),
            ("learn", {"game": {"preset": "scalar", "rho": 5.0}}),
            ("learn", {"game": {"generate": {"n": 3, "sed": 7}}}),
            ("gen-matrix", {"n": 3, "offdiag": 5.0}),
            ("gen-matrix", {"n": 3, "count": 2}),
            ("simulate", {"game": {"preset": "scalar"}, "output_directory": "x"}),
            ("check-rosen", {"ensemble": {"n": 2, "count": 1}, "ensembles": {}}),
            ("check-rosen", {"game": {"preset": "scalar"}, "samples": 10}),
            ("learn", {"game": {"preset": "scalar"}, "learn": [3]}),
            ("learn", {"game": {"preset": "scalar"}, "sim": None}),
            ("learn", {"game": "scalar"}),
            ("learn", {"game": {"generate": [3]}}),
            ("check-rosen", {"ensemble": 5}),
            ("learn", {"game": {"rho": 1.0}}),
            ("learn", {"game": {"generate": {"n": 2}, "a": [[-1.0, 0.0], [0.0, -1.0]]}}),
            ("learn", {"game": {"preset": "scalar", "generate": {"n": 1}}}),
            ("learn", {"game": {"generate": {"seed": 1}}}),
            ("simulate", {"game": {"preset": "scalar"}, "sim": {"horizon": 1e300, "dt": 1e-10}}),
            ("learn", {"game": {"preset": "scalar"}, "learn": {"mode": "model-free"},
                       "sim": {"batch_size": 5, "horizon": 1e300, "dt": 1e-10}}),
            ("gen-matrix", {"n": 3, "offdiag_scale": 1e308}),
            ("learn", {"game": {"generate": {"n": 3, "offdiag_scale": 1e308}}}),
        ],
    )
    def test_bad_config_file(self, tmp_path, capsys, command, config):
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert_config_error(capsys, run_cli(command, "--config", str(path), "--out", str(out)), out)

    @pytest.mark.parametrize(
        "command, config, named",
        [
            ("learn", {"game": {"preset": "scalar"}, "learn": {"stage": 3}}, ["'stage'", "'learn'"]),
            ("learn", {"game": {"preset": "scalar"}, "sim": {"batch": 7}}, ["'batch'", "'sim'"]),
            ("check-rosen", {"ensemble": {"n": 2, "sample": 5}}, ["'sample'", "'ensemble'"]),
            ("learn", {"game": {"preset": "scalar", "rho": 5.0}}, ["'rho'", "'game'"]),
            ("learn", {"game": {"generate": {"n": 3, "sed": 7}}}, ["'sed'", "'game.generate'"]),
            ("gen-matrix", {"n": 3, "offdiag": 5.0}, ["'offdiag'", "config file"]),
            ("learn", {"game": {"preset": "scalar"}, "outdir": "x"}, ["'outdir'", "config file"]),
        ],
    )
    def test_unknown_key_is_named_with_its_section(self, tmp_path, capsys, command, config, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert all(text in err for text in named)

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("learn", '{"game": {"preset": "scalar"}, "learn": {"stages": 3, "stages": 5}}', "'stages'"),
            ("learn", '{"game": {"preset": "scalar"}, "game": {"preset": "two-player"}}', "'game'"),
            ("simulate", '{"game": {"preset": "scalar"}, "sim": {"dt": 0.1, "dt": 0.1}}', "'dt'"),
            ("check-rosen", '{"ensemble": {"n": 2, "count": 2, "n": 3}}', "'n'"),
            ("gen-matrix", '{"n": 3, "seed": 1, "seed": 2}', "'seed'"),
        ],
        ids=["learn", "top-level", "simulate", "check-rosen", "gen-matrix"],
    )
    def test_duplicate_key_is_named(self, tmp_path, capsys, command, config, key):
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        out = tmp_path / "out"
        err = assert_config_error(capsys, run_cli(command, "--config", str(path), "--out", str(out)), out)
        assert key in err and "twice" in err

    @pytest.mark.parametrize(
        "argv, config, line",
        [
            (["learn"], {"game": {"preset": ["scalar"]}},
             "unknown preset ['scalar']; choose from ['diagonal', 'five-player', 'scalar', 'two-player']"),
            (["learn"], {"game": {"preset": "scalar"}, "format": ["csv"]},
             "format must be one of ('csv', 'json-lines')"),
            (["learn"], {"game": {"preset": "scalar"}, "output_dir": 5}, "output_dir must be a JSON string, got 5"),
            (["learn"], {"game": {"a": [[-1.0, 0.0, 0.0]]}}, "state matrix must be square, got shape (1, 3)"),
            # a file's output_dir and format are checked whether or not a flag overrides them
            (["check-rosen"], {"game": {"preset": "scalar"}, "output_dir": 5},
             "output_dir must be a JSON string, got 5"),
            (["check-rosen"], {"ensemble": {"n": 2, "count": 1}, "output_dir": 5},
             "output_dir must be a JSON string, got 5"),
            (["check-rosen"], {"ensemble": {"n": 2, "count": 1}, "format": "xml"},
             "format must be one of ('csv', 'json-lines')"),
            (["learn", "--out", "x"], {"game": {"preset": "scalar"}, "output_dir": 5},
             "output_dir must be a JSON string, got 5"),
            (["learn", "--format", "csv"], {"game": {"preset": "scalar"}, "format": ["csv"]},
             "format must be one of ('csv', 'json-lines')"),
            (["simulate", "--out", "x.csv"], {"game": {"preset": "scalar"}, "output_dir": ["runs"]},
             "output_dir must be a JSON string, got ['runs']"),
            # an ensemble file's other sections meet an experiment file's rules, though unused
            (["check-rosen"], {**ENSEMBLE, "game": {"preset": "bogus"}},
             "unknown preset 'bogus'; choose from ['diagonal', 'five-player', 'scalar', 'two-player']"),
            (["check-rosen"], {**ENSEMBLE, "game": {"preset": "scalar"}, "learn": {"stages": "x"}},
             "stages must be an integer >= 1, got 'x'"),
            (["check-rosen"], {**ENSEMBLE, "game": {"preset": "scalar"}, "sim": {"dt": -1}},
             "dt must be a positive finite number, got -1"),
            (["check-rosen"], {**ENSEMBLE, "learn": {"stages": 3}}, "section 'learn' needs a 'game' section"),
            (["check-rosen"], {**ENSEMBLE, "sim": {"dt": 0.1}}, "section 'sim' needs a 'game' section"),
        ],
        ids=["preset", "format", "output_dir", "non-square-a", "check-rosen-output_dir",
             "check-rosen-ensemble-output_dir", "check-rosen-ensemble-format", "learn-out-output_dir",
             "learn-format-format", "simulate-out-output_dir", "check-rosen-ensemble-game",
             "check-rosen-ensemble-learn", "check-rosen-ensemble-sim", "check-rosen-ensemble-learn-without-game",
             "check-rosen-ensemble-sim-without-game"],
    )
    def test_error_line_names_the_input(self, tmp_path, capsys, monkeypatch, argv, config, line):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        err = assert_config_error(capsys, run_cli(*argv, "--config", str(path)), tmp_path / "runs")
        assert err == f"error: {line}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
    def test_unreadable_config_file_is_named(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf-8":
            path.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        err = assert_config_error(capsys, run_cli("learn", "--config", str(path), "--out", str(out)), out)
        assert err.startswith(f"error: cannot read config file {path}: ")

    @pytest.mark.parametrize(
        "argv", [["gen-matrix", "--n", "3"], ["learn", "--preset", "scalar"], ["check-rosen", "--preset", "scalar"]]
    )
    def test_non_integer_env_seed_is_config_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv(config.SEED_ENV_VAR, "abc")
        out = tmp_path / "out"
        err = assert_config_error(capsys, run_cli(*argv, "--out", str(out)), out)
        assert err == "error: NASHLQ_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize(
        "argv, config, line",
        [
            (["learn", "--stages", "3"], {"game": {"preset": "scalar"}, "learn": {"stages": "x"}},
             "stages must be an integer >= 1, got 'x'"),
            (["learn", "--preset", "scalar"], {"game": {"preset": 5}}, "unknown preset 5; choose from"),
            (["learn", "--seed", "1"], {"game": {"preset": "scalar"}, "sim": {"seed": "x"}},
             "seed must be a nonnegative integer, got 'x'"),
            (["check-rosen", "--samples", "5"], {"ensemble": {"n": 2, "count": 1, "samples": "x"}},
             "samples must be an integer >= 1, got 'x'"),
            (["check-rosen", "--seed", "1"], {"ensemble": {"n": 2, "count": 1, "seed": -1}},
             "seed must be a nonnegative integer, got -1"),
            (["learn", "--mode", "exact"], {"game": {"preset": "scalar"}, "learn": {"mode": "fast"}},
             "mode must be one of ('exact', 'model-free')"),
            (["simulate", "--dt", "0.1"], {"game": {"preset": "scalar"}, "sim": {"dt": 0}},
             "dt must be a positive finite number, got 0"),
            (["learn", "--k0", "1"], {"game": {"preset": "scalar"}, "learn": {"k0": ["x"]}},
             "k0 must hold only finite numbers"),
            (["gen-matrix", "--n", "3"], {"n": 2.5}, "n must be an integer >= 1, got 2.5"),
        ],
        ids=["learn-stages", "learn-preset", "learn-seed", "check-rosen-samples", "check-rosen-seed",
             "learn-mode", "simulate-dt", "learn-k0", "gen-matrix-n"],
    )
    def test_file_value_a_flag_overrides_is_still_checked(self, tmp_path, capsys, argv, config, line):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        err = assert_config_error(capsys, run_cli(*argv, "--config", str(path), "--out", str(out)), out)
        assert err.startswith(f"error: {line}")

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["learn", "--mode", "exact"],
             {"game": {"preset": "scalar"}, "learn": {"mode": "model-free", "grad_tolerance": 1e-9}}),
            (["simulate", "--horizon", "1.0"], {"game": {"preset": "scalar"}, "sim": {"horizon": 0.01}}),
        ],
        ids=["mode-with-tolerance", "horizon-below-dt"],
    )
    def test_overridden_file_value_meets_no_rule_across_keys(self, tmp_path, argv, config):
        """A file's value is checked on its own rule only: each of these pairs
        breaks a rule across keys that the flag's value keeps."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli(*argv, "--config", str(path), "--out", str(tmp_path / "out")) == 0

    def test_preset_with_ensemble_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"ensemble": {"n": 2, "count": 2, "samples": 5}}), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["check-rosen", "--config", str(path), "--preset", "scalar", "--out", str(out)]
        assert_config_error(capsys, run_cli(*argv), out)

    def test_experiment_file_is_read_by_every_subcommand(self, tmp_path):
        config = {
            "game": {"a": [[-1.0]], "rho": 1.0, "k_upper": 3.0},
            "learn": {"stages": 3, "step_size": 1.0, "mode": "exact", "grad_tolerance": 0.0, "k0": [1.0]},
            "sim": {"batch_size": 10, "horizon": 5.0, "dt": 0.1, "seed": 2, "integrator": "quadrature"},
            "output_dir": str(tmp_path / "from_file"),
            "format": "csv",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        for command in ("learn", "simulate", "check-rosen"):
            assert run_cli(command, "--config", str(path), "--out", str(tmp_path / command)) == 0
        path.write_text(json.dumps({**config, "ensemble": {"n": 2, "count": 2, "samples": 5}}), encoding="utf-8")
        assert run_cli("check-rosen", "--config", str(path), "--out", str(tmp_path / "sweep.json")) == 0

    def test_exact_independent_rounds_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["reproduce-paper", "--mode", "exact", "--independent-rounds"]
        err = assert_config_error(capsys, run_cli(*argv, "--out", str(out)), out)
        assert "--independent-rounds" in err

    def test_model_free_grad_tolerance_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["learn", "--preset", "scalar", "--mode", "model-free", "--grad-tolerance", "0.5"]
        assert_config_error(capsys, run_cli(*argv, "--out", str(out)), out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--preset", "scalar", "--k", "nan"],
            ["simulate", "--preset", "scalar", "--k", "inf"],
            ["learn", "--preset", "scalar", "--k0", "nan"],
            ["learn", "--preset", "scalar", "--k0", "1,,"],
            ["simulate", "--preset", "scalar", "--k", ",1"],
        ],
    )
    def test_non_finite_profile_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert_config_error(capsys, run_cli(*argv, "--out", str(out)), out)

    @pytest.mark.parametrize(
        "rho_range",
        [[-0.1, 1.0], [0.5, 0.1], [0.0, "high"], [1.0], 3, [0.1, 0.2, 0.3], {"a": 1, "b": 2}],
    )
    def test_bad_rho_range_named_where_it_enters(self, tmp_path, capsys, rho_range):
        path = tmp_path / "config.json"
        section = {"n": 3, "count": 2, "samples": 10, "rho_range": rho_range}
        path.write_text(json.dumps({"ensemble": section}), encoding="utf-8")
        out = tmp_path / "out"
        err = assert_config_error(capsys, run_cli("check-rosen", "--config", str(path), "--out", str(out)), out)
        assert err.startswith("error: rho_range must be two finite numbers")
