"""Self-test of the benchmark harness at reduced size.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that each workload passes its checks on the current program, and that each
check trips on a deliberately corrupted output.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from nashlq import game, learning  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Reduced sizes; the model-free reproduction keeps the paper's settings
# because its gates only hold at the full 250 stages.
SMALL = {
    "repro-model-free": {},
    "exact-play": {"seeded_starts": 2},
    "rosen-ensemble": {"games": 2},
    "model-free-n20": {"stages": 3},
}


def _units(entries) -> dict:
    return {entry["name"]: entry["unit"] for entry in entries}


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert _units(SPEC["end_to_end"]) == run.END_TO_END
    layer = tracer.metric_table() + [
        {"name": name, "unit": unit, "better": "lower"} for name, unit in run.HARNESS_LAYER.items()
    ]
    assert SPEC["per_layer"] == layer


@pytest.fixture(scope="module")
def traced_reports(tmp_path_factory):
    """One untraced and one traced repetition of every workload, in-process."""
    return {
        name: worker.measure(name, 0, 0.0, True, tmp_path_factory.mktemp(name), **size)
        for name, size in SMALL.items()
    }


@pytest.mark.parametrize("name", list(SMALL))
def test_workload_passes_and_emits_every_layer_metric(traced_reports, name):
    report = traced_reports[name]
    assert report["failed"] == 0 and report["attempted"] > 0
    assert len(report["walls"]) == 1 and len(report["traced_walls"]) == 1
    assert report["layer_units"] == _units(tracer.metric_table())
    assert set(report["layers"]) == set(report["layer_units"])
    dominant = {
        "repro-model-free": "simulate.pair_integrals",
        "exact-play": "game.evaluate",
        "rosen-ensemble": "analysis.rosen_check",
        "model-free-n20": "simulate.monte_carlo_cost",
    }[name]
    assert report["layers"][f"{dominant}.calls"] > 0
    busy = sum(v for k, v in report["layers"].items() if k.endswith(".self_s"))
    assert 0.0 < busy <= report["traced_walls"][0]


def test_tracer_restores_the_originals():
    originals = (learning.evaluate, game.evaluate, game.GameSpec.__post_init__)
    t = tracer.Tracer()
    t.install()
    assert learning.evaluate is not originals[0]
    t.remove()
    assert (learning.evaluate, game.evaluate, game.GameSpec.__post_init__) == originals


def _perturb_repro(result):
    result["summary"]["rounds"][0]["final"][0] += 0.2


def _perturb_exact(result):
    result[1]["final"] = result[1]["final"] + 1e-3


def _perturb_rosen(result):
    result["games"][0]["min_eig"] = -abs(result["games"][0]["min_eig"])


def _perturb_n20(result):
    result["final"] = result["final"] + 1e3
    result["profiles"][-1] = result["final"]
    result["closed_form"] = result["closed_form"] * 1.1


@pytest.mark.parametrize(
    "name, perturb",
    [
        ("repro-model-free", _perturb_repro),
        ("exact-play", _perturb_exact),
        ("rosen-ensemble", _perturb_rosen),
        ("model-free-n20", _perturb_n20),
    ],
)
def test_check_trips_on_corrupted_output(tmp_path, name, perturb):
    spec = workloads.WORKLOADS[name]
    inputs = spec.setup(0, **SMALL[name])
    result = spec.collect(inputs, spec.run(inputs, tmp_path))
    assert all(op.ok for op in spec.check(inputs, result, None))
    assert all(op.ok for op in spec.check(inputs, result, copy.deepcopy(result)))

    corrupted = copy.deepcopy(result)
    perturb(corrupted)
    assert not all(op.ok for op in spec.check(inputs, corrupted, None))
    # A later repetition that differs from the first also fails.
    assert not all(op.ok for op in spec.check(inputs, result, corrupted))


def test_reproduction_runs_at_the_published_seed():
    argv = workloads.repro_setup(12345)["argv"]
    assert argv == workloads.repro_setup(0)["argv"]
    assert argv[argv.index("--seed") + 1] == str(workloads.REPRO_SEED) == "0"


def test_nash_residual_is_small_only_at_the_equilibrium():
    spec = workloads.presets.five_player_game()
    assert workloads.nash_residual(spec, [workloads.FIVE_PLAYER_KSTAR]) < 1e-4
    assert workloads.nash_residual(spec, [np.ones(5)]) > 1e-2


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, entries", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_result_with_units(trace, entries):
    proc = _bench(ROOT, "--workload", "rosen-ensemble", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == _units(SPEC[entries])
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "exact-play", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
