import dataclasses
import importlib.util
from pathlib import Path

import pytest

from nashlq import conjecture_sweep

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "conjecture_evidence.py"
_SPEC = importlib.util.spec_from_file_location("conjecture_evidence", _PATH)
evidence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(evidence)

TINY = ["--count", "2", "--samples", "10", "--dims", "2", "3"]


def test_clean_run_exits_0(capsys):
    assert evidence.run(TINY) == 0
    out = capsys.readouterr().out
    assert "n=2:" in out and "n=3:" in out
    assert out.endswith("dominant-class ensembles clean: True\n")


def test_dominant_class_violation_exits_1(capsys, monkeypatch):
    def flagged(ensemble, samples_per_matrix, generator="sdd"):
        result = conjecture_sweep(ensemble, samples_per_matrix, generator=generator)
        if generator != "sdd":
            return result
        first = result.records[0]
        record = dataclasses.replace(first, report=dataclasses.replace(first.report, violated=True))
        return dataclasses.replace(result, records=(record, *result.records[1:]))

    monkeypatch.setattr(evidence, "conjecture_sweep", flagged)
    assert evidence.run(TINY) == 1
    assert capsys.readouterr().out.endswith("dominant-class ensembles clean: False\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--count", "0"], "--count"),
        (["--samples", "0"], "--samples"),
        (["--dims", "0"], "--dims"),
        (["--dims", "2", "-1"], "--dims"),
        (["--seed", "-200"], "--seed"),
    ],
)
def test_bad_argument_exits_2_before_any_sweep(capsys, monkeypatch, argv, flag):
    monkeypatch.setattr(evidence, "conjecture_sweep", None)  # a sweep would raise
    assert evidence.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be an integer >= ")
    assert len(captured.err.splitlines()) == 1
    assert captured.err.rstrip().endswith(f"got {argv[-1]}")


@pytest.mark.parametrize("message", ["Unable to allocate 1.49 GiB for an array", ""])
def test_oversize_sweep_exits_2_with_one_error_line(capsys, monkeypatch, message):
    def oversize(*args, **kwargs):
        raise MemoryError(message)  # nothing is allocated

    monkeypatch.setattr(evidence, "conjecture_sweep", oversize)
    assert evidence.run(TINY) == 2
    assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--count", "1", "--samples", "2", "--dims", "100000000000000000000"],
        ["--count", "1", "--samples", "100000000000000000000", "--dims", "2"],
    ],
    ids=["dims", "samples"],
)
def test_sweep_beyond_numpy_shapes_exits_2_with_one_error_line(capsys, argv):
    assert evidence.run(argv) == 2  # numpy refuses the shape before allocating
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
