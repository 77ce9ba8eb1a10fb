import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashlq import LearnConfig, run_gradient_play, scalar_game, five_player_game
from nashlq.learning import LearnRun, run_lockstep
from nashlq.output import (
    history_header,
    read_history_csv,
    read_history_jsonl,
    write_csv,
    write_history,
    write_history_csv,
    write_history_jsonl,
    write_json,
)


# The writer write_csv replaced, kept as its reference: csv.writer with LF
# line ends.
def _csv_writer_reference(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


# The history writer write_history_csv replaced, kept as its reference: one
# [stage, *k, *J, *g] row of Python scalars per stage through write_csv.
def _history_csv_reference(path, run):
    rows = zip(run.profiles.tolist(), run.costs.tolist(), run.grads.tolist())
    return write_csv(path, history_header(len(run.final)),
                     ([stage, *k, *j, *g] for stage, (k, j, g) in enumerate(rows)))


# Every kind of field the program writes: ints, floats and its fixed labels.
_LABELS = ["initial", "final", "published_final"]
_FIELDS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300, -2.5, 0.1 + 0.2, *_LABELS]),
)
_HEADERS = st.one_of(
    st.integers(1, 8).map(history_header),
    st.just(["row", "round", "player_1", "player_2"]),
    st.just(["player", "k", "estimate", "closed_form", "rel_error"]),
)


# Values whose shortest round-trip form is easy to get wrong.
_HISTORY_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 0.1 + 0.2, math.inf, -math.inf, math.nan]),
)


@st.composite
def _learn_runs(draw):
    """A run of ``n`` players and ``rows`` recorded stages, from random values."""
    n, rows = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    values = draw(st.lists(_HISTORY_VALUES, min_size=3 * rows * n, max_size=3 * rows * n))
    return LearnRun(*np.array(values).reshape(3, rows, n), converged=False)


def small_run(n_stages=7):
    return run_gradient_play(scalar_game(), [1.0], LearnConfig(stages=n_stages))


class TestCsv:
    def test_header_layout(self):
        assert history_header(2) == ["stage", "k_1", "k_2", "J_1", "J_2", "g_1", "g_2"]

    def test_round_trip_bitwise(self, tmp_path):
        run = small_run()
        path = write_history_csv(tmp_path / "history.csv", run)
        data = read_history_csv(path)
        assert np.array_equal(data["stage"], np.arange(len(run.history)))
        for column, attr in (("k", "profile"), ("J", "cost"), ("g", "grad")):
            expected = np.array(
                [getattr(rec, attr).k if attr == "profile" else getattr(rec, attr)
                 for rec in run.history]
            ).reshape(len(run.history), -1)
            assert np.array_equal(data[column], expected)

    def test_multi_player_round_trip(self, tmp_path):
        spec = five_player_game()
        run = run_gradient_play(spec, np.ones(5), LearnConfig(stages=3))
        data = read_history_csv(write_history_csv(tmp_path / "h.csv", run))
        assert data["k"].shape == (4, 5)
        assert np.array_equal(data["k"][-1], run.final.k)

    def test_lf_endings_and_utf8(self, tmp_path):
        path = write_history_csv(tmp_path / "history.csv", small_run())
        raw = path.read_bytes()
        assert b"\r" not in raw
        raw.decode("utf-8")

    def test_initial_row_echoes_start_exactly(self, tmp_path):
        run = run_gradient_play(scalar_game(), [0.69], LearnConfig(stages=2))
        data = read_history_csv(write_history_csv(tmp_path / "h.csv", run))
        assert data["k"][0, 0] == 0.69


class TestHistoryCsvBytes:
    @given(_learn_runs())
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_reference(self, tmp_path_factory, run):
        out = tmp_path_factory.mktemp("history")
        written = write_history_csv(out / "history.csv", run).read_bytes()
        assert written == _history_csv_reference(out / "reference.csv", run).read_bytes()

    def test_lockstep_member_bytes_equal_reference(self, tmp_path):
        """A member of a stack, whose rows are a strided view of the stack's arrays."""
        starts = [np.full(5, 0.5), np.ones(5), np.full(5, 2.0)]
        runs = run_lockstep(five_player_game(), starts, LearnConfig(stages=2000, grad_tolerance=1e-9))
        run = runs[1]
        assert not run.profiles.flags.c_contiguous and run.stages_used != runs[0].stages_used
        written = write_history_csv(tmp_path / "history.csv", run).read_bytes()
        assert written == _history_csv_reference(tmp_path / "reference.csv", run).read_bytes()


class TestWriteCsv:
    @given(_HEADERS, st.lists(st.lists(_FIELDS, min_size=1, max_size=16), max_size=12))
    def test_bytes_equal_csv_writer(self, tmp_path_factory, header, rows):
        out = tmp_path_factory.mktemp("csv")
        written = write_csv(out / "joined.csv", header, iter(rows)).read_bytes()
        assert written == _csv_writer_reference(out / "reference.csv", header, rows).read_bytes()


class TestJsonl:
    def test_round_trip_bitwise(self, tmp_path):
        run = small_run()
        data = read_history_jsonl(write_history_jsonl(tmp_path / "history.jsonl", run))
        expected_k = np.array([rec.profile.k for rec in run.history])
        assert np.array_equal(data["k"], expected_k)
        assert np.array_equal(data["J"], np.array([rec.cost for rec in run.history]))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_history_jsonl(tmp_path / "history.jsonl", small_run(2))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("\n".join(lines) + "  \n", encoding="utf-8")
        data = read_history_jsonl(path)
        assert np.array_equal(data["stage"], [0, 1, 2])


def test_unknown_history_format_is_refused(tmp_path):
    with pytest.raises(ValueError, match="^unknown history format 'xml'$"):
        write_history(tmp_path / "history.xml", small_run(1), "xml")
    assert not any(tmp_path.iterdir())


class TestJsonReport:
    def test_deterministic_bytes(self, tmp_path):
        payload = {"b": [1.0 / 3.0, 0.1], "a": {"nested": 2.0**-40}}
        p1 = write_json(tmp_path / "r1.json", payload)
        p2 = write_json(tmp_path / "r2.json", payload)
        assert p1.read_bytes() == p2.read_bytes()

    def test_floats_round_trip(self, tmp_path):
        value = 0.1 + 0.2
        path = write_json(tmp_path / "r.json", {"x": value})
        assert json.loads(path.read_text())["x"] == value
