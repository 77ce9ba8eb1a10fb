"""History and report serialization.

Histories go to CSV (header ``stage,k_1..k_n,J_1..J_n,g_1..g_n``) or JSON
lines; floats are written in shortest round-trip form so re-reading a file
reproduces every value bit for bit.  All files are UTF-8 with LF endings.
Rows are handed to the writers as Python scalars (NumPy's ``tolist``):
under NumPy 2, ``repr`` of a NumPy float is ``np.float64(...)``.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

from .learning import LearnRun

__all__ = [
    "write_csv",
    "history_header",
    "write_history_csv",
    "read_history_csv",
    "write_history_jsonl",
    "read_history_jsonl",
    "HISTORY_FORMATS",
    "write_history",
    "write_json",
]


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and then ``rows`` of Python scalars as CSV.

    Each field is written as its ``str``.  For ints, floats and nonempty
    labels with no comma, quote or line break, which is all the callers
    pass, these are the bytes ``csv.writer`` writes.
    """
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in itertools.chain([header], rows))
    return path


def history_header(n: int) -> list[str]:
    return (
        ["stage"]
        + [f"k_{i}" for i in range(1, n + 1)]
        + [f"J_{i}" for i in range(1, n + 1)]
        + [f"g_{i}" for i in range(1, n + 1)]
    )


def _rows(run: LearnRun):
    """``(stage, k, J, g)`` per recorded stage, read from the run's arrays."""
    return zip(itertools.count(), run.profiles.tolist(), run.costs.tolist(), run.grads.tolist())


def write_history_csv(path, run: LearnRun) -> Path:
    rows = ([stage, *k, *j, *g] for stage, k, j, g in _rows(run))
    return write_csv(path, history_header(len(run.final)), rows)


def read_history_csv(path) -> dict[str, np.ndarray]:
    """Read a history CSV back into ``stage``, ``k``, ``J``, ``g`` arrays."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n = (len(header) - 1) // 3
        rows = [row for row in reader if row]
    stage = np.array([int(r[0]) for r in rows])
    data = np.array([[float(v) for v in r[1:]] for r in rows])
    return {
        "stage": stage,
        "k": data[:, :n],
        "J": data[:, n : 2 * n],
        "g": data[:, 2 * n :],
    }


def write_history_jsonl(path, run: LearnRun) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for stage, k, j, g in _rows(run):
            fh.write(json.dumps({"stage": stage, "k": k, "J": j, "g": g}))
            fh.write("\n")
    return path


def read_history_jsonl(path) -> dict[str, np.ndarray]:
    stages, ks, js, gs = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            stages.append(rec["stage"])
            ks.append(rec["k"])
            js.append(rec["J"])
            gs.append(rec["g"])
    return {
        "stage": np.array(stages),
        "k": np.array(ks),
        "J": np.array(js),
        "g": np.array(gs),
    }


# Each history format's writer and file suffix.
HISTORY_FORMATS = {
    "csv": (write_history_csv, ".csv"),
    "json-lines": (write_history_jsonl, ".jsonl"),
}


def write_history(path, run: LearnRun, fmt: str = "csv") -> Path:
    if fmt not in HISTORY_FORMATS:
        raise ValueError(f"unknown history format {fmt!r}")
    writer, _ = HISTORY_FORMATS[fmt]
    return writer(path, run)


def write_json(path, payload) -> Path:
    """Deterministic JSON report: sorted keys, LF endings, round-trip floats."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
