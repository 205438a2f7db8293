"""Output checks. Each returns a list of problems; an empty list passes.

The checks read the files the stages wrote and compare them with what the
benchmark knows independently: the generated inputs, a numpy reference,
or a second reading of another output of the same run.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _series(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["timestamp", "value"]:
        raise ValueError(f"unexpected series header {rows[0]}")
    data = np.array([[float(t), float(v)] for t, v in rows[1:]])
    return data[:, 0], data[:, 1]


def _guard(check):
    """Report an unreadable output as a failed check, not a crash."""

    def guarded(*args, **kwargs) -> list[str]:
        try:
            return check(*args, **kwargs)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return [f"{check.__name__}: unreadable output: {exc!r}"]

    guarded.__name__ = check.__name__
    return guarded


@_guard
def ingested_series(path, timestamps, values) -> list[str]:
    """The ingested series equals the reference, NaN where a cell was empty.

    Values may differ from the numpy reference by summation order only.
    """
    ts, got = _series(path)
    if ts.shape != timestamps.shape or not np.array_equal(ts, timestamps):
        return [f"ingested timestamps differ from the generated ones ({ts.size} vs {timestamps.size})"]
    if not np.array_equal(np.isnan(got), np.isnan(values)):
        return ["ingested missing cells differ from the generated gaps"]
    ok = ~np.isnan(values)
    if not np.allclose(got[ok], values[ok], rtol=1e-12, atol=0.0):
        worst = int(np.argmax(np.abs(got[ok] - values[ok])))
        return [f"ingested value {worst} is {got[ok][worst]!r}, reference {values[ok][worst]!r}"]
    return []


@_guard
def clean_series(path) -> list[str]:
    _, values = _series(path)
    return [] if np.isfinite(values).all() else ["preprocessed series has non-finite values"]


@_guard
def report_rows(path, epochs: int) -> list[str]:
    """The training report has one row per epoch, numbered from 1."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["epoch", "train_loss", "test_rmse"]:
        return [f"unexpected report header {rows[0]}"]
    numbers = [int(r[0]) for r in rows[1:]]
    if numbers != list(range(1, epochs + 1)):
        return [f"report has epochs {numbers[:3]}...{numbers[-3:]}, expected 1..{epochs}"]
    if not all(math.isfinite(float(x)) for r in rows[1:] for x in r[1:]):
        return ["report has non-finite values"]
    return []


def metrics_rmse(metrics_csv, split: str = "test") -> float:
    with open(metrics_csv, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["dataset"].endswith(f"/{split}"):
                return float(row["rmse"])
    raise KeyError(f"no {split} row in {metrics_csv}")


@_guard
def trace_matches_metrics(metrics_csv, trace_csv, windows: int) -> list[str]:
    """Both metrics-CSV RMSEs equal the RMSE recomputed from the trace CSV."""
    with open(trace_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != windows:
        problems.append(f"trace has {len(rows)} rows, expected {windows}")
    for split in ("train", "test"):
        err = np.array([float(r["actual"]) - float(r["predicted"])
                        for r in rows if r["split"] == split])
        recomputed = float(np.sqrt(np.mean(err * err))) if err.size else math.nan
        reported = metrics_rmse(metrics_csv, split)
        if recomputed != reported:
            problems.append(f"{split} rmse {reported!r} in the metrics CSV, "
                            f"{recomputed!r} from the trace CSV")
    return problems


def same_digest(what: str, digests) -> list[str]:
    """Every artifact built from the same inputs has the same bytes."""
    distinct = sorted(set(digests))
    return [] if len(distinct) <= 1 else [f"{what} digests differ: {distinct}"]
