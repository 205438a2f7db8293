"""Forecast metrics and one-step-ahead prediction traces.

RMSE = sqrt(mean (y - yhat)^2), MAE = mean |y - yhat|, NMAE = MAE over
the range of the actuals, MAPE = mean |y - yhat| / |y| over terms whose
actual is not nearly zero (reported as a fraction). NMAE and MAPE are
undefined on degenerate inputs and reported as None rather than faked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError
from .model import ModelParams, predict_windows
from .preprocess import MinMaxScaler, SplitDataset, WindowedDataset, apply_scaler
from .series import fmt_float

MAPE_ZERO_THRESHOLD = 1e-8


@dataclass(frozen=True)
class MetricsReport:
    rmse: float
    mae: float
    nmae: float | None
    mape: float | None
    n: int
    mape_excluded: int
    space: str = "scaled"

    def __post_init__(self):
        # Power-mean inequality, with one ulp of slack for degenerate ties.
        if not (self.rmse >= self.mae or math.isclose(self.rmse, self.mae, rel_tol=1e-12)):
            raise ValidationError(
                f"rmse ({self.rmse}) < mae ({self.mae}): metric computation is broken"
            )


def compute_metrics(actual, predicted, space: str = "scaled") -> MetricsReport:
    """All four metrics over aligned actual/predicted vectors."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.shape != predicted.shape or actual.ndim != 1:
        raise ValueError(
            f"actual {actual.shape} and predicted {predicted.shape} must be equal-length vectors"
        )
    if actual.size == 0:
        raise ValueError("cannot compute metrics over zero points")
    included = np.abs(actual) >= MAPE_ZERO_THRESHOLD
    excluded = int(actual.size - included.sum())
    with np.errstate(over="ignore"):
        err = actual - predicted
        rmse = float(np.sqrt(np.mean(err * err)))
        mae = float(np.mean(np.abs(err)))
        actual_range = float(actual.max() - actual.min())
        ape = np.abs(err[included]) / np.abs(actual[included])
        mape = float(np.mean(ape)) if ape.size else None
    if not np.isfinite([rmse, mae, actual_range, mape or 0.0]).all():
        raise ValidationError(f"{space}-space metrics overflow float64")
    nmae = mae / actual_range if actual_range > 0 else None
    return MetricsReport(rmse, mae, nmae, mape, int(actual.size), excluded, space)


@dataclass(frozen=True)
class PredictionTrace:
    """Aligned actual/predicted rows for plotting, tagged by split."""

    origin_indices: np.ndarray
    timestamps: np.ndarray
    actual: np.ndarray
    predicted: np.ndarray
    split: tuple[str, ...]

    def __post_init__(self):
        n = len(self.split)
        for name in ("origin_indices", "timestamps", "actual", "predicted"):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (n,):
                raise ValidationError(f"trace field {name} does not align with split tags")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "split", tuple(self.split))

    def __len__(self) -> int:
        return len(self.split)

    @staticmethod
    def concat(first: "PredictionTrace", second: "PredictionTrace") -> "PredictionTrace":
        return PredictionTrace(
            np.concatenate([first.origin_indices, second.origin_indices]),
            np.concatenate([first.timestamps, second.timestamps]),
            np.concatenate([first.actual, second.actual]),
            np.concatenate([first.predicted, second.predicted]),
            first.split + second.split,
        )


def one_step_predictions(
    m: ModelParams,
    ds: WindowedDataset,
    scaler: MinMaxScaler | None = None,
    space: str = "scaled",
    split: str = "test",
) -> PredictionTrace:
    """Teacher-forced predictions: every target predicted from its true
    preceding W values, never from fed-back model output.

    ``space='original'`` maps both columns back through the inverse
    scaler.
    """
    if space not in ("scaled", "original"):
        raise ValueError(f"space must be 'scaled' or 'original', got {space!r}")
    predicted = predict_windows(m, ds.windows)
    actual = ds.targets
    if space == "original":
        if scaler is None:
            raise ConfigError("original-space predictions need the fitted scaler")
        actual, _ = apply_scaler(scaler, actual, "inverse")
        predicted, _ = apply_scaler(scaler, predicted, "inverse")
    return PredictionTrace(
        ds.origin_indices.copy(),
        ds.target_timestamps.copy(),
        np.asarray(actual, dtype=np.float64),
        predicted,
        (split,) * len(ds),
    )


def trace_for_split(
    m: ModelParams,
    split_ds: SplitDataset,
    scaler: MinMaxScaler | None = None,
    space: str = "scaled",
) -> PredictionTrace:
    """Train- and test-tagged traces concatenated in time order."""
    return PredictionTrace.concat(
        one_step_predictions(m, split_ds.train, scaler, space, split="train"),
        one_step_predictions(m, split_ds.test, scaler, space, split="test"),
    )


def persistence_predictions(ds: WindowedDataset) -> np.ndarray:
    """The naive baseline: predict each target's immediate predecessor."""
    return ds.windows[:, -1].copy()


def write_trace_csv(trace: PredictionTrace, path) -> None:
    lines = ["origin_index,timestamp,actual,predicted,split"]
    for i in range(len(trace)):
        lines.append(
            f"{int(trace.origin_indices[i])},{fmt_float(trace.timestamps[i])},"
            f"{fmt_float(trace.actual[i])},{fmt_float(trace.predicted[i])},{trace.split[i]}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_metrics_csv(rows: list[tuple[str, MetricsReport]], path) -> None:
    def cell(value: float | None) -> str:
        return fmt_float(value) if value is not None else "nan"

    lines = ["dataset,space,n,rmse,mae,nmae,mape,mape_excluded"]
    for label, rep in rows:
        lines.append(
            f"{label},{rep.space},{rep.n},{fmt_float(rep.rmse)},{fmt_float(rep.mae)},"
            f"{cell(rep.nmae)},{cell(rep.mape)},{rep.mape_excluded}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
