"""Cleaning, min-max normalization, windowing and chronological splitting.

The normalization is x' = (x - min(x)) / (max(x) - min(x)). Windowing
pairs each run of W consecutive values with the value that follows it;
the split keeps the first 70% (SPLIT_RATIO) of windows for training so
no future degradation leaks backwards in time. The paper fixes that
ratio, and a model file does not record it, so train and evaluate both
use the constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    ConstantSeriesError,
    EmptyDatasetError,
    GapTooLargeError,
    InsufficientDataError,
    ValidationError,
)
from .series import SnapshotSeries, frozen_copy

SPLIT_RATIO = 0.7
DEFAULT_OUTLIER_WINDOW = 11
DEFAULT_OUTLIER_K = 5.0
DEFAULT_MAX_GAP = 3


@dataclass(frozen=True)
class MinMaxScaler:
    """The two extremes that define the normalization map."""

    min: float
    max: float

    def __post_init__(self):
        # a non-finite bound makes the range non-finite too
        if not np.isfinite(self.max - self.min):
            raise ConstantSeriesError("scaler bounds and their range must be finite")
        if not self.max > self.min:
            raise ConstantSeriesError(
                f"max ({self.max}) must exceed min ({self.min}); "
                "a constant series cannot be min-max scaled"
            )

    @property
    def range(self) -> float:
        return self.max - self.min


@dataclass(frozen=True)
class WindowedDataset:
    """Stride-1 sliding windows with one scalar target per window.

    ``origin_indices[i]`` is the index of target i in the source series
    (window i covers series[i .. i+W), target i is series[i+W]).
    """

    windows: np.ndarray
    targets: np.ndarray
    origin_indices: np.ndarray
    target_timestamps: np.ndarray

    def __post_init__(self):
        windows = frozen_copy(self.windows)
        targets = frozen_copy(self.targets)
        origins = frozen_copy(self.origin_indices, dtype=np.int64)
        ts = frozen_copy(self.target_timestamps)
        if windows.ndim != 2 or windows.shape[1] < 1:
            raise ValidationError("windows must be (n, window_length >= 1)")
        n = windows.shape[0]
        if not (targets.shape == origins.shape == ts.shape == (n,)):
            raise ValidationError("targets, origin_indices and timestamps must align")
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "origin_indices", origins)
        object.__setattr__(self, "target_timestamps", ts)

    def __len__(self) -> int:
        return int(self.targets.size)

    @property
    def window_length(self) -> int:
        return int(self.windows.shape[1])

    def slice(self, start: int, stop: int) -> "WindowedDataset":
        return WindowedDataset(
            self.windows[start:stop],
            self.targets[start:stop],
            self.origin_indices[start:stop],
            self.target_timestamps[start:stop],
        )


@dataclass(frozen=True)
class SplitDataset:
    """Chronological train/test halves of a WindowedDataset."""

    train: WindowedDataset
    test: WindowedDataset

    def __post_init__(self):
        if len(self.train) == 0 or len(self.test) == 0:
            raise InsufficientDataError("both split sides must be nonempty")
        if self.train.origin_indices[-1] >= self.test.origin_indices[0]:
            raise ValidationError("train windows must precede test windows")


def _rolling_median_mad(values: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Centered rolling median and MAD; edge windows are truncated.

    A truncated window of even length takes the lower of its two middle
    values as its median, so the median is always a value of the window.
    Averaging the two would let remove_outliers approach its fixpoint only
    geometrically: [0, 1, 2, 0] with window 5 and k 2 halved a value on
    every pass and never settled.
    """
    n = values.size
    half = window // 2
    med = np.empty(n)
    mad = np.empty(n)
    if n >= window:
        inner = sliding_window_view(values, window)
        med[half : n - half] = np.median(inner, axis=1)
        mad[half : n - half] = np.median(
            np.abs(inner - med[half : n - half, None]), axis=1
        )
    edge = range(n) if n < window else [*range(half), *range(n - half, n)]
    for i in edge:
        w = values[max(0, i - half) : min(n, i + half + 1)]
        mid = (w.size - 1) // 2
        med[i] = np.partition(w, mid)[mid]
        mad[i] = np.median(np.abs(w - med[i]))
    return med, mad


_OUTLIER_PASS_CAP = 1000


def remove_outliers(
    series: SnapshotSeries,
    window: int = DEFAULT_OUTLIER_WINDOW,
    k: float = DEFAULT_OUTLIER_K,
) -> tuple[SnapshotSeries, list[int]]:
    """Replace spikes by the local rolling median.

    A point is an outlier when its deviation from the centered rolling
    median exceeds k times the rolling median absolute deviation. In a
    locally constant neighborhood the MAD is zero and any deviating point
    is replaced; a point equal to its local median never is. The pass
    repeats until no point trips the criterion or the values return to a
    state an earlier pass produced: every flagged point is replaced at
    once from the last pass's medians, so the passes can cycle (with
    period 2 at k 0.5). The output is that state, a fixpoint or a point
    on the cycle, so filtering it again returns the same values and no
    indices. The returned indices are the points whose final value
    differs from the input.
    """
    if window < 3 or window % 2 == 0:
        raise ConfigError("outlier window must be odd and >= 3")
    if not k > 0:
        raise ConfigError("outlier threshold k must be > 0")
    if len(series) < 3:
        return series, []
    series.require_finite("remove_outliers")

    values = series.values.copy()
    seen = {values.tobytes()}
    for _ in range(_OUTLIER_PASS_CAP):
        med, mad = _rolling_median_mad(values, window)
        replace = np.abs(values - med) > k * mad
        if not replace.any():
            break
        values[replace] = med[replace]
        if values.tobytes() in seen:
            break
        seen.add(values.tobytes())
    else:
        raise ValidationError(
            f"outlier filter did not reach a fixpoint in {_OUTLIER_PASS_CAP} passes"
        )
    if len(seen) == 1:  # no pass changed a value
        return series, []
    replaced = np.flatnonzero(values != series.values)
    return series.with_values(values), [int(i) for i in replaced]


def fill_missing(series: SnapshotSeries, max_gap: int = DEFAULT_MAX_GAP) -> SnapshotSeries:
    """Linearly interpolate short runs of non-finite values.

    Interior runs of at most ``max_gap`` points are interpolated against
    the timestamp axis; longer runs are an error telling the user to
    split the series there. Leading and trailing non-finite values are
    dropped (there is no second neighbor to interpolate against).
    """
    if max_gap < 1:
        raise ConfigError("max_gap must be >= 1")
    finite = np.isfinite(series.values)
    if finite.all():
        return series
    if not finite.any():
        raise EmptyDatasetError("series has no finite values")

    first, last = np.flatnonzero(finite)[[0, -1]]
    ts = series.timestamps[first : last + 1]
    vals = series.values[first : last + 1]
    finite = finite[first : last + 1]

    missing = np.flatnonzero(~finite)
    if missing.size:
        # contiguous runs of missing indices
        breaks = np.flatnonzero(np.diff(missing) > 1)
        run_starts = missing[np.r_[0, breaks + 1]]
        run_ends = missing[np.r_[breaks, missing.size - 1]]
        for a, b in zip(run_starts, run_ends):
            if b - a + 1 > max_gap:
                raise GapTooLargeError(
                    f"gap of {b - a + 1} missing values at series indices "
                    f"{first + a}..{first + b} exceeds max_gap={max_gap}; "
                    "split the series at this gap and process the parts separately"
                )
        vals = vals.copy()
        vals[missing] = np.interp(ts[missing], ts[finite], vals[finite])
    return SnapshotSeries(ts, vals)


def fit_minmax(series: SnapshotSeries) -> MinMaxScaler:
    """Scaler spanning the extremes of the series."""
    if len(series) == 0:
        raise EmptyDatasetError("cannot fit a scaler on an empty series")
    series.require_finite("fit_minmax")
    return MinMaxScaler(float(series.values.min()), float(series.values.max()))


def apply_scaler(
    scaler: MinMaxScaler,
    values,
    direction: str = "forward",
) -> tuple[np.ndarray, bool]:
    """Map values into (forward) or out of (inverse) the unit interval.

    Inputs outside the fit range extrapolate linearly; the returned flag
    reports whether any did. An inverse map that overflows raises.
    """
    values = np.asarray(values, dtype=np.float64)
    if direction == "forward":
        out = (values - scaler.min) / scaler.range
        out_of_range = bool(((values < scaler.min) | (values > scaler.max)).any())
    elif direction == "inverse":
        with np.errstate(over="ignore"):
            out = values * scaler.range + scaler.min
        if not np.isfinite(out).all():
            raise ValidationError(f"values overflow float64 once mapped back through the "
                                  f"scaler [{scaler.min!r}, {scaler.max!r}]")
        out_of_range = bool(((values < 0.0) | (values > 1.0)).any())
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return out, out_of_range


def make_windows(series: SnapshotSeries, window_length: int) -> WindowedDataset:
    """Stride-1 windows of length W, each predicting the value after it."""
    if window_length < 1:
        raise ConfigError("window_length must be >= 1")
    n = len(series)
    if n <= window_length:
        raise InsufficientDataError(
            f"series of length {n} yields no windows of length {window_length}"
        )
    series.require_finite("make_windows")
    windows = sliding_window_view(series.values, window_length)[: n - window_length]
    return WindowedDataset(
        windows=windows,
        targets=series.values[window_length:],
        origin_indices=np.arange(window_length, n),
        target_timestamps=series.timestamps[window_length:],
    )


def _train_count(n_windows: int) -> int:
    """How many leading windows train: floor(SPLIT_RATIO * n_windows),
    provided both sides of the split keep at least one window."""
    n_train = int(np.floor(SPLIT_RATIO * n_windows))
    if not 0 < n_train < n_windows:
        raise InsufficientDataError(
            f"splitting {max(n_windows, 0)} windows at ratio {SPLIT_RATIO} leaves an empty side"
        )
    return n_train


def split_train_test(ds: WindowedDataset) -> SplitDataset:
    """First floor(SPLIT_RATIO * n) windows train, the rest test. No shuffling."""
    n = len(ds)
    if n == 0:
        raise EmptyDatasetError("cannot split an empty window dataset")
    n_train = _train_count(n)
    return SplitDataset(ds.slice(0, n_train), ds.slice(n_train, n))


def _scaled_split(series: SnapshotSeries, scaler: MinMaxScaler, window_length: int) -> SplitDataset:
    """Scale, window and split: the one path that train and evaluate share."""
    scaled, _ = apply_scaler(scaler, series.values, "forward")
    return split_train_test(make_windows(series.with_values(scaled), window_length))


def prepare_training_data(
    series: SnapshotSeries,
    window_length: int,
) -> tuple[SplitDataset, MinMaxScaler]:
    """Scale, window and split a clean series without test leakage.

    The scaler is fit on exactly the prefix of the series that the
    training windows and targets can see, then applied to the whole
    series before windowing.
    """
    series.require_finite("prepare_training_data")
    prefix = _train_count(len(series) - window_length) + window_length
    scaler = fit_minmax(series.slice(0, prefix))
    return _scaled_split(series, scaler, window_length), scaler


def prepare_eval_data(
    series: SnapshotSeries,
    scaler: MinMaxScaler,
    window_length: int,
) -> SplitDataset:
    """Scale with an existing (model-baked) scaler, then window and split."""
    series.require_finite("prepare_eval_data")
    return _scaled_split(series, scaler, window_length)
