"""Canonical vibration series container and its CSV round trip.

A series is one scalar per snapshot (or per CSV row) with a strictly
increasing timestamp axis. Values may be NaN between import and
`preprocess.fill_missing`; every other stage requires finite values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError


def fmt_float(x) -> str:
    """Shortest decimal string that round-trips a 64-bit float."""
    return repr(float(x))


def frozen_copy(a, dtype=np.float64) -> np.ndarray:
    """Read-only copy of ``a`` as ``dtype``; the caller's array stays writable."""
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SnapshotSeries:
    """Ordered (timestamp, value) pairs for one vibration channel.

    timestamps are seconds (epoch seconds for IMS data, synthetic indices
    for headerless CSV imports) and must be strictly increasing.
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = frozen_copy(self.timestamps)
        vals = frozen_copy(self.values)
        if ts.ndim != 1 or vals.ndim != 1:
            raise ValidationError("timestamps and values must be 1-D")
        if ts.size != vals.size:
            raise ValidationError(
                f"length mismatch: {ts.size} timestamps vs {vals.size} values"
            )
        if not np.isfinite(ts).all():
            raise ValidationError("timestamps must be finite")
        if ts.size > 1 and not (np.diff(ts) > 0).all():
            raise ValidationError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    def require_finite(self, context: str) -> None:
        if not self.is_finite():
            bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise ValidationError(
                f"{context}: non-finite value at index {bad}; run fill_missing first"
            )

    def with_values(self, values) -> "SnapshotSeries":
        """Same axis, new values."""
        return SnapshotSeries(self.timestamps, values)

    def slice(self, start: int, stop: int) -> "SnapshotSeries":
        return SnapshotSeries(self.timestamps[start:stop], self.values[start:stop])


def write_series_csv(series: SnapshotSeries, path) -> None:
    """Canonical export: header ``timestamp,value``, shortest-round-trip floats."""
    lines = ["timestamp,value"]
    for t, v in zip(series.timestamps, series.values):
        lines.append(f"{fmt_float(t)},{fmt_float(v)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
