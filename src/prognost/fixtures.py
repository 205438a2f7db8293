"""Deterministic synthetic series so CI never needs the external datasets."""

from __future__ import annotations

import numpy as np

from .series import SnapshotSeries

SINE_PERIOD = 40.0
_DEGRADATION_SEED = 20030


def make_sine_series(n: int) -> SnapshotSeries:
    """Noiseless sine with a 40-sample period; the overfit fixture."""
    if n < 2:
        raise ValueError("fixture needs at least 2 points")
    idx = np.arange(n, dtype=np.float64)
    return SnapshotSeries(idx, np.sin(2.0 * np.pi * idx / SINE_PERIOD))


def make_degradation_series(n: int) -> SnapshotSeries:
    """Run-to-failure-shaped trend: flat, slow rise, sharp end, plus a few
    spikes for the outlier filter to chew on. Fixed internal seed."""
    if n < 10:
        raise ValueError("fixture needs at least 10 points")
    rng = np.random.Generator(np.random.PCG64(_DEGRADATION_SEED))
    idx = np.arange(n, dtype=np.float64)
    frac = idx / (n - 1)
    trend = 0.1 + 0.05 * frac + 0.6 * frac**6
    noise = rng.normal(0.0, 0.004, size=n)
    values = trend + noise
    spike_at = rng.choice(np.arange(5, max(6, n - 5)), size=max(1, n // 80), replace=False)
    values[spike_at] += rng.uniform(0.3, 0.6, size=spike_at.size)
    return SnapshotSeries(idx, values)


def make_fixture_series(kind: str, n: int) -> SnapshotSeries:
    if kind == "sine":
        return make_sine_series(n)
    if kind == "degradation":
        return make_degradation_series(n)
    raise ValueError(f"unknown fixture kind {kind!r}; use 'sine' or 'degradation'")
