"""Seeded input generators for the benchmark workloads.

Sizes are fixed per workload size; only the values depend on the seed, so
a figure measured on one seed can be re-checked on a fresh one. Every
generator returns what the output checks need to verify the program's
results, plus a sha256 digest of the bytes it wrote.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMS_ROWS = 20480
IMS_CHANNELS = 4
IMS_START = 1076581959          # 2004.02.12.10.32.39 UTC, the first file of IMS dataset 2
IMS_STEP_S = 600                # snapshots are 10 minutes apart
_LUT_LIMIT = 9999               # samples are written as 3-decimal text in [-9.999, 9.999]
_LUT = np.array([f"{k / 1000:.3f}" for k in range(-_LUT_LIMIT, _LUT_LIMIT + 1)], dtype=object)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def _degradation(frac: np.ndarray) -> np.ndarray:
    """Flat, then slowly rising, then a sharp run-to-failure end."""
    return 1.0 + 0.3 * frac + 3.0 * frac**6


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def tree_digest(directory: Path) -> str:
    """Digest of the Python sources under ``directory``."""
    return _sha256_files(sorted(directory.rglob("*.py")))


@dataclass(frozen=True)
class ImsInput:
    directory: Path
    timestamps: np.ndarray      # epoch seconds of the snapshot files, in order
    values: np.ndarray          # channel-0 RMS of each snapshot, from the integer matrices
    digest: str


def make_ims_directory(directory: Path, seed: int, n_files: int, n_truncated: int) -> ImsInput:
    """A directory shaped like IMS dataset 2.

    Each file is 20480x4 tab-separated 3-decimal samples named
    ``yyyy.MM.dd.HH.mm.ss``; channel 0 is a tone plus noise whose amplitude
    follows a degradation trend, the other channels are noise. ``n_truncated`` files at fixed positions are cut short, and one
    entry is not a snapshot.
    """
    rng = _rng(seed, 1)
    directory.mkdir(parents=True)
    frac = np.arange(n_files) / max(n_files - 1, 1)
    amp0 = 0.07 * _degradation(frac)
    truncated_at = {int(i): IMS_ROWS // (2 + j) for j, i in
                    enumerate(np.linspace(n_files // 4, n_files - 2, n_truncated).astype(int))}
    timestamps = IMS_START + IMS_STEP_S * np.arange(n_files, dtype=np.float64)
    rms = np.empty(n_files)
    paths = []
    for f in range(n_files):
        rows = truncated_at.get(f, IMS_ROWS)
        noise = rng.standard_normal((rows, IMS_CHANNELS)) * np.array([0.2 * amp0[f], 0.08, 0.06, 0.07])
        # A 2 kHz tone at 20 kHz sampling: whole cycles, so the RMS trend
        # depends on the seed far less than the samples do.
        noise[:, 0] += amp0[f] * np.sin(2.0 * np.pi * np.arange(rows) / 10.0 + rng.uniform(0, 2 * np.pi))
        k = np.rint(noise * 1000).astype(np.int64)
        np.clip(k, -_LUT_LIMIT, _LUT_LIMIT, out=k)
        col = k[:, 0] / 1000.0
        rms[f] = np.sqrt(np.mean(np.square(col)))
        path = directory / time.strftime("%Y.%m.%d.%H.%M.%S", time.gmtime(timestamps[f]))
        path.write_text("\n".join(map("\t".join, _LUT[k + _LUT_LIMIT].tolist())) + "\n",
                        encoding="ascii")
        paths.append(path)
    note = directory / "README.txt"
    note.write_text("not a snapshot\n", encoding="ascii")
    paths.append(note)
    return ImsInput(directory, timestamps, rms, _sha256_files(paths))


@dataclass(frozen=True)
class CsvInput:
    path: Path
    timestamps: np.ndarray
    values: np.ndarray          # as written; NaN where the cell is empty
    digest: str


def _write_csv(path: Path, header: str, columns) -> str:
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join("" if isinstance(v, float) and np.isnan(v) else repr(v) for v in row))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def make_trend_csv(path: Path, seed: int, n: int) -> CsvInput:
    """``timestamp,value`` run-to-failure trend with a fixed number of spikes."""
    rng = _rng(seed, 2)
    frac = np.arange(n) / (n - 1)
    values = 0.1 * _degradation(frac) + rng.normal(0.0, 0.0005, n)
    spikes = rng.choice(np.arange(5, n - 5), size=n // 80, replace=False)
    values[spikes] += rng.uniform(0.3, 0.6, spikes.size)
    ts = IMS_START + IMS_STEP_S * np.arange(n, dtype=np.float64)
    digest = _write_csv(path, "timestamp,value", (ts.tolist(), values.tolist()))
    return CsvInput(path, ts, values, digest)


def _scada_signal(rng: np.random.Generator, n: int, offset: int) -> np.ndarray:
    idx = np.arange(offset, offset + n)
    daily = 0.2 * np.sin(2.0 * np.pi * idx / 144.0)
    return 1.0 + daily + 0.3 * idx / 20000.0 + rng.normal(0.0, 0.005, n)


def make_scada_csv(path: Path, seed: int, n: int) -> CsvInput:
    """SCADA export: timestamp, vibration and temperature columns.

    Empty vibration cells come in a fixed number of runs of 1, 2 and 3 rows
    (``preprocess`` interpolates gaps up to 3), at seeded places; a fixed
    number of spikes are left for the outlier filter.
    """
    rng = _rng(seed, 3)
    values = _scada_signal(rng, n, 0)
    temperature = np.round(40.0 + rng.normal(0.0, 0.5, n), 2)
    spikes = rng.choice(np.arange(20, n - 20), size=n // 100, replace=False)
    values[spikes] += rng.uniform(1.0, 2.0, spikes.size)
    gap_starts = np.sort(rng.choice(np.arange(20, n - 20, 8), size=n // 100, replace=False))
    for start, length in zip(gap_starts, 1 + np.arange(gap_starts.size) % 3):
        values[start:start + length] = np.nan
    ts = IMS_START + IMS_STEP_S * np.arange(n, dtype=np.float64)
    digest = _write_csv(path, "timestamp,vibration,temperature",
                        (ts.tolist(), values.tolist(), temperature.tolist()))
    return CsvInput(path, ts, values, digest)


def make_scada_history(path: Path, seed: int, n: int) -> CsvInput:
    """Clean ``timestamp,value`` history of the same machine, for training
    the model that ``scada_eval`` serves."""
    rng = _rng(seed, 4)
    values = _scada_signal(rng, n, 0)
    ts = IMS_START - IMS_STEP_S * np.arange(n, 0, -1, dtype=np.float64)
    digest = _write_csv(path, "timestamp,value", (ts.tolist(), values.tolist()))
    return CsvInput(path, ts, values, digest)
