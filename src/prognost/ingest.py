"""Readers for IMS-style run-to-failure snapshot directories and CSV series.

An IMS snapshot file is ASCII, one sample per line, channels separated by
tabs or runs of whitespace, nominally 20480 rows (1 s at 20 kHz). The
recording time is encoded in the filename as ``yyyy.MM.dd.HH.mm.ss``.
Each snapshot is reduced to a single trend value (RMS by default) so a
whole run-to-failure directory becomes one SnapshotSeries.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, EmptyDatasetError, ParseError, ValidationError
from .model import _workers
from .series import SnapshotSeries, frozen_copy

IMS_FILENAME_FORMAT = "%Y.%m.%d.%H.%M.%S"
IMS_EXPECTED_ROWS = 20480

AGGREGATION_METHODS = ("rms", "mean_abs", "peak")

# Fewest snapshot files that load_ims_series parses in worker processes. A
# pool costs about 23 ms (12 ms of imports, 11 ms to start and stop two
# workers) against about 7 ms per 20480x4 file through loadtxt. With two
# workers (2-core Xeon VM, fresh processes, 16-20 alternating rounds) the pool
# tied the serial loop at 8 and 12 such files (8/16 and 10/20 rounds won) and
# won 15-18 ms at 16 files (14/20) and 43 ms at 30 (17/20); no other worker
# count was measured. Files in the fixed decimal layout (_parse_fixed_layout)
# take about 1.2 ms each; on them the pool lost at 12-24 files (0-7 of 20-24
# rounds won), tied at 30 and 32 and won from 40.
PARALLEL_MIN_FILES = 16


@dataclass(frozen=True)
class SnapshotFileRef:
    """One snapshot file plus the epoch timestamp parsed from its name."""

    path: Path
    timestamp: float


@dataclass(frozen=True)
class SnapshotMatrix:
    """Raw samples of one snapshot: rows x channels, all finite."""

    samples: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        samples = frozen_copy(self.samples)
        if samples.ndim != 2:
            raise ValidationError("snapshot samples must be 2-D")
        if not np.isfinite(samples).all():
            raise ValidationError("snapshot samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def rows(self) -> int:
        return int(self.samples.shape[0])

    @property
    def channels(self) -> int:
        return int(self.samples.shape[1])


@dataclass(frozen=True)
class ScanResult:
    """Ordered snapshot refs plus the names that were skipped."""

    refs: tuple[SnapshotFileRef, ...]
    skipped: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.refs)


def parse_ims_timestamp(name: str) -> float | None:
    """Epoch seconds (UTC) from a ``yyyy.MM.dd.HH.mm.ss`` filename, else None."""
    try:
        dt = datetime.strptime(name, IMS_FILENAME_FORMAT)
    except ValueError:
        return None
    return dt.replace(tzinfo=timezone.utc).timestamp()


def scan_ims_directory(directory) -> ScanResult:
    """List snapshot files in timestamp order.

    Non-matching filenames are reported in ``skipped``, not fatal. The
    result is independent of directory listing order.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"not a readable directory: {directory}")
    refs = []
    skipped = []
    for entry in directory.iterdir():
        if not entry.is_file():
            skipped.append(entry.name)
            continue
        ts = parse_ims_timestamp(entry.name)
        if ts is None:
            skipped.append(entry.name)
        else:
            refs.append(SnapshotFileRef(entry, ts))
    if not refs:
        raise EmptyDatasetError(f"no parseable snapshot filenames in {directory}")
    refs.sort(key=lambda r: r.timestamp)
    for a, b in zip(refs, refs[1:]):
        if b.timestamp <= a.timestamp:
            raise ValidationError(
                f"duplicate snapshot timestamp: {a.path.name} vs {b.path.name}"
            )
    return ScanResult(tuple(refs), tuple(sorted(skipped)))


def parse_ims_file(content: str, expected_channels: int) -> SnapshotMatrix:
    """Parse one snapshot file body into a rows x channels matrix.

    Each non-blank line holds ``expected_channels`` whitespace-separated
    decimal numbers. The whole body is parsed in one ``np.loadtxt`` call
    over the lines of ``str.splitlines``, so line ends are the same as the
    line scan's; input it rejects goes to the line scan, which names the
    bad line. Row counts other than 20480 are tolerated but attach a
    warning, since public copies of the dataset contain a few truncated
    files.
    """
    if expected_channels < 1:
        raise ConfigError("expected_channels must be >= 1")
    samples = None
    # an empty body would make loadtxt warn "input contained no data"
    if content and not content.isspace():
        try:
            samples = np.loadtxt(
                content.splitlines(), dtype=np.float64, ndmin=2, comments=None
            )
        except ValueError:
            pass
    if samples is None or not (
        samples.shape[0] >= 1
        and samples.shape[1] == expected_channels
        and np.isfinite(samples).all()
    ):
        samples = _scan_ims_lines(content, expected_channels)
    return _snapshot_matrix(samples)


def _snapshot_matrix(samples: np.ndarray) -> SnapshotMatrix:
    """The parsed samples, with a warning when the row count is not 20480."""
    warnings = ()
    if samples.shape[0] != IMS_EXPECTED_ROWS:
        warnings = (
            f"expected {IMS_EXPECTED_ROWS} rows per snapshot, got {samples.shape[0]}",
        )
    return SnapshotMatrix(samples, warnings)


def _parse_fixed_layout(raw: bytes, expected_channels: int) -> np.ndarray | None:
    """Samples of a snapshot body in the fixed decimal layout, else None.

    In that layout every row is ``expected_channels`` (>= 1) tokens
    ``-?D.DDD`` (one digit, a dot, three digits) separated by single tabs,
    and every row ends with ``\\n``, or every row with ``\\r\\n``. A token is
    then an integer mantissa M < 10^4 over 1000, and M / 1000.0, correctly
    rounded, is ``float(token)`` (Clinger 1990), so the samples are those
    ``parse_ims_file`` gives for the same body. Any other body returns None.
    """
    # Most other bodies leave the layout in their first rows, so these are
    # checked alone first; a body in the layout has a row end at every "\n"
    head = raw[: raw.find(b"\n", 1024) + 1]
    if 0 < len(head) < len(raw) and _parse_fixed_layout(head, expected_channels) is None:
        return None
    a = np.frombuffer(raw, np.uint8)
    dots = np.flatnonzero(a == ord("."))
    k = dots.size
    if expected_channels < 1 or k == 0 or k % expected_channels or dots[-1] + 5 > a.size:
        return None
    sep = a[4:][dots].reshape(-1, expected_channels)
    crlf = sep[0, -1] == ord("\r")
    if crlf:
        row_ends = dots[expected_channels - 1 :: expected_channels]
        if row_ends[-1] + 6 > a.size or not (a[5:][row_ends] == ord("\n")).all():
            return None
    if not (
        (sep[:, :-1] == ord("\t")).all()
        and (sep[:, -1] == (ord("\r") if crlf else ord("\n"))).all()
    ):
        return None
    digits = [a[dots - 1], a[1:][dots], a[2:][dots], a[3:][dots]]
    for d in digits:
        d -= ord("0")
    if max(d.max() for d in digits) > 9:
        return None
    # a[dots - 2] wraps round to the last byte when the body starts "D.",
    # and a "-" there puts the first start below 0, as a dot at 0 does
    neg = a[dots - 2] == ord("-")
    # Token j spans dots[j] - 1 - neg[j] to its separator (and the "\n" of
    # "\r\n"), and every byte of the span has been checked. Spans cannot
    # overlap, since no checked byte can be two of a digit, a dot, a sign
    # and a separator, and none ends past the body (checked above); so if
    # the first starts at 0 and their lengths sum to the body's, they tile
    # it with no byte left over.
    if dots[0] - 1 - neg[0] != 0 or 6 * k + np.count_nonzero(neg) + crlf * sep.shape[0] != a.size:
        return None
    mantissa = digits[0].astype(np.int16) * 1000
    mantissa += digits[1] * np.int16(100)
    mantissa += digits[2] * np.int16(10)
    mantissa += digits[3]
    # M / -1000.0 is -(M / 1000.0), and 0 / -1000.0 is the -0.0 of "-0.000"
    divisor = neg * np.int16(-2000)
    divisor += 1000
    return np.divide(mantissa, divisor, dtype=np.float64).reshape(-1, expected_channels)


def _scan_ims_lines(content: str, expected_channels: int) -> np.ndarray:
    """Line-by-line parse of a snapshot body; raises naming the bad line.

    Also accepts tokens that ``float`` reads but ``np.loadtxt`` does not,
    such as ``1_0``.
    """
    rows = []
    for lineno, line in enumerate(content.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != expected_channels:
            raise ParseError(
                f"line {lineno}: expected {expected_channels} columns, got {len(parts)}"
            )
        rows.append((lineno, parts))
    if not rows:
        raise EmptyDatasetError("snapshot file contains no samples")
    try:
        samples = np.array([p for _, p in rows], dtype=np.float64)
    except ValueError:
        samples = None
    if samples is None:
        for lineno, parts in rows:
            for tok in parts:
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(f"line {lineno}: non-numeric token {tok!r}") from None
        raise ParseError("snapshot file contains a non-numeric token")
    bad = ~np.isfinite(samples)
    if bad.any():
        lineno = rows[int(np.argwhere(bad)[0][0])][0]
        raise ParseError(f"line {lineno}: non-finite sample value")
    return samples


def aggregate_snapshot(matrix: SnapshotMatrix, channel: int, method: str = "rms") -> float:
    """Reduce one channel of a snapshot to a single trend value."""
    if matrix.rows == 0:
        raise ValueError("cannot aggregate an empty snapshot")
    if not 0 <= channel < matrix.channels:
        raise IndexError(
            f"channel {channel} out of range for {matrix.channels}-channel snapshot"
        )
    column = matrix.samples[:, channel]
    if method == "rms":
        return float(np.sqrt(np.mean(np.square(column))))
    if method == "mean_abs":
        return float(np.mean(np.abs(column)))
    if method == "peak":
        return float(np.max(np.abs(column)))
    raise ValueError(f"unknown aggregation method {method!r}; use one of {AGGREGATION_METHODS}")


def _is_missing(token: str) -> bool:
    return token.strip() == ""


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_cell(token: str, row: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"row {row}: non-numeric {what} cell {token.strip()!r}") from None


def load_csv_series(
    path,
    value_column: int,
    timestamp_column: int | None = None,
) -> SnapshotSeries:
    """Read a delimiter-separated series file into a SnapshotSeries.

    A single header line is auto-detected: its value cell fails numeric
    parsing or, in a first row too short for the columns, every cell does.
    Empty value cells import as NaN so fill_missing can repair them.
    Without a timestamp column, indices 0,1,2,... are synthesized.
    """
    if min(value_column, timestamp_column or 0) < 0:
        raise ConfigError(f"column indices must be >= 0, got {value_column} and {timestamp_column}")
    path = Path(path)
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    lines = [(i + 1, ln) for i, ln in enumerate(raw_lines) if ln.strip() != ""]
    if not lines:
        raise EmptyDatasetError(f"no data rows in {path}")

    needed = value_column if timestamp_column is None else max(value_column, timestamp_column)

    first_row = lines[0][1].split(",")
    if len(first_row) > needed:
        tok = first_row[value_column]
        has_header = not _is_missing(tok) and not _is_number(tok)
    else:  # too short for a data row; a header only if no cell is a number
        has_header = not any(map(_is_number, first_row))
    if has_header:
        lines = lines[1:]
        if not lines:
            raise EmptyDatasetError(f"no data rows after header in {path}")

    values = []
    timestamps = []
    for rowno, line in lines:
        cells = line.split(",")
        if len(cells) <= needed:
            raise ParseError(
                f"row {rowno}: expected at least {needed + 1} columns, got {len(cells)}"
            )
        tok = cells[value_column]
        values.append(np.nan if _is_missing(tok) else _parse_cell(tok, rowno, "value"))
        if timestamp_column is not None:
            timestamps.append(_parse_cell(cells[timestamp_column], rowno, "timestamp"))

    if timestamp_column is None:
        ts = np.arange(len(values), dtype=np.float64)
    else:
        ts = np.asarray(timestamps, dtype=np.float64)
        if ts.size > 1 and not (np.diff(ts) > 0).all():
            bad = int(np.flatnonzero(np.diff(ts) <= 0)[0])
            raise ValidationError(
                f"timestamps not strictly increasing at data row {bad + 2}"
            )
    return SnapshotSeries(ts, values)


def read_series_csv(path) -> SnapshotSeries:
    """Read the canonical ``timestamp,value`` export back in."""
    return load_csv_series(path, value_column=1, timestamp_column=0)


def _load_snapshot(
    ref: SnapshotFileRef, expected_channels: int, channel: int, method: str
) -> tuple[float, tuple[str, ...]]:
    """Read, parse and aggregate one snapshot file: (value, warnings).

    A body in the fixed decimal layout is parsed from its bytes; any other
    is read again as text and parsed by ``parse_ims_file``, whose errors
    and warnings it then has. An error that the file's bytes cause is
    raised with its name before the message.
    """
    try:
        samples = _parse_fixed_layout(ref.path.read_bytes(), expected_channels)
        if samples is None:
            matrix = parse_ims_file(ref.path.read_text(encoding="ascii"), expected_channels)
        else:
            matrix = _snapshot_matrix(samples)
    except (ParseError, EmptyDatasetError) as exc:
        raise type(exc)(f"{ref.path.name}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{ref.path.name}: {exc}") from None
    return aggregate_snapshot(matrix, channel, method), matrix.warnings


def _load_share(load, refs, share: int) -> list:
    """``load`` over ``refs`` in a worker process held to the ``share``-th
    usable core. Left to itself, the kernel of a 2-core VM ran both workers
    on one core while the other stood idle: on 30 files, in 16 alternating
    rounds, the unpinned pool lost to the serial loop in 14 (median 419
    against 390 ms) and the pinned one won 14 (336 ms)."""
    with contextlib.suppress(AttributeError, OSError):
        cores = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cores[share % len(cores)]})
    return list(map(load, refs))


def load_ims_series(
    directory,
    expected_channels: int,
    channel: int,
    method: str = "rms",
) -> tuple[SnapshotSeries, ScanResult, dict[str, tuple[str, ...]]]:
    """Scan, parse and aggregate a whole IMS directory into one series.

    Also returns the parse warnings of each file that has any (such as a
    truncated snapshot), keyed by file name, in timestamp order. A file
    that cannot be read or parsed raises with its name before the message.

    With several workers (model._workers), at least PARALLEL_MIN_FILES
    files and no thread alive but the calling one (a forked child holds
    only the thread that forked it, so a lock another thread held would
    stay held there), forked worker processes parse one contiguous share
    of the files each. Results are taken in timestamp order, so the values,
    warnings and first error are those of the serial loop. A worker that
    dies raises a DataError naming the directory.
    """
    if channel < 0:
        raise ConfigError(f"channel must be >= 0, got {channel}")
    scan = scan_ims_directory(directory)
    # parse_ims_file's and aggregate_snapshot's errors, raised before any file is read
    if expected_channels < 1:
        raise ConfigError("expected_channels must be >= 1")
    if channel >= expected_channels:
        raise IndexError(f"channel {channel} out of range for {expected_channels}-channel snapshot")
    load = functools.partial(
        _load_snapshot, expected_channels=expected_channels, channel=channel, method=method
    )
    workers = min(_workers(), len(scan))
    if workers == 1 or len(scan) < PARALLEL_MIN_FILES or threading.active_count() > 1:
        results = list(map(load, scan.refs))
    else:
        # imported here, since they cost every CLI start about 12 ms
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        size = -(-len(scan) // workers)
        shares = [scan.refs[lo : lo + size] for lo in range(0, len(scan), size)]
        pool = ProcessPoolExecutor(len(shares), mp_context=multiprocessing.get_context("fork"))
        try:
            done = pool.map(functools.partial(_load_share, load), shares, range(len(shares)))
            results = [result for share in done for result in share]
        except BrokenProcessPool:
            raise DataError(f"{directory}: a snapshot parser process ended abruptly") from None
        finally:
            pool.shutdown(cancel_futures=True)

    values = [value for value, _ in results]
    warnings = {ref.path.name: w for ref, (_, w) in zip(scan.refs, results) if w}
    series = SnapshotSeries(np.array([r.timestamp for r in scan.refs]), np.array(values))
    return series, scan, warnings
