"""IMS directory scanning, snapshot parsing, aggregation, CSV import."""

import math
import multiprocessing
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prognost import (
    DataError,
    EmptyDatasetError,
    ParseError,
    SnapshotSeries,
    ValidationError,
    aggregate_snapshot,
    load_csv_series,
    parse_ims_file,
    read_series_csv,
    scan_ims_directory,
    write_series_csv,
)
from prognost import ingest
from prognost.ingest import IMS_EXPECTED_ROWS, SnapshotMatrix, load_ims_series
from prognost.series import fmt_float
from test_model import use_cores


def serialize_snapshot_matrix(matrix):
    """Tab-separated text that parse_ims_file maps back to the same matrix."""
    return "".join("\t".join(fmt_float(v) for v in row) + "\n" for row in matrix.samples)


def parse_oracle(content, expected_channels):
    """Line-by-line snapshot parse with float() per token.

    Checks every line's column count first, then every token, then
    finiteness, and raises the message parse_ims_file documents for the
    first failure of each kind. Returns (samples, warnings).
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
    values = []
    for lineno, parts in rows:
        row = []
        for tok in parts:
            try:
                row.append(float(tok))
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric token {tok!r}") from None
        values.append(row)
    for (lineno, _), row in zip(rows, values):
        if not all(math.isfinite(v) for v in row):
            raise ParseError(f"line {lineno}: non-finite sample value")
    notes = ()
    if len(values) != IMS_EXPECTED_ROWS:
        notes = (f"expected {IMS_EXPECTED_ROWS} rows per snapshot, got {len(values)}",)
    return np.array(values, dtype=np.float64), notes


def outcome(parse, content, expected_channels):
    """What a parse gives: the matrix bytes and its warnings, or the error."""
    try:
        samples, notes = parse(content, expected_channels)
    except Exception as exc:
        return ("error", type(exc), str(exc))
    return ("ok", samples.shape, samples.tobytes(), notes)


def parse_matrix(content, expected_channels):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m = parse_ims_file(content, expected_channels)
    assert caught == []
    return m.samples, m.warnings


FAULTS = ("nan", "inf", "1e400", "x", "1_0", "#1", "0x1p3")
FORMATS = (repr, "{:.17g}".format, "{:g}".format, "{:.6e}".format)


@st.composite
def snapshot_bodies(draw):
    """A snapshot body with random separators and line ends, maybe one fault,
    and the channel count to parse it with: its own, or twice that."""
    channels = draw(st.integers(1, 6))
    n_rows = draw(st.integers(1, 8))
    fmt = draw(st.sampled_from(FORMATS))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = [[fmt(draw(finite)) for _ in range(channels)] for _ in range(n_rows)]
    fault = draw(st.sampled_from((None, "short", "long") + FAULTS))
    if fault is not None:
        r = draw(st.integers(0, n_rows - 1))
        if fault == "short":
            del rows[r][draw(st.integers(0, channels - 1))]
        elif fault == "long":
            rows[r].insert(draw(st.integers(0, channels)), fmt(draw(finite)))
        else:
            rows[r][draw(st.integers(0, channels - 1))] = fault
    seps = st.text(alphabet=" \t\x1f\xa0", min_size=1, max_size=3)
    pads = st.text(alphabet=" \t\x1f\xa0", max_size=2)
    ends = st.sampled_from(("\n", "\r\n", "\r", "\x0b", "\x0c"))
    lines = []
    for row in rows:
        while draw(st.integers(0, 3)) == 3:
            lines.append(draw(pads))
        line = row[0] if row else ""
        for tok in row[1:]:
            line += draw(seps) + tok
        lines.append(draw(pads) + line + draw(pads))
    body = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        body = body.rstrip("\n\r\x0b\x0c")
    return body, channels * draw(st.sampled_from((1, 1, 2)))


def _touch(directory, *names):
    for name in names:
        (directory / name).write_text("0.0\n")


class TestScanImsDirectory:
    def test_ten_minute_interval_pair(self, tmp_path):
        _touch(tmp_path, "2003.10.22.12.06.24", "2003.10.22.12.16.24")
        scan = scan_ims_directory(tmp_path)
        assert len(scan.refs) == 2
        assert scan.refs[1].timestamp - scan.refs[0].timestamp == 600.0

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            scan_ims_directory(tmp_path)

    def test_non_matching_names_reported_skipped(self, tmp_path):
        _touch(tmp_path, "README.txt", "2003.10.22.12.06.24")
        scan = scan_ims_directory(tmp_path)
        assert len(scan.refs) == 1
        assert scan.skipped == ("README.txt",)

    def test_sorted_regardless_of_creation_order(self, tmp_path):
        names = [
            "2003.11.25.23.39.56",
            "2003.10.22.12.06.24",
            "2003.10.29.06.42.53",
            "2003.11.01.00.00.00",
        ]
        _touch(tmp_path, *names)
        scan = scan_ims_directory(tmp_path)
        got = [r.path.name for r in scan.refs]
        assert got == sorted(names)
        ts = [r.timestamp for r in scan.refs]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_duplicate_timestamp_rejected(self, tmp_path):
        # strptime accepts unpadded fields, so two names can encode one instant
        _touch(tmp_path, "2003.10.22.12.06.24", "2003.10.22.12.6.24")
        with pytest.raises(ValidationError, match="duplicate"):
            scan_ims_directory(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(OSError):
            scan_ims_directory(tmp_path / "nope")


class TestParseImsFile:
    def test_direct_two_by_two(self):
        m = parse_ims_file("0.1\t0.2\n0.3\t0.4\n", expected_channels=2)
        assert m.rows == 2 and m.channels == 2
        np.testing.assert_array_equal(m.samples, [[0.1, 0.2], [0.3, 0.4]])

    def test_wrong_column_count_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_ims_file("0.1\t0.2\n0.3\n", expected_channels=2)

    def test_non_numeric_token_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_ims_file("0.1\t0.2\nxx\t0.4\n", expected_channels=2)

    def test_row_count_warning(self):
        m = parse_ims_file("0.1\n0.2\n0.3\n", expected_channels=1)
        assert m.warnings and "20480" in m.warnings[0]

    @pytest.mark.filterwarnings("error")
    def test_blank_and_empty_bodies_have_no_samples(self):
        for body in ("", "\n\n", " \t \r\n\x0c"):
            with pytest.raises(EmptyDatasetError, match="no samples"):
                parse_ims_file(body, expected_channels=2)

    def test_vertical_tab_ends_a_line(self):
        m = parse_ims_file("1 2\x0b3 4", expected_channels=2)
        np.testing.assert_array_equal(m.samples, [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ParseError, match="^line 1: expected 2 columns, got 1$"):
            parse_ims_file("1\x0b2\n3\x0c4\n", expected_channels=2)

    def test_underscore_digits_parse_as_float_does(self):
        m = parse_ims_file("1_0\t2\n", expected_channels=2)
        np.testing.assert_array_equal(m.samples, [[10.0, 2.0]])

    def test_non_finite_value_names_line(self):
        with pytest.raises(ParseError, match="^line 3: non-finite"):
            parse_ims_file("0.1\t0.2\n\n1e400\t0.4\n", expected_channels=2)

    @settings(max_examples=300, deadline=None)
    @given(snapshot_bodies())
    def test_matches_line_scan_oracle(self, case):
        body, channels = case
        assert outcome(parse_matrix, body, channels) == outcome(parse_oracle, body, channels)

    def test_runs_of_spaces_accepted(self):
        m = parse_ims_file("0.1   0.2\n0.3 \t 0.4\n", expected_channels=2)
        np.testing.assert_array_equal(m.samples, [[0.1, 0.2], [0.3, 0.4]])

    def test_serialize_parse_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(3))
        original = SnapshotMatrix(rng.normal(0, 0.25, size=(64, 4)))
        back = parse_ims_file(serialize_snapshot_matrix(original), expected_channels=4)
        # full float precision round trip
        assert np.array_equal(back.samples, original.samples)

    @pytest.mark.skipif(
        "IMS_DATASET_DIR" not in os.environ,
        reason="set IMS_DATASET_DIR to a directory of IMS dataset-2 snapshot files",
    )
    def test_real_ims_dataset2_file(self):
        scan = scan_ims_directory(os.environ["IMS_DATASET_DIR"])
        m = parse_ims_file(scan.refs[0].path.read_text(), expected_channels=4)
        assert (m.rows, m.channels) == (20480, 4)


class TestFastPathGuard:
    """Valid bodies must never reach the line scan, which is several times slower."""

    def test_valid_snapshot_never_reaches_scan(self, monkeypatch):
        def scan(content, expected_channels):
            raise AssertionError("a valid snapshot fell back to the line scan")

        monkeypatch.setattr(ingest, "_scan_ims_lines", scan)
        rng = np.random.Generator(np.random.PCG64(4))
        original = SnapshotMatrix(rng.normal(0, 0.25, size=(IMS_EXPECTED_ROWS, 4)))
        back = parse_ims_file(serialize_snapshot_matrix(original), expected_channels=4)
        assert np.array_equal(back.samples, original.samples)
        assert back.warnings == ()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0.1\t0.2\n0.3\n", "line 2: expected 2 columns, got 1"),
            ("0.1\t0.2\nxx\t0.4\n", "line 2: non-numeric token 'xx'"),
            ("0.1\t0.2\n0.3\tnan\n", "line 2: non-finite sample value"),
            ("0.1\t0.2\t0.3\n", "line 1: expected 2 columns, got 3"),
        ],
    )
    def test_bad_lines_raise_from_scan(self, monkeypatch, body, message):
        calls = []
        real_scan = ingest._scan_ims_lines

        def scan(content, expected_channels):
            calls.append(content)
            return real_scan(content, expected_channels)

        monkeypatch.setattr(ingest, "_scan_ims_lines", scan)
        with pytest.raises(ParseError) as info:
            parse_ims_file(body, expected_channels=2)
        assert str(info.value) == message
        assert calls == [body]


class TestAggregateSnapshot:
    def test_rms_two_elements(self):
        m = SnapshotMatrix(np.array([[3.0], [4.0]]))
        assert aggregate_snapshot(m, 0, "rms") == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_zero_column_all_methods(self):
        m = SnapshotMatrix(np.zeros((3, 1)))
        for method in ("rms", "mean_abs", "peak"):
            assert aggregate_snapshot(m, 0, method) == 0.0

    def test_rms_matches_two_pass_summation_oracle(self):
        rng = np.random.Generator(np.random.PCG64(11))
        column = rng.normal(0.05, 0.12, size=20480)
        m = SnapshotMatrix(column[:, None])
        got = aggregate_snapshot(m, 0, "rms")
        oracle = math.sqrt(math.fsum(v * v for v in column) / column.size)
        assert abs(got - oracle) / oracle < 1e-12

    def test_mean_abs_and_peak_oracles(self):
        rng = np.random.Generator(np.random.PCG64(12))
        column = rng.normal(0, 1, size=513)
        m = SnapshotMatrix(column[:, None])
        assert aggregate_snapshot(m, 0, "mean_abs") == pytest.approx(
            math.fsum(abs(v) for v in column) / column.size, rel=1e-12
        )
        assert aggregate_snapshot(m, 0, "peak") == max(abs(v) for v in column)

    def test_peak_bounds_rms(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(50):
            column = rng.normal(0, rng.uniform(0.1, 10), size=int(rng.integers(1, 200)))
            m = SnapshotMatrix(column[:, None])
            rms = aggregate_snapshot(m, 0, "rms")
            peak = aggregate_snapshot(m, 0, "peak")
            assert peak >= rms >= 0.0
            assert (rms == 0.0) == bool((column == 0).all())

    def test_empty_matrix_domain_error(self):
        m = SnapshotMatrix(np.empty((0, 2)))
        with pytest.raises(ValueError):
            aggregate_snapshot(m, 0, "rms")

    def test_channel_out_of_range(self):
        m = SnapshotMatrix(np.zeros((4, 2)))
        with pytest.raises(IndexError):
            aggregate_snapshot(m, 2, "rms")


class TestLoadCsvSeries:
    def test_header_and_explicit_timestamps(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,v\n0,1.5\n60,1.7\n")
        series = load_csv_series(path, value_column=1, timestamp_column=0)
        np.testing.assert_array_equal(series.timestamps, [0.0, 60.0])
        np.testing.assert_array_equal(series.values, [1.5, 1.7])

    def test_synthesized_index_timestamps(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0\n2.0\n")
        series = load_csv_series(path, value_column=0)
        np.testing.assert_array_equal(series.timestamps, [0.0, 1.0])
        np.testing.assert_array_equal(series.values, [1.0, 2.0])

    def test_non_monotonic_timestamps_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("10,1.0\n10,2.0\n")
        with pytest.raises(ValidationError):
            load_csv_series(path, value_column=1, timestamp_column=0)

    def test_non_numeric_value_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("v\n1.0\noops\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv_series(path, value_column=0)

    @pytest.mark.parametrize("body", ["5\n1,2\n2,3\n3,4\n", "1,2\n5\n2,3\n"])
    def test_short_numeric_row_is_a_data_error_first_or_later(self, tmp_path, capsys, body):
        from prognost.cli import run

        path = tmp_path / "s.csv"
        path.write_text(body)
        row = body.splitlines().index("5") + 1
        with pytest.raises(ParseError, match=f"row {row}: expected at least 2 columns, got 1"):
            load_csv_series(path, value_column=1, timestamp_column=0)
        out = tmp_path / "o.csv"
        assert run(["ingest", "--csv", str(path), "--ts-col", "0", "--value-col", "1",
                    "--out", str(out)]) == 2
        assert f"row {row}: expected" in capsys.readouterr().err and not out.exists()

    def test_short_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("series 7\n0,1.5\n60,1.7\n")
        series = load_csv_series(path, value_column=1, timestamp_column=0)
        np.testing.assert_array_equal(series.values, [1.5, 1.7])

    def test_empty_cell_becomes_nan(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,v\n0,1.0\n1,\n2,2.0\n")
        series = load_csv_series(path, value_column=1, timestamp_column=0)
        assert np.isnan(series.values[1])
        np.testing.assert_array_equal(series.values[[0, 2]], [1.0, 2.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_csv_series(path, value_column=0)

    def test_canonical_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(5))
        series = SnapshotSeries(np.arange(40.0), rng.normal(0.1, 0.03, 40))
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        back = read_series_csv(path)
        assert np.array_equal(back.timestamps, series.timestamps)
        assert np.array_equal(back.values, series.values)

    @pytest.mark.skipif(
        "HYDRO_CSV" not in os.environ,
        reason="set HYDRO_CSV to the downloaded hydropower series file",
    )
    def test_real_hydro_series_file(self):
        value_col = int(os.environ.get("HYDRO_VALUE_COL", "0"))
        ts_col = os.environ.get("HYDRO_TS_COL")
        series = load_csv_series(
            os.environ["HYDRO_CSV"], value_col, int(ts_col) if ts_col else None
        )
        values = series.values[np.isfinite(series.values)]
        assert len(series) > 100
        assert values.min() < values.max()


def die(*args, **kwargs):
    os._exit(3)


_load_snapshot = ingest._load_snapshot
PARSED_HERE = []


def load_here(ref, *args, **kwargs):
    """``_load_snapshot``, noting the file in PARSED_HERE; a forked worker
    notes it in its own copy, which this process never sees."""
    PARSED_HERE.append(ref.path.name)
    return _load_snapshot(ref, *args, **kwargs)


def ims_workers(mp, cores):
    """Run load_ims_series on ``cores`` workers, pooled from 2 files on."""
    use_cores(mp, cores)
    mp.setattr(ingest, "PARALLEL_MIN_FILES", 2)


class TestLoadImsSeries:
    cores = 1

    @pytest.fixture(autouse=True)
    def _on_cores(self, monkeypatch):
        ims_workers(monkeypatch, self.cores)
        yield
        # no worker outlives the call, whether it returned or raised
        assert multiprocessing.active_children() == []

    def _make_dir(self, tmp_path, n_files=4, rows=32, channels=2, seed=7):
        rng = np.random.Generator(np.random.PCG64(seed))
        data = {}
        for i in range(n_files):
            name = f"2004.02.12.{10 + i:02d}.32.39"
            body = "\n".join(
                "\t".join(repr(float(v)) for v in rng.normal(0, 0.2, channels))
                for _ in range(rows)
            )
            (tmp_path / name).write_text(body + "\n")
            data[name] = body
        return data

    def test_matches_sequential_oracle(self, tmp_path):
        self._make_dir(tmp_path)
        series, scan, warnings = load_ims_series(tmp_path, expected_channels=2, channel=1)
        assert len(series) == 4 and scan.skipped == ()
        # every 32-row file is short of 20480 rows
        assert list(warnings) == [ref.path.name for ref in scan.refs]
        expected = []
        for ref in scan.refs:
            samples, _ = parse_oracle(ref.path.read_text(), 2)
            expected.append(aggregate_snapshot(SnapshotMatrix(samples), 1, "rms"))
        np.testing.assert_array_equal(series.values, expected)

    @pytest.mark.parametrize(
        "body, error, message",
        [
            ("0.1\t0.2\n0.3\n", ParseError, "line 2: expected 2 columns, got 1"),
            ("\n\n", EmptyDatasetError, "snapshot file contains no samples"),
        ],
    )
    def test_errors_name_the_file(self, tmp_path, body, error, message):
        self._make_dir(tmp_path, n_files=3)
        (tmp_path / "2004.02.12.11.32.39").write_text(body)
        with pytest.raises(error) as info:
            load_ims_series(tmp_path, expected_channels=2, channel=0)
        assert str(info.value) == f"2004.02.12.11.32.39: {message}"

    def test_non_ascii_byte_names_the_file(self, tmp_path):
        self._make_dir(tmp_path, n_files=2)
        (tmp_path / "2004.02.12.11.32.39").write_bytes(b"0.1\t0.2\n0.3\t\xe90.4\n")
        with pytest.raises(ParseError, match=r"^2004\.02\.12\.11\.32\.39: 'ascii' codec"):
            load_ims_series(tmp_path, expected_channels=2, channel=0)

    def test_first_bad_file_by_timestamp_is_named(self, tmp_path):
        # on 2 workers the shares are files 0-1 and 2-3; the second share
        # fails on its first file, before the first share reaches its second
        self._make_dir(tmp_path, n_files=4)
        (tmp_path / "2004.02.12.11.32.39").write_text("0.1\t0.2\n0.3\n")
        (tmp_path / "2004.02.12.12.32.39").write_text("\n")
        with pytest.raises(ParseError) as info:
            load_ims_series(tmp_path, expected_channels=2, channel=0)
        assert str(info.value) == "2004.02.12.11.32.39: line 2: expected 2 columns, got 1"


class TestLoadImsSeriesOnTwoWorkers(TestLoadImsSeries):
    """Every case above, parsed in two forked worker processes."""

    cores = 2

    def test_dead_worker_is_a_data_error_naming_the_directory(self, tmp_path, monkeypatch):
        self._make_dir(tmp_path, n_files=4)
        # fork carries the patch into the workers
        monkeypatch.setattr(ingest, "_load_snapshot", die)
        with pytest.raises(DataError) as info:
            load_ims_series(tmp_path, expected_channels=2, channel=0)
        assert str(info.value) == f"{tmp_path}: a snapshot parser process ended abruptly"

    def test_a_live_helper_thread_keeps_the_parse_in_this_process(self, tmp_path, monkeypatch):
        self._make_dir(tmp_path, n_files=4)
        monkeypatch.setattr(ingest, "_load_snapshot", load_here)
        PARSED_HERE.clear()
        pooled, _, _ = load_ims_series(tmp_path, expected_channels=2, channel=0)
        assert PARSED_HERE == []
        stop = threading.Event()
        helper = threading.Thread(target=stop.wait)
        helper.start()
        try:
            series, scan, _ = load_ims_series(tmp_path, expected_channels=2, channel=0)
            assert multiprocessing.active_children() == []
        finally:
            stop.set()
            helper.join()
        assert PARSED_HERE == [ref.path.name for ref in scan.refs]
        np.testing.assert_array_equal(series.values, pooled.values)
