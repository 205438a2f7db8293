"""Outlier filter, gap filling, scaling, windowing and splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prognost import (
    ConfigError,
    ConstantSeriesError,
    GapTooLargeError,
    InsufficientDataError,
    SnapshotSeries,
    apply_scaler,
    fill_missing,
    fit_minmax,
    make_windows,
    prepare_eval_data,
    prepare_training_data,
    remove_outliers,
    split_train_test,
)
from prognost.preprocess import MinMaxScaler


def series_of(values, timestamps=None):
    values = np.asarray(values, dtype=float)
    if timestamps is None:
        timestamps = np.arange(values.size, dtype=float)
    return SnapshotSeries(timestamps, values)


def rolling_median_mad_oracle(values, window):
    """Brute-force centered rolling median/MAD with truncated edges; an
    even-length edge window takes the lower middle value as its median."""
    half = window // 2
    out = []
    for i in range(len(values)):
        w = values[max(0, i - half) : i + half + 1]
        m = float(sorted(w)[(len(w) - 1) // 2])
        d = float(np.median(np.abs(np.asarray(w) - m)))
        out.append((m, d))
    return out


class TestRemoveOutliers:
    def test_single_spike_replaced_by_local_median(self):
        values = [1, 1, 1, 100, 1, 1, 1]
        # hand oracle: at index 3 the window [1,1,100,1,1] has median 1, MAD 0,
        # and |100 - 1| > 5 * 0, so the spike must become 1
        m, d = rolling_median_mad_oracle(values, 5)[3]
        assert (m, d) == (1.0, 0.0) and abs(100 - m) > 5 * d
        cleaned, replaced = remove_outliers(series_of(values), window=5, k=5)
        assert replaced == [3]
        np.testing.assert_array_equal(cleaned.values, [1, 1, 1, 1, 1, 1, 1])

    def test_constant_series_untouched(self):
        cleaned, replaced = remove_outliers(series_of([1, 1, 1, 1]), window=3, k=5)
        assert replaced == []
        np.testing.assert_array_equal(cleaned.values, [1, 1, 1, 1])

    def test_linear_series_untouched(self):
        values = list(range(10))
        # oracle: every deviation stays within k * MAD
        for x, (m, d) in zip(values, rolling_median_mad_oracle(values, 5)):
            assert abs(x - m) <= 5 * d
        cleaned, replaced = remove_outliers(series_of(values), window=5, k=5)
        assert replaced == []
        np.testing.assert_array_equal(cleaned.values, values)

    def test_short_series_passthrough(self):
        s = series_of([1.0, 50.0])
        cleaned, replaced = remove_outliers(s, window=5, k=5)
        assert replaced == [] and cleaned is s

    def test_parameter_validation(self):
        s = series_of([1, 2, 3, 4])
        with pytest.raises(ConfigError):
            remove_outliers(s, window=4, k=5)
        with pytest.raises(ConfigError):
            remove_outliers(s, window=1, k=5)
        with pytest.raises(ConfigError):
            remove_outliers(s, window=5, k=0)
        with pytest.raises(ConfigError):
            remove_outliers(s, window=5, k=float("nan"))
        with pytest.raises(ConfigError):
            fill_missing(s, max_gap=0)
        with pytest.raises(ConfigError):
            make_windows(s, 0)

    def test_first_pass_matches_pointwise_oracle(self):
        rng = np.random.Generator(np.random.PCG64(21))
        values = rng.normal(0.2, 0.05, 80)
        values[[7, 30, 55]] += [2.0, -3.0, 5.0]
        window, k = 11, 5.0
        oracle = rolling_median_mad_oracle(values, window)
        expected_flagged = [
            i for i, (m, d) in enumerate(oracle) if abs(values[i] - m) > k * d
        ]
        cleaned, replaced = remove_outliers(series_of(values), window, k)
        # the iterated filter replaces at least the first-pass detections
        assert set(expected_flagged) <= set(replaced)
        assert all(cleaned.values[i] != values[i] for i in replaced)
        assert np.array_equal(cleaned.values[~np.isin(np.arange(len(values)), replaced)],
                              values[~np.isin(np.arange(len(values)), replaced)])
        assert sorted(set(replaced)) == replaced

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=60),
        st.sampled_from([3, 5, 11]),
        st.sampled_from([0.5, 2.0, 5.0]),
    )
    def test_idempotent_on_own_output(self, values, window, k):
        once, _ = remove_outliers(series_of(values), window, k)
        twice, again = remove_outliers(once, window, k)
        assert again == []
        assert np.array_equal(once.values, twice.values)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False) | st.just(float("nan")),
            min_size=1,
            max_size=60,
        ).filter(lambda values: any(v == v for v in values)),
        st.sampled_from([3, 5, 11]),
        st.sampled_from([0.5, 2.0, 5.0]),
    )
    def test_fill_then_filter_idempotent(self, values, window, k):
        def clean(series):
            return remove_outliers(fill_missing(series, max_gap=len(values)), window, k)[0]

        once = clean(series_of(values))
        twice = clean(once)
        assert np.array_equal(once.timestamps, twice.timestamps)
        assert np.array_equal(once.values, twice.values)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=40),
        st.sampled_from([3, 5, 11]),
        st.sampled_from([0.5, 1.0, 2.0, 5.0]),
    )
    def test_terminates(self, values, window, k):
        # raises ValidationError when the passes neither settle nor repeat
        remove_outliers(series_of(values), window, k)

    def test_two_cycle_stops_at_a_repeated_state(self):
        # replacing every flagged point at once, the passes alternate
        # between two states from pass 2 on
        values = [
            -0.7022250882870917, 0.36264175096496803, 0.5392254680072791,
            0.994038736651381, -1.3641582330203794, -0.8879222664367336,
            -0.5677830083965161, 0.8032717330747181, 0.4276659578441077,
            0.4418412999376196, -0.5489570113403408,
        ]
        once, replaced = remove_outliers(series_of(values), window=11, k=0.5)
        assert replaced == [2, 3, 4, 5, 6, 7, 8, 9]
        assert set(once.values) == {values[0], values[1], values[-1]}
        twice, again = remove_outliers(once, window=11, k=0.5)
        assert again == []
        assert np.array_equal(once.values, twice.values)

    def test_even_edge_window_reaches_fixpoint(self):
        # with the two middle values averaged, index 2 halved on every pass
        once, replaced = remove_outliers(series_of([0.0, 1.0, 2.0, 0.0]), window=5, k=2)
        assert replaced == [1, 2]
        np.testing.assert_array_equal(once.values, [0.0, 0.0, 0.0, 0.0])
        assert remove_outliers(once, window=5, k=2)[1] == []

    def test_timestamps_preserved(self):
        s = SnapshotSeries([0.0, 10.0, 20.0, 30.0, 40.0], [1, 1, 9, 1, 1])
        cleaned, _ = remove_outliers(s, window=3, k=2)
        assert np.array_equal(cleaned.timestamps, s.timestamps)


class TestFillMissing:
    def test_midpoint_interpolation(self):
        filled = fill_missing(series_of([1, np.nan, 3]), max_gap=1)
        np.testing.assert_array_equal(filled.values, [1, 2, 3])

    def test_leading_nan_dropped(self):
        filled = fill_missing(series_of([np.nan, 1, 2]), max_gap=1)
        np.testing.assert_array_equal(filled.values, [1, 2])
        np.testing.assert_array_equal(filled.timestamps, [1, 2])

    def test_trailing_nan_dropped(self):
        filled = fill_missing(series_of([1, 2, np.nan]), max_gap=1)
        np.testing.assert_array_equal(filled.values, [1, 2])

    def test_gap_too_large(self):
        with pytest.raises(GapTooLargeError, match="1..2"):
            fill_missing(series_of([1, np.nan, np.nan, 4]), max_gap=1)

    def test_gap_exactly_max_gap_interpolated(self):
        filled = fill_missing(series_of([1.0, np.nan, np.nan, 4.0]), max_gap=2)
        np.testing.assert_allclose(filled.values, [1, 2, 3, 4])

    def test_interpolation_is_linear_in_time(self):
        s = series_of([1.0, np.nan, 4.0], timestamps=[0.0, 1.0, 4.0])
        filled = fill_missing(s, max_gap=1)
        # value at t=1 on the line through (0,1) and (4,4)
        np.testing.assert_allclose(filled.values, [1.0, 1.75, 4.0])

    def test_finite_series_passthrough(self):
        s = series_of([1, 2, 3])
        assert fill_missing(s, 3) is s

    def test_canonical_output_is_finite(self):
        filled = fill_missing(series_of([np.nan, 1, np.nan, 3, np.nan]), max_gap=1)
        assert filled.is_finite()


class TestMinMaxScaler:
    def test_fit_examples(self):
        scaler = fit_minmax(series_of([1, 2, 3]))
        assert (scaler.min, scaler.max) == (1.0, 3.0)

    def test_constant_series_rejected(self):
        with pytest.raises(ConstantSeriesError):
            fit_minmax(series_of([5, 5, 5]))
        with pytest.raises(ConstantSeriesError):
            MinMaxScaler(2.0, 2.0)

    def test_fit_matches_brute_scan(self):
        rng = np.random.Generator(np.random.PCG64(9))
        values = rng.normal(3.0, 2.0, 400)
        scaler = fit_minmax(series_of(values))
        lo = hi = values[0]
        for v in values:
            lo = min(lo, v)
            hi = max(hi, v)
        assert scaler.min == lo and scaler.max == hi

    def test_forward_example(self):
        scaled, flag = apply_scaler(MinMaxScaler(1, 3), [1, 2, 3], "forward")
        np.testing.assert_array_equal(scaled, [0.0, 0.5, 1.0])
        assert flag is False

    def test_inverse_example(self):
        back, flag = apply_scaler(MinMaxScaler(1, 3), [0.0, 0.5, 1.0], "inverse")
        np.testing.assert_array_equal(back, [1.0, 2.0, 3.0])
        assert flag is False

    def test_out_of_range_extrapolates_with_flag(self):
        scaled, flag = apply_scaler(MinMaxScaler(1, 3), [4.0], "forward")
        np.testing.assert_array_equal(scaled, [1.5])
        assert flag is True

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            apply_scaler(MinMaxScaler(1, 3), [1.0], "sideways")

    def test_fit_extremes_map_to_exact_bounds(self):
        rng = np.random.Generator(np.random.PCG64(10))
        values = rng.uniform(-7, 13, 100)
        scaler = fit_minmax(series_of(values))
        scaled, _ = apply_scaler(scaler, values, "forward")
        assert scaled[np.argmin(values)] == 0.0
        assert scaled[np.argmax(values)] == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(-300.0, 300.0, allow_nan=False), min_size=2, max_size=50, unique=True
        )
    )
    def test_round_trip_identity(self, values):
        values = np.asarray(values)
        scaler = MinMaxScaler(float(values.min()) - 1.0, float(values.max()) + 1.0)
        fwd, _ = apply_scaler(scaler, values, "forward")
        back, _ = apply_scaler(scaler, fwd, "inverse")
        assert np.max(np.abs(back - values)) < 1e-12


class TestMakeWindows:
    def test_seven_values_two_windows(self):
        ds = make_windows(series_of([1, 2, 3, 4, 5, 6, 7]), 5)
        np.testing.assert_array_equal(ds.windows, [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]])
        np.testing.assert_array_equal(ds.targets, [6, 7])
        np.testing.assert_array_equal(ds.origin_indices, [5, 6])

    def test_single_window_boundary(self):
        ds = make_windows(series_of([1, 2, 3, 4, 5, 6]), 5)
        assert len(ds) == 1

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            make_windows(series_of([1, 2, 3, 4, 5]), 5)

    def test_contiguity_reassembly(self):
        rng = np.random.Generator(np.random.PCG64(17))
        values = rng.normal(0, 1, 60)
        ds = make_windows(series_of(values), 5)
        assert np.array_equal(ds.targets, values[5:])
        for i in rng.integers(0, len(ds), size=10):
            assert np.array_equal(ds.windows[i], values[i : i + 5])
            assert ds.targets[i] == values[i + 5]



class TestSplit:
    def test_ten_windows_ratio_70(self):
        ds = make_windows(series_of(np.arange(15.0)), 5)
        assert len(ds) == 10
        split = split_train_test(ds)
        assert (len(split.train), len(split.test)) == (7, 3)

    def test_dataset2_arithmetic(self):
        # 984 snapshot files -> 979 windows -> 685 train / 294 test
        ds = make_windows(series_of(np.linspace(0, 1, 984)), 5)
        assert len(ds) == 979
        split = split_train_test(ds)
        assert (len(split.train), len(split.test)) == (685, 294)

    def test_single_window_empty_side(self):
        ds = make_windows(series_of(np.arange(6.0)), 5)
        with pytest.raises(InsufficientDataError):
            split_train_test(ds)

    def test_chronological_order(self):
        ds = make_windows(series_of(np.arange(40.0)), 5)
        split = split_train_test(ds)
        assert split.train.origin_indices.max() < split.test.origin_indices.min()


class TestPrepareTrainingData:
    def test_scaler_sees_only_train_prefix(self):
        # global maximum sits in the test segment and must not leak
        values = np.concatenate([np.linspace(0.1, 0.2, 30), np.linspace(0.2, 9.0, 10)])
        series = series_of(values)
        split, scaler = prepare_training_data(series, window_length=5)
        n_train = len(split.train)
        prefix = values[: n_train + 5]
        assert scaler.max == prefix.max() < values.max()
        assert scaler.min == prefix.min()

    def test_scaled_split_shapes(self):
        series = series_of(np.linspace(0.0, 1.0, 50))
        split, scaler = prepare_training_data(series, 5)
        assert len(split.train) + len(split.test) == 45
        assert split.train.windows.max() <= 1.0 + 1e-12

    def test_too_short_series(self):
        for n in (3, 5, 6):  # shorter than, equal to and one past the window
            with pytest.raises(InsufficientDataError):
                prepare_training_data(series_of(np.arange(float(n))), 5)

    @settings(max_examples=100, deadline=None)
    @given(
        # the first two points keep the scaler's training prefix from being flat
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=8, max_size=80).filter(
            lambda values: abs(values[0] - values[1]) >= 1e-3
        ),
        st.sampled_from([1, 2, 5]),
    )
    def test_eval_split_equals_training_split(self, values, window):
        series = series_of(values)
        train_split, scaler = prepare_training_data(series, window)
        eval_split = prepare_eval_data(series, scaler, window)
        for a, b in ((train_split.train, eval_split.train), (train_split.test, eval_split.test)):
            assert np.array_equal(a.windows, b.windows)
            assert np.array_equal(a.targets, b.targets)
            assert np.array_equal(a.origin_indices, b.origin_indices)
            assert np.array_equal(a.target_timestamps, b.target_timestamps)
