"""Metric definitions against brute-force oracles; prediction traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prognost import (
    ConfigError,
    SnapshotSeries,
    TrainConfig,
    compute_metrics,
    make_windows,
    one_step_predictions,
    persistence_predictions,
    split_train_test,
    trace_for_split,
    write_metrics_csv,
    write_trace_csv,
)
from prognost.model import init_params, predict_windows
from prognost.preprocess import MinMaxScaler

from test_model import zero_model


def brute_force_metrics(actual, predicted):
    """Independent pure-python loop evaluation of all four metrics."""
    n = len(actual)
    se = math.fsum((a - p) ** 2 for a, p in zip(actual, predicted))
    ae = math.fsum(abs(a - p) for a, p in zip(actual, predicted))
    rmse = math.sqrt(se / n)
    mae = ae / n
    rng = max(actual) - min(actual)
    nmae = mae / rng if rng > 0 else None
    terms = [abs(a - p) / abs(a) for a, p in zip(actual, predicted) if abs(a) >= 1e-8]
    mape = math.fsum(terms) / len(terms) if terms else None
    return rmse, mae, nmae, mape, n - len(terms)


def sample_dataset(n=30, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    series = SnapshotSeries(np.arange(float(n)), rng.uniform(0.0, 1.0, n))
    return make_windows(series, 5)


class TestComputeMetrics:
    def test_perfect_prediction(self):
        rep = compute_metrics([1.0, 2.0], [1.0, 2.0])
        assert (rep.rmse, rep.mae, rep.nmae, rep.mape) == (0.0, 0.0, 0.0, 0.0)
        assert rep.n == 2 and rep.mape_excluded == 0

    def test_degenerate_actuals(self):
        rep = compute_metrics([0.0, 0.0], [3.0, 4.0])
        assert rep.rmse == pytest.approx(math.sqrt(12.5), rel=1e-15)
        assert rep.mae == 3.5
        assert rep.nmae is None  # zero range
        assert rep.mape is None  # every term excluded
        assert rep.mape_excluded == 2

    def test_thousand_random_pairs_match_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(14))
        actual = rng.normal(0.5, 0.3, 1000)
        predicted = actual + rng.normal(0, 0.05, 1000)
        rep = compute_metrics(actual, predicted)
        rmse, mae, nmae, mape, excl = brute_force_metrics(actual, predicted)
        assert abs(rep.rmse - rmse) / rmse < 1e-12
        assert abs(rep.mae - mae) / mae < 1e-12
        assert abs(rep.nmae - nmae) / nmae < 1e-12
        assert abs(rep.mape - mape) / mape < 1e-12
        assert rep.mape_excluded == excl

    def test_near_zero_targets_excluded_with_count(self):
        rep = compute_metrics([1e-9, 1.0, 2.0], [0.5, 1.1, 1.9])
        assert rep.mape_excluded == 1
        assert rep.mape == pytest.approx((0.1 / 1.0 + 0.1 / 2.0) / 2, rel=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            compute_metrics([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            compute_metrics([], [])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=2, max_size=200),
        st.integers(0, 2**31 - 1),
    )
    def test_rmse_dominates_mae(self, actual, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        actual = np.asarray(actual)
        predicted = actual + rng.normal(0, 10.0, actual.size)
        rep = compute_metrics(actual, predicted)
        assert rep.rmse >= rep.mae

    def test_rmse_mae_symmetric_under_swap(self):
        rng = np.random.Generator(np.random.PCG64(15))
        a = rng.normal(1, 1, 64)
        b = rng.normal(1, 1, 64)
        r1 = compute_metrics(a, b)
        r2 = compute_metrics(b, a)
        assert r1.rmse == r2.rmse and r1.mae == r2.mae

    def test_rmse_linearity_under_affine_rescale(self):
        rng = np.random.Generator(np.random.PCG64(16))
        a = rng.normal(0.4, 0.2, 128)
        p = a + rng.normal(0, 0.03, 128)
        base = compute_metrics(a, p).rmse
        for scale, shift in ((3.0, 0.0), (0.25, 1.5), (11.0, -4.0)):
            rescaled = compute_metrics(scale * a + shift, scale * p + shift).rmse
            assert rescaled / scale == pytest.approx(base, rel=1e-12)


class TestOneStepPredictions:
    def test_zero_model_predicts_zero_column(self):
        ds = sample_dataset()
        trace = one_step_predictions(zero_model((4, 3)), ds)
        assert np.all(trace.predicted == 0.0)
        np.testing.assert_array_equal(trace.actual, ds.targets)

    def test_trace_length_and_alignment(self):
        ds = sample_dataset()
        params = init_params(TrainConfig(hidden_dims=(4,)), 3)
        trace = one_step_predictions(params, ds)
        assert len(trace) == len(ds.targets)
        np.testing.assert_array_equal(trace.origin_indices, ds.origin_indices)
        np.testing.assert_array_equal(trace.timestamps, ds.target_timestamps)
        assert set(trace.split) == {"test"}

    def test_trace_rmse_equals_compute_metrics(self):
        ds = sample_dataset()
        params = init_params(TrainConfig(hidden_dims=(4,)), 3)
        trace = one_step_predictions(params, ds)
        rep = compute_metrics(trace.actual, trace.predicted)
        direct = float(np.sqrt(np.mean((trace.actual - trace.predicted) ** 2)))
        assert rep.rmse == direct

    def test_teacher_forcing_uses_true_history(self):
        # each prediction must come from the dataset's own true window
        ds = sample_dataset()
        params = init_params(TrainConfig(hidden_dims=(4,)), 3)
        trace = one_step_predictions(params, ds)
        expected = predict_windows(params, ds.windows)
        np.testing.assert_array_equal(trace.predicted, expected)

    def test_original_space_needs_scaler(self):
        ds = sample_dataset()
        with pytest.raises(ConfigError):
            one_step_predictions(zero_model(), ds, scaler=None, space="original")

    def test_original_space_inverts_both_columns(self):
        ds = sample_dataset()
        params = init_params(TrainConfig(hidden_dims=(4,)), 3)
        scaler = MinMaxScaler(10.0, 30.0)
        scaled = one_step_predictions(params, ds, scaler, "scaled")
        original = one_step_predictions(params, ds, scaler, "original")
        np.testing.assert_allclose(original.actual, scaled.actual * 20.0 + 10.0, rtol=1e-15)
        np.testing.assert_allclose(original.predicted, scaled.predicted * 20.0 + 10.0, rtol=1e-15)

    def test_trace_for_split_tags_in_time_order(self):
        split = split_train_test(sample_dataset(40))
        params = init_params(TrainConfig(hidden_dims=(4,)), 3)
        trace = trace_for_split(params, split)
        n_train = len(split.train)
        assert trace.split[:n_train] == ("train",) * n_train
        assert trace.split[n_train:] == ("test",) * len(split.test)
        assert np.all(np.diff(trace.origin_indices) > 0)


class TestPersistenceBaseline:
    def test_predicts_previous_value(self):
        ds = sample_dataset()
        baseline = persistence_predictions(ds)
        np.testing.assert_array_equal(baseline, ds.windows[:, -1])

    def test_baseline_metrics_computable(self):
        ds = sample_dataset()
        rep = compute_metrics(ds.targets, persistence_predictions(ds))
        assert rep.rmse > 0


class TestCsvExports:
    def test_trace_csv(self, tmp_path):
        ds = sample_dataset(12)
        trace = one_step_predictions(zero_model(), ds, split="test")
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "origin_index,timestamp,actual,predicted,split"
        first = lines[1].split(",")
        assert first[0] == "5" and first[4] == "test"
        assert float(first[2]) == trace.actual[0]

    def test_metrics_csv_with_undefined_cells(self, tmp_path):
        rep_ok = compute_metrics([1.0, 2.0], [1.1, 1.9])
        rep_bad = compute_metrics([0.0, 0.0], [3.0, 4.0])
        path = tmp_path / "m.csv"
        write_metrics_csv([("fix/train", rep_ok), ("fix/test", rep_bad)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,space,n,rmse,mae,nmae,mape,mape_excluded"
        bad = lines[2].split(",")
        assert bad[5] == "nan" and bad[6] == "nan" and bad[7] == "2"
        ok = lines[1].split(",")
        assert float(ok[3]) == rep_ok.rmse
