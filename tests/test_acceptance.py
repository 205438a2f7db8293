"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 6 and 7 need
the external datasets and skip with a reason unless IMS_DATASET_DIR /
HYDRO_CSV point at local copies (see README).
"""

import os
import time

import numpy as np
import pytest

from prognost import (
    ConstantSeriesError,
    ModelCorruptionError,
    ModelFormatError,
    ModelVersionError,
    SnapshotSeries,
    TrainConfig,
    apply_scaler,
    compute_metrics,
    fill_missing,
    fit_minmax,
    grad_check,
    load_model,
    persistence_predictions,
    prepare_training_data,
    read_series_csv,
    remove_outliers,
    save_model,
    train,
)
from prognost.cli import run
from prognost.model import init_params, predict_windows
from prognost.preprocess import MinMaxScaler

from test_evaluate import brute_force_metrics


def report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS — {detail}")


def test_criterion_1_gradient_fidelity():
    started = time.perf_counter()
    worst = 0.0
    for mode in ("mse", "bce"):
        cfg = TrainConfig(hidden_dims=(4, 3), window=5, loss_mode=mode)
        for check in grad_check(cfg, seed=7, eps=1e-6):
            assert check.max_rel_err < 1e-5, (mode, check)
            worst = max(worst, check.max_rel_err)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"worst block rel. err. {worst:.2e} over both loss modes in {elapsed:.2f}s")


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(1234))
    actual = rng.normal(0.5, 0.4, 1000)
    predicted = actual + rng.normal(0.0, 0.08, 1000)
    rep = compute_metrics(actual, predicted)
    rmse, mae, nmae, mape, excl = brute_force_metrics(actual, predicted)
    for got, want, name in (
        (rep.rmse, rmse, "rmse"),
        (rep.mae, mae, "mae"),
        (rep.nmae, nmae, "nmae"),
        (rep.mape, mape, "mape"),
    ):
        assert abs(got - want) / abs(want) < 1e-12, name
    assert rep.mape_excluded == excl

    violations = 0
    for case in range(300):
        n = int(rng.integers(2, 400))
        a = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 10), n)
        p = a + rng.normal(0, rng.uniform(0.001, 5), n)
        r = compute_metrics(a, p)
        if not r.rmse >= r.mae:
            violations += 1
    assert violations == 0
    report(2, "brute-force match < 1e-12 rel.; rmse >= mae on 300/300 fuzz cases")


def test_criterion_3_normalization_contract():
    rng = np.random.Generator(np.random.PCG64(99))
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 300))
        values = rng.normal(rng.uniform(-50, 50), rng.uniform(1e-3, 50), n)
        if values.max() == values.min():
            continue
        series = SnapshotSeries(np.arange(float(n)), values)
        scaler = fit_minmax(series)
        fwd, _ = apply_scaler(scaler, values, "forward")
        back, _ = apply_scaler(scaler, fwd, "inverse")
        worst = max(worst, float(np.max(np.abs(back - values))))
        assert np.max(np.abs(back - values)) < 1e-12
    with pytest.raises(ConstantSeriesError):
        fit_minmax(SnapshotSeries([0.0, 1.0, 2.0], [7.0, 7.0, 7.0]))
    report(3, f"round-trip worst abs. dev. {worst:.2e} < 1e-12; constant series rejected")


def test_criterion_4_overfit_capability(tmp_path):
    started = time.perf_counter()
    fixture = tmp_path / "sine.csv"
    assert run(["gen-fixture", "--kind", "sine", "--n", "200", "--out", str(fixture)]) == 0
    series = read_series_csv(fixture)
    split, _ = prepare_training_data(series, window_length=5)
    cfg = TrainConfig(hidden_dims=(8,), learning_rate=0.001, epochs=500, window=5, seed=42)
    params, rep = train(split, cfg)
    final_mse = rep.train_loss[-1]
    assert final_mse < 1e-4

    model_pred = predict_windows(params, split.test.windows)
    model_rmse = float(np.sqrt(np.mean((model_pred - split.test.targets) ** 2)))
    base_pred = persistence_predictions(split.test)
    base_rmse = float(np.sqrt(np.mean((base_pred - split.test.targets) ** 2)))
    assert model_rmse < base_rmse
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(4, f"train mse {final_mse:.2e} < 1e-4; test rmse {model_rmse:.4f} beats "
              f"persistence {base_rmse:.4f}; {elapsed:.1f}s")


def test_criterion_5_training_determinism(tmp_path):
    fixture = tmp_path / "sine.csv"
    assert run(["gen-fixture", "--kind", "sine", "--n", "150", "--out", str(fixture)]) == 0
    cfg = tmp_path / "cfg"
    cfg.write_text("hidden_dims = 8\nepochs = 25\nseed = 42\n")
    blobs = []
    for tag in ("first", "second"):
        model = tmp_path / f"{tag}.model"
        rep = tmp_path / f"{tag}.csv"
        assert run(["train", "--in", str(fixture), "--config", str(cfg),
                    "--model-out", str(model), "--report-out", str(rep)]) == 0
        blobs.append((model.read_bytes(), rep.read_bytes()))
    assert blobs[0][0] == blobs[1][0], "model files differ between identical runs"
    assert blobs[0][1] == blobs[1][1], "reports differ between identical runs"
    report(5, f"two runs: identical model ({len(blobs[0][0])} bytes) and report")


def _run_pipeline_rmse(series, cfg):
    """Clean -> leak-free scale -> window -> split -> train; scaled test RMSE."""
    filled = fill_missing(series, max_gap=3)
    cleaned, _ = remove_outliers(filled)
    split, scaler = prepare_training_data(cleaned, cfg.window)
    params, rep = train(split, cfg)
    pred = predict_windows(params, split.test.windows)
    rmse = float(np.sqrt(np.mean((pred - split.test.targets) ** 2)))
    return rmse, split, pred


@pytest.mark.skipif(
    "IMS_DATASET_DIR" not in os.environ,
    reason="needs the IMS run-to-failure download; set IMS_DATASET_DIR to the "
           "dataset-2 snapshot directory",
)
def test_criterion_6_ims_dataset_bound():
    from prognost import load_ims_series

    series, _, _ = load_ims_series(
        os.environ["IMS_DATASET_DIR"], expected_channels=4, channel=0, method="rms"
    )
    cfg = TrainConfig()  # defaults: stacked 128/64, Adam 0.001, batch 50, 100 epochs
    rmse, split, pred = _run_pipeline_rmse(series, cfg)
    assert rmse <= 0.05, f"scaled-space test RMSE {rmse}"
    # qualitative degradation tracking: the test actuals rise toward failure
    actuals = split.test.targets
    tail, head = actuals[-len(actuals) // 10 :], actuals[: len(actuals) // 10]
    assert tail.mean() > head.mean()
    report(6, f"IMS dataset-2 scaled test RMSE {rmse:.4f} <= 0.05")


@pytest.mark.skipif(
    "HYDRO_CSV" not in os.environ,
    reason="needs the hydropower series download; set HYDRO_CSV (and optionally "
           "HYDRO_VALUE_COL / HYDRO_TS_COL)",
)
def test_criterion_7_hydro_series_bound():
    from prognost import load_csv_series

    ts_col = os.environ.get("HYDRO_TS_COL")
    series = load_csv_series(
        os.environ["HYDRO_CSV"],
        int(os.environ.get("HYDRO_VALUE_COL", "0")),
        int(ts_col) if ts_col else None,
    )
    rmse, _, _ = _run_pipeline_rmse(series, TrainConfig())
    assert rmse <= 0.2, f"scaled-space test RMSE {rmse}"
    report(7, f"hydropower series scaled test RMSE {rmse:.4f} <= 0.2")


def test_criterion_8_persistence_round_trip(tmp_path):
    params = init_params(TrainConfig(hidden_dims=(4, 3), seed=42))
    params = params.with_scaler(MinMaxScaler(0.031, 2.71))
    first = tmp_path / "first.model"
    second = tmp_path / "second.model"
    save_model(params, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()

    versioned = tmp_path / "versioned.model"
    versioned.write_text("LSTMPROG v9\n")
    with pytest.raises(ModelVersionError):
        load_model(versioned)

    alien = tmp_path / "alien.model"
    alien.write_text("GGUF whatever\n")
    with pytest.raises(ModelFormatError):
        load_model(alien)

    truncated = tmp_path / "truncated.model"
    raw = first.read_bytes()
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ModelCorruptionError):
        load_model(truncated)

    tampered = tmp_path / "tampered.model"
    tampered.write_bytes(raw.replace(b" hidden 4 3 ", b" hidden 4 4 ", 1))
    assert tampered.read_bytes() != raw
    with pytest.raises(ModelCorruptionError):
        load_model(tampered)
    report(8, "save/load/save byte-identical; format, version and corruption "
              "errors raised as specified")
