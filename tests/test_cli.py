"""End-to-end CLI behavior: subcommands, exit codes, reproducibility."""

import contextlib
import importlib
import importlib.util
import io
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prognost import ingest
from prognost.cli import build_parser, run
from prognost.fixtures import make_fixture_series
from prognost.ingest import IMS_EXPECTED_ROWS, read_series_csv
from prognost.model import load_model, predict_windows
from prognost.preprocess import apply_scaler
from prognost.series import SnapshotSeries, write_series_csv
from test_ingest import die, ims_workers

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "v4_stack_3_2.model"


def make_clean_series(tmp_path, n=120, kind="sine"):
    raw = tmp_path / "raw.csv"
    clean = tmp_path / "clean.csv"
    assert run(["gen-fixture", "--kind", kind, "--n", str(n), "--out", str(raw)]) == 0
    assert run(["preprocess", "--in", str(raw), "--out", str(clean)]) == 0
    return clean


def write_config(tmp_path, name="cfg", **overrides):
    base = {"hidden_dims": "6", "epochs": "8", "seed": "9"}
    base.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


def train_small(tmp_path, **overrides):
    clean = make_clean_series(tmp_path)
    cfg = write_config(tmp_path, **overrides)
    model = tmp_path / "m.model"
    report = tmp_path / "r.csv"
    code = run([
        "train", "--in", str(clean), "--config", str(cfg),
        "--model-out", str(model), "--report-out", str(report),
    ])
    assert code == 0
    return clean, model, report


class TestGenFixture:
    def test_writes_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["gen-fixture", "--kind", "degradation", "--n", "60", "--out", str(a)]) == 0
        assert run(["gen-fixture", "--kind", "degradation", "--n", "60", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_small_n_is_usage_error(self, tmp_path):
        assert run(["gen-fixture", "--kind", "sine", "--n", "3", "--out", str(tmp_path / "x")]) == 1

    def test_documented_minimum_n_works(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["gen-fixture", "--kind", "degradation", "--n", "10", "--out", str(out)]) == 0
        assert len(read_series_csv(out)) == 10


class TestIngest:
    def test_csv_mode(self, tmp_path):
        src = tmp_path / "src.csv"
        src.write_text("ts,val\n0,0.5\n10,0.6\n20,0.4\n")
        out = tmp_path / "series.csv"
        code = run(["ingest", "--csv", str(src), "--value-col", "1", "--ts-col", "0",
                    "--out", str(out)])
        assert code == 0
        series = read_series_csv(out)
        np.testing.assert_array_equal(series.values, [0.5, 0.6, 0.4])

    def test_ims_mode_with_skip_report(self, tmp_path, capsys):
        data = tmp_path / "ims"
        data.mkdir()
        rng = np.random.Generator(np.random.PCG64(1))
        for i in range(3):
            body = "\n".join(
                "\t".join(repr(float(v)) for v in rng.normal(0, 0.1, 2)) for _ in range(16)
            )
            (data / f"2004.02.12.1{i}.32.39").write_text(body + "\n")
        (data / "README.txt").write_text("docs\n")
        out = tmp_path / "series.csv"
        code = run(["ingest", "--ims-dir", str(data), "--channels", "2", "--channel", "1",
                    "--agg", "rms", "--out", str(out)])
        assert code == 0
        assert "README.txt" in capsys.readouterr().err
        assert len(read_series_csv(out)) == 3

    def test_requires_exactly_one_source(self, tmp_path):
        assert run(["ingest", "--out", str(tmp_path / "o.csv")]) == 1
        assert run(["ingest", "--csv", "a", "--ims-dir", "b", "--out", "c"]) == 1

    def test_ims_requires_channels(self, tmp_path):
        d = tmp_path / "ims"
        d.mkdir()
        assert run(["ingest", "--ims-dir", str(d), "--out", str(tmp_path / "o.csv")]) == 1

    def test_channel_out_of_range_is_data_error(self, tmp_path):
        d = tmp_path / "ims"
        d.mkdir()
        (d / "2004.02.12.10.32.39").write_text("0.1\t0.2\n0.3\t0.4\n")
        assert run(["ingest", "--ims-dir", str(d), "--channels", "2", "--channel", "5",
                    "--out", str(tmp_path / "o.csv")]) == 2

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["ingest", "--csv", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "o.csv")]) == 2

    def test_truncated_file_reported_on_stderr(self, tmp_path, capsys):
        data = tmp_path / "ims"
        data.mkdir()
        full = "\n".join(f"{0.001 * (i % 7)}" for i in range(IMS_EXPECTED_ROWS)) + "\n"
        (data / "2004.02.12.10.32.39").write_text(full)
        (data / "2004.02.12.10.42.39").write_text(full[: len(full) // 2])
        (data / "2004.02.12.10.52.39").write_text(full)
        assert run(["ingest", "--ims-dir", str(data), "--channels", "1",
                    "--out", str(tmp_path / "o.csv")]) == 0
        warned = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
        assert len(warned) == 1
        assert "2004.02.12.10.42.39" in warned[0] and "got " in warned[0]

    def test_ims_outputs_do_not_depend_on_workers(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "ims"
        data.mkdir()
        rng = np.random.Generator(np.random.PCG64(3))
        for i in range(5):
            rows = 16 if i != 2 else 9
            body = "".join(f"{rng.normal():.3f}\t{rng.normal():.3f}\n" for _ in range(rows))
            (data / f"2004.02.12.1{i}.32.39").write_text(body)
        (data / "notes.txt").write_text("docs\n")
        outputs = []
        for cores in (1, 2):
            ims_workers(monkeypatch, cores)
            out = tmp_path / f"series{cores}.csv"
            code = run(["ingest", "--ims-dir", str(data), "--channels", "2", "--out", str(out)])
            outputs.append((code, capsys.readouterr(), out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and "notes.txt" in outputs[0][1].err

    def test_dead_worker_is_one_line_data_error(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "ims"
        data.mkdir()
        for i in range(4):
            (data / f"2004.02.12.1{i}.32.39").write_text("0.1\t0.2\n0.3\t0.4\n")
        ims_workers(monkeypatch, 2)
        monkeypatch.setattr(ingest, "_load_snapshot", die)
        assert run(["ingest", "--ims-dir", str(data), "--channels", "2",
                    "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {data}: a snapshot parser process ended abruptly\n"
        assert multiprocessing.active_children() == []

    def test_bad_snapshot_error_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "ims"
        data.mkdir()
        lines = ["0.1\t0.2\t0.3\t0.4"] * 10
        (data / "2004.02.12.10.32.39").write_text("\n".join(lines) + "\n")
        lines[6] = "0.1\t0.2\t0.3"
        (data / "2004.02.12.10.42.39").write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.csv"
        assert run(["ingest", "--ims-dir", str(data), "--channels", "4",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "data error: 2004.02.12.10.42.39: line 7: expected 4 columns, got 3\n"
        )
        assert not out.exists()

    def test_non_ascii_snapshot_error_names_file(self, tmp_path, capsys):
        data = tmp_path / "ims"
        data.mkdir()
        (data / "2004.02.12.10.32.39").write_bytes(b"0.1\t0.2\n0.3\t0.4\xc2\xb5\n")
        assert run(["ingest", "--ims-dir", str(data), "--channels", "2",
                    "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            "data error: 2004.02.12.10.32.39: 'ascii' codec can't decode byte 0xc2"
        )

    def test_reruns_byte_identical(self, tmp_path):
        data = tmp_path / "ims"
        data.mkdir()
        rng = np.random.Generator(np.random.PCG64(2))
        for i in range(4):
            body = "\n".join(
                "\t".join(repr(float(v)) for v in rng.normal(0, 0.1, 2)) for _ in range(8)
            )
            (data / f"2004.02.12.1{i}.32.39").write_text(body + "\n")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            assert run(["ingest", "--ims-dir", str(data), "--channels", "2",
                        "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestPreprocess:
    def test_fills_and_filters(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("timestamp,value\n0,1.0\n1,\n2,1.1\n3,9.0\n4,1.0\n5,1.05\n6,0.95\n7,1.0\n")
        out = tmp_path / "c.csv"
        assert run(["preprocess", "--in", str(src), "--out", str(out),
                    "--outlier-window", "5", "--outlier-k", "3"]) == 0
        series = read_series_csv(out)
        assert series.is_finite()
        assert series.values.max() < 9.0

    def test_edge_gaps_not_counted_as_interpolated(self, tmp_path, capsys):
        # two leading and one trailing gap are dropped; only index 4 is filled
        src = tmp_path / "s.csv"
        src.write_text("timestamp,value\n0,\n1,\n2,1.0\n3,1.1\n4,\n5,1.0\n6,1.05\n7,\n")
        assert run(["preprocess", "--in", str(src), "--out", str(tmp_path / "c.csv")]) == 0
        assert "kept 5/8 points, interpolated 1 missing," in capsys.readouterr().out

    def test_oversized_gap_is_data_error(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("timestamp,value\n0,1.0\n1,\n2,\n3,\n4,\n5,2.0\n")
        assert run(["preprocess", "--in", str(src), "--out", str(tmp_path / "c.csv"),
                    "--max-gap", "2"]) == 2

    def test_reruns_byte_identical(self, tmp_path):
        raw = tmp_path / "raw.csv"
        assert run(["gen-fixture", "--kind", "degradation", "--n", "80", "--out", str(raw)]) == 0
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            assert run(["preprocess", "--in", str(raw), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestTrainCommand:
    def test_report_rows_match_epochs(self, tmp_path):
        _, model, report = train_small(tmp_path, epochs=8)
        lines = report.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,test_rmse"
        assert len(lines) == 9
        assert model.read_bytes().startswith(b"LSTMPROG v4\n")

    def test_sine_contract_200_epochs(self, tmp_path):
        clean = make_clean_series(tmp_path, n=120)
        cfg = write_config(tmp_path, hidden_dims="8", epochs="200")
        report = tmp_path / "r.csv"
        code = run(["train", "--in", str(clean), "--config", str(cfg),
                    "--model-out", str(tmp_path / "m.model"), "--report-out", str(report)])
        assert code == 0
        assert len(report.read_text().splitlines()) == 201

    def test_reruns_byte_identical(self, tmp_path):
        clean = make_clean_series(tmp_path)
        cfg = write_config(tmp_path)
        out = {}
        for tag in ("one", "two"):
            model = tmp_path / f"{tag}.model"
            report = tmp_path / f"{tag}.csv"
            assert run(["train", "--in", str(clean), "--config", str(cfg),
                        "--model-out", str(model), "--report-out", str(report)]) == 0
            out[tag] = (model.read_bytes(), report.read_bytes())
        assert out["one"] == out["two"]

    def test_seed_comes_from_the_config_only(self, tmp_path):
        clean = make_clean_series(tmp_path)
        models = []
        for seed in (9, 10):
            cfg = write_config(tmp_path, seed=seed)
            models.append(tmp_path / f"{seed}.model")
            assert run(["train", "--in", str(clean), "--config", str(cfg),
                        "--model-out", str(models[-1]),
                        "--report-out", str(tmp_path / "r.csv")]) == 0
        assert models[0].read_bytes() != models[1].read_bytes()
        assert run(["train", "--in", str(clean), "--config", str(cfg), "--seed", "10",
                    "--model-out", str(tmp_path / "m"), "--report-out", str(tmp_path / "r")]) == 1

    def test_missing_input_is_data_error(self, tmp_path):
        assert run(["train", "--in", str(tmp_path / "nope.csv"),
                    "--model-out", str(tmp_path / "m"), "--report-out", str(tmp_path / "r")]) == 2

    def test_bad_config_is_usage_error(self, tmp_path):
        clean = make_clean_series(tmp_path)
        cfg = tmp_path / "cfg"
        cfg.write_text("epochs = 0\n")
        assert run(["train", "--in", str(clean), "--config", str(cfg),
                    "--model-out", str(tmp_path / "m"), "--report-out", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize("key", ["beta1", "beta2", "epsilon"])
    def test_adam_constant_in_config_is_unknown_key(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, **{key: 0.5})
        assert run(["train", "--in", str(tmp_path / "clean.csv"), "--config", str(cfg),
                    "--model-out", str(tmp_path / "m"), "--report-out", str(tmp_path / "r")]) == 1
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_divergence_prints_only_the_numeric_failure(self, tmp_path, capsys):
        clean = make_clean_series(tmp_path)
        cfg = write_config(tmp_path, learning_rate="1e300")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["train", "--in", str(clean), "--config", str(cfg),
                        "--model-out", str(tmp_path / "m"), "--report-out", str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: non-finite loss")


FLAG_MISUSE = {
    "outlier-window-4": ["preprocess", "--in", "{raw}", "--out", "{out}", "--outlier-window", "4"],
    "outlier-window-1": ["preprocess", "--in", "{raw}", "--out", "{out}", "--outlier-window", "1"],
    "outlier-k-0": ["preprocess", "--in", "{raw}", "--out", "{out}", "--outlier-k", "0"],
    "outlier-k-nan": ["preprocess", "--in", "{raw}", "--out", "{out}", "--outlier-k", "nan"],
    "max-gap-0": ["preprocess", "--in", "{raw}", "--out", "{out}", "--max-gap", "0"],
    "learning-rate-inf": ["train", "--in", "{clean}", "--model-out", "{out}",
                          "--report-out", "{out}2", "--config", "{inf_cfg}"],
    "value-col-negative": ["ingest", "--csv", "{raw}", "--out", "{out}", "--value-col", "-2"],
    "ts-col-negative": ["ingest", "--csv", "{raw}", "--out", "{out}", "--ts-col", "-1"],
    "channel-negative": ["ingest", "--ims-dir", "{ims}", "--channels", "2", "--out", "{out}",
                         "--channel", "-1"],
    "channels-0": ["ingest", "--ims-dir", "{ims}", "--out", "{out}", "--channels", "0"],
    "grad-check-eps-inf": ["grad-check", "--dims", "2", "--eps", "inf"],
    "grad-check-seed-negative": ["grad-check", "--dims", "2", "--seed", "-1"],
    "seed-negative": ["train", "--in", "{clean}", "--model-out", "{out}",
                      "--report-out", "{out}2", "--config", "{seed_cfg}"],
    "config-key-repeated": ["train", "--in", "{clean}", "--model-out", "{out}",
                            "--report-out", "{out}2", "--config", "{repeat_cfg}"],
}


@pytest.mark.parametrize("argv", FLAG_MISUSE.values(), ids=FLAG_MISUSE.keys())
def test_flag_misuse_is_usage_error(tmp_path, capsys, argv):
    clean = make_clean_series(tmp_path)
    ims = tmp_path / "ims"
    ims.mkdir()
    (ims / "2004.02.12.10.32.39").write_text("0.1\t0.2\n0.3\t0.4\n")
    paths = {"clean": clean, "raw": tmp_path / "raw.csv", "ims": ims, "out": tmp_path / "out",
             "inf_cfg": write_config(tmp_path, "inf.cfg", learning_rate="inf"),
             "seed_cfg": write_config(tmp_path, "seed.cfg", seed="-1"),
             "repeat_cfg": tmp_path / "repeat.cfg"}
    paths["repeat_cfg"].write_text("hidden_dims = 6\nepochs = 2\n# again\nepochs = 3\n")
    capsys.readouterr()
    assert run([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


def huge_scale_model(tmp_path, w_r):
    """A 2-unit model whose weights are 0.9 and head weights ``w_r``, saved
    with the scaler (0, 1e308): its predictions near 1 map back to near
    1.8e308, the edge of float64."""
    from prognost import save_model
    from prognost.model import ModelParams, fill_param_vector
    from prognost.preprocess import MinMaxScaler

    theta = fill_param_vector((2,), lambda label, shape: w_r if label == "Wr" else 0.9)
    path = tmp_path / "huge.model"
    save_model(ModelParams(theta, (2,), window=5, scaler=MinMaxScaler(0.0, 1e308)), path)
    return path


class TestEvaluateCommand:
    def test_writes_metrics_and_trace(self, tmp_path):
        clean, model, _ = train_small(tmp_path)
        met, trace = tmp_path / "met.csv", tmp_path / "trace.csv"
        assert run(["evaluate", "--model", str(model), "--in", str(clean),
                    "--metrics-out", str(met), "--trace-out", str(trace)]) == 0
        met_lines = met.read_text().splitlines()
        assert met_lines[0] == "dataset,space,n,rmse,mae,nmae,mape,mape_excluded"
        assert len(met_lines) == 3  # train and test rows
        trace_lines = trace.read_text().splitlines()
        assert trace_lines[0] == "origin_index,timestamp,actual,predicted,split"
        n_points = len(read_series_csv(clean))
        assert len(trace_lines) - 1 == n_points - 5

    def test_original_space(self, tmp_path):
        clean, model, _ = train_small(tmp_path)
        met, trace = tmp_path / "met.csv", tmp_path / "trace.csv"
        assert run(["evaluate", "--model", str(model), "--in", str(clean),
                    "--metrics-out", str(met), "--trace-out", str(trace),
                    "--space", "original"]) == 0
        assert ",original," in met.read_text().splitlines()[1]

    def test_repeat_runs_byte_identical(self, tmp_path):
        clean, model, _ = train_small(tmp_path)
        blobs = []
        for tag in ("one", "two"):
            met, trace = tmp_path / f"met{tag}.csv", tmp_path / f"tr{tag}.csv"
            assert run(["evaluate", "--model", str(model), "--in", str(clean),
                        "--metrics-out", str(met), "--trace-out", str(trace)]) == 0
            blobs.append((met.read_bytes(), trace.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_metrics_match_per_split_predictions(self, tmp_path):
        from prognost import evaluate as ev
        from prognost import load_model, prepare_eval_data

        clean, model, _ = train_small(tmp_path)
        params = load_model(model)
        split = prepare_eval_data(read_series_csv(clean), params.scaler, 5)
        for space in ("scaled", "original"):
            met, trace = tmp_path / f"met_{space}.csv", tmp_path / f"tr_{space}.csv"
            assert run(["evaluate", "--model", str(model), "--in", str(clean), "--space", space,
                        "--metrics-out", str(met), "--trace-out", str(trace)]) == 0
            rows = []
            for tag, side in (("train", split.train), ("test", split.test)):
                part = ev.one_step_predictions(params, side, params.scaler, space, split=tag)
                rows.append((f"{clean.stem}/{tag}",
                             ev.compute_metrics(part.actual, part.predicted, space)))
            expected = tmp_path / f"expected_{space}.csv"
            ev.write_metrics_csv(rows, expected)
            assert met.read_bytes() == expected.read_bytes()

    def test_window_defaults_to_the_models(self, tmp_path):
        # the model file records its window, the one source of the window
        clean, model, _ = train_small(tmp_path, window=4)
        trace = tmp_path / "trace.csv"
        assert run(["evaluate", "--model", str(model), "--in", str(clean),
                    "--metrics-out", str(tmp_path / "met.csv"), "--trace-out", str(trace)]) == 0
        n_points = len(read_series_csv(clean))
        assert len(trace.read_text().splitlines()) - 1 == n_points - 4

    def test_other_window_than_the_models_is_usage_error(self, tmp_path, capsys):
        # evaluate takes no window: there is none to give but the model's
        clean, model, _ = train_small(tmp_path)
        capsys.readouterr()
        assert run(["evaluate", "--model", str(model), "--in", str(clean),
                    "--metrics-out", str(tmp_path / "m.csv"),
                    "--trace-out", str(tmp_path / "t.csv"), "--window", "9"]) == 1
        assert "unrecognized arguments: --window 9" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_corrupt_model_is_data_error(self, tmp_path):
        clean = make_clean_series(tmp_path)
        bad = tmp_path / "bad.model"
        bad.write_text("LSTMPROG v9\n")
        assert run(["evaluate", "--model", str(bad), "--in", str(clean),
                    "--metrics-out", str(tmp_path / "m.csv"),
                    "--trace-out", str(tmp_path / "t.csv")]) == 2

    def test_model_without_scaler_line_is_data_error(self, tmp_path, capsys):
        # a v4 file always carries its scaler: one without is corrupt, for
        # evaluate and predict alike
        from test_model import join_v4, split_v4

        clean, model, _ = train_small(tmp_path)
        lines, payload = split_v4(model)
        assert lines.pop(2).startswith("scaler ")
        join_v4(model, lines, payload)
        capsys.readouterr()
        assert run(["evaluate", "--model", str(model), "--in", str(clean),
                    "--metrics-out", str(tmp_path / "m.csv"),
                    "--trace-out", str(tmp_path / "t.csv")]) == 2
        assert run(["predict", "--model", str(model), "--window", "1,2,3,4,5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("data error: expected the scaler line") == 2
        assert not (tmp_path / "m.csv").exists()

    def test_flipped_payload_bit_is_data_error(self, tmp_path, capsys):
        # the data line's sum catches a weight that a flipped bit changed
        # but left finite
        clean, model, _ = train_small(tmp_path)
        data = bytearray(model.read_bytes())
        data[-1000] ^= 1 << 4
        model.write_bytes(data)
        capsys.readouterr()
        assert run(["evaluate", "--model", str(model), "--in", str(clean),
                    "--metrics-out", str(tmp_path / "m.csv"),
                    "--trace-out", str(tmp_path / "t.csv")]) == 2
        assert run(["predict", "--model", str(model), "--window", "1,2,3,4,5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("data error: sum mismatch") == 2


    @pytest.mark.parametrize("w_r, message", [
        (0.9, "original-space metrics overflow float64"),
        (4.0, "values overflow float64 once mapped back through the scaler"),
    ], ids=["squared-error", "prediction"])
    def test_original_space_overflow_is_data_error(self, tmp_path, capsys, w_r, message):
        # with w_r 0.9 the predictions stay finite (about 1.66e308) and the
        # squared errors overflow; with 4.0 the predictions themselves do
        model = huge_scale_model(tmp_path, w_r)
        clean = make_clean_series(tmp_path, n=60)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evaluate", "--model", str(model), "--in", str(clean),
                        "--space", "original", "--metrics-out", str(tmp_path / "m.csv"),
                        "--trace-out", str(tmp_path / "t.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {message}")
        assert not (tmp_path / "m.csv").exists() and not (tmp_path / "t.csv").exists()


class TestPredictCommand:
    def test_zero_model_prints_zero(self, tmp_path, capsys):
        from prognost import save_model
        from test_model import zero_model

        path = tmp_path / "zeros.model"
        save_model(zero_model((4, 3)), path)
        code = run(["predict", "--model", str(path),
                    "--window", "0.1,0.2,0.3,0.4,0.5"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_scaler_round_trips_input_and_output(self, tmp_path, capsys):
        clean, model, _ = train_small(tmp_path)
        capsys.readouterr()
        code = run(["predict", "--model", str(model), "--window", "0.5,0.4,0.3,0.2,0.1"])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert np.isfinite(value)

    def test_prints_predict_windows_through_the_scaler(self, tmp_path, capsys):
        # predict forwards its one window through predict_windows, mapped
        # through the model's scaler; the printed value has the same bits
        clean, model, _ = train_small(tmp_path)
        values = read_series_csv(clean).values
        capsys.readouterr()
        for path in (model, PINNED):
            params = load_model(path)
            for start in (0, 17, 40, len(values) - 5):
                window = values[start : start + 5]
                text = ",".join(repr(float(v)) for v in window)
                assert run(["predict", "--model", str(path), f"--window={text}"]) == 0
                x, _ = apply_scaler(params.scaler, window, "forward")
                y, _ = apply_scaler(params.scaler, predict_windows(params, x[None, :]), "inverse")
                assert capsys.readouterr().out == f"{float(y[0])!r}\n"

    def test_bad_window_is_usage_error(self, tmp_path):
        clean, model, _ = train_small(tmp_path)
        assert run(["predict", "--model", str(model), "--window", "a,b,c"]) == 1

    def test_short_window_is_usage_error(self, tmp_path, capsys):
        clean, model, _ = train_small(tmp_path)
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--window", "1,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--window has 2 values" in captured.err
        assert "trained on windows of 5" in captured.err

    def test_nan_in_window_is_data_error(self, tmp_path, capsys):
        clean, model, _ = train_small(tmp_path)
        capsys.readouterr()
        for path in (model, PINNED):
            assert run(["predict", "--model", str(path), "--window", "nan,1,2,3,4"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "non-finite" in captured.err
        assert run(["predict", "--model", str(model), "--window", "0.1,inf,0.3,0.4,0.5"]) == 2

    def test_scaler_with_an_infinite_range_is_data_error(self, tmp_path, capsys):
        # max - min of scaler -1e308 1e308 overflows to inf, which would turn
        # every prediction into NaN: the file is corrupt, not a model to run
        from prognost import save_model
        from test_model import join_v4, split_v4, zero_model

        path = tmp_path / "wide.model"
        save_model(zero_model((4, 3)), path)
        lines, payload = split_v4(path)
        lines[2] = "scaler -1e308 1e308"
        join_v4(path, lines, payload)
        capsys.readouterr()
        assert run(["predict", "--model", str(path), "--window", "0.1,0.2,0.3,0.4,0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: expected the scaler line")

    def test_window_that_overflows_once_scaled_is_data_error(self, tmp_path, capsys):
        # 1e300 is finite, but divided by the range 1e-300 it is inf
        from prognost import save_model
        from prognost.preprocess import MinMaxScaler
        from test_model import zero_model

        path = tmp_path / "narrow.model"
        save_model(zero_model((4, 3)).with_scaler(MinMaxScaler(0.0, 1e-300)), path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["predict", "--model", str(path), "--window", "1e300,1,1,1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: --window holds a value that is non-finite "
                                       "once scaled")

    def test_prediction_that_overflows_once_mapped_back_is_data_error(self, tmp_path, capsys):
        # the head gives about 7.8, which the scaler (0, 1e308) maps to inf
        model = huge_scale_model(tmp_path, 4.0)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["predict", "--model", str(model), "--window", "1,1,1,1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: values overflow float64 once mapped back "
                                       "through the scaler [0.0, 1e+308]")

    def test_negative_first_window_value(self, capsys):
        glued = run(["predict", "--model", str(PINNED), "--window=-0.5,1,1,1,1"])
        expected = capsys.readouterr()
        assert glued == 0
        assert run(["predict", "--model", str(PINNED), "--window", "-0.5,1,1,1,1"]) == 0
        assert capsys.readouterr() == expected

    def test_input_size_two_fails_at_load(self, tmp_path, capsys):
        from prognost import save_model
        from test_model import zero_model

        path = tmp_path / "wide.model"
        save_model(zero_model((4,)), path)
        path.write_bytes(path.read_bytes().replace(b"input 1 ", b"input 2 ", 1))
        assert run(["predict", "--model", str(path), "--window", "0.1,0.2,0.3"]) == 2
        assert "unsupported input size 2" in capsys.readouterr().err

    @pytest.mark.parametrize("first_lines, message", [
        ("LSTMPROG v2\ninput 1 layers 1 hidden 2 output 1 loss mse\n",
         "unsupported model version 'v2'; expected v4"),
        ("LSTMPROG v3\ninput 1 layers 1 hidden 2 output 1 loss mse window 5\nblock Wi 8 1\n",
         "unsupported model version 'v3'; expected v4"),
        ("LSTMPROG v4\ninput 1 layers 1 hidden 2 output 1 loss mse\n",
         "malformed model header line"),
        ("LSTMPROG v4\ninput 1 layers 1 hidden 1000000 output 1 loss mse window 5\n",
         "model file truncated at byte 100: "),
    ], ids=["v2", "v3", "no-window", "oversized"])
    def test_unloadable_model_is_data_error(self, tmp_path, capsys, first_lines, message):
        path = tmp_path / "m.model"
        path.write_bytes(first_lines.encode().ljust(100, b"x"))
        capsys.readouterr()
        assert run(["predict", "--model", str(path), "--window", "1,2,3,4,5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {message}")
        assert len(captured.err.splitlines()) == 1


def quiet_run(argv):
    """(exit code, stdout) of cli.run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


class TestCrossStageContracts:
    """train, evaluate and predict agree with each other on small draws; each
    example runs the pipeline from a fresh fixture, in process."""

    pipeline = given(
        kind=st.sampled_from(("sine", "degradation")),
        n=st.integers(40, 300),
        dims=st.lists(st.integers(1, 8), min_size=1, max_size=2),
        window=st.integers(1, 7),
        loss_mode=st.sampled_from(("mse", "bce")),
        epochs=st.integers(1, 2),
    )

    @staticmethod
    def train_and_evaluate(tmp, space, kind, n, dims, window, loss_mode, epochs):
        raw, clean, cfg = tmp / "raw.csv", tmp / "clean.csv", tmp / "cfg"
        cfg.write_text(f"hidden_dims = {','.join(map(str, dims))}\nwindow = {window}\n"
                       f"loss_mode = {loss_mode}\nepochs = {epochs}\n")
        for argv in (
            ["gen-fixture", "--kind", kind, "--n", str(n), "--out", str(raw)],
            ["preprocess", "--in", str(raw), "--out", str(clean)],
            ["train", "--in", str(clean), "--config", str(cfg), "--model-out",
             str(tmp / "m.model"), "--report-out", str(tmp / "report.csv")],
            ["evaluate", "--model", str(tmp / "m.model"), "--in", str(clean), "--space", space,
             "--metrics-out", str(tmp / "metrics.csv"), "--trace-out", str(tmp / "trace.csv")],
        ):
            assert quiet_run(argv)[0] == 0
        return clean

    @settings(max_examples=25, deadline=None)
    @pipeline
    def test_predict_prints_the_trace_value_to_a_few_ulps(self, tmp_path_factory, **draw):
        # the original-space trace's predicted column, row by row, is what
        # predict prints for the window before the row's target. Not bit for
        # bit: a row's products round by the BLAS kernel its batch size picks
        # (dot for one row, gemv or gemm for several), so about 1 row in 10
        # differs, by at most 5e-16 of the scaler's extremes
        tmp = tmp_path_factory.mktemp("contract")
        values = read_series_csv(self.train_and_evaluate(tmp, "original", **draw)).values
        scaler = load_model(tmp / "m.model").scaler
        scale = max(abs(scaler.min), abs(scaler.max))
        rows = [line.split(",") for line in (tmp / "trace.csv").read_text().splitlines()[1:]]
        for i in np.linspace(0, len(rows) - 1, 5).astype(int):
            origin, predicted = int(rows[i][0]), float(rows[i][3])
            window = ",".join(repr(float(v)) for v in values[origin - draw["window"] : origin])
            code, out = quiet_run(["predict", "--model", str(tmp / "m.model"), f"--window={window}"])
            assert code == 0
            assert abs(float(out) - predicted) <= 1e-13 * scale

    @settings(max_examples=25, deadline=None)
    @pipeline
    def test_report_ends_on_the_test_rmse_of_evaluate(self, tmp_path_factory, **draw):
        # train's last test RMSE and evaluate's scaled test RMSE: the same bits
        tmp = tmp_path_factory.mktemp("contract")
        self.train_and_evaluate(tmp, "scaled", **draw)
        last_epoch = (tmp / "report.csv").read_text().splitlines()[-1].split(",")
        test_row = (tmp / "metrics.csv").read_text().splitlines()[-1].split(",")
        assert test_row[:2] == ["clean/test", "scaled"]
        assert test_row[3] == last_epoch[2]


    @staticmethod
    def shifted_pipeline_outputs(tmp, series, shift, dims, window, loss_mode, epochs):
        """Model, report and metrics bytes and stdout of preprocess, train and
        evaluate on ``series`` with every timestamp moved by ``shift``."""
        raw, clean, cfg = tmp / "raw.csv", tmp / "clean.csv", tmp / "cfg"
        write_series_csv(SnapshotSeries(series.timestamps + shift, series.values), raw)
        cfg.write_text(f"hidden_dims = {','.join(map(str, dims))}\nwindow = {window}\n"
                       f"loss_mode = {loss_mode}\nepochs = {epochs}\n")
        printed = []
        for argv in (
            ["preprocess", "--in", str(raw), "--out", str(clean)],
            ["train", "--in", str(clean), "--config", str(cfg), "--model-out",
             str(tmp / "m.model"), "--report-out", str(tmp / "report.csv")],
            ["evaluate", "--model", str(tmp / "m.model"), "--in", str(clean),
             "--metrics-out", str(tmp / "metrics.csv"), "--trace-out", str(tmp / "trace.csv")],
        ):
            code, out = quiet_run(argv)
            assert code == 0
            printed.append(out)
        return [(tmp / name).read_bytes() for name in ("m.model", "report.csv", "metrics.csv")], printed

    @settings(max_examples=15, deadline=None)
    @given(
        kind=st.sampled_from(("sine", "degradation")),
        n=st.integers(40, 300),
        gaps=st.lists(st.tuples(st.floats(0.05, 0.95), st.integers(1, 3)), max_size=3),
        shift=st.one_of(st.integers(-2**40, 2**40), st.floats(-1e9, 1e9)),
        dims=st.lists(st.integers(1, 8), min_size=1, max_size=2),
        window=st.integers(1, 7),
        loss_mode=st.sampled_from(("mse", "bce")),
        epochs=st.integers(1, 2),
    )
    def test_shifted_timestamps_give_the_same_bytes(self, tmp_path_factory, kind, n, gaps,
                                                     shift, **draw):
        # timestamps steer only the interpolation of gaps, against differences
        # of timestamps. An integer shift of integer timestamps keeps those
        # differences exact; a fractional one may not, where t + shift rounds
        # differently on either side of a power of two (sine n=127, shift
        # 131008.8 and one gap moved a filled value by 1e-12, and the
        # model with it), so a float shift is drawn only without gaps
        series = make_fixture_series(kind, n)
        if isinstance(shift, float):
            gaps = []
        values = series.values.copy()
        for at, length in gaps:
            # runs start 4 points apart at least, so two never join past max_gap
            start = 4 * int(at * (n // 4 - 1))
            values[start + 1 : start + 1 + length] = np.nan
        series = series.with_values(values)
        outputs = [self.shifted_pipeline_outputs(tmp_path_factory.mktemp("shift"), series,
                                                 offset, **draw) for offset in (0, shift)]
        assert outputs[0] == outputs[1]


class TestBenchmarkTracerTargets:
    def test_every_target_resolves(self):
        # the benchmark wraps these names; a missing one shows up only as
        # trace.targets_missing, so catch a deletion or rename here
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
        )
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        importlib.import_module("prognost.cli")
        missing = [
            f"{module}.{attr}"
            for module, attr, _, _ in tracing.TARGETS
            if not callable(getattr(importlib.import_module(module), attr, None))
        ]
        assert missing == []


class TestGradCheckCommand:
    def test_passes_with_defaults(self, capsys):
        assert run(["grad-check"]) == 0
        out = capsys.readouterr().out
        assert "mse layer1.Wi" in out and "bce Wr" in out
        assert out.strip().splitlines()[-1].startswith("OK:")

    def test_custom_dims(self, capsys):
        assert run(["grad-check", "--dims", "3", "--seed", "5"]) == 0
        assert "layer1.Wc" in capsys.readouterr().out

    def test_zero_eps_is_usage_error(self):
        assert run(["grad-check", "--eps", "0"]) == 1

    def test_degenerate_eps_is_numeric_failure(self, capsys):
        # eps far below roundoff: central differences return garbage and the
        # gate must trip with exit code 3
        assert run(["grad-check", "--eps", "1e-30"]) == 3
        assert "FAIL" in capsys.readouterr().out


def fresh_python(args, blas_threads=None, **kwargs):
    """Run a fresh interpreter, as every pipeline stage starts one, with
    OPENBLAS_NUM_THREADS unset or set to ``blas_threads``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, **kwargs).stdout


class TestImportCost:
    def test_cli_import_leaves_scipy_out(self):
        probe = ("import sys, prognost.cli; "
                 "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        assert fresh_python(["-c", probe]).strip() == "[]"


class TestBlasThreads:
    PROBE = "import os, {first}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"

    @pytest.mark.parametrize("given, first, want", [
        (None, "prognost", "1"),
        ("3", "prognost", "3"),
        (None, "numpy, prognost", "None"),
    ], ids=["default", "explicit", "numpy_first"])
    def test_import_sets_one_blas_thread_unless_told(self, given, first, want):
        assert fresh_python(["-c", self.PROBE.format(first=first)], given).strip() == want

    def test_package_train_is_the_function_after_the_cli_import(self):
        probe = "import prognost.cli; from prognost import train; print(callable(train))"
        assert fresh_python(["-c", probe]).strip() == "True"

    def test_pipeline_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # evaluate's 395 windows run on two workers with one BLAS thread
        clean = make_clean_series(tmp_path, n=400)
        cfg = write_config(tmp_path, hidden_dims="16,8", epochs="3")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            stages = [
                ["train", "--in", clean, "--config", cfg, "--model-out", out / "m.model",
                 "--report-out", out / "report.csv"],
                ["evaluate", "--model", out / "m.model", "--in", clean,
                 "--metrics-out", out / "metrics.csv", "--trace-out", out / "trace.csv"],
                ["predict", "--model", out / "m.model", "--window", "0.5,0.4,0.3,0.2,0.1"],
            ]
            printed = [fresh_python(["-m", "prognost.cli", *map(str, args)], threads)
                       for args in stages]
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            outputs.append((printed, files))
        assert len(outputs[0][1]) == 4
        assert outputs[0] == outputs[1]


    def test_train_and_grad_check_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # unset and "1" hand BPTT's weight products to a helper thread where
        # there are two cores; "2" trains on the calling thread alone
        clean = make_clean_series(tmp_path, n=300)
        cfg = write_config(tmp_path, hidden_dims="8,6,4", epochs="3", batch_size="16")
        outputs = []
        for threads in (None, "1", "2"):
            out = tmp_path / str(threads)
            out.mkdir()
            fresh_python(["-m", "prognost.cli", "train", "--in", str(clean), "--config", str(cfg),
                          "--model-out", str(out / "m.model"),
                          "--report-out", str(out / "report.csv")], threads)
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            checked = fresh_python(["-m", "prognost.cli", "grad-check", "--dims", "3,2"], threads)
            outputs.append((files, checked))
        assert len(outputs[0][0]) == 2 and "OK:" in outputs[0][1]
        assert outputs[0] == outputs[1] == outputs[2]


class TestUsageContract:
    def test_unknown_flag_fatal(self, tmp_path):
        assert run(["gen-fixture", "--kind", "sine", "--n", "50",
                    "--out", str(tmp_path / "x"), "--frobnicate"]) == 1

    def test_unknown_subcommand(self):
        assert run(["transmogrify"]) == 1

    def test_no_subcommand(self):
        assert run([]) == 1

    def test_help_exits_zero_everywhere(self, capsys):
        assert run(["--help"]) == 0
        for sub in ("ingest", "preprocess", "train", "evaluate", "predict",
                    "grad-check", "gen-fixture"):
            assert run([sub, "--help"]) == 0
            assert "--help" in capsys.readouterr().out

    def test_one_parser_serves_successive_calls(self, tmp_path, capsys):
        # the parser is built once per process, so no call may see another
        # call's arguments or defaults
        assert build_parser() is build_parser()
        clean, model, _ = train_small(tmp_path, window=4)
        metrics = tmp_path / "m.csv"
        predict = ["predict", "--model", str(model), "--window", "0.1,0.2,0.3,0.4"]
        evaluate = ["evaluate", "--model", str(model), "--in", str(clean),
                    "--metrics-out", str(metrics), "--trace-out", str(tmp_path / "t.csv")]
        capsys.readouterr()
        outputs = []
        for argv in (evaluate, predict, evaluate + ["--space", "original"], predict, evaluate):
            assert run(argv) == 0
            outputs.append((capsys.readouterr().out, metrics.read_bytes()))
        assert outputs[4] == outputs[0] and outputs[3][0] == outputs[1][0]
        assert "original" in outputs[2][0]
        args = build_parser().parse_args(evaluate)
        assert args.space == "scaled"
        assert set(vars(build_parser().parse_args(predict))) == {"command", "model", "window", "func"}

    def test_every_flag_documented(self):
        parser = build_parser()
        subactions = parser._subparsers._group_actions[0]
        assert set(subactions.choices) == {
            "ingest", "preprocess", "train", "evaluate", "predict",
            "grad-check", "gen-fixture",
        }
        for name, sub in subactions.choices.items():
            text = sub.format_help()
            for action in sub._actions:
                assert action.help, f"{name}: {action.option_strings} lacks help text"
                for opt in action.option_strings:
                    assert opt in text, f"{name}: {opt} undocumented"
