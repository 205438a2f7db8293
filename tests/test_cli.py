"""End-to-end CLI behavior: subcommands, exit codes, reproducibility."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from prognost.cli import build_parser, run
from prognost.ingest import IMS_EXPECTED_ROWS, read_series_csv

ROOT = Path(__file__).resolve().parents[1]
PINNED_V1 = ROOT / "tests" / "data" / "v1_stack_3_2.model"


def make_clean_series(tmp_path, n=120, kind="sine"):
    raw = tmp_path / "raw.csv"
    clean = tmp_path / "clean.csv"
    assert run(["gen-fixture", "--kind", kind, "--n", str(n), "--out", str(raw)]) == 0
    assert run(["preprocess", "--in", str(raw), "--out", str(clean)]) == 0
    return clean


def write_config(tmp_path, **overrides):
    base = {"hidden_dims": "6", "epochs": "8", "seed": "9"}
    base.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / "cfg"
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
        assert model.read_text().startswith("LSTMPROG v2\n")

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

    def test_seed_flag_overrides_config(self, tmp_path):
        clean = make_clean_series(tmp_path)
        cfg = write_config(tmp_path, seed=9)
        m1, m2 = tmp_path / "a.model", tmp_path / "b.model"
        run(["train", "--in", str(clean), "--config", str(cfg), "--seed", "10",
             "--model-out", str(m1), "--report-out", str(tmp_path / "a.csv")])
        run(["train", "--in", str(clean), "--config", str(cfg),
             "--model-out", str(m2), "--report-out", str(tmp_path / "b.csv")])
        assert m1.read_bytes() != m2.read_bytes()

    def test_missing_input_is_data_error(self, tmp_path):
        assert run(["train", "--in", str(tmp_path / "nope.csv"),
                    "--model-out", str(tmp_path / "m"), "--report-out", str(tmp_path / "r")]) == 2

    def test_bad_config_is_usage_error(self, tmp_path):
        clean = make_clean_series(tmp_path)
        cfg = tmp_path / "cfg"
        cfg.write_text("epochs = 0\n")
        assert run(["train", "--in", str(clean), "--config", str(cfg),
                    "--model-out", str(tmp_path / "m"), "--report-out", str(tmp_path / "r")]) == 1


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
        clean, model, _ = train_small(tmp_path, window=4)
        blobs = []
        for flags in ([], ["--window", "4"]):
            met, trace = tmp_path / "met.csv", tmp_path / "trace.csv"
            assert run(["evaluate", "--model", str(model), "--in", str(clean),
                        "--metrics-out", str(met), "--trace-out", str(trace)] + flags) == 0
            blobs.append((met.read_bytes(), trace.read_bytes()))
        assert blobs[0] == blobs[1]
        n_points = len(read_series_csv(clean))
        assert len(trace.read_text().splitlines()) - 1 == n_points - 4

    def test_other_window_than_the_models_is_usage_error(self, tmp_path, capsys):
        clean, model, _ = train_small(tmp_path)
        capsys.readouterr()
        assert run(["evaluate", "--model", str(model), "--in", str(clean),
                    "--metrics-out", str(tmp_path / "m.csv"),
                    "--trace-out", str(tmp_path / "t.csv"), "--window", "9"]) == 1
        assert "trained on windows of 5" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_v1_model_window_defaults_to_5(self, tmp_path):
        # a v1 file records no window, so any --window is taken as given
        clean = make_clean_series(tmp_path)
        n_points = len(read_series_csv(clean))
        trace = tmp_path / "trace.csv"
        for flags, windows in (([], n_points - 5), (["--window", "3"], n_points - 3)):
            assert run(["evaluate", "--model", str(PINNED_V1), "--in", str(clean),
                        "--metrics-out", str(tmp_path / "m.csv"),
                        "--trace-out", str(trace)] + flags) == 0
            assert len(trace.read_text().splitlines()) - 1 == windows

    def test_corrupt_model_is_data_error(self, tmp_path):
        clean = make_clean_series(tmp_path)
        bad = tmp_path / "bad.model"
        bad.write_text("LSTMPROG v9\n")
        assert run(["evaluate", "--model", str(bad), "--in", str(clean),
                    "--metrics-out", str(tmp_path / "m.csv"),
                    "--trace-out", str(tmp_path / "t.csv")]) == 2

    def test_scalerless_model_is_config_error(self, tmp_path):
        from prognost import save_model
        from test_model import zero_model

        clean = make_clean_series(tmp_path)
        bare = tmp_path / "bare.model"
        save_model(zero_model((4,)), bare)
        assert run(["evaluate", "--model", str(bare), "--in", str(clean),
                    "--metrics-out", str(tmp_path / "m.csv"),
                    "--trace-out", str(tmp_path / "t.csv")]) == 1


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
        for path in (model, PINNED_V1):
            assert run(["predict", "--model", str(path), "--window", "nan,1,2,3,4"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "non-finite" in captured.err
        assert run(["predict", "--model", str(model), "--window", "0.1,inf,0.3,0.4,0.5"]) == 2


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


class TestImportCost:
    def test_cli_import_leaves_scipy_out(self):
        # a fresh interpreter, as every pipeline stage starts one
        probe = ("import sys, prognost.cli; "
                 "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "[]"


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
