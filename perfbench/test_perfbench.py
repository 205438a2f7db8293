"""Tests of the benchmark itself, on the smoke size of every workload.

    python -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import ledger
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def run_bench(workload, trace, seed=3, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    if trace:
        assert result["metrics"]["trace.targets_missing"]["value"] == 0
    if trace and workload == "train_paper":
        assert result["metrics"]["train.phase_sum_frac"]["value"] == pytest.approx(1.0, abs=0.1)
        assert result["metrics"]["ingest.files_parsed"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train_paper", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """Real train and evaluate outputs of a tiny model."""
    from prognost.cli import run

    d = tmp_path_factory.mktemp("eval")
    cfg = d / "cfg"
    cfg.write_text("hidden_dims = 4\nepochs = 3\n")
    assert run(["gen-fixture", "--kind", "degradation", "--n", "80", "--out", str(d / "raw.csv")]) == 0
    assert run(["preprocess", "--in", str(d / "raw.csv"), "--out", str(d / "clean.csv")]) == 0
    assert run(["train", "--in", str(d / "clean.csv"), "--config", str(cfg), "--model-out",
                str(d / "m.model"), "--report-out", str(d / "report.csv")]) == 0
    assert run(["evaluate", "--model", str(d / "m.model"), "--in", str(d / "clean.csv"),
                "--metrics-out", str(d / "metrics.csv"), "--trace-out", str(d / "trace.csv")]) == 0
    return d


def _flip(path, row, column):
    """Change the first decimal digit of one cell of a CSV file."""
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    digit = cells[column].index(".") + 1
    old = cells[column][digit]
    cells[column] = cells[column][:digit] + ("1" if old != "1" else "2") + cells[column][digit + 1:]
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_trace_check_catches_a_flipped_byte(evaluated, tmp_path):
    trace = tmp_path / "trace.csv"
    shutil.copy(evaluated / "trace.csv", trace)
    assert checks.trace_matches_metrics(evaluated / "metrics.csv", trace, 75) == []
    _flip(trace, -1, 3)
    problems = checks.trace_matches_metrics(evaluated / "metrics.csv", trace, 75)
    assert len(problems) == 1 and problems[0].startswith("test rmse")


def test_report_check_catches_a_missing_epoch(evaluated, tmp_path):
    assert checks.report_rows(evaluated / "report.csv", 3) == []
    report = tmp_path / "report.csv"
    report.write_text("".join(evaluated.joinpath("report.csv").read_text().splitlines(True)[:-1]))
    assert checks.report_rows(report, 3)


def test_ingest_check_catches_a_wrong_value(evaluated, tmp_path):
    from prognost.ingest import read_series_csv

    series = read_series_csv(evaluated / "clean.csv")
    assert checks.ingested_series(evaluated / "clean.csv", series.timestamps, series.values) == []
    shifted = series.values.copy()
    shifted[10] = np.nextafter(shifted[10], 1.0) * (1 + 1e-9)
    assert checks.ingested_series(evaluated / "clean.csv", series.timestamps, shifted)
    assert checks.ingested_series(tmp_path / "missing.csv", series.timestamps, shifted)


@pytest.mark.parametrize("make", [
    lambda d, seed: inputs.make_ims_directory(d / "ims", seed, 4, 1),
    lambda d, seed: inputs.make_trend_csv(d / "trend.csv", seed, 50),
    lambda d, seed: inputs.make_scada_csv(d / "scada.csv", seed, 300),
])
def test_inputs_depend_on_the_seed_only(tmp_path, make):
    made = []
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        (tmp_path / name).mkdir()
        made.append(make(tmp_path / name, seed))
    a, b, c = made
    assert a.digest == b.digest != c.digest
    first = a.values
    other = c.values
    assert first.shape == other.shape
    assert np.isnan(first).sum() == np.isnan(other).sum()


def test_self_time_uses_the_union_of_overlapping_children():
    parent = {"id": 1, "parent": None, "name": "p", "start": 0, "end": 10_000_000_000}
    kids = [{"id": 2, "parent": 1, "name": "k", "start": 1_000_000_000, "end": 4_000_000_000},
            {"id": 3, "parent": 1, "name": "k", "start": 3_000_000_000, "end": 6_000_000_000}]
    assert ledger.self_time(parent, [parent, *kids]) == pytest.approx(5.0)


def test_instrument_reports_a_missing_target():
    import prognost.cli  # noqa: F401  (imports every module the tracer wraps)

    modules = {name: types.SimpleNamespace(**vars(sys.modules[name]))
               for name in {module for module, *_ in tracing.TARGETS}}
    del modules["prognost.train"].adam_step
    rec = tracing.Recorder("test")
    tracing.instrument(rec, modules)
    assert rec.missing == ["prognost.train.adam_step"]
    assert modules["prognost.train"].forward_windows.__wrapped__ is \
        sys.modules["prognost.train"].forward_windows
