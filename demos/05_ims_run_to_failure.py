#!/usr/bin/env python3
"""Full pipeline on the public IMS bearing run-to-failure data.

Point IMS_DATASET_DIR (or argv[1]) at a directory of snapshot files named
yyyy.MM.dd.HH.mm.ss, e.g. the dataset-2 folder whose 984 files cover the
run that ends in a bearing-1 outer race fault. Each 20480-sample snapshot
collapses to one RMS point; the trend is cleaned, scaled on the training
prefix, windowed, and forecast one step ahead.

Without the download this script exits early with instructions.
"""

import os
import sys

from prognost import (
    TrainConfig,
    compute_metrics,
    fill_missing,
    load_ims_series,
    one_step_predictions,
    persistence_predictions,
    prepare_training_data,
    remove_outliers,
    train,
    write_trace_csv,
)

data_dir = sys.argv[1] if len(sys.argv) > 1 else os.environ.get("IMS_DATASET_DIR")
if not data_dir or not os.path.isdir(data_dir):
    print("IMS data not found. Download the IMS bearing dataset and run:")
    print("  python demos/05_ims_run_to_failure.py /path/to/2nd_test")
    sys.exit(0)

series, scan, warnings = load_ims_series(data_dir, expected_channels=4, channel=0, method="rms")
print(f"{len(series)} snapshots ingested ({len(scan.skipped)} non-snapshot entries skipped, "
      f"{len(warnings)} files with warnings such as truncation)")
print(f"rms trend range [{series.values.min():.4f}, {series.values.max():.4f}]")

cleaned, replaced = remove_outliers(fill_missing(series, 3))
print(f"{len(replaced)} spike points replaced by the rolling median filter")

split, scaler = prepare_training_data(cleaned, window_length=5)
print(f"{len(split.train)} train / {len(split.test)} test windows (70:30, chronological)")

cfg = TrainConfig()  # stacked 128/64, Adam 0.001, batch 50, 100 epochs
params, report = train(split, cfg)
print(f"final epoch: train loss {report.train_loss[-1]:.3e}, "
      f"test rmse {report.test_rmse[-1]:.4f} (scaled space)")

trace = one_step_predictions(params, split.test, scaler, space="scaled")
rep = compute_metrics(trace.actual, trace.predicted)
base = compute_metrics(split.test.targets, persistence_predictions(split.test))
print(f"test metrics : rmse {rep.rmse:.4f}  mae {rep.mae:.4f}  "
      f"nmae {rep.nmae:.4f}  mape {rep.mape:.4f} ({rep.mape_excluded} excluded)")
print(f"persistence  : rmse {base.rmse:.4f}")

# degradation tracking: vibration climbs toward the failure end of the test span
n = len(trace.actual)
print(f"test actuals mean, first tenth {trace.actual[: n // 10].mean():.4f} "
      f"-> last tenth {trace.actual[-n // 10 :].mean():.4f}")

write_trace_csv(trace, "ims_test_trace.csv")
print("wrote ims_test_trace.csv (origin_index,timestamp,actual,predicted,split)")
