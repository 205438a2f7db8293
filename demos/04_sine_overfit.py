#!/usr/bin/env python3
"""Capability check: memorize a noiseless sine and beat the naive baseline.

A single 8-unit layer, 500 epochs at the default learning rate, on a
200-point sine with a 40-sample period. If the optimizer and gradients
are right, the train MSE collapses below 1e-4 and one-step predictions
land far under the persistence forecaster (predict the previous value).
"""

import time

import numpy as np

from prognost import (
    TrainConfig,
    make_sine_series,
    persistence_predictions,
    prepare_training_data,
    train,
)
from prognost.model import predict_windows

split, scaler = prepare_training_data(make_sine_series(200), window_length=5)
cfg = TrainConfig(hidden_dims=(8,), learning_rate=0.001, epochs=500, seed=42)
started = time.perf_counter()
params, report = train(split, cfg)
wall_s = time.perf_counter() - started

marks = [1, 10, 50, 100, 250, 500]
print("epoch    train mse    test rmse")
for e in marks:
    print(f"{e:5d}    {report.train_loss[e - 1]:.3e}    {report.test_rmse[e - 1]:.3e}")

pred = predict_windows(params, split.test.windows)
model_rmse = float(np.sqrt(np.mean((pred - split.test.targets) ** 2)))
base = persistence_predictions(split.test)
base_rmse = float(np.sqrt(np.mean((base - split.test.targets) ** 2)))

print(f"\nheld-out one-step rmse: model {model_rmse:.5f} vs persistence {base_rmse:.5f}")
print(f"final train mse {report.train_loss[-1]:.2e} "
      f"({'OK' if report.train_loss[-1] < 1e-4 else 'MISS'}: target < 1e-4)")
print(f"wall time {wall_s:.1f}s over {report.optimizer_steps} optimizer steps")
