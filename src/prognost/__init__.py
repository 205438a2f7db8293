"""LSTM-based bearing vibration prognostics: ingestion, preprocessing,
from-scratch stacked-LSTM training, and forecast evaluation.

A process that imports prognost before numpy runs OpenBLAS on one thread
unless OPENBLAS_NUM_THREADS says otherwise: the model's products are too
small for BLAS threads to pay, and predict_windows and train spread their
work over the cores instead.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ConfigError,
    ConstantSeriesError,
    ContractError,
    DataError,
    EmptyDatasetError,
    GapTooLargeError,
    GradientError,
    InsufficientDataError,
    ModelCorruptionError,
    ModelFormatError,
    ModelVersionError,
    NumericError,
    ParseError,
    PrognosticsError,
    TrainingDivergedError,
    UsageError,
    ValidationError,
)
from .evaluate import (
    MetricsReport,
    PredictionTrace,
    compute_metrics,
    one_step_predictions,
    persistence_predictions,
    trace_for_split,
    write_metrics_csv,
    write_trace_csv,
)
from .fixtures import make_degradation_series, make_fixture_series, make_sine_series
from .ingest import (
    ScanResult,
    SnapshotFileRef,
    SnapshotMatrix,
    aggregate_snapshot,
    load_csv_series,
    load_ims_series,
    parse_ims_file,
    read_series_csv,
    scan_ims_directory,
)
from .model import (
    LayerParams,
    ModelParams,
    forward_window,
    forward_windows,
    init_params,
    load_model,
    lstm_cell_forward,
    predict_windows,
    save_model,
)
from .preprocess import (
    MinMaxScaler,
    SplitDataset,
    WindowedDataset,
    apply_scaler,
    fill_missing,
    fit_minmax,
    make_windows,
    prepare_eval_data,
    prepare_training_data,
    remove_outliers,
    split_train_test,
)
from .series import SnapshotSeries, write_series_csv
from .train import (
    AdamState,
    BlockCheck,
    TrainConfig,
    TrainReport,
    adam_step,
    bptt_backward,
    compute_loss,
    grad_check,
    parse_config_file,
    train,
    write_report_csv,
)

__version__ = "0.1.0"
