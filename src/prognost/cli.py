"""Command line front end wiring the pipeline stages together.

Stages exchange data only through the documented CSV and model files, so
each one can be run and inspected on its own:

    prognost ingest      raw snapshots / CSV  ->  series.csv
    prognost preprocess  series.csv           ->  clean.csv
    prognost train       clean.csv            ->  model + report.csv
    prognost evaluate    model + clean.csv    ->  metrics.csv + trace.csv
    prognost predict     model + one window   ->  one scalar
    prognost grad-check  analytic vs numeric gradients
    prognost gen-fixture deterministic synthetic series

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import ingest, preprocess
from .train import (
    TrainConfig,
    grad_check,
    parse_config_file,
    train as fit_model,
    write_report_csv,
)
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    UsageError,
    ValidationError,
)
from .fixtures import make_fixture_series
from .model import load_model, save_model, forward_window
from .series import fmt_float, write_series_csv

GRAD_CHECK_GATE = 1e-4

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns exit codes."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(f"bad --dims value {text!r}; expected e.g. 128,64") from None


def _parse_window_values(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=np.float64)
    except ValueError:
        raise UsageError(f"bad --window value {text!r}; expected comma-separated numbers") from None


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process: each parse_args call fills a fresh namespace."""
    parser = _Parser(
        prog="prognost",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        add_help=True,
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("ingest", help="read raw data into a canonical series CSV")
    p.add_argument("--ims-dir", help="directory of IMS snapshot files named yyyy.MM.dd.HH.mm.ss")
    p.add_argument("--channels", type=int, help="column count per snapshot file (IMS mode)")
    p.add_argument("--channel", type=int, default=0, help="0-based channel to aggregate (default 0)")
    p.add_argument("--agg", choices=ingest.AGGREGATION_METHODS, default="rms",
                   help="per-snapshot aggregation (default rms)")
    p.add_argument("--csv", help="generic CSV file with one value per row")
    p.add_argument("--value-col", type=int, default=0, help="0-based value column for --csv (default 0)")
    p.add_argument("--ts-col", type=int, default=None,
                   help="0-based timestamp column for --csv; omitted means indices 0,1,2,...")
    p.add_argument("--out", required=True, help="output series CSV path")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("preprocess",
                       help="fill gaps and remove outliers from a series CSV")
    p.add_argument("--in", dest="infile", required=True, help="input series CSV")
    p.add_argument("--out", required=True, help="output cleaned series CSV")
    p.add_argument("--outlier-window", type=int, default=preprocess.DEFAULT_OUTLIER_WINDOW,
                   help="odd rolling window for the median/MAD filter (default 11)")
    p.add_argument("--outlier-k", type=float, default=preprocess.DEFAULT_OUTLIER_K,
                   help="MAD multiples beyond which a point is replaced (default 5)")
    p.add_argument("--max-gap", type=int, default=preprocess.DEFAULT_MAX_GAP,
                   help="longest run of missing values to interpolate (default 3)")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train",
                       help="fit the stacked LSTM on a cleaned series")
    p.add_argument("--in", dest="infile", required=True, help="cleaned series CSV")
    p.add_argument("--config", default=None,
                   help="key = value config file, the one source of the seed; defaults "
                        "are the 128/64 stack, lr 0.001, batch 50, 100 epochs, seed 42")
    p.add_argument("--model-out", required=True, help="output model file")
    p.add_argument("--report-out", required=True, help="output epoch,train_loss,test_rmse CSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate",
                       help="metrics and actual-vs-predicted trace for a trained model, "
                            "on windows as long as its file records")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--in", dest="infile", required=True, help="cleaned series CSV")
    p.add_argument("--metrics-out", required=True, help="output metrics CSV")
    p.add_argument("--trace-out", required=True, help="output trace CSV")
    p.add_argument("--space", choices=("scaled", "original"), default="scaled",
                   help="report in scaled [0,1] space (default) or original units")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict",
                       help="predict the next value from one window of history")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--window", required=True,
                   help="comma-separated history, e.g. 0.1,0.2,0.3,0.4,0.5, as long as the "
                        "model's training windows, in original units: the model's scaler "
                        "maps it in and the prediction back out")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("grad-check",
                       help="compare analytic BPTT gradients against central differences")
    p.add_argument("--dims", default="4,3", help="hidden sizes, e.g. 4,3 (default)")
    p.add_argument("--seed", type=int, default=7, help="generator seed (default 7)")
    p.add_argument("--eps", type=float, default=1e-6, help="finite-difference step (default 1e-6)")
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("gen-fixture",
                       help="write a deterministic synthetic series for tests and demos")
    p.add_argument("--kind", choices=("sine", "degradation"), required=True,
                   help="sine: noiseless, period 40; degradation: run-to-failure shape with spikes")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--out", required=True, help="output series CSV path")
    p.set_defaults(func=_cmd_gen_fixture)
    return parser


def _cmd_ingest(args) -> int:
    if (args.ims_dir is None) == (args.csv is None):
        raise UsageError("ingest needs exactly one of --ims-dir or --csv")
    if args.ims_dir is not None:
        if args.channels is None:
            raise UsageError("--channels is required with --ims-dir")
        series, scan, warnings = ingest.load_ims_series(
            args.ims_dir, args.channels, args.channel, args.agg
        )
        for name in scan.skipped:
            print(f"skipped non-snapshot entry: {name}", file=sys.stderr)
        for name, messages in warnings.items():
            print(f"warning: {name}: {'; '.join(messages)}", file=sys.stderr)
        print(f"ingested {len(series)} snapshots from {args.ims_dir} "
              f"(channel {args.channel}, {args.agg})")
    else:
        series = ingest.load_csv_series(args.csv, args.value_col, args.ts_col)
        print(f"ingested {len(series)} rows from {args.csv}")
    write_series_csv(series, args.out)
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    series = ingest.read_series_csv(args.infile)
    before = len(series)
    filled = preprocess.fill_missing(series, args.max_gap)
    cleaned, replaced = preprocess.remove_outliers(
        filled, args.outlier_window, args.outlier_k
    )
    write_series_csv(cleaned, args.out)
    # fill_missing drops edge gaps, so every finite point left was either
    # finite before or interpolated.
    interpolated = len(filled) - int(np.sum(np.isfinite(series.values)))
    print(f"kept {len(cleaned)}/{before} points, interpolated "
          f"{interpolated} missing, "
          f"replaced {len(replaced)} outliers")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = parse_config_file(args.config) if args.config else TrainConfig()
    series = ingest.read_series_csv(args.infile)
    split, scaler = preprocess.prepare_training_data(series, cfg.window)
    params, report = fit_model(split, cfg)
    params = params.with_scaler(scaler)
    save_model(params, args.model_out)
    write_report_csv(report, args.report_out)
    print(f"trained {len(split.train)} windows for {cfg.epochs} epochs; "
          f"final train loss {fmt_float(report.train_loss[-1])}, "
          f"final test rmse {fmt_float(report.test_rmse[-1])}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    params = load_model(args.model)
    series = ingest.read_series_csv(args.infile)
    split = preprocess.prepare_eval_data(series, params.scaler, params.window)
    trace = ev.trace_for_split(params, split, params.scaler, args.space)

    stem = Path(args.infile).stem
    n_train = len(split.train)
    rows = []
    for tag, part in (("train", slice(None, n_train)), ("test", slice(n_train, None))):
        metrics = ev.compute_metrics(trace.actual[part], trace.predicted[part], args.space)
        rows.append((f"{stem}/{tag}", metrics))
    ev.write_trace_csv(trace, args.trace_out)
    ev.write_metrics_csv(rows, args.metrics_out)
    test_report = rows[-1][1]
    print(f"test rmse {fmt_float(test_report.rmse)} over {test_report.n} points ({args.space} space)")
    return EXIT_OK


def _cmd_predict(args) -> int:
    params = load_model(args.model)
    window = _parse_window_values(args.window)
    if len(window) != params.window:
        raise UsageError(
            f"--window has {len(window)} values; model {args.model} "
            f"was trained on windows of {params.window}"
        )
    with np.errstate(over="ignore"):
        scaled, _ = preprocess.apply_scaler(params.scaler, window, "forward")
    # a NaN or inf value stays non-finite once scaled, and a finite one may overflow
    if not np.isfinite(scaled).all():
        raise ValidationError(f"--window holds a value that is non-finite once scaled: "
                              f"{args.window!r}")
    y = forward_window(params, scaled)
    out, _ = preprocess.apply_scaler(params.scaler, np.array([y]), "inverse")
    print(fmt_float(out[0]))
    return EXIT_OK


def _cmd_grad_check(args) -> int:
    dims = _parse_dims(args.dims)
    worst = 0.0
    for mode in ("mse", "bce"):
        cfg = TrainConfig(hidden_dims=dims, loss_mode=mode)
        for check in grad_check(cfg, seed=args.seed, eps=args.eps):
            print(f"{mode} {check.block} max_rel_err {check.max_rel_err:.3e} "
                  f"at {check.coord}")
            worst = max(worst, check.max_rel_err)
    if worst > GRAD_CHECK_GATE:
        print(f"FAIL: worst relative error {worst:.3e} exceeds {GRAD_CHECK_GATE:.0e}")
        return EXIT_NUMERIC
    print(f"OK: worst relative error {worst:.3e}")
    return EXIT_OK


def _cmd_gen_fixture(args) -> int:
    if args.n < 10:
        raise UsageError("--n must be at least 10")
    series = make_fixture_series(args.kind, args.n)
    write_series_csv(series, args.out)
    print(f"wrote {args.n}-point {args.kind} fixture to {args.out}")
    return EXIT_OK


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the exit code instead of raising."""
    parser = build_parser()
    # argparse reads "--window -0.5,1" as a flag without its value, because
    # -0.5,1 is not a plain number; glue such a value to its flag.
    argv = list(argv)
    if "--window" in argv[:-1]:
        i = argv.index("--window")
        if argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--window={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: rerun the subcommand with --help for flag documentation", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError, ValueError, IndexError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SystemExit as exc:
        # argparse --help exits 0; preserve that contract
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
