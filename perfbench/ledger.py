"""Per-layer figures reduced from the spans of one traced pipeline."""

from __future__ import annotations

import statistics


def _dur(span) -> float:
    return (span["end"] - span["start"]) / 1e9


def _union_s(intervals) -> float:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total / 1e9


def self_time(span, spans) -> float:
    """Span duration minus the union of its children's intervals."""
    kids = [(s["start"], s["end"]) for s in spans if s["parent"] == span["id"]]
    return _dur(span) - _union_s(kids)


def forward_flops(dims, window: int) -> int:
    """Matmul FLOPs of one window's forward pass, computed from shapes."""
    flops, k = 0, 1
    for d in dims:
        flops += 8 * d * (k + d)
        k = d
    return window * flops + 2 * k


class _Spans:
    """All spans of one traced pipeline, each process's ids kept apart."""

    def __init__(self, per_process):
        self.procs = per_process

    def each(self, name):
        for spans in self.procs:
            for s in spans:
                if s["name"] == name:
                    yield s, spans

    def all(self, name):
        return [s for s, _ in self.each(name)]

    def total(self, name) -> float:
        return sum(_dur(s) for s in self.all(name))

    def count(self, name, key) -> int:
        return sum(s.get("counts", {}).get(key, 0) for s in self.all(name))

    def parent_name(self, span, spans):
        return next((s["name"] for s in spans if s["id"] == span["parent"]), None)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(stage_runs, dims, window: int) -> dict[str, float]:
    """Per-layer figures of one traced pipeline.

    ``stage_runs`` is a list of (wall_s, cpu_s, spans) per stage process.
    Busy times are totals over the pipeline; per-call figures are medians.
    """
    sp = _Spans([spans for _, _, spans in stage_runs])
    m: dict[str, float] = {}

    parse = sp.all("ingest.parse_ims_file")
    busy = sum(s["cpu"] for s in parse)
    load_wall = sp.total("ingest.load_ims_series")
    m["ingest.scan_s"] = sp.total("ingest.scan_ims_directory")
    m["ingest.parse_busy_s"] = busy
    m["ingest.parse_mb_per_s"] = _ratio(sp.count("ingest.parse_ims_file", "bytes") / 1e6, busy)
    m["ingest.aggregate_s"] = sp.total("ingest.aggregate_snapshot")
    m["ingest.load_wall_s"] = load_wall
    m["ingest.pool_overlap"] = _ratio(busy, load_wall)
    m["ingest.files_parsed"] = len(parse)
    m["ingest.truncated_snapshots"] = sp.count("ingest.parse_ims_file", "truncated")
    m["ingest.entries_skipped"] = sp.count("ingest.scan_ims_directory", "skipped")
    direct_csv = [s for s, spans in sp.each("ingest.load_csv_series")
                  if sp.parent_name(s, spans) != "ingest.read_series_csv"]
    m["ingest.csv_s"] = sum(_dur(s) for s in direct_csv)
    m["ingest.csv_rows"] = sum(s.get("counts", {}).get("rows", 0) for s in direct_csv)
    m["ingest.read_series_s"] = sp.total("ingest.read_series_csv")
    m["series.write_csv_s"] = sp.total("series.write_series_csv")

    m["preprocess.fill_s"] = sp.total("preprocess.fill_missing")
    m["preprocess.outliers_s"] = sp.total("preprocess.remove_outliers")
    m["preprocess.prepare_s"] = (sp.total("preprocess.prepare_training_data")
                                 + sp.total("preprocess.prepare_eval_data"))
    m["preprocess.points_interpolated"] = sp.count("preprocess.fill_missing", "interpolated")
    m["preprocess.points_replaced"] = sp.count("preprocess.remove_outliers", "replaced")

    fwd = forward_flops(dims, window)
    loads = sp.all("model.load_model")
    saves = sp.all("model.save_model")
    predict_s = sp.total("evaluate.predict_windows") + sp.total("model.forward_window")
    predicted = sp.count("evaluate.predict_windows", "windows") + len(sp.all("model.forward_window"))
    m["model.init_s"] = sp.total("model.init_params")
    m["model.save_s"] = sp.total("model.save_model")
    m["model.load_s"] = statistics.median(_dur(s) for s in loads) if loads else 0.0
    m["model.file_bytes"] = max((s.get("counts", {}).get("bytes", 0) for s in loads + saves),
                                default=0)
    m["model.predict_s"] = predict_s
    m["model.windows_predicted"] = predicted
    m["model.predict_gflop_per_s"] = _ratio(fwd * predicted / 1e9, predict_s)

    m.update(_train_metrics(sp, fwd))

    trace_rows = sp.count("evaluate.trace_for_split", "rows")
    metric_calls = [s for s, spans in sp.each("evaluate.one_step_predictions")
                    if sp.parent_name(s, spans) != "evaluate.trace_for_split"]
    m["evaluate.trace_s"] = sp.total("evaluate.trace_for_split")
    m["evaluate.metrics_s"] = (sum(_dur(s) for s in metric_calls)
                               + sp.total("evaluate.compute_metrics"))
    m["evaluate.write_s"] = (sp.total("evaluate.write_trace_csv")
                             + sp.total("evaluate.write_metrics_csv"))
    m["evaluate.predictions_per_window"] = _ratio(
        sp.count("evaluate.predict_windows", "windows"), trace_rows)

    imports = sp.all("cli.import")
    m["cli.import_s"] = statistics.median(_dur(s) for s in imports) if imports else 0.0
    stage_spans = []
    for stage in ("ingest", "preprocess", "train", "evaluate", "predict"):
        found = list(sp.each(f"cli.{stage}"))
        stage_spans += found
        durs = [_dur(s) for s, _ in found]
        if stage == "predict":
            m["cli.predict_s"] = statistics.median(durs) if durs else 0.0
        else:
            m[f"cli.{stage}_s"] = sum(durs)
    m["cli.stage_self_s"] = sum(self_time(s, spans) for s, spans in stage_spans)
    m["proc.cpu_util"] = _ratio(sum(cpu for _, cpu, _ in stage_runs),
                                sum(wall for wall, _, _ in stage_runs))
    return m


def _train_metrics(sp: _Spans, fwd: int) -> dict[str, float]:
    m = {}
    phases = {
        "train.forward_s": "train.forward_windows",
        "train.bptt_s": "train.bptt_backward",
        "train.adam_s": "train.adam_step",
        "train.loss_s": "train.compute_loss",
        "train.test_pass_s": "train.predict_windows",
    }
    for metric, name in phases.items():
        m[metric] = sp.total(name)
    runs = list(sp.each("train.train"))
    m["train.loop_self_s"] = sum(self_time(s, spans) for s, spans in runs)
    duration = sum(_dur(s) for s, _ in runs)
    epochs = []
    for span, _ in runs:
        mark = span["start"]
        for test in sorted(sp.all("train.predict_windows"), key=lambda s: s["end"]):
            if span["start"] <= test["start"] and test["end"] <= span["end"]:
                epochs.append((test["end"] - mark) / 1e9)
                mark = test["end"]
    m["train.epoch_p50_s"] = statistics.median(epochs) if epochs else 0.0
    m["train.optimizer_steps"] = len(sp.all("train.adam_step"))
    flops = (3 * fwd * sp.count("train.forward_windows", "windows")
             + fwd * sp.count("train.predict_windows", "windows"))
    m["train.gflop_per_s"] = _ratio(flops / 1e9, duration)
    m["train.phase_sum_frac"] = _ratio(sum(m[k] for k in phases) + m["train.loop_self_s"], duration)
    return m
