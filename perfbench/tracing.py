"""Spans around prognost's public functions.

The launcher process calls ``instrument`` after importing ``prognost.cli``.
Each wrapper replaces a function under the name its caller looks it up by
(modules import names directly, so ``prognost.train.forward_windows`` and
``prognost.evaluate.predict_windows`` are wrapped separately from
``prognost.model``). Spans stay in memory and are written once, when the
stage process ends, with the names of the targets that were not found;
``ledger.py`` reduces the spans to per-layer figures.

The launcher imports this module before ``prognost``, so it imports only
small standard-library modules at the top; numpy and json are imported where
they are used, so that their import time stays inside the ``cli.import`` span.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time


class Recorder:
    """In-memory span store for one process.

    A span is a dict: id, parent, name, start and end (``perf_counter_ns``),
    cpu (thread CPU seconds), run id and optional counts. A worker
    thread with no open span of its own parents its spans to the innermost
    open span of the thread that created the recorder, which is the one
    that submitted the work.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.missing: list[str] = []   # targets ``instrument`` did not find
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        outer = stack or self._main_stack
        span = {
            "id": next(self._ids),
            "parent": outer[-1]["id"] if outer else None,
            "name": name,
            "run": self.run_id,
            "cpu": time.thread_time(),
            "start": time.perf_counter_ns(),
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        span["cpu"] = time.thread_time() - span["cpu"]
        self._stack().pop()
        self.spans.append(span)

    def dump(self, path) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _interpolated(args, kwargs, result):
    import numpy as np

    series = _arg(args, kwargs, 0, "series")
    dropped = len(series) - len(result)
    return {"interpolated": int(np.sum(~np.isfinite(series.values))) - dropped}


def _windows(index: int, name: str):
    return lambda args, kwargs, result: {"windows": len(_arg(args, kwargs, index, name))}


def _file_bytes(index: int, name: str):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}


# (module, attribute, span name, counter). The module is the caller's
# namespace, so the wrapper intercepts the call where it is made.
_CLI, _INGEST, _PRE = "prognost.cli", "prognost.ingest", "prognost.preprocess"
_TRAIN, _EVAL = "prognost.train", "prognost.evaluate"
TARGETS = [
    (_INGEST, "load_ims_series", "ingest.load_ims_series", None),
    (_INGEST, "scan_ims_directory", "ingest.scan_ims_directory",
     lambda a, k, r: {"skipped": len(r.skipped)}),
    (_INGEST, "parse_ims_file", "ingest.parse_ims_file",
     lambda a, k, r: {"bytes": len(_arg(a, k, 0, "content")), "truncated": len(r.warnings)}),
    (_INGEST, "aggregate_snapshot", "ingest.aggregate_snapshot", None),
    (_INGEST, "load_csv_series", "ingest.load_csv_series", lambda a, k, r: {"rows": len(r)}),
    (_INGEST, "read_series_csv", "ingest.read_series_csv", None),
    (_CLI, "write_series_csv", "series.write_series_csv", None),
    (_PRE, "fill_missing", "preprocess.fill_missing", _interpolated),
    (_PRE, "remove_outliers", "preprocess.remove_outliers",
     lambda a, k, r: {"replaced": len(r[1])}),
    (_PRE, "prepare_training_data", "preprocess.prepare_training_data", None),
    (_PRE, "prepare_eval_data", "preprocess.prepare_eval_data", None),
    (_CLI, "fit_model", "train.train", None),
    (_TRAIN, "init_params", "model.init_params", None),
    (_TRAIN, "forward_windows", "train.forward_windows", _windows(1, "windows")),
    (_TRAIN, "compute_loss", "train.compute_loss", None),
    (_TRAIN, "bptt_backward", "train.bptt_backward", None),
    (_TRAIN, "adam_step", "train.adam_step", None),
    (_TRAIN, "predict_windows", "train.predict_windows", _windows(1, "windows")),
    (_CLI, "write_report_csv", "train.write_report_csv", None),
    (_CLI, "save_model", "model.save_model", _file_bytes(1, "path")),
    (_CLI, "load_model", "model.load_model", _file_bytes(0, "path")),
    (_CLI, "forward_window", "model.forward_window", lambda a, k, r: {"windows": 1}),
    (_EVAL, "trace_for_split", "evaluate.trace_for_split", lambda a, k, r: {"rows": len(r)}),
    (_EVAL, "one_step_predictions", "evaluate.one_step_predictions", None),
    (_EVAL, "compute_metrics", "evaluate.compute_metrics", None),
    (_EVAL, "predict_windows", "evaluate.predict_windows", _windows(1, "windows")),
    (_EVAL, "write_trace_csv", "evaluate.write_trace_csv", None),
    (_EVAL, "write_metrics_csv", "evaluate.write_metrics_csv", None),
]


def instrument(rec: Recorder, modules) -> None:
    """Wrap every target, and record in ``rec.missing`` each one that is not
    there, so that a renamed function reads as lost coverage, not as a layer
    that costs nothing.

    ``modules`` maps module names to modules, as ``sys.modules`` does; the
    package namespace will not do, because ``prognost.train`` there is the
    function re-exported by ``prognost/__init__.py``, not the module.
    """
    for module_name, attr, name, counter in TARGETS:
        fn = getattr(modules.get(module_name), attr, None)
        if fn is None:
            rec.missing.append(f"{module_name}.{attr}")
        else:
            setattr(modules[module_name], attr, _wrap(rec, fn, name, counter))


def _wrap(rec: Recorder, fn, name: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if counter is not None:
            span["counts"] = counter(args, kwargs, result)
        return result

    return traced
