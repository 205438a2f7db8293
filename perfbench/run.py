#!/usr/bin/env python3
"""The prognost benchmark: seeded inputs, the documented CLI stages run as
separate processes, output checks, and one JSON result line.

    python3 perfbench/run.py --workload ims_pipeline --seed 1 --seconds 20 --trace 0

Run it from the repository root. ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs the same stages through
``launcher.py`` and reports the per-layer metrics. ``--size smoke`` shrinks
every input for the benchmark's own tests. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
STAGE_TIMEOUT_S = 150
SETUP_BUDGET_S = 1.0
WINDOW = 5
SPLIT = 0.7
WORKLOADS = ("ims_pipeline", "train_paper", "scada_eval")
# The paper's 100-epoch train stage is too long to repeat in a run: later
# rounds of these workloads reuse the first round's model.
TRAIN_ONCE = {"train_paper"}
TRACE_PAIRS = 2     # fewest (untraced, traced) round pairs per traced run
PAGE_CACHE_NOTE = ("inputs are written during set-up and read back from the page cache; "
                   "the cache cannot be dropped here, so disk behaviour is not measured")


@dataclass(frozen=True)
class Size:
    ims_files: int
    ims_truncated: int
    ims_epochs: int          # ims_pipeline trains with the paper's stack for this many epochs
    trend_points: int
    paper_epochs: int
    scada_rows: int
    history_points: int      # length of the series the scada_eval model is trained on
    history_epochs: int
    dims: tuple[int, ...]
    warm_calls: int          # in-process predicts per run, spread over the rounds
    cold_calls: int          # predict processes per round
    setups: int
    rounds: dict[str, int]   # fewest pipeline rounds per run, by workload


SIZES = {
    "full": Size(30, 3, 20, 984, 100, 10000, 400, 5, (128, 64), 100, 3, 3,
                 {"ims_pipeline": 3, "train_paper": 5, "scada_eval": 3}),
    "smoke": Size(12, 2, 2, 120, 2, 600, 120, 2, (16, 8), 20, 2, 2,
                  {"ims_pipeline": 1, "train_paper": 2, "scada_eval": 1}),
}


@dataclass
class Op:
    """One attempted operation: a stage process, a predict call or the whole set-up."""

    name: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    code: int = 0
    stdout: str = ""
    problems: list[str] = field(default_factory=list)
    spans: list | None = None
    missing: list[str] = field(default_factory=list)   # targets the tracer did not find

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


@dataclass
class Setup:
    seconds: float
    source: object             # inputs.ImsInput or inputs.CsvInput
    config: Path | None
    epochs: int                # of the measured train stage, or of the served model
    model: Path | None = None  # scada_eval's served model
    train_op: Op | None = None
    model_digest: str | None = None


@dataclass
class Round:
    stages: dict[str, Op]
    cold: list[Op]
    warm: list[Op]
    wall_s: float              # first stage launch to the exit of evaluate
    files: dict[str, Path]
    full: bool                 # ran every stage of the workload (no reused model)


def _config_text(size: Size, epochs: int) -> str:
    dims = ",".join(str(d) for d in size.dims)
    return (f"hidden_dims = {dims}\nlearning_rate = 0.001\nbatch_size = 50\n"
            f"epochs = {epochs}\nwindow = {WINDOW}\nloss_mode = mse\nseed = 42\n")


def train_windows(points: int) -> int:
    return int(np.floor(SPLIT * (points - WINDOW)))


class Bench:
    def __init__(self, workload: str, seed: int, size_name: str, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.size_name = size_name
        self.size = SIZES[size_name]
        self.work = workdir
        self.ops: list[Op] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._n = 0
        self._rounds = 0
        self._models: dict[Path, object] = {}

    # ------------------------------------------------------------ processes

    def stage(self, args: list[str], outdir: Path, traced: bool = False) -> Op:
        """Run one CLI stage as its own process and account for it."""
        self._n += 1
        tag = f"{self._n:04d}-{args[0]}"
        op = Op(args[0])
        if traced:
            spans = outdir / f"{tag}.spans.json"
            cmd = [sys.executable, str(HERE / "launcher.py"), str(spans), tag, *args]
        else:
            cmd = [sys.executable, "-m", "prognost.cli", *args]
        out_path, err_path = outdir / f"{tag}.out", outdir / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            op.wall_s = time.perf_counter() - start
        proc.returncode = op.code = os.waitstatus_to_exitcode(status)
        op.cpu_s = usage.ru_utime + usage.ru_stime
        op.rss_mb = usage.ru_maxrss / 1024.0
        op.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        if op.code != 0:
            op.problems.append(f"exit {op.code}: "
                               + err_path.read_text(encoding="utf-8", errors="replace")[-500:])
        if traced:
            try:
                recorded = json.loads(spans.read_text(encoding="utf-8"))
                op.spans, op.missing = recorded["spans"], recorded["missing"]
            except (OSError, ValueError, KeyError) as exc:
                op.problems.append(f"no spans: {exc!r}")
                op.spans = []
        self.ops.append(op)
        return op

    def warm_predicts(self, model: Path, windows: list[str]) -> list[Op]:
        """``prognost.cli.run(["predict", ...])`` in this process, one call per window."""
        from prognost.cli import run as cli_run

        done = []
        for window in windows:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_run(["predict", "--model", str(model), "--window", window])
            op = Op("predict.warm", wall_s=time.perf_counter() - start, code=code,
                    stdout=out.getvalue())
            if code != 0:
                op.problems.append(f"exit {code}: {err.getvalue()[-500:]}")
            done.append(op)
        self.ops.extend(done)
        return done

    # ---------------------------------------------------------------- set-up

    def setup(self, k: int) -> Setup:
        """Generate this workload's inputs (and train scada_eval's model)."""
        d = self.work / f"setup{k}"
        start = time.perf_counter()
        d.mkdir(parents=True)
        size, seed = self.size, self.seed
        config = d / "train.cfg"
        model = train_op = None
        if self.workload == "ims_pipeline":
            source = inputs.make_ims_directory(d / "ims", seed, size.ims_files, size.ims_truncated)
            epochs = size.ims_epochs
        elif self.workload == "train_paper":
            source = inputs.make_trend_csv(d / "trend.csv", seed, size.trend_points)
            epochs = size.paper_epochs
        else:
            source = inputs.make_scada_csv(d / "scada.csv", seed, size.scada_rows)
            history = inputs.make_scada_history(d / "history.csv", seed, size.history_points)
            epochs = size.history_epochs
        config.write_text(_config_text(size, epochs), encoding="utf-8")
        if self.workload == "scada_eval":
            model = d / "served.model"
            train_op = self.stage(["train", "--in", str(history.path), "--config", str(config),
                                   "--model-out", str(model), "--report-out",
                                   str(d / "served_report.csv")], d)
            train_op.problems += checks.report_rows(d / "served_report.csv", epochs)
        return Setup(time.perf_counter() - start, source, config, epochs, model, train_op)

    # -------------------------------------------------------------- pipeline

    def pipeline(self, s: Setup, windows: tuple[list[str], list[str]], traced: bool,
                 reuse: Path | None, pause) -> Round:
        """One round of the workload's stages, then a predict process per
        cold window, each followed by a slice of the warm windows and a call
        of ``pause``; ``reuse`` skips training."""
        self._rounds += 1
        d = self.work / f"round{self._rounds}"
        d.mkdir()
        files = {name: d / name for name in
                 ("series.csv", "clean.csv", "model", "report.csv", "metrics.csv", "trace.csv")}
        if self.workload == "ims_pipeline":
            ingest = ["ingest", "--ims-dir", str(s.source.directory), "--channels",
                      str(inputs.IMS_CHANNELS), "--channel", "0", "--agg", "rms"]
        else:
            ingest = ["ingest", "--csv", str(s.source.path), "--ts-col", "0", "--value-col", "1"]
        model = reuse or s.model or files["model"]
        stages = {}
        start = time.perf_counter()
        stages["ingest"] = self.stage(ingest + ["--out", str(files["series.csv"])], d, traced)
        stages["preprocess"] = self.stage(["preprocess", "--in", str(files["series.csv"]),
                                           "--out", str(files["clean.csv"])], d, traced)
        if model == files["model"]:
            stages["train"] = self.stage(["train", "--in", str(files["clean.csv"]),
                                          "--config", str(s.config), "--model-out", str(model),
                                          "--report-out", str(files["report.csv"])], d, traced)
        stages["evaluate"] = self.stage(["evaluate", "--model", str(model),
                                         "--in", str(files["clean.csv"]),
                                         "--metrics-out", str(files["metrics.csv"]),
                                         "--trace-out", str(files["trace.csv"])], d, traced)
        wall = time.perf_counter() - start
        # Predict processes alternate with slices of the in-process predicts,
        # so that both kinds of sample spread over the same stretch of time.
        cold, hot = [], []
        n = len(windows[0])
        for i, window in enumerate(windows[0]):
            cold.append(self.stage(["predict", "--model", str(model), "--window", window],
                                   d, traced))
            hot += self.warm_predicts(model, windows[1][i * len(windows[1]) // n:
                                                         (i + 1) * len(windows[1]) // n])
            pause()
        files["model"] = model
        return Round(stages, cold, hot, wall, files, reuse is None)

    # ---------------------------------------------------------------- checks

    def reference_prediction(self, model: Path, window: str) -> str:
        """``predict_windows`` on the window, mapped through the model's scaler."""
        from prognost.model import load_model, predict_windows
        from prognost.preprocess import apply_scaler

        if model not in self._models:
            self._models[model] = load_model(model)
        params = self._models[model]
        x = np.array([float(tok) for tok in window.split(",")])
        if params.scaler is not None:
            x, _ = apply_scaler(params.scaler, x, "forward")
        y = predict_windows(params, x[None, :])
        if params.scaler is not None:
            y, _ = apply_scaler(params.scaler, y, "inverse")
        return repr(float(y[0]))

    def check(self, it: Round, s: Setup, windows: tuple[list[str], list[str]]) -> None:
        f, st = it.files, it.stages
        st["ingest"].problems += checks.ingested_series(
            f["series.csv"], s.source.timestamps, s.source.values)
        st["preprocess"].problems += checks.clean_series(f["clean.csv"])
        if "train" in st:
            st["train"].problems += checks.report_rows(f["report.csv"], s.epochs)
        st["evaluate"].problems += checks.trace_matches_metrics(
            f["metrics.csv"], f["trace.csv"], self.clean_points(it) - WINDOW)
        for op, window in [*zip(it.cold, windows[0]), *zip(it.warm, windows[1])]:
            if op.code == 0:
                expected = self.reference_prediction(f["model"], window)
                if op.stdout.strip() != expected:
                    op.problems.append(f"printed {op.stdout.strip()!r}, predict_windows gives {expected}")

    @staticmethod
    def clean_points(it: Round) -> int:
        with open(it.files["clean.csv"], encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 1

    def predict_windows_text(self, s: Setup) -> tuple[list[str], list[str]]:
        """Seeded windows of the true trend, in original units: (cold, warm)."""
        values = s.source.values
        starts = [i for i in range(len(values) - WINDOW)
                  if np.isfinite(values[i:i + WINDOW]).all()]
        rng = np.random.Generator(np.random.PCG64([self.seed, 5]))
        warm = -(-self.size.warm_calls // self.size.rounds[self.workload])
        picks = rng.choice(starts, size=self.size.cold_calls + warm)
        text = [",".join(repr(float(v)) for v in values[i:i + WINDOW]) for i in picks]
        return text[:self.size.cold_calls], text[self.size.cold_calls:]


def measure(seconds: float, rounds: int, one) -> list:
    """Run ``one()`` ``rounds`` times, then again while the next run should
    still end within ``seconds`` of the first start."""
    results = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(one())
        last = time.perf_counter() - t
        if len(results) >= rounds and time.perf_counter() - start + last > seconds:
            return results


def end_to_end(b: Bench, setups: list[Setup], its: list[Round]) -> dict[str, float]:
    first = setups[0]
    m = {"setup_s": statistics.median(s.seconds for s in setups),
         "wall_s": statistics.median(it.wall_s for it in its if it.full)}
    points = len(first.source.timestamps)
    m["ingest_snapshots_per_s"] = statistics.median(points / it.stages["ingest"].wall_s for it in its)
    if first.train_op is not None:
        work = train_windows(b.size.history_points) * first.epochs
        m["train_windows_per_s"] = statistics.median(work / s.train_op.wall_s for s in setups)
    else:
        m["train_windows_per_s"] = statistics.median(
            train_windows(b.clean_points(it)) * first.epochs / it.stages["train"].wall_s
            for it in its if "train" in it.stages)
    m["eval_windows_per_s"] = statistics.median(
        (b.clean_points(it) - WINDOW) / it.stages["evaluate"].wall_s for it in its)
    warm_ms = [op.wall_s * 1e3 for it in its for op in it.warm]
    m["predict_p90_ms"] = float(np.percentile(warm_ms, 90))
    m["predict_cold_p50_ms"] = statistics.median(op.wall_s * 1e3 for it in its for op in it.cold)
    m["test_rmse"] = checks.metrics_rmse(its[0].files["metrics.csv"])
    stage_ops = [op for it in its for op in [*it.stages.values(), *it.cold]]
    m["peak_rss_mb"] = max(op.rss_mb for op in stage_ops)
    return m


def per_layer(b: Bench, pairs: list[tuple[Round, Round]]) -> dict[str, float]:
    """Per-layer figures: medians over the traced rounds that ran every
    stage; tracing overhead from each traced round and its untraced twin."""
    traced = [t for _, t in pairs if t.full]
    per_iter = []
    for it in traced:
        runs = [(op.wall_s, op.cpu_s, op.spans or [])
                for op in [*it.stages.values(), *it.cold]]
        per_iter.append(ledger.layer_metrics(runs, b.size.dims, WINDOW))
    m = {k: statistics.median(x[k] for x in per_iter) for k in per_iter[0]}
    m["cli.predict_call_p50_ms"] = statistics.median(
        op.wall_s * 1e3 for it in traced for op in it.warm)
    m["trace.overhead_s"] = statistics.median(t.wall_s - u.wall_s for u, t in pairs)
    m["trace.overhead_frac"] = statistics.median(t.wall_s / u.wall_s - 1.0 for u, t in pairs)
    missing = sorted({name for _, t in pairs for op in [*t.stages.values(), *t.cold]
                      for name in op.missing})
    if missing:
        print("trace-missing " + json.dumps(missing), flush=True)
    m["trace.targets_missing"] = len(missing)
    return m


def environment() -> dict:
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        sha = lines[1] if git.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha or "unavailable: not a git checkout",
        "src_sha256": inputs.tree_digest(SRC / "prognost"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PROGNOST_THREADS": os.environ.get("PROGNOST_THREADS"),
        "loadavg_at_start": os.getloadavg(),
        "page_cache": PAGE_CACHE_NOTE,
    }


def _digest_ledger(key: str, digests: dict[str, str]) -> list[str]:
    """Compare with, then record, the digests of earlier runs with this key.

    The key holds the digest of the code under test, so only runs of
    identical code are compared: a change that alters the model file's
    bytes on purpose starts a fresh entry."""
    path = WORK / "digests.json"
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    earlier = known.get(key, {})
    problems = [f"{what} digest {digests[what][:12]} differs from an earlier run's "
                f"{earlier[what][:12]} with the same seed and code"
                for what in digests if what in earlier and earlier[what] != digests[what]]
    known[key] = {**earlier, **digests}
    path.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def run_workload(b: Bench, seconds: float, trace: bool,
                 src_digest: str) -> tuple[dict[str, float], dict]:
    setups = [b.setup(0)]
    first = setups[0]
    windows = b.predict_windows_text(first)
    # A traced run measures pairs of rounds, one untraced and one traced.
    rounds = min(TRACE_PAIRS, b.size.rounds[b.workload]) if trace else b.size.rounds[b.workload]
    pauses = [0]

    def more_setups() -> None:
        """Set up again until the share of the quota that the pauses so far
        have reached is done; the quota is at least size.setups set-ups and
        SETUP_BUDGET_S seconds of them in all.

        The repeats are spread over the pauses after each predict process of
        the first rounds, because the host's speed changes for seconds at a
        time, and a median of set-ups made back to back would measure one
        moment of it."""
        pauses[0] += 1
        share = min(1.0, pauses[0] / (rounds * b.size.cold_calls))
        while (len(setups) < b.size.setups * share
               or sum(s.seconds for s in setups) < SETUP_BUDGET_S * share):
            s = b.setup(len(setups))
            s.model_digest = checks.file_digest(s.model) if s.model else None
            shutil.rmtree(b.work / f"setup{len(setups)}")
            setups.append(s)

    def one(traced: bool, windows: tuple[list[str], list[str]]):
        done = []

        def go():
            reuse = done[0].files["model"] if done and b.workload in TRAIN_ONCE else None
            it = b.pipeline(first, windows, traced, reuse, more_setups)
            b.check(it, first, windows)
            done.append(it)
            missing = sorted({n for op in [*it.stages.values(), *it.cold] for n in op.missing})
            print("round " + json.dumps({
                "traced": traced, "full": it.full, "wall_s": it.wall_s,
                "stages_s": {k: op.wall_s for k, op in it.stages.items()},
                "cold_predict_s": [op.wall_s for op in it.cold],
                **({"missing_targets": missing} if missing else {})}), flush=True)
            return it
        return go

    if trace:
        # Untraced and traced rounds alternate, and so does their order within
        # a pair, so that both sides sample the same stretch of the host's speed.
        # The untraced twin runs the stages only: its wall time ends with evaluate.
        plain_round, traced_round = one(False, ([], [])), one(True, windows)
        pairs = []

        def pair():
            if len(pairs) % 2:
                t = traced_round()
                pairs.append((plain_round(), t))
            else:
                pairs.append((plain_round(), traced_round()))

        measure(seconds, rounds, pair)
        plain, its = [u for u, _ in pairs], [t for _, t in pairs]
    else:
        plain = its = measure(seconds, rounds, one(False, windows))

    first.model_digest = checks.file_digest(first.model) if first.model else None
    setup_op = Op("setup", wall_s=sum(s.seconds for s in setups))
    b.ops.append(setup_op)
    setup_op.problems += checks.same_digest("input", [s.source.digest for s in setups])
    if first.model is not None:
        setup_op.problems += checks.same_digest("served model", [s.model_digest for s in setups])

    trained = [it for it in plain + its if "train" in it.stages]
    model_ops = [it.stages["train"] for it in trained] or [first.train_op]
    digests = [checks.file_digest(it.files["model"]) for it in trained] or \
              [checks.file_digest(first.model)]
    model_ops[-1].problems += checks.same_digest("model", digests)
    model_ops[-1].problems += _digest_ledger(
        f"{b.workload}/{b.size_name}/{b.seed}/{src_digest}",
        {"inputs": first.source.digest, "model": digests[0]})

    for op in [op for op in b.ops if op.failed][:20]:
        print(f"FAILED {op.name}: {'; '.join(op.problems)}", flush=True)
    metrics = per_layer(b, pairs) if trace else end_to_end(b, setups, its)
    samples = {"setups": len(setups), "rounds": len(its),
               "predict_cold": sum(len(it.cold) for it in its),
               "predict_warm": sum(len(it.warm) for it in its)}
    return metrics, samples


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for about this long; at least one pipeline always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    return p.parse_args(argv)


def _terminate(signum, frame):
    """Turn SIGTERM into an exception, so the running stage is killed and
    the run directory removed on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "prognost" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC / 'prognost'} or {spec_path} is missing; "
              "run from the root of a prognost checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import prognost.cli  # noqa: F401  (the warm predicts run in this process)

    env = environment()
    print("env " + json.dumps(env), flush=True)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    b = Bench(args.workload, args.seed, args.size, workdir)
    try:
        metrics, samples = run_workload(b, args.seconds, bool(args.trace), env["src_sha256"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [op for op in b.ops if op.failed]
    metrics["ops_failed_frac"] = len(failed) / len(b.ops)
    print("samples " + json.dumps(samples))
    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        raise RuntimeError(f"metrics {sorted(missing)} were not measured")
    result = {
        "correct": not failed and all(np.isfinite(metrics[m["name"]]) for m in wanted),
        "attempted": len(b.ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
