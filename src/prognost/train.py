"""Loss, backpropagation through time, Adam updates and the epoch loop.

Training is bit-deterministic: seed, data and config fully determine the
final parameters. Windows are visited in chronological order, grouped
into fixed batches, and the gradient of the batch-mean loss drives one
Adam step per batch.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    GradientError,
    TrainingDivergedError,
)
from .model import (
    BCE_CLIP,
    LOSS_MODES,
    ForwardCache,
    ModelParams,
    _behind,
    _head,
    _workers,
    fill_param_vector,
    forward_windows,
    init_params,
    param_views,
    predict_windows,
)
from .preprocess import SplitDataset
from .series import fmt_float

# Adam's decay rates and denominator guard: the Kingma & Ba 2015 defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Architecture and optimizer hyperparameters.

    Defaults are the stacked 128/64 model trained with Adam at learning
    rate 0.001, batches of 50, for 100 epochs, on length-5 windows.
    """

    hidden_dims: tuple[int, ...] = (128, 64)
    learning_rate: float = 0.001
    batch_size: int = 50
    epochs: int = 100
    window: int = 5
    loss_mode: str = "mse"
    seed: int = 42
    max_grad_norm: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if not self.hidden_dims or any(d < 1 for d in self.hidden_dims):
            raise ConfigError(f"hidden_dims must all be positive, got {self.hidden_dims}")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be finite and > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode must be {' or '.join(map(repr, LOSS_MODES))}, "
                              f"got {self.loss_mode!r}")
        if self.max_grad_norm is not None and not self.max_grad_norm > 0:
            raise ConfigError("max_grad_norm must be > 0 when set")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


_CONFIG_PARSERS = {
    "hidden_dims": lambda s: tuple(int(tok) for tok in s.replace(",", " ").split()),
    "learning_rate": float,
    "batch_size": int,
    "epochs": int,
    "window": int,
    "loss_mode": str,
    "seed": int,
    "max_grad_norm": lambda s: None if s.lower() == "none" else float(s),
}


def parse_config_file(path) -> TrainConfig:
    """Read ``key = value`` lines; keys match TrainConfig field names, once each."""
    values, seen = {}, {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"config line {lineno}: {key} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = _CONFIG_PARSERS[key](raw.strip())
        except ValueError:
            raise ConfigError(
                f"config line {lineno}: bad value {raw.strip()!r} for {key}"
            ) from None
    return TrainConfig(**values)


@dataclass
class AdamState:
    """First/second moment vectors, laid out like ModelParams.theta, plus
    the shared step counter; adam_step updates all three in place, through
    a scratch vector of the same layout."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty_like(self.m)

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(np.zeros_like(params.theta), np.zeros_like(params.theta), 0)


@dataclass
class TrainReport:
    """Per-epoch curves plus the number of Adam steps taken."""

    train_loss: list[float] = field(default_factory=list)
    test_rmse: list[float] = field(default_factory=list)
    optimizer_steps: int = 0

    @property
    def epochs_completed(self) -> int:
        return len(self.train_loss)


def write_report_csv(report: TrainReport, path) -> None:
    lines = ["epoch,train_loss,test_rmse"]
    for epoch, (loss, rmse) in enumerate(zip(report.train_loss, report.test_rmse), 1):
        lines.append(f"{epoch},{fmt_float(loss)},{fmt_float(rmse)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def compute_loss(pred, target, mode: str = "mse") -> tuple[float, np.ndarray]:
    """Loss and its analytic gradient with respect to the predictions.

    mse: mean (y - yhat)^2. bce: mean Bernoulli cross-entropy after both
    sides are clipped into [1e-7, 1 - 1e-7]; the gradient is zero where
    the prediction sat on a clip bound.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 1:
        raise ValueError(f"pred {pred.shape} and target {target.shape} must be equal-length vectors")
    if pred.size == 0:
        raise ValueError("cannot compute a loss over zero samples")
    n = pred.size
    if mode == "mse":
        diff = pred - target
        return float(np.mean(diff * diff)), 2.0 * diff / n
    if mode == "bce":
        q = np.clip(pred, BCE_CLIP, 1.0 - BCE_CLIP)
        p = np.clip(target, BCE_CLIP, 1.0 - BCE_CLIP)
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            raise ValueError("bce loss requires finite predictions and targets")
        loss = float(-np.mean(p * np.log(q) + (1.0 - p) * np.log1p(-q)))
        interior = (pred > BCE_CLIP) & (pred < 1.0 - BCE_CLIP)
        grad = np.where(interior, (q - p) / (q * (1.0 - q)) / n, 0.0)
        return loss, grad
    raise ValueError(f"loss mode must be 'mse' or 'bce', got {mode!r}")


def _accumulate(cells) -> None:
    for gl, dgates, x, h_prev in cells:
        gl.W[...] += dgates.T @ x
        if h_prev is not None:
            gl.V[...] += dgates.T @ h_prev
        gl.b[...] += dgates.sum(axis=0)


def bptt_backward(m: ModelParams, cache: ForwardCache, dloss_dy) -> np.ndarray:
    """Exact reverse-mode gradients through all steps and layers, as one
    vector laid out like ``m.theta``.

    ``dloss_dy`` is dLoss/dprediction, one scalar per window in the batch
    (a bare scalar is accepted for a single window).

    With several workers (_workers) a helper thread adds the weight
    products _behind the chain, in the same cell order, keeping the bits.
    Step t reads slot t of the step arrays and slot t - 1 for its state.
    Terms that are exact zeros (from step 0's zero state, or from no later
    step at the last) or that feed a step -1 are skipped, keeping the bits.
    """
    if cache is None or cache.params is not m:
        raise ContractError("backward pass needs the cache from a matching forward call")
    dy = np.atleast_1d(np.asarray(dloss_dy, dtype=np.float64))
    batch = cache.head_input.shape[0]
    if dy.shape != (batch,):
        raise ValueError(f"expected {batch} upstream gradients, got shape {dy.shape}")

    if m.loss_mode == "bce":
        q, interior = _head(m, cache.head_input)
        dz = np.where(interior, dy * q * (1.0 - q), 0.0)
    else:
        dz = dy

    grads = np.zeros_like(m.theta)
    grad_layers, grad_w_r = param_views(grads, m.hidden_dims)
    grad_w_r += dz[None, :] @ cache.head_input

    n_layers = len(m.layers)
    # None: no gradient yet from a later step or from the layer above
    dh_next, dc_next = [None] * n_layers, [None] * n_layers
    dh_next[-1] = dz[:, None] @ m.w_r

    inline = contextlib.nullcontext(lambda cell: _accumulate([cell]))
    with _behind(_accumulate) if _workers() > 1 else inline as hand_on:
        for t in range(cache.windows.shape[1] - 1, -1, -1):
            for li in range(n_layers - 1, -1, -1):
                gates, _, h, c, tanh_c = cache.layers[li]
                x = cache.layers[li - 1][2][t] if li else cache.windows[:, t : t + 1]
                p = m.layers[li]
                d = p.hidden_size
                i, f, o, g = (gates[t][:, n * d : (n + 1) * d] for n in range(4))

                dh = dh_next[li]
                dc = dh * o * (1.0 - tanh_c[t] * tanh_c[t])
                if dc_next[li] is not None:
                    dc += dc_next[li]
                # Pre-activation gradients in the column order of the gates.
                dgates = np.concatenate(
                    [
                        dc * g * i * (1.0 - i),
                        dc * c[t - 1] * f * (1.0 - f) if t else np.zeros_like(dc),
                        dh * tanh_c[t] * o * (1.0 - o),
                        dc * i * (1.0 - g * g),
                    ],
                    axis=1,
                )
                hand_on((grad_layers[li], dgates, x, h[t - 1] if t else None))

                if t:  # step 0 feeds no step -1
                    dh_next[li] = dgates @ p.V
                    dc_next[li] = dc * f
                if li > 0:
                    below = dgates @ p.W
                    dh_next[li - 1] = below if dh_next[li - 1] is None else dh_next[li - 1] + below
    return grads


def adam_step(
    m: ModelParams,
    g: np.ndarray,
    s: AdamState,
    cfg: TrainConfig,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update over the whole parameter vector.

    theta <- theta - lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)

    ``s`` is advanced in place and returned; a non-finite gradient raises
    before it changes. Each value is rounded in the order the formula reads.
    The step runs on the calling thread and writes a fresh theta; per-core
    shares saved 0.1-0.2 ms a step on two cores, too little to show in
    train_windows_per_s.
    """
    if not np.isfinite(g).all():
        block = m.block_at(int(np.argmax(~np.isfinite(g))))
        raise GradientError(f"non-finite gradient in block {block}; training aborted")
    s.t += 1
    bc1 = 1.0 - ADAM_BETA1**s.t
    bc2 = 1.0 - ADAM_BETA2**s.t
    tmp, theta = s.scratch, np.empty_like(m.theta)
    s.m *= ADAM_BETA1
    s.m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    s.v *= ADAM_BETA2
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - ADAM_BETA2
    s.v += tmp
    np.divide(s.v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPSILON
    np.divide(s.m, bc1, out=theta)
    theta *= cfg.learning_rate
    theta /= tmp
    np.subtract(m.theta, theta, out=theta)
    theta.flags.writeable = False
    return m.with_theta(theta), s


def _clip_gradients(g: np.ndarray, max_norm: float) -> np.ndarray:
    norm = float(np.sqrt(g @ g))
    if not max_norm < norm < np.inf:  # a NaN/inf norm: leave g for adam_step to name
        return g
    return g * (max_norm / norm)


def _test_rmse(params: ModelParams, split: SplitDataset) -> float:
    pred = predict_windows(params, split.test.windows)
    diff = pred - split.test.targets
    return float(np.sqrt(np.mean(diff * diff)))


def train(split: SplitDataset, cfg: TrainConfig) -> tuple[ModelParams, TrainReport]:
    """Run the full epoch loop on an already scaled, windowed split.

    Batches are chronological slices; the last one may be short. A
    non-finite batch loss aborts with the report up to the last
    completed epoch.
    """
    if split.train.window_length != cfg.window:
        raise ConfigError(
            f"config window {cfg.window} does not match dataset window "
            f"{split.train.window_length}"
        )
    params = init_params(cfg)
    state = AdamState.zeros(params)
    report = TrainReport()
    x_train = split.train.windows
    t_train = split.train.targets
    n = len(split.train)

    # Divergence surfaces as TrainingDivergedError below, not as numpy warnings.
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            loss_sum = 0.0
            for lo in range(0, n, cfg.batch_size):
                hi = min(lo + cfg.batch_size, n)
                y, cache = forward_windows(params, x_train[lo:hi])
                batch_loss, dldy = compute_loss(y, t_train[lo:hi], cfg.loss_mode)
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(
                        f"non-finite loss in epoch {epoch + 1}; "
                        f"last good epoch: {report.epochs_completed}",
                        report=report,
                    )
                grads = bptt_backward(params, cache, dldy)
                if cfg.max_grad_norm is not None:
                    grads = _clip_gradients(grads, cfg.max_grad_norm)
                params, state = adam_step(params, grads, state, cfg)
                loss_sum += batch_loss * (hi - lo)
            report.train_loss.append(loss_sum / n)
            report.test_rmse.append(_test_rmse(params, split))
    report.optimizer_steps = state.t
    return params, report


@dataclass(frozen=True)
class BlockCheck:
    """Worst analytic-vs-numeric disagreement within one block."""

    block: str
    max_rel_err: float
    coord: tuple[int, ...]
    analytic: float
    numeric: float


def _probe_model(cfg: TrainConfig, seed: int) -> tuple[ModelParams, np.ndarray, np.ndarray]:
    """Well-conditioned probe point for the finite-difference oracle.

    Weights, inputs and upstream loss gradients are all positive, so
    every gradient coordinate is a sum of positive terms and stays far
    from the cancellation zeros that would swamp a central difference
    with 64-bit roundoff.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def positive(label, shape):
        if label == "Wr":
            return rng.uniform(0.2, 0.8, size=shape)
        if label.startswith("W"):
            return rng.uniform(0.1, 0.4, size=shape)
        if label.startswith("V"):
            return rng.uniform(0.05, 0.2, size=shape)
        return 1.0 if label == "bf" else 0.1

    theta = fill_param_vector(cfg.hidden_dims, positive)
    params = ModelParams(theta, cfg.hidden_dims, loss_mode=cfg.loss_mode)
    windows = rng.uniform(0.5, 1.5, size=(4, cfg.window))
    targets = np.full(4, 0.02) if cfg.loss_mode == "bce" else np.full(4, -1.0)
    return params, windows, targets


def grad_check(cfg: TrainConfig, seed: int = 7, eps: float = 1e-6) -> list[BlockCheck]:
    """Central-difference check of the full BPTT gradient, per block.

    Relative error is |a - n| / max(|a|, |n|, 1e-12) per parameter; each
    block reports its worst offender. The probe model and data are drawn
    deterministically from ``seed``.
    """
    if not 0 < eps < np.inf:
        raise ConfigError("grad_check epsilon must be finite and > 0")
    if seed < 0:
        raise ConfigError(f"grad_check seed must be >= 0, got {seed}")
    params, windows, targets = _probe_model(cfg, seed)

    y, cache = forward_windows(params, windows)
    _, dldy = compute_loss(y, targets, cfg.loss_mode)
    analytic = bptt_backward(params, cache, dldy)

    # Writable copy of the vector; the blocks below are views into it.
    theta = params.theta.copy()

    def loss_at() -> float:
        y_probe = predict_windows(params.with_theta(theta), windows)
        loss, _ = compute_loss(y_probe, targets, cfg.loss_mode)
        return loss

    results = []
    for (name, arr), (_, grad_block) in zip(params.blocks(theta), params.blocks(analytic)):
        worst = BlockCheck(name, 0.0, (0,) * arr.ndim, 0.0, 0.0)
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + eps
            up = loss_at()
            arr[idx] = original - eps
            down = loss_at()
            arr[idx] = original
            numeric = (up - down) / (2.0 * eps)
            a = float(grad_block[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            if rel > worst.max_rel_err:
                worst = BlockCheck(name, rel, idx, a, numeric)
        results.append(worst)
    return results
