"""Stacked LSTM forward pass, parameter initialization and persistence.

Cell update per time step (sigma is the logistic function, * elementwise):

    i = sigma(Wi x + Vi h_prev + bi)
    f = sigma(Wf x + Vf h_prev + bf)
    o = sigma(Wo x + Vo h_prev + bo)
    c = f * c_prev + i * tanh(Wc x + Vc h_prev + bc)
    h = o * tanh(c)

A window of W scalars is fed as W one-dimensional time steps; each
layer's h feeds the next layer at the same step, and a linear head maps
the final hidden state of the top layer to the scalar prediction. In
cross-entropy mode the head output additionally passes through sigma.

Each layer stacks its four gates in GATES order, the layout of cuDNN and
PyTorch's nn.LSTM: W (4d x k), V (4d x d) and b (4d), so one product per
input yields all four pre-activations. A model keeps every parameter in
one contiguous float64 vector: per layer W, V and b, then the head Wr.
Gradients and optimizer moments are vectors of the same layout.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import queue
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConstantSeriesError,
    ModelCorruptionError,
    ModelFormatError,
    ModelVersionError,
    ValidationError,
)
from .preprocess import MinMaxScaler
from .series import fmt_float, frozen_copy

MODEL_MAGIC = "LSTMPROG v4"
GATES = ("i", "f", "o", "c")
LOSS_MODES = ("mse", "bce")

# Head clipping bounds for cross-entropy mode.
BCE_CLIP = 1e-7

# Rows predict_windows keeps in its arrays at once, over all its workers:
# each of W workers forwards parts of PREDICT_ROWS / W rows. A part's gate
# array is rows x 4d floats, 1 MiB for 256 rows at d=128, small enough to
# stay in L2 cache across the elementwise passes of a step. On 10,000
# windows of the 128/64 stack (2-core Xeon, OpenBLAS 0.3.31) one worker on
# parts of 2048/512/256/128 rows took 805/723/689/723 ms, the median of
# three runs of seven calls; with one BLAS thread, two workers on 128-row
# parts take about 430 ms.
PREDICT_ROWS = 256

# Ufunc buffer size, in values, of the steps of predict_windows and of
# training's forward_windows. numpy 2 copies a strided operand (a gate
# slice, the broadcast bias) through a buffer of np.getbufsize() = 8,192
# values, 64 KiB per operand and call. With 64-value buffers a pass
# allocates 1-1.6 KB, and the 10,000-window call above took 400 ms instead
# of 450 ms (median of 15, two workers). A 50-window training forward of
# the 128/64 stack took 2.39-2.52 ms instead of 2.71-2.89 ms (one worker,
# medians of 400 calls).
PREDICT_BUFSIZE = 64


@dataclass(frozen=True)
class LayerParams:
    """Stacked gate weights of one layer; row block n belongs to gate GATES[n]."""

    W: np.ndarray
    V: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        rows, d = np.shape(self.V)
        if rows != 4 * d or np.shape(self.W)[0] != rows or np.shape(self.b) != (rows,):
            raise ValidationError(
                f"inconsistent layer shapes W {np.shape(self.W)}, V {np.shape(self.V)}, "
                f"b {np.shape(self.b)}"
            )

    @property
    def input_size(self) -> int:
        return int(self.W.shape[1])

    @property
    def hidden_size(self) -> int:
        return int(self.V.shape[1])


def layer_zeros(input_size: int, hidden_size: int) -> LayerParams:
    """All-zero layer of the given shape (useful for closed-form checks)."""
    rows = 4 * hidden_size
    return LayerParams(
        np.zeros((rows, input_size)), np.zeros((rows, hidden_size)), np.zeros(rows)
    )


def param_count(hidden_dims) -> int:
    """Length of the parameter vector of a stack with these hidden sizes."""
    n, k = 0, 1
    for d in hidden_dims:
        n += 4 * d * (k + d + 1)
        k = d
    return n + k


def param_views(vec: np.ndarray, hidden_dims):
    """Per-layer W/V/b views and the head view into one parameter-layout vector."""
    if vec.shape != (param_count(hidden_dims),):
        raise ValidationError(
            f"parameter vector of shape {vec.shape} does not fit hidden {tuple(hidden_dims)}"
        )
    layers = []
    pos, k = 0, 1
    for d in hidden_dims:
        rows = 4 * d
        w = vec[pos : pos + rows * k].reshape(rows, k)
        pos += rows * k
        v = vec[pos : pos + rows * d].reshape(rows, d)
        pos += rows * d
        layers.append(LayerParams(w, v, vec[pos : pos + rows]))
        pos += rows
        k = d
    return tuple(layers), vec[pos:].reshape(1, k)


def param_blocks(vec: np.ndarray, hidden_dims):
    """(name, view) pairs of a parameter-layout vector in init and naming
    order: layer1.Wi layer1.Vi layer1.bi layer1.Wf ... layerN.bc, then Wr.
    Each view is one gate's rows of W, V or b, C-contiguous; together the
    views tile the vector."""
    layers, w_r = param_views(vec, hidden_dims)
    for li, layer in enumerate(layers, start=1):
        d = layer.hidden_size
        for n, gate in enumerate(GATES):
            for kind, arr in zip("WVb", (layer.W, layer.V, layer.b)):
                yield f"layer{li}.{kind}{gate}", arr[n * d : (n + 1) * d]
    yield "Wr", w_r


def fill_param_vector(hidden_dims, fill) -> np.ndarray:
    """New parameter vector, each block set to ``fill(label, shape)`` in the
    order of param_blocks; ``label`` is the name without its layer, such as
    ``Wi``, ``bf`` or ``Wr``."""
    theta = np.empty(param_count(hidden_dims))
    for name, block in param_blocks(theta, hidden_dims):
        block[...] = fill(name.rpartition(".")[2], block.shape)
    return theta


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set: one frozen vector ``theta`` with per-layer views
    ``layers`` and the head view ``w_r``, plus the scaler baked in when the
    model is saved and the window length it was trained on, both of which
    every model file records. Only a model built in code may lack them:
    train's, before it gets its scaler, or grad_check's probe, which takes
    windows of any length. save_model refuses such a model."""

    theta: np.ndarray
    hidden_dims: tuple[int, ...]
    loss_mode: str = "mse"
    scaler: MinMaxScaler | None = None
    window: int | None = None
    layers: tuple[LayerParams, ...] = field(init=False, repr=False)
    w_r: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.hidden_dims)
        if not dims or min(dims) < 1:
            raise ValidationError(f"hidden_dims must all be positive, got {dims}")
        if self.loss_mode not in LOSS_MODES:
            raise ValidationError(f"loss_mode must be one of {LOSS_MODES}")
        if self.window is not None and not self.window >= 1:
            raise ValidationError(f"window must be a positive length, got {self.window}")
        theta = self.theta
        # keep a read-only vector that owns its memory (load_model's, adam_step's) uncopied
        if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64
                and theta.base is None and not theta.flags.writeable):
            theta = frozen_copy(theta)
        layers, w_r = param_views(theta, dims)
        object.__setattr__(self, "hidden_dims", dims)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "w_r", w_r)
        bad = ~np.isfinite(theta)
        if bad.any():
            block = self.block_at(int(np.argmax(bad)))
            raise ValidationError(f"non-finite weights in block {block}")

    def blocks(self, vec: np.ndarray | None = None):
        """param_blocks over ``theta``, or over any vector of its layout (a
        gradient, a moment)."""
        return param_blocks(self.theta if vec is None else vec, self.hidden_dims)

    def block_at(self, index: int) -> str:
        """Name of the block that holds coordinate ``index`` of the vector:
        the one whose view of ``theta`` shares that coordinate's memory."""
        coord = self.theta[index : index + 1]
        return next(name for name, block in self.blocks() if np.shares_memory(block, coord))

    def with_theta(self, theta: np.ndarray) -> "ModelParams":
        return replace(self, theta=theta)

    def with_scaler(self, scaler: MinMaxScaler | None) -> "ModelParams":
        return replace(self, scaler=scaler)


def init_params(config, seed: int | None = None) -> ModelParams:
    """Deterministic Glorot-uniform initialization.

    W and V blocks are drawn uniformly from +-sqrt(6 / (fan_in + fan_out))
    using numpy's PCG64 generator seeded with ``seed`` (falling back to
    config.seed), one gate block after another in init order. Biases
    start at zero except the forget gates, which start at 1.0 to keep
    early gradients flowing.
    """
    if seed is None:
        seed = config.seed
    rng = np.random.Generator(np.random.PCG64(seed))

    def glorot(label, shape):
        if label.startswith("b"):
            return 1.0 if label == "bf" else 0.0
        lim = np.sqrt(6.0 / sum(shape))
        return rng.uniform(-lim, lim, size=shape)

    theta = fill_param_vector(config.hidden_dims, glorot)
    return ModelParams(theta, config.hidden_dims, loss_mode=config.loss_mode, window=config.window)


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-z)), elementwise; ``out`` may be ``z``.

    Below z = -709.78 exp(-z) overflows to inf, which yields the limit 0.
    """
    with np.errstate(over="ignore"):
        out = np.negative(z, out=out)
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def lstm_cell_forward(
    p: LayerParams,
    x: np.ndarray,
    h_prev: np.ndarray | None,
    c_prev: np.ndarray | None,
    out: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One cell step on plain vectors or on (batch, dim) matrices: (h, c).

    ``h_prev`` or ``c_prev`` None is a window's zero state: the step skips
    ``h_prev V^T`` or ``f * c_prev``, exact zeros, for the same values.

    ``out`` is (gates, rec, h, c, tanh_c): two (..., 4d) and three (..., d)
    arrays the step writes into instead of allocating; ``gates`` gets
    sigma(i), sigma(f), sigma(o) and tanh(g) in GATES order. ``h`` and
    ``c`` may be ``h_prev`` and ``c_prev``, to advance the state in place.
    """
    x = np.asarray(x, dtype=np.float64)
    h_prev, c_prev = (a if a is None else np.asarray(a, dtype=np.float64) for a in (h_prev, c_prev))
    d, k = p.hidden_size, p.input_size
    shapes = [a if a is None else a.shape for a in (h_prev, c_prev)]
    if x.ndim not in (1, 2) or x.shape[-1] != k or any(
        s not in (None, x.shape[:-1] + (d,)) for s in shapes
    ):
        raise ValueError(
            f"shape mismatch: x {x.shape}, h_prev {shapes[0]}, c_prev {shapes[1]} "
            f"for a {d}x{k} layer"
        )
    gates, rec, h, c, tanh_c = (None,) * 5 if out is None else out
    # One pre-activation array, turned into the gate activations in place.
    # A None ``out`` makes numpy allocate the result; either way every value
    # is rounded in the same order, so both uses agree bit for bit. With one
    # input (layer 1) x W^T is an outer product: a plain multiply gives the
    # GEMM's bits in less time (35-45 us against 49-92 us at 50 rows, d=128).
    if k == 1:
        gates = np.multiply(x, p.W[:, 0], out=gates)
    else:
        gates = np.matmul(x, p.W.T, out=gates)
    if h_prev is not None:
        gates += np.matmul(h_prev, p.V.T, out=rec)
    gates += p.b
    sigmoid(gates[..., : 3 * d], out=gates[..., : 3 * d])
    np.tanh(gates[..., 3 * d :], out=gates[..., 3 * d :])
    i, f, o, g = (gates[..., n * d : (n + 1) * d] for n in range(4))
    if c_prev is None:
        c = np.multiply(i, g, out=c)
    else:
        c = np.multiply(f, c_prev, out=c)
        c += np.multiply(i, g, out=tanh_c)
    tanh_c = np.tanh(c, out=tanh_c)
    return np.multiply(o, tanh_c, out=h), c


def _step_arrays(dims, slots: int, rows: int) -> list[tuple[np.ndarray, ...]]:
    """Per layer of hidden size d, the arrays its steps write into
    (lstm_cell_forward's ``out``): gates (slots, rows, 4d), the recurrent
    product (rows, 4d), and h, c and tanh(c), (slots, rows, d) each. Step t
    uses slot t % slots; one slot, overwritten by every step, serves predict,
    which keeps no step for BPTT. A layer's arrays are views of one block, like
    cuDNN's reserve array (arXiv:1604.01946): glibc handed separate arrays back
    to the system and faulted them in again every batch, 67,669 minor faults
    in 20 epochs of the 128/64 stack against 5,850."""
    arrays = []
    for d in dims:
        n = slots * rows * d
        block = np.empty(7 * n + 4 * rows * d)
        arrays.append((block[: 4 * n].reshape(slots, rows, 4 * d),
                       block[7 * n :].reshape(rows, 4 * d),
                       *block[4 * n : 7 * n].reshape(3, slots, rows, d)))
    return arrays


@dataclass
class ForwardCache:
    """A batch's windows and each layer's _step_arrays, slot t for step t."""

    params: ModelParams
    windows: np.ndarray
    layers: list[tuple[np.ndarray, ...]]

    @property
    def head_input(self) -> np.ndarray:  # the top layer's h at the last step
        return self.layers[-1][2][-1]


def _head(m: ModelParams, head_input: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Head output of the top layer's final state: (y, interior)."""
    y_raw = (head_input @ m.w_r.T)[:, 0]
    if m.loss_mode != "bce":
        return y_raw, None
    q = sigmoid(y_raw)
    interior = (q > BCE_CLIP) & (q < 1.0 - BCE_CLIP)
    return np.clip(q, BCE_CLIP, 1.0 - BCE_CLIP), interior


def _as_windows(windows) -> np.ndarray:
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[1] == 0:
        raise ValueError(f"windows must be a (batch, W) matrix with W >= 1, got {windows.shape}")
    return windows


def _forward_steps(m: ModelParams, xs, arrays: list) -> None:
    """Forward every layer, step by step, into its _step_arrays with
    PREDICT_BUFSIZE ufunc buffers; step 0 starts from the zero state, None."""
    outs = [[(g[s], rec, h[s], c[s], tanh_c[s]) for s in range(len(h))]
            for g, rec, h, c, tanh_c in arrays]
    bufsize = np.setbufsize(PREDICT_BUFSIZE)
    try:
        for t, x in enumerate(xs):
            for layer, out in zip(m.layers, outs):
                state = out[(t - 1) % len(out)][2:4] if t else (None, None)
                x, _ = lstm_cell_forward(layer, x, *state, out[t % len(out)])
    finally:
        np.setbufsize(bufsize)


def forward_windows(m: ModelParams, windows: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Predict a batch of windows at once, keeping every step for BPTT.

    Rows are independent samples. State starts at zero for every window,
    so a window's prediction depends only on its own W values. Each layer
    writes its steps into _step_arrays of W slots over the whole batch, on
    the calling thread: on two cores a layer wavefront (arXiv:1604.01946)
    sped up training of the 128/64 stack by less than its runs' spread.
    """
    windows = _as_windows(windows)
    w = windows.shape[1]
    cache = ForwardCache(m, windows, _step_arrays(m.hidden_dims, w, len(windows)))
    _forward_steps(m, (windows[:, t : t + 1] for t in range(w)), cache.layers)
    return _head(m, cache.head_input)[0], cache


def forward_window(m: ModelParams, window) -> float:
    """Predict one window, through predict_windows."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1:
        raise ValueError("a window is a flat sequence of scalars")
    return float(predict_windows(m, window[None, :])[0])


def _workers() -> int:
    """Threads any prognost call may use: one per usable core when OpenBLAS
    runs on one thread, else one, since BLAS threads then share the cores."""
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _threads(calls):
    """Run each ``(fn, *args)`` of ``calls`` on its own thread, in a copy of the
    caller's context (its np.errstate); join all on exit, raising any error."""
    failures: list[BaseException] = []

    def guarded(fn, *args):
        try:
            fn(*args)
        except BaseException as exc:
            failures.append(exc)

    helpers: list[threading.Thread] = []
    try:
        for call in calls:
            helper = threading.Thread(target=contextvars.copy_context().run, args=(guarded, *call))
            helper.start()
            helpers.append(helper)
        yield
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[0]


@contextlib.contextmanager
def _behind(consume):
    """Run ``consume(items)`` on a helper thread (_threads), where ``items``
    yields, in order, what the body passes to the function this yields."""
    q = queue.SimpleQueue()
    with _threads([(consume, (x for (x,) in iter(q.get, None)))]):
        try:
            yield lambda x: q.put((x,))
        finally:
            q.put(None)


def _cuts(n: int, parts: int) -> list[int]:
    """Bounds of ``parts`` near-equal parts of ``n`` rows, cut at multiples of
    8 rows, so no part is small and only the last ends in a ragged tail of
    rows, which BLAS kernels treat apart."""
    return [min(n, 8 * (math.ceil(n / 8) * j // parts)) for j in range(parts + 1)]


def _predict_share(m: ModelParams, windows: np.ndarray, y: np.ndarray, rows: int) -> None:
    """Forward ``windows`` into ``y`` in parts of at most ``rows`` rows, each
    through _forward_steps, on _step_arrays of one slot sized for the
    largest part."""
    cuts = _cuts(len(windows), max(1, math.ceil(len(windows) / rows)))
    arrays = _step_arrays(m.hidden_dims, 1, max(hi - lo for lo, hi in zip(cuts, cuts[1:])))
    for lo, hi in zip(cuts, cuts[1:]):
        xs = (windows[lo:hi, t : t + 1] for t in range(windows.shape[1]))
        part = [[a[..., : hi - lo, :] for a in layer] for layer in arrays]
        _forward_steps(m, xs, part)
        y[lo:hi] = _head(m, part[-1][2][-1])[0]


def predict_windows(m: ModelParams, windows: np.ndarray) -> np.ndarray:
    """Batch predictions without caches, PREDICT_ROWS rows in flight at most.

    Rows are independent, so with several workers (_workers) the batch is
    cut into one contiguous share per worker, each forwarded in parts of at
    most PREDICT_ROWS / workers rows. The steps round as forward_windows
    does, so a single window predicts the same bits on both paths, and the
    result does not depend on the number of workers. On 10,000 windows of
    the 128/64 stack (2-core Xeon, OpenBLAS 0.3.31, one thread) a call took
    about 700 ms on one worker and 430 ms on two.
    """
    windows = _as_windows(windows)
    n = len(windows)
    y = np.empty(n)
    workers = _workers()
    rows = max(8, PREDICT_ROWS // workers // 8 * 8)
    cuts = _cuts(n, max(1, min(workers, math.ceil(n / rows))))
    shares = [(m, windows[lo:hi], y[lo:hi], rows) for lo, hi in zip(cuts, cuts[1:])]
    with _threads((_predict_share, *share) for share in shares[1:]):
        _predict_share(*shares[0])
    return y


def _word_sum(text: bytes, theta: np.ndarray) -> str:
    """The data line's sum: 16 hex digits of the sum mod 2^64 of the
    little-endian 8-byte words of ``text``, zero-padded to a multiple of 8
    bytes, and then of ``theta``'s values. A change of one word, such as any
    single-bit flip, changes it; two words swapped do not."""
    words = np.frombuffer(text.ljust(-(-len(text) // 8) * 8, b"\0"), "<u8")
    total = int(words.sum(dtype=np.uint64)) + int(theta.view("<u8").sum(dtype=np.uint64))
    return f"{total % 2**64:016x}"


def save_model(m: ModelParams, path) -> None:
    """Write format v4; load_model inverts it bitwise.

    Four text lines, each ended by LF: the magic, the header with the
    window, ``scaler <min> <max>`` and ``data <bytes> <sum>``. ``theta``'s
    little-endian float64 values follow as they lie in memory (per layer W,
    V and b, then Wr) up to the end of the file; ``<sum>`` is _word_sum of
    the text before the data line and those values. A model without a
    window or a scaler raises ValueError and writes nothing.
    """
    if m.window is None or m.scaler is None:
        raise ValueError(f"a model file records its window and its scaler; this model has "
                         f"window {m.window} and scaler {m.scaler}")
    dims = " ".join(str(d) for d in m.hidden_dims)
    text = (f"{MODEL_MAGIC}\ninput 1 layers {len(m.layers)} hidden {dims} output 1 "
            f"loss {m.loss_mode} window {m.window}\n"
            f"scaler {fmt_float(m.scaler.min)} {fmt_float(m.scaler.max)}\n").encode("utf-8")
    theta = m.theta.astype("<f8", copy=False)
    with open(path, "wb") as f:
        f.write(text + f"data {theta.nbytes} {_word_sum(text, theta)}\n".encode("utf-8"))
        f.write(theta)


def _read_line(f, text: bytes, what: str) -> tuple[bytes, str]:
    """Read the line of ``f`` that follows the bytes ``text``: ``text`` with
    the line's bytes appended, and the line's text without the LF."""
    if not (raw := f.readline()):
        raise ModelCorruptionError(f"model file truncated at byte {len(text)}: expected {what}")
    try:
        return text + raw, raw.decode("utf-8").removesuffix("\n")
    except UnicodeDecodeError as exc:
        raise ModelCorruptionError(
            f"expected {what}, found non-UTF-8 byte {raw[exc.start]:#04x} "
            f"at byte {len(text) + exc.start}"
        ) from None


def _parse_header(line: str) -> tuple[tuple[int, ...], str, int]:
    tokens = line.split()
    try:
        if tokens[0] != "input" or tokens[2] != "layers":
            raise ValueError
        input_dim = int(tokens[1])
        n_layers = int(tokens[3])
        if tokens[4] != "hidden":
            raise ValueError
        dims = tuple(int(t) for t in tokens[5 : 5 + n_layers])
        rest = tokens[5 + n_layers :]
        if len(dims) != n_layers or len(rest) != 6 or rest[::2] != ["output", "loss", "window"]:
            raise ValueError
        output, loss_mode, window = int(rest[1]), rest[3], int(rest[5])
        if loss_mode not in LOSS_MODES or min(dims) < 1 or window < 1:
            raise ValueError
    except (ValueError, IndexError):
        raise ModelCorruptionError(f"malformed model header line: {line!r}") from None
    if input_dim != 1:
        raise ModelCorruptionError(f"unsupported input size {input_dim}; this artifact uses 1")
    if output != 1:
        raise ModelCorruptionError(f"unsupported output size {output}; this artifact uses 1")
    return dims, loss_mode, window


def _read_model(f, text: bytes) -> ModelParams:
    """Everything after the magic line ``text``: header, scaler, data line,
    then the payload straight into the parameter vector, and its sum."""
    text, line = _read_line(f, text, "the header line")
    dims, loss_mode, window = _parse_header(line)
    # the weights alone need 8 bytes a parameter: a header whose sizes the
    # file cannot hold is a truncated file, not an allocation to attempt
    size, nbytes = os.fstat(f.fileno()).st_size, 8 * param_count(dims)
    if nbytes > size - len(text):
        raise ModelCorruptionError(f"model file truncated at byte {size}: the header's sizes "
                                   f"need {nbytes} bytes of weights after byte {len(text)}")
    text, line = _read_line(f, text, "the scaler line")
    try:
        tag, lo, hi = line.split()
        if tag != "scaler":
            raise ValueError
        scaler = MinMaxScaler(float(lo), float(hi))
    except (ValueError, ConstantSeriesError):
        raise ModelCorruptionError(
            f"expected the scaler line 'scaler <min> <max>' with finite min < max, "
            f"found {line[:60]!r}"
        ) from None
    head, line = _read_line(f, text, "the data line")
    if len(tokens := line.split(" ")) != 3 or tokens[:2] != ["data", str(nbytes)]:
        raise ModelCorruptionError(f"expected the data line 'data {nbytes} <sum>', 8 bytes per "
                                   f"parameter, found {line[:60]!r}")
    theta = np.empty(param_count(dims), dtype="<f8")
    if (got := f.readinto(theta)) != nbytes:
        raise ModelCorruptionError(f"data truncated at byte {len(head) + got}: "
                                   f"the payload lacks {nbytes - got} bytes")
    if tail := f.read(40):
        raise ModelCorruptionError(f"trailing data at byte {len(head) + nbytes}: {tail!r}")
    if (total := _word_sum(text, theta)) != tokens[2]:
        raise ModelCorruptionError(f"sum mismatch: the data line records {tokens[2][:20]!r}, "
                                   f"the file's words sum to {total!r}")
    theta.flags.writeable = False
    try:
        return ModelParams(theta, dims, loss_mode, scaler, window)
    except ValidationError as exc:
        raise ModelCorruptionError(str(exc)) from None


def load_model(path) -> ModelParams:
    """Read a v4 model file, its values straight into the parameter vector;
    raises the specific error class for each defect.

    The magic line is the file's first line, ended by LF alone: a file whose
    line ends were translated holds a payload that can no longer be trusted.
    A short payload raises before trailing bytes, and both before a sum
    that does not match. Earlier versions (v1 to v3) raise ModelVersionError.
    """
    with open(path, "rb") as f:
        first = f.readline(64)
        if first == MODEL_MAGIC.encode() + b"\n":
            return _read_model(f, first)
    magic = next(iter(first.decode("utf-8", "replace").splitlines()), "")
    if magic == MODEL_MAGIC:
        raise ModelCorruptionError(f"{MODEL_MAGIC} must be the first line, ended by LF alone")
    if magic.startswith("LSTMPROG "):
        raise ModelVersionError(
            f"unsupported model version {magic.split(' ', 1)[1]!r}; expected v4"
        )
    raise ModelFormatError(f"not a model file: first line {magic[:60]!r}")
