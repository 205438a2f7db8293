"""LSTM cell math, stacked forward pass, initialization, persistence."""

import math
import os
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prognost import (
    ModelCorruptionError,
    ModelFormatError,
    ModelVersionError,
    TrainConfig,
    ValidationError,
    forward_window,
    init_params,
    load_model,
    lstm_cell_forward,
    save_model,
)
from prognost.model import (
    BCE_CLIP,
    LOSS_MODES,
    PREDICT_ROWS,
    LayerParams,
    ModelParams,
    fill_param_vector,
    forward_windows,
    layer_zeros,
    param_blocks,
    param_count,
    predict_windows,
    sigmoid,
)
from prognost.preprocess import MinMaxScaler

DATA = Path(__file__).parent / "data"


def zero_model(dims=(3,), loss_mode="mse", window=5):
    # the scaler (0, 1) maps every value to itself, up to the sign of a zero
    return ModelParams(np.zeros(param_count(dims)), dims, loss_mode, MinMaxScaler(0.0, 1.0), window)


def use_cores(mp, cores):
    """Give every phase that reads model._workers ``cores`` workers:
    predict_windows' row shares, BPTT's hand-off (one helper thread from two
    workers on) and the IMS parser pool."""
    mp.setenv("OPENBLAS_NUM_THREADS", "1")
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def cell_out(lead, d):
    """NaN-filled ``out`` arrays (gates, rec, h, c, tanh_c) for lstm_cell_forward
    on inputs of leading shape ``lead``, such as () or (rows,)."""
    return tuple(np.full(lead + (n,), np.nan) for n in (4 * d, 4 * d, d, d, d))


def predict_peak_growth(n0, calls=1):
    """Growth of predict_windows' traced peak from n0 to 4,096 windows; each
    peak is the largest of ``calls`` calls."""
    params = init_params(TrainConfig(hidden_dims=(32, 16)), 3)
    rng = np.random.Generator(np.random.PCG64(4))
    peaks = []
    for n in (n0, 16 * 256):
        windows = rng.uniform(-1, 1, size=(n, 5))
        peaks.append(0)
        for _ in range(calls):
            tracemalloc.start()
            try:
                predict_windows(params, windows)
                peaks[-1] = max(peaks[-1], tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    return peaks[1] - peaks[0]


def scalar_cell_oracle(p, x, h_prev, c_prev):
    """Pure-python per-element recomputation of the gate equations."""
    d = p.hidden_size

    def dot(mat, vec):
        return [math.fsum(mat[r][c] * vec[c] for c in range(len(vec))) for r in range(mat.shape[0])]

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def pre(n):
        # gate n's rows of the stacked W, V and b
        w, v, b = (arr[n * d : (n + 1) * d] for arr in (p.W, p.V, p.b))
        return [a + b_ + c for a, b_, c in zip(dot(w, x), dot(v, h_prev), b)]

    zi, zf, zo, zg = (pre(n) for n in range(4))
    i = [sig(v) for v in zi]
    f = [sig(v) for v in zf]
    o = [sig(v) for v in zo]
    g = [math.tanh(v) for v in zg]
    c = [fv * cp + iv * gv for fv, cp, iv, gv in zip(f, c_prev, i, g)]
    h = [ov * math.tanh(cv) for ov, cv in zip(o, c)]
    return np.array(h), np.array(c)


class TestInitParams:
    def test_deterministic_for_fixed_seed(self):
        cfg = TrainConfig(hidden_dims=(4, 3))
        a = init_params(cfg, 42)
        b = init_params(cfg, 42)
        assert np.array_equal(a.theta, b.theta)

    def test_different_seeds_differ(self):
        cfg = TrainConfig(hidden_dims=(4,))
        a = init_params(cfg, 1)
        b = init_params(cfg, 2)
        assert not np.array_equal(a.layers[0].W, b.layers[0].W)

    def test_default_stack_shapes(self):
        params = init_params(TrainConfig(hidden_dims=(128, 64)), 0)
        l1, l2 = params.layers
        assert l1.W.shape == (4 * 128, 1)
        assert l1.V.shape == (4 * 128, 128)
        assert l1.b.shape == (4 * 128,)
        assert l2.W.shape == (4 * 64, 128)
        assert params.w_r.shape == (1, 64)
        assert params.theta.shape == (param_count((128, 64)),)
        blocks = dict(params.blocks())
        assert blocks["layer1.Wi"].shape == (128, 1)
        assert blocks["layer1.Vi"].shape == (128, 128)
        assert blocks["layer1.bi"].shape == (128,)
        assert blocks["layer2.Wf"].shape == (64, 128)
        # every view shares the one parameter vector
        for _, block in params.blocks():
            assert np.shares_memory(block, params.theta)

    def test_zero_layer_config_error(self):
        from prognost.errors import ConfigError

        with pytest.raises(ConfigError):
            TrainConfig(hidden_dims=(0,))

    def test_forget_bias_one_other_biases_zero(self):
        params = init_params(TrainConfig(hidden_dims=(6, 5)), 3)
        for layer in params.layers:
            b_i, b_f, b_o, b_c = np.split(layer.b, 4)
            assert np.all(b_f == 1.0)
            for b in (b_i, b_o, b_c):
                assert np.all(b == 0.0)

    def test_glorot_bounds(self):
        params = init_params(TrainConfig(hidden_dims=(16,)), 4)
        layer = params.layers[0]
        lim_w = math.sqrt(6.0 / (1 + 16))
        lim_v = math.sqrt(6.0 / 32)
        assert np.all(np.abs(layer.W) <= lim_w)
        assert np.all(np.abs(layer.V) <= lim_v)


class TestParamLayout:
    @settings(max_examples=30, deadline=None)
    @given(dims=st.lists(st.integers(1, 8), min_size=1, max_size=3))
    def test_naming_walk_tiles_the_vector(self, dims):
        names = [f"layer{li}.{kind}{gate}" for li in range(1, len(dims) + 1)
                 for gate in "ifoc" for kind in "WVb"] + ["Wr"]
        n = param_count(dims)
        coords = np.arange(n, dtype=np.float64)
        blocks = list(param_blocks(coords, dims))
        assert [name for name, _ in blocks] == names
        # every coordinate in exactly one block
        assert np.array_equal(np.sort(np.concatenate([b.ravel() for _, b in blocks])), coords)
        model = ModelParams(np.zeros(n), dims)
        for name, block in blocks:
            assert block.flags.c_contiguous and np.shares_memory(block, coords)
            assert {model.block_at(int(i)) for i in block.ravel()} == {name}

        seen = []
        fill_param_vector(dims, lambda label, shape: seen.append((label, shape)) or 0.0)
        assert seen == [(name.rpartition(".")[2], b.shape) for name, b in blocks]


class TestCellForward:
    def test_zero_params_zero_state(self):
        p = layer_zeros(1, 3)
        out = cell_out((), 3)
        h, c = lstm_cell_forward(p, np.array([0.7]), np.zeros(3), np.zeros(3), out)
        np.testing.assert_array_equal(out[0], [0.5] * 9 + [0.0] * 3)
        np.testing.assert_array_equal(c, np.zeros(3))
        np.testing.assert_array_equal(h, np.zeros(3))

    def test_zero_params_carries_half_cell_state(self):
        p = layer_zeros(1, 2)
        c0 = np.array([0.8, -0.4])
        h, c = lstm_cell_forward(p, np.array([1.0]), np.zeros(2), c0)
        np.testing.assert_allclose(c, 0.5 * c0, rtol=0, atol=0)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c0), rtol=0, atol=1e-16)

    def test_matches_scalar_oracle(self):
        rng = np.random.Generator(np.random.PCG64(8))
        cfg = TrainConfig(hidden_dims=(3,))
        p = init_params(cfg, 8).layers[0]
        x = rng.normal(0, 1, 1)
        h_prev = rng.uniform(-0.9, 0.9, 3)
        c_prev = rng.normal(0, 1, 3)
        h, c = lstm_cell_forward(p, x, h_prev, c_prev)
        h_ref, c_ref = scalar_cell_oracle(p, x, h_prev, c_prev)
        assert np.max(np.abs(h - h_ref)) < 1e-14
        assert np.max(np.abs(c - c_ref)) < 1e-14

    def test_batch_rows_match_vector_steps(self):
        rng = np.random.Generator(np.random.PCG64(11))
        p = init_params(TrainConfig(hidden_dims=(4, 3)), 11).layers[1]
        x, h_prev, c_prev = rng.uniform(-1, 1, (3, 5, 4))
        h_prev, c_prev = h_prev[:, :3], c_prev[:, :3]
        h, c = lstm_cell_forward(p, x, h_prev, c_prev)
        assert h.shape == c.shape == (5, 3)
        for row in range(5):
            h1, c1 = lstm_cell_forward(p, x[row], h_prev[row], c_prev[row])
            np.testing.assert_allclose(h[row], h1, rtol=0, atol=1e-15)
            np.testing.assert_allclose(c[row], c1, rtol=0, atol=1e-15)

    def test_out_buffers_advance_the_state_in_place(self):
        rng = np.random.Generator(np.random.PCG64(13))
        p = init_params(TrainConfig(hidden_dims=(4, 3)), 13).layers[1]
        x, h_prev, c_prev = rng.uniform(-1, 1, (3, 5, 4))
        h_prev, c_prev = h_prev[:, :3].copy(), c_prev[:, :3].copy()
        h_ref, c_ref = lstm_cell_forward(p, x, h_prev, c_prev)
        out = (np.empty((5, 12)), np.empty((5, 12)), h_prev, c_prev, np.empty((5, 3)))
        h, c = lstm_cell_forward(p, x, h_prev, c_prev, out)
        assert h is h_prev and c is c_prev
        assert np.array_equal(h, h_ref) and np.array_equal(c, c_ref)

    @pytest.mark.parametrize("rows", [1, 50, 256])
    def test_one_input_product_keeps_the_gemm_bits(self, rows):
        # layer 1 multiplies its one input column by W instead of a GEMM
        rng = np.random.Generator(np.random.PCG64(rows))
        p = init_params(TrainConfig(hidden_dims=(16,)), rows).layers[0]
        windows = rng.uniform(-1, 1, (rows, 5))
        windows[::7] = 0.0
        x = windows[:, 2:3]  # a strided column, as the forward passes feed it
        h_prev, c_prev = rng.uniform(-1, 1, (2, rows, 16))
        gates = x @ p.W.T
        gates += h_prev @ p.V.T
        gates += p.b
        sigmoid(gates[:, :48], out=gates[:, :48])
        np.tanh(gates[:, 48:], out=gates[:, 48:])
        out = cell_out((rows,), 16)
        lstm_cell_forward(p, x, h_prev, c_prev, out)
        assert np.array_equal(out[0], gates)

    def test_shape_mismatch(self):
        p = layer_zeros(1, 3)
        with pytest.raises(ValueError):
            lstm_cell_forward(p, np.zeros(2), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="h_prev None, c_prev"):
            lstm_cell_forward(p, np.zeros((2, 1)), None, np.zeros((3, 3)))

    @settings(max_examples=80, deadline=None)
    @given(
        batch=st.integers(1, 60),
        d=st.integers(1, 16),
        k=st.sampled_from([1, 4]),
        negative_zero_bias=st.booleans(),
        buffered=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_none_state_equals_explicit_zeros(self, batch, d, k, negative_zero_bias, buffered,
                                              seed):
        # Compared with ==, not as bytes: the explicit call adds +0.0 terms
        # (h_prev V^T, f * c_prev) that turn a -0.0 into +0.0, and the None
        # call skips them. That happens where a -0.0 bias meets a -0.0 input
        # product, or where i * g is -0.0 (a saturated i = 0 with g < 0). The
        # two zeros are equal values; no nonzero value may differ.
        rng = np.random.Generator(np.random.PCG64(seed))
        p = LayerParams(rng.uniform(-1, 1, (4 * d, k)), rng.uniform(-1, 1, (4 * d, d)),
                        np.full(4 * d, -0.0) if negative_zero_bias
                        else rng.uniform(-1, 1, 4 * d))
        # zeros of both signs, ordinary inputs, and inputs that saturate gates
        x = rng.choice([0.0, -0.0, 0.3, -0.8, 900.0, -900.0], (batch, k))

        def step(h_prev, c_prev):
            out = list(cell_out((batch,), d))
            if buffered and h_prev is not None:  # advance the state in place, as predict does
                out[2], out[3] = h_prev, c_prev
            h, c = lstm_cell_forward(p, x, h_prev, c_prev, tuple(out))
            if not buffered:  # the allocating call, checked against the written one
                h_new, c_new = lstm_cell_forward(p, x, h_prev, c_prev)
                assert h_new.tobytes() == h.tobytes() and c_new.tobytes() == c.tobytes()
            return h, c, out[0], out[4]

        with np.errstate(over="ignore"):
            skipped = step(None, None)
            explicit = step(np.zeros((batch, d)), np.zeros((batch, d)))
        for name, a, b in zip(("h", "c", "gates", "tanh_c"), skipped, explicit):
            assert a.shape == b.shape and np.all(a == b), name

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_gates_open_interval_and_h_bounded(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        p = init_params(TrainConfig(hidden_dims=(4,)), seed)
        x = rng.normal(0, 5, 1)
        h_prev = rng.uniform(-1, 1, 4)
        c_prev = rng.normal(0, 5, 4)
        out = cell_out((), 4)
        h, c = lstm_cell_forward(p.layers[0], x, h_prev, c_prev, out)
        sigmoid_gates = out[0][: 3 * 4]
        assert np.all(sigmoid_gates > 0) and np.all(sigmoid_gates < 1)
        assert np.all(np.abs(h) < 1)


class TestSigmoid:
    @staticmethod
    def oracle(v):
        """1 / (1 + exp(-v)) over libm's exp, the formula scipy's expit uses."""
        try:
            return 1.0 / (1.0 + math.exp(-v))
        except OverflowError:
            return 0.0

    def test_close_to_libm_oracle(self):
        # numpy's vectorized exp may differ from libm's in the last bit;
        # below 0, where 1 + exp(-v) is large, that bit and the two
        # roundings after it can part the results by up to 3 ulp
        rng = np.random.Generator(np.random.PCG64(3))
        grid = np.concatenate([
            [0.0, 750.0, -750.0, np.inf, -np.inf],
            np.linspace(-750.0, 750.0, 30001),
            rng.normal(0.0, 8.0, 20000),
        ])
        got = sigmoid(grid)
        want = np.array([self.oracle(v) for v in grid])
        assert got[:5].tolist() == [0.5, 1.0, 0.0, 1.0, 0.0]
        ulps = np.abs(got.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 3
        assert np.mean(ulps <= 1) > 0.99

    def test_in_place_on_a_slice(self):
        z = np.array([[-2.0, 0.0, 3.0], [1.0, -1.0, 5.0]])
        expected = z.copy()
        expected[:, :2] = sigmoid(z[:, :2])
        sigmoid(z[:, :2], out=z[:, :2])
        assert np.array_equal(z, expected)

    def test_saturated_forward_raises_no_warning(self):
        theta = np.zeros(param_count((3,)))
        blocks = dict(zero_model((3,)).blocks(theta))
        # input, output and cell gates open, forget gate shut at -1000
        for label, bias in (("bi", 1e3), ("bf", -1e3), ("bo", 1e3), ("bc", 1e3)):
            blocks[f"layer1.{label}"][:] = bias
        blocks["Wr"][:] = -1e3
        m = ModelParams(theta, (3,), "bce")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, cache = forward_windows(m, np.ones((2, 4)))
        assert np.all(cache.layers[0][0][-1][:, 3:6] == 0.0)  # the last step's gates
        assert np.all(cache.head_input @ m.w_r.T < -709.0)
        assert np.all(y == BCE_CLIP)


class TestForwardWindow:
    def test_zero_model_predicts_zero(self):
        y = forward_window(zero_model((4, 3)), np.array([0.2, 0.4, 0.6, 0.8, 1.0]))
        assert y == 0.0

    def test_w1_is_cell_plus_head(self):
        params = init_params(TrainConfig(hidden_dims=(3,)), 5)
        x = np.array([0.37])
        y = forward_window(params, x)
        h, _ = lstm_cell_forward(params.layers[0], x, np.zeros(3), np.zeros(3))
        assert abs(y - float((params.w_r @ h)[0])) < 1e-14

    def test_matches_unrolled_scalar_oracle(self):
        params = init_params(TrainConfig(hidden_dims=(4, 3)), 12)
        window = np.array([0.1, 0.5, -0.3, 0.9, 0.2])
        y = forward_window(params, window)
        states = [(np.zeros(l.hidden_size), np.zeros(l.hidden_size)) for l in params.layers]
        for value in window:
            x = np.array([value])
            for li, layer in enumerate(params.layers):
                h, c = scalar_cell_oracle(layer, x, states[li][0], states[li][1])
                states[li] = (h, c)
                x = h
        expected = math.fsum(
            float(w) * float(h) for w, h in zip(params.w_r[0], states[-1][0])
        )
        assert abs(y - expected) < 1e-13

    def test_time_shift_locality(self):
        params = init_params(TrainConfig(hidden_dims=(4,)), 6)
        series = np.concatenate([np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.2, 0.3])])
        y1 = forward_window(params, series[0:3])
        y2 = forward_window(params, series[3:6])
        assert y1 == y2

    def test_repeated_calls_bit_identical(self):
        params = init_params(TrainConfig(hidden_dims=(4, 3)), 6)
        w = np.array([0.3, -0.1, 0.7, 0.2, 0.5])
        assert forward_window(params, w) == forward_window(params, w)

    def test_batch_agrees_with_reference(self):
        params = init_params(TrainConfig(hidden_dims=(5, 4)), 9)
        rng = np.random.Generator(np.random.PCG64(10))
        windows = rng.uniform(-1, 1, size=(7, 5))
        ys = predict_windows(params, windows)
        for i in range(7):
            y_ref = forward_window(params, windows[i])
            assert abs(ys[i] - y_ref) < 1e-13

    @pytest.mark.parametrize("dims", [(8, 4), (5,)], ids=["stack8_4", "stack5"])
    @pytest.mark.parametrize("mode", LOSS_MODES)
    @pytest.mark.parametrize(
        "n",
        [0, 1, 7, 8, PREDICT_ROWS - 1, PREDICT_ROWS, PREDICT_ROWS + 1,
         2 * PREDICT_ROWS + 3, 8 * PREDICT_ROWS + 5],
    )
    def test_predict_agrees_with_cached_forward(self, dims, mode, n):
        params = init_params(TrainConfig(hidden_dims=dims, loss_mode=mode), 9)
        windows = np.random.Generator(np.random.PCG64(n)).uniform(-1, 1, size=(n, 5))
        ys = predict_windows(params, windows)
        assert ys.shape == (n,)
        if n == 1:
            # one window predicts the same bits on the cached path
            assert ys[0] == forward_windows(params, windows)[0][0]
        np.testing.assert_allclose(ys, forward_windows(params, windows)[0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "forward, windows",
        [
            (predict_windows, np.zeros(5)),
            (predict_windows, np.ones((3, 0))),
            (forward_windows, np.ones((3, 0))),
            (forward_window, []),
        ],
        ids=["predict-flat", "predict-zero-width", "cached-zero-width", "one-empty"],
    )
    def test_predict_rejects_a_flat_window(self, forward, windows):
        # a window of no values has no prediction, not a zero
        with pytest.raises(ValueError):
            forward(zero_model((4, 3)), windows)

    def test_predict_memory_stops_growing_at_256_rows(self):
        # Parts of at most 256 rows keep a step's arrays cache-sized, so from
        # 256 windows on only the output may grow with the batch. The windows
        # exist before tracing starts; 4 KiB is slack for per-part bookkeeping.
        assert predict_peak_growth(256) <= 15 * 256 * 8 + 4096

    def test_parallel_predict_memory_stops_growing_at_256_rows(self, monkeypatch):
        # Two workers on parts of 128 rows hold one 256-row set between them;
        # from 2 x 128 windows on every worker has its part, so again only
        # the output may grow. Each worker's step briefly holds about 2.5 KB
        # of numpy iterator and view objects, and whether the two workers'
        # overlap depends on the scheduler, so a peak is the largest of five.
        use_cores(monkeypatch, 2)
        assert predict_peak_growth(2 * (PREDICT_ROWS // 2), calls=5) <= 15 * 256 * 8 + 4096

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3000),
        dims=st.sampled_from([(8, 4), (5,), (32, 16)]),
        cores=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_parallel_predict_keeps_the_serial_bits(self, n, dims, cores, seed):
        params = init_params(TrainConfig(hidden_dims=dims), seed % 1000)
        windows = np.random.Generator(np.random.PCG64(seed)).uniform(-1, 1, size=(n, 5))
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("OPENBLAS_NUM_THREADS", "2")
            serial = predict_windows(params, windows)
            use_cores(mp, cores)
            parallel = predict_windows(params, windows)
        assert serial.tobytes() == parallel.tobytes()

    def test_parallel_predict_keeps_the_callers_errstate(self, monkeypatch):
        # helper threads must run under the caller's np.errstate: a worker
        # that warned here would fail the call under simplefilter("error")
        use_cores(monkeypatch, 2)
        theta = np.full(param_count((4,)), 1.7e308)
        theta[::2] *= -1.0
        m = ModelParams(theta, (4,))
        windows = np.random.Generator(np.random.PCG64(5)).uniform(-1, 1, size=(1000, 5))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            y = predict_windows(m, windows)
        assert y.shape == (1000,) and not np.isfinite(y).all()

    def test_parallel_predict_raises_a_helpers_error(self, monkeypatch):
        # only the last window overflows, and a helper thread forwards it
        use_cores(monkeypatch, 2)
        m = ModelParams(np.full(param_count((4,)), 1.5), (4,))
        windows = np.zeros((1000, 5))
        windows[-1] = 1.7e308
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            predict_windows(m, windows)

    def test_parallel_predict_under_thread_stress(self, monkeypatch):
        # more workers than cores, switching threads every few microseconds
        params = init_params(TrainConfig(hidden_dims=(8, 4)), 6)
        windows = np.random.Generator(np.random.PCG64(6)).uniform(-1, 1, size=(2000, 5))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        serial = predict_windows(params, windows)
        use_cores(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert predict_windows(params, windows).tobytes() == serial.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.sampled_from([(5,), (8, 4), (6, 5, 4)]),
        loss_mode=st.sampled_from(LOSS_MODES),
        n=st.sampled_from([1, 7, 16, 17, 50]) | st.integers(1, 60),
        w=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_forward_keeps_the_stepwise_caches(self, dims, loss_mode, n, w, seed):
        # every slot of every layer holds the bits of lstm_cell_forward run
        # step by step on arrays of its own; n covers the short last batches
        # of training
        params = init_params(TrainConfig(hidden_dims=dims, loss_mode=loss_mode), seed % 1000)
        windows = np.random.Generator(np.random.PCG64(seed)).uniform(-1, 1, size=(n, w))
        _, cache = forward_windows(params, windows)
        assert cache.windows is windows and len(cache.layers) == len(dims)
        xs = [windows[:, t : t + 1] for t in range(w)]
        for layer, (gates, _, h, c, tanh_c) in zip(params.layers, cache.layers):
            assert gates.shape == (w, n, 4 * layer.hidden_size)
            state = (None, None)
            for t, x in enumerate(xs):
                out = cell_out((n,), layer.hidden_size)
                written = lstm_cell_forward(layer, x, *state, out)
                state = lstm_cell_forward(layer, x, *state)  # out=None, the reference
                assert [a.tobytes() for a in written] == [a.tobytes() for a in state]
                for slot, want in zip((gates, h, c, tanh_c), (out[0], *state, out[4])):
                    assert slot[t].tobytes() == want.tobytes()
                xs[t] = state[0]
        assert cache.head_input.tobytes() == xs[-1].tobytes()

    def test_bce_mode_head_is_sigmoid(self):
        params = init_params(TrainConfig(hidden_dims=(3,), loss_mode="bce"), 5)
        ys, cache = forward_windows(params, np.array([[0.2, 0.4, 0.6]]))
        y = float(ys[0])
        assert 0 < y < 1
        y_raw = float((cache.head_input @ params.w_r.T)[0, 0])
        assert y == pytest.approx(1.0 / (1.0 + math.exp(-y_raw)))

    def test_invalid_chain_unconstructible(self):
        # the layer chain is implied by hidden_dims; a vector of any other
        # length cannot be viewed as that chain
        n = param_count((4, 2))
        for size in (n - 1, n + 1, param_count((4, 3))):
            with pytest.raises(ValidationError):
                ModelParams(np.zeros(size), (4, 2))
        theta = np.zeros(n)
        dict(zero_model((4, 2)).blocks(theta))["layer2.Vi"][1, 0] = np.nan
        with pytest.raises(ValidationError, match="layer2.Vi"):
            ModelParams(theta, (4, 2))


PINNED = DATA / "v4_stack_3_2.model"
MODEL_ERRORS = (ModelFormatError, ModelVersionError, ModelCorruptionError)


def word_sum(*parts):
    """Oracle of the data line's sum, over Python integers: each part is
    zero-padded to a multiple of 8 bytes and read as little-endian words."""
    total = 0
    for part in parts:
        part = part.ljust(-(-len(part) // 8) * 8, b"\0")
        total += sum(int.from_bytes(part[i : i + 8], "little") for i in range(0, len(part), 8))
    return f"{total % 2**64:016x}"


def split_v4(path):
    """(text lines, payload) of a v4 file: the payload is what follows the data line."""
    raw = path.read_bytes()
    at = raw.index(b"\ndata ")
    end = raw.index(b"\n", at + 1) + 1
    return raw[:end].decode().splitlines(), raw[end:]


def join_v4(path, lines, payload, resum=True):
    """Write ``lines`` and ``payload`` as a model file. With ``resum``, a last
    line ``data <bytes> ...`` gets the oracle sum of the text before it and
    the payload, so that only the edit under test is a defect."""
    text = "".join(f"{line}\n" for line in lines[:-1]).encode()
    last = lines[-1]
    if resum and last.startswith("data "):
        last = " ".join(last.split()[:2] + [word_sum(text, payload)])
    path.write_bytes(text + f"{last}\n".encode() + payload)


class TestPersistence:
    def _model(self):
        params = init_params(TrainConfig(hidden_dims=(4, 3)), 42)
        return params.with_scaler(MinMaxScaler(0.017, 1.93))

    def test_round_trip_bitwise(self, tmp_path):
        params = self._model()
        path = tmp_path / "m.model"
        save_model(params, path)
        back = load_model(path)
        assert np.array_equal(params.theta, back.theta)
        assert back.hidden_dims == params.hidden_dims
        assert back.scaler == params.scaler
        assert back.loss_mode == params.loss_mode

    def test_save_load_save_identical_bytes(self, tmp_path):
        params = self._model()
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(params, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_without_scaler_does_not_save(self, tmp_path):
        # train builds its model before it has a scaler, but a model file
        # always records one
        path = tmp_path / "m.model"
        with pytest.raises(ValueError, match="records its window and its scaler"):
            save_model(self._model().with_scaler(None), path)
        assert not path.exists()

    def test_version_error(self, tmp_path):
        # v1 (rows of decimal floats), v2 (base64 text lines) and v3 (a block
        # table, an optional scaler, no sum) no longer load
        path = tmp_path / "m.model"
        for magic in ("LSTMPROG v9", "LSTMPROG v1", "LSTMPROG v2", "LSTMPROG v3"):
            path.write_text(f"{magic}\ninput 1 layers 1 hidden 2 output 1 loss mse window 5\n")
            with pytest.raises(ModelVersionError, match="expected v4$"):
                load_model(path)

    def test_non_positive_sizes_are_corruption(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("LSTMPROG v4\ninput 1 layers 1 hidden -2 output 1 loss mse window 5\n"
                        "scaler 0 1\n")
        with pytest.raises(ModelCorruptionError, match="header"):
            load_model(path)

    def test_format_error(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("hello world\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncation_reports_byte_offset(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(self._model(), path)
        raw = path.read_bytes()
        payload = split_v4(path)[1]
        # cut before the scaler line, at the data line's LF, and in the payload
        for cut in (raw.index(b"scaler "), len(raw) - len(payload) - 1, int(len(raw) * 0.9)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ModelCorruptionError, match=f"truncated at byte {cut}"):
                load_model(path)

    def test_header_sizes_beyond_the_file_are_truncation(self, tmp_path):
        # 8 bytes a parameter: the header's sizes are checked against the
        # file's length before the parameter vector is allocated
        path = tmp_path / "m.model"
        header = b"LSTMPROG v4\ninput 1 layers 1 hidden 1000000 output 1 loss mse window 5\n"
        path.write_bytes(header.ljust(100, b"x"))
        with pytest.raises(ModelCorruptionError,
                           match=f"truncated at byte 100: .* {8 * param_count((10**6,))} bytes"):
            load_model(path)

    def test_trailing_data_detected(self, tmp_path):
        v4, path = tmp_path / "v4.model", tmp_path / "m.model"
        save_model(self._model(), v4)
        for source in (v4, PINNED):
            path.write_bytes(source.read_bytes() + b"0.5 0.5\n")
            with pytest.raises(ModelCorruptionError, match="trailing"):
                load_model(path)

    @settings(max_examples=30, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple),
        loss_mode=st.sampled_from(("mse", "bce")),
        scaler=st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False), st.floats(1e-6, 1e6, allow_nan=False)
        ).map(lambda t: MinMaxScaler(t[0], t[0] + t[1])),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_save_load_save_bytes_property(self, tmp_path_factory, dims, loss_mode, scaler, seed):
        params = init_params(TrainConfig(hidden_dims=dims, loss_mode=loss_mode), seed)
        params = params.with_scaler(scaler)
        d = tmp_path_factory.mktemp("prop")
        p1, p2 = d / "a.model", d / "b.model"
        save_model(params, p1)
        back = load_model(p1)
        save_model(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(back.theta, params.theta)
        assert back.scaler == scaler and back.loss_mode == loss_mode

    def test_window_round_trips_in_header(self, tmp_path):
        params = init_params(TrainConfig(hidden_dims=(2,), window=7), 1)
        path = tmp_path / "m.model"
        save_model(params.with_scaler(MinMaxScaler(0.0, 1.0)), path)
        assert split_v4(path)[0][1].endswith(" loss mse window 7")
        assert load_model(path).window == 7

    def test_model_without_window_does_not_save(self, tmp_path):
        # a model built in code may lack a window and predicts windows of
        # any length, but a model file always records one
        params = replace(init_params(TrainConfig(hidden_dims=(2,), window=7), 1), window=None)
        for w in (1, 5, 9):
            assert np.isfinite(predict_windows(params, np.linspace(0.1, 0.9, w)[None, :])).all()
        path = tmp_path / "m.model"
        with pytest.raises(ValueError, match="records its window"):
            save_model(params.with_scaler(MinMaxScaler(0.0, 1.0)), path)
        assert not path.exists()

    @pytest.mark.parametrize("header", [
        "input 1 layers 1 hidden 2 output 1 loss mse",
        "input 1 layers 1 hidden 2 output 1 loss mse window 0",
        "input 1 layers 1 hidden 2 output 1 loss mse window",
        "input 1 layers 1 hidden 2 output 1 loss mse windows 5",
    ])
    def test_bad_window_in_header_is_corruption(self, tmp_path, header):
        path = tmp_path / "m.model"
        path.write_text(f"LSTMPROG v4\n{header}\nscaler 0 1\n")
        with pytest.raises(ModelCorruptionError, match="header"):
            load_model(path)

    @pytest.mark.parametrize("source", ["v4", "pinned"])
    def test_input_size_other_than_one_is_corruption(self, tmp_path, source):
        path = tmp_path / "m.model"
        if source == "pinned":
            path.write_bytes(PINNED.read_bytes())
        else:
            save_model(self._model(), path)
        raw = path.read_bytes()
        assert b"\ninput 1 " in raw
        path.write_bytes(raw.replace(b"\ninput 1 ", b"\ninput 2 ", 1))
        with pytest.raises(ModelCorruptionError, match="unsupported input size 2"):
            load_model(path)

    def test_payload_is_theta_as_it_lies_in_memory(self, tmp_path):
        params = self._model()
        path = tmp_path / "m.model"
        save_model(params, path)
        lines, payload = split_v4(path)
        assert payload == params.theta.astype("<f8").tobytes()
        text = "".join(f"{line}\n" for line in lines[:3]).encode()
        assert lines == ["LSTMPROG v4", "input 1 layers 2 hidden 4 3 output 1 loss mse window 5",
                         "scaler 0.017 1.93",
                         f"data {8 * param_count((4, 3))} {word_sum(text, payload)}"]

    @pytest.mark.parametrize("defect, message", [
        ("short", "data truncated at byte {end_short}: the payload lacks 1 bytes"),
        ("count", "expected the data line 'data {size} <sum>', 8 bytes per parameter, "
                  "found 'data {less} "),
        ("trailing", "trailing data at byte {end}: "),
        ("no-data-line", "data line"),
        ("no-scaler-line", "expected the scaler line 'scaler <min> <max>' with finite min < max, "
                           "found 'data {size} "),
        ("sum", "sum mismatch: the data line records '{recorded}', "
                "the file's words sum to '{actual}'"),
        ("nan", "non-finite weights in block layer2.Vo"),
    ], ids=["short", "count", "trailing", "no-data-line", "no-scaler-line", "sum", "nan"])
    def test_v4_defects_are_named(self, tmp_path, defect, message):
        params = self._model()
        path = tmp_path / "m.model"
        save_model(params, path)
        lines, payload = split_v4(path)
        end, size = path.stat().st_size, 8 * param_count((4, 3))
        recorded = lines[-1].split()[2]
        if defect == "short":
            payload = payload[:-1]
        elif defect == "count":
            lines[-1] = f"data {size - 8}"
        elif defect == "trailing":
            payload += b"\n"
        elif defect == "no-data-line":
            lines.pop()
        elif defect == "no-scaler-line":
            lines.pop(2)
        elif defect == "sum":
            # the top bit of the last word: the words' sum moves by 2^63
            payload = payload[:-1] + bytes([payload[-1] ^ 0x80])
        else:
            theta = params.theta.copy()
            dict(params.blocks(theta))["layer2.Vo"][1, 2] = np.nan
            payload = theta.astype("<f8").tobytes()
        join_v4(path, lines, payload, resum=defect != "sum")
        message = message.format(end=end, end_short=end - 1, size=size, less=size - 8,
                                 recorded=recorded,
                                 actual=f"{(int(recorded, 16) + 2**63) % 2**64:016x}")
        with pytest.raises(ModelCorruptionError, match=message):
            load_model(path)

    def test_v4_with_crlf_line_ends_is_corruption(self, tmp_path):
        # a v4 file passed through text-mode newline translation: its payload
        # can no longer be trusted, so it must not load
        path = tmp_path / "m.model"
        save_model(self._model(), path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(ModelCorruptionError, match="LSTMPROG v4 must be the first line"):
            load_model(path)

    @pytest.mark.parametrize("scaler", [
        "scaler 2.0 1.0", "scaler nan 1.0", "scaler 0.5", "scaler -1e308 1e308",
    ])
    def test_bad_scaler_line_is_corruption(self, tmp_path, scaler):
        # the sum is made to match, so the scaler line is the only defect
        lines, payload = split_v4(PINNED)
        assert lines[2].startswith("scaler ")
        lines[2] = scaler
        path = tmp_path / "m.model"
        join_v4(path, lines, payload)
        with pytest.raises(ModelCorruptionError, match="scaler"):
            load_model(path)

    def test_non_utf8_byte_is_corruption(self, tmp_path):
        data = bytearray(PINNED.read_bytes())
        data[40] = 0xFF
        path = tmp_path / "m.model"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelCorruptionError, match="byte 40"):
            load_model(path)

    @settings(max_examples=300, deadline=None)
    @given(
        damage=st.one_of(
            st.tuples(st.just("truncate"), st.floats(0.0, 1.0), st.just(0)),
            st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.integers(1, 255)),
            # leave out the identity edit, hidden 3 2 itself
            st.tuples(st.just("sizes"), st.integers(0, 1), st.integers(1, 10**15)).filter(
                lambda d: d[2] != (3 if d[1] else 2)),
        ),
    )
    @example(damage=("flip", 0.08984375, 41))  # the data line's first space turned into a tab
    def test_damaged_files_fail_closed(self, tmp_path_factory, damage):
        kind, where, value = damage
        data = bytearray(PINNED.read_bytes())
        path = tmp_path_factory.mktemp("damaged") / "m.model"
        at = min(int(where * len(data)), len(data) - 1)
        if kind == "truncate":
            del data[at:]
        elif kind == "flip":
            data[at] ^= value
        else:
            # one of the header's two hidden sizes, up to sizes no memory could hold
            sizes = b"hidden %d 2" % value if where else b"hidden 3 %d" % value
            data = data.replace(b"hidden 3 2", sizes, 1)
        path.write_bytes(bytes(data))
        with pytest.raises(MODEL_ERRORS):
            load_model(path)

    def test_every_single_bit_flip_fails_closed(self, tmp_path):
        # the sum covers every byte but the data line's own, and an edit of
        # the data line leaves it malformed or at odds with the header
        data = PINNED.read_bytes()
        path = tmp_path / "m.model"
        loaded = []
        for bit in range(8 * len(data)):
            damaged = bytearray(data)
            damaged[bit // 8] ^= 1 << bit % 8
            path.write_bytes(damaged)
            try:
                load_model(path)
                loaded.append(bit)
            except MODEL_ERRORS:
                pass
        assert loaded == []

    def test_load_peak_memory_is_near_the_payload(self, tmp_path):
        path = tmp_path / "m.model"
        params = init_params(TrainConfig(hidden_dims=(128, 64)), 1)
        save_model(params.with_scaler(MinMaxScaler(0.0, 1.0)), path)
        payload = 8 * param_count((128, 64))
        load_model(path)
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * payload, f"peak {peak} B for a {payload} B payload"

    def test_pinned_v4_file(self, tmp_path):
        # a 3/2 model trained by the per-gate (12 blocks per layer)
        # implementation that preceded the stacked-gate layout, first frozen
        # in format v2, then re-saved as v3 with window 5 and as v4, each
        # time with the same bits
        params = load_model(PINNED)
        assert params.hidden_dims == (3, 2)
        assert params.scaler == MinMaxScaler(0.017, 1.93)
        assert params.window == 5
        # predict_windows takes windows of any length; these pinned bits are of length 4
        windows = np.array([[0.1, 0.35, 0.6, 0.85], [0.9, 0.7, 0.5, 0.3]])
        y = predict_windows(params, windows)
        assert [v.hex() for v in y] == ["-0x1.e845dafd609ecp-3", "-0x1.b9aa1ebfcc1aap-2"]
        resaved = tmp_path / "again.model"
        save_model(params, resaved)
        assert resaved.read_bytes() == PINNED.read_bytes()
