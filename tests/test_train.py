"""Loss gradients, BPTT vs finite differences, Adam, and the epoch loop."""

import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prognost import (
    ConfigError,
    GradientError,
    SnapshotSeries,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    bptt_backward,
    compute_loss,
    grad_check,
    make_sine_series,
    parse_config_file,
    prepare_training_data,
    train,
)
from prognost.errors import ContractError
from prognost.model import forward_windows, init_params, predict_windows
from prognost.preprocess import SplitDataset, WindowedDataset, make_windows, split_train_test
from prognost.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    TrainReport,
    write_report_csv,
)

from test_model import use_cores, zero_model

TRAIN = sys.modules["prognost.train"]  # the module; prognost.train is the function


def tiny_split(n=40, window=5, seed=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    series = SnapshotSeries(np.arange(float(n)), rng.uniform(0.1, 0.9, n))
    return split_train_test(make_windows(series, window))


class TestTrainConfig:
    def test_default_stack_and_optimizer_settings(self):
        cfg = TrainConfig()
        assert cfg.hidden_dims == (128, 64)
        assert cfg.learning_rate == 0.001
        assert cfg.batch_size == 50
        assert cfg.epochs == 100
        assert cfg.window == 5

    @pytest.mark.parametrize(
        "kw",
        [
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"batch_size": 0},
            {"hidden_dims": ()},
            {"hidden_dims": (0,)},
            {"loss_mode": "huber"},
            {"learning_rate": float("inf")},
            {"learning_rate": float("nan")},
            {"max_grad_norm": 0.0},
            {"window": 0},
            {"seed": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text(
            "# sine fixture setup\n"
            "hidden_dims = 8\n"
            "learning_rate = 0.001\n"
            "batch_size = 50\n"
            "epochs = 500\n"
            "window = 5\n"
            "loss_mode = mse\n"
            "seed = 7\n"
        )
        cfg = parse_config_file(path)
        assert cfg.hidden_dims == (8,)
        assert cfg.epochs == 500 and cfg.seed == 7

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("learning_rat = 0.001\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

    def test_config_file_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("epochs = 2\n\nwindow = 5\nepochs = 3\n")
        with pytest.raises(ConfigError, match="config line 4: epochs repeats line 1"):
            parse_config_file(path)

    def test_config_file_bad_value(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("epochs = many\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)


class TestComputeLoss:
    def test_mse_perfect_fit(self):
        loss, grad = compute_loss([1.0, 2.0], [1.0, 2.0], "mse")
        assert loss == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_mse_single_point(self):
        loss, grad = compute_loss([0.0], [3.0], "mse")
        assert loss == 9.0
        np.testing.assert_array_equal(grad, [-6.0])

    def test_bce_symmetric_point(self):
        loss, grad = compute_loss([0.5], [0.5], "bce")
        assert loss == pytest.approx(math.log(2.0), rel=1e-15)
        np.testing.assert_array_equal(grad, [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_loss([1.0], [1.0, 2.0], "mse")

    def test_bce_non_finite_rejected(self):
        with pytest.raises(ValueError):
            compute_loss([float("nan")], [0.5], "bce")

    def test_mse_gradient_matches_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(2))
        pred = rng.uniform(-2, 2, 9)
        target = rng.uniform(-2, 2, 9)
        _, grad = compute_loss(pred, target, "mse")
        eps = 1e-7
        for i in range(9):
            up = pred.copy(); up[i] += eps
            dn = pred.copy(); dn[i] -= eps
            num = (compute_loss(up, target, "mse")[0] - compute_loss(dn, target, "mse")[0]) / (2 * eps)
            assert grad[i] == pytest.approx(num, rel=1e-6, abs=1e-9)

    def test_bce_gradient_matches_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(3))
        pred = rng.uniform(0.05, 0.95, 9)
        target = rng.uniform(0.05, 0.95, 9)
        _, grad = compute_loss(pred, target, "bce")
        eps = 1e-7
        for i in range(9):
            up = pred.copy(); up[i] += eps
            dn = pred.copy(); dn[i] -= eps
            num = (compute_loss(up, target, "bce")[0] - compute_loss(dn, target, "bce")[0]) / (2 * eps)
            assert grad[i] == pytest.approx(num, rel=1e-6, abs=1e-9)

    def test_bce_clipped_prediction_has_zero_gradient(self):
        _, grad = compute_loss([1.0, 0.5], [0.5, 0.5], "bce")
        assert grad[0] == 0.0


class TestBpttBackward:
    def test_zero_upstream_gradient_gives_zero_blocks(self):
        params = init_params(TrainConfig(hidden_dims=(4, 3)), 1)
        windows = np.array([[0.1, 0.2, 0.3, 0.4, 0.5]])
        _, cache = forward_windows(params, windows)
        grads = bptt_backward(params, cache, np.zeros(1))
        assert grads.shape == params.theta.shape
        assert np.all(grads == 0.0)

    def test_zero_model_kills_all_gradients(self):
        params = zero_model((4, 3))
        windows = np.array([[0.3, -0.2, 0.5, 0.9, 0.1]])
        _, cache = forward_windows(params, windows)
        grads = bptt_backward(params, cache, np.array([2.0]))
        assert np.all(grads == 0.0)

    def test_stale_cache_rejected(self):
        params = init_params(TrainConfig(hidden_dims=(3,)), 1)
        other = init_params(TrainConfig(hidden_dims=(3,)), 2)
        _, cache = forward_windows(params, np.array([[0.1, 0.2, 0.3, 0.4, 0.5]]))
        with pytest.raises(ContractError):
            bptt_backward(other, cache, np.ones(1))

    def test_probe_fd_agreement_both_modes(self):
        for mode in ("mse", "bce"):
            cfg = TrainConfig(hidden_dims=(4, 3), loss_mode=mode)
            checks = grad_check(cfg, seed=7, eps=1e-6)
            assert len(checks) == 25  # 12 blocks per layer + head
            worst = max(c.max_rel_err for c in checks)
            assert worst < 1e-5, f"{mode}: {worst}"

    @settings(max_examples=30, deadline=None)
    @given(
        dims=st.sampled_from([(5,), (8, 4), (6, 5, 4)]),
        loss_mode=st.sampled_from(["mse", "bce"]),
        n=st.integers(1, 40),
        cores=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_parallel_gradients_keep_the_serial_bits(self, dims, loss_mode, n, cores, seed):
        params = init_params(TrainConfig(hidden_dims=dims, loss_mode=loss_mode), seed % 1000)
        rng = np.random.Generator(np.random.PCG64(seed))
        windows = rng.uniform(-1, 1, size=(n, 5))
        y, cache = forward_windows(params, windows)
        _, dldy = compute_loss(y, rng.uniform(0, 1, n), loss_mode)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("OPENBLAS_NUM_THREADS", "2")
            serial = bptt_backward(params, cache, dldy)
            use_cores(mp, cores)
            parallel = bptt_backward(params, cache, dldy)
        assert serial.tobytes() == parallel.tobytes()

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_parallel_error_does_not_hang_or_leave_a_thread(self, monkeypatch, where):
        # the calling thread runs the chain; the helper adds weight products
        use_cores(monkeypatch, 2)
        params = init_params(TrainConfig(hidden_dims=(8, 4)), 3)
        _, cache = forward_windows(params, np.full((6, 5), 0.5))
        if where == "caller":
            gates, rec, h, c, tanh_c = cache.layers[0]
            tanh_c = [None if t == 1 else a for t, a in enumerate(tanh_c)]
            cache.layers[0] = (gates, rec, h, c, tanh_c)  # the chain fails at its 8th cell
        else:
            def accumulate(cells):
                next(iter(cells))
                raise TypeError("helper failed")

            monkeypatch.setattr(TRAIN, "_accumulate", accumulate)
        before = threading.active_count()
        with pytest.raises(TypeError):
            bptt_backward(params, cache, np.ones(6))
        assert threading.active_count() == before

    def test_glorot_point_fd_agreement_mixed_tolerance(self):
        # sign-diverse initialization: coordinates near cancellation zeros are
        # held to an absolute bound, everything else to a relative one
        for mode in ("mse", "bce"):
            cfg = TrainConfig(hidden_dims=(4, 3), loss_mode=mode)
            params = init_params(cfg, 19)
            rng = np.random.Generator(np.random.PCG64(20))
            windows = rng.uniform(0.05, 0.95, (3, 5))
            targets = rng.uniform(0.2, 0.8, 3) if mode == "bce" else rng.uniform(-1, 1, 3)
            y, cache = forward_windows(params, windows)
            _, dldy = compute_loss(y, targets, mode)
            analytic = bptt_backward(params, cache, dldy)

            theta = params.theta.copy()

            def loss_at():
                probe = params.with_theta(theta)
                return compute_loss(predict_windows(probe, windows), targets, mode)[0]

            eps = 1e-6
            blocks = zip(params.blocks(theta), params.blocks(analytic))
            for (name, arr), (_, grad_block) in blocks:
                for idx in np.ndindex(arr.shape):
                    original = arr[idx]
                    arr[idx] = original + eps
                    up = loss_at()
                    arr[idx] = original - eps
                    down = loss_at()
                    arr[idx] = original
                    numeric = (up - down) / (2 * eps)
                    assert grad_block[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-9), name


def adam_oracle(theta, g, m, v, t, lr):
    """The out-of-place Adam step, one fresh array per operation."""
    t += 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    theta = theta - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
    return theta, m, v, t


class TestAdamStep:
    def test_in_place_step_keeps_the_oracle_bits(self):
        cfg = TrainConfig(hidden_dims=(6, 3), learning_rate=0.003)
        params = init_params(cfg, 4)
        state = AdamState.zeros(params)
        theta, m, v, t = params.theta, state.m.copy(), state.v.copy(), 0
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(20):
            g = rng.normal(0.0, 1.0, params.theta.shape) * rng.choice([1e-9, 1.0, 1e3])
            params, returned = adam_step(params, g, state, cfg)
            theta, m, v, t = adam_oracle(theta, g, m, v, t, cfg.learning_rate)
            assert returned is state and state.t == t
            assert params.theta.tobytes() == theta.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_non_finite_gradient_leaves_the_state_alone(self):
        cfg = TrainConfig(hidden_dims=(2,))
        params = init_params(cfg, 1)
        state = AdamState.zeros(params)
        adam_step(params, np.full_like(params.theta, 0.5), state, cfg)
        m, v = state.m.copy(), state.v.copy()
        grads = np.zeros_like(params.theta)
        grads[-1] = np.inf
        with pytest.raises(GradientError, match="Wr"):
            adam_step(params, grads, state, cfg)
        assert state.t == 1 and np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_zero_gradients_leave_parameters_unchanged(self):
        cfg = TrainConfig(hidden_dims=(4,))
        params = init_params(cfg, 5)
        state = AdamState.zeros(params)
        grads = np.zeros_like(params.theta)
        new_params, new_state = adam_step(params, grads, state, cfg)
        assert np.array_equal(params.theta, new_params.theta)
        assert new_state.t == 1

    def test_single_scalar_first_step(self):
        # theta=0, g=1, defaults: m_hat = 1, v_hat = 1 -> step = lr / (1 + eps)
        cfg = TrainConfig(hidden_dims=(1,))
        params = zero_model((1,))
        state = AdamState.zeros(params)
        grads = np.zeros_like(params.theta)
        dict(params.blocks(grads))["Wr"][0, 0] = 1.0
        new_params, new_state = adam_step(params, grads, state, cfg)
        expected = -cfg.learning_rate * (1.0 / (1.0 + ADAM_EPSILON))
        assert new_params.w_r[0, 0] == expected
        assert new_params.w_r[0, 0] == pytest.approx(-cfg.learning_rate, abs=1e-9)
        assert new_state.t == 1

    def test_opposite_gradients_give_exactly_opposite_deltas(self):
        # measured from zero parameters so theta_new IS the applied delta,
        # free of the re-rounding that theta_new - theta_old would add
        cfg = TrainConfig(hidden_dims=(3,))
        params = zero_model((3,))
        rng = np.random.Generator(np.random.PCG64(7))
        g = rng.normal(0, 1, params.theta.shape)
        up, _ = adam_step(params, g, AdamState.zeros(params), cfg)
        dn, _ = adam_step(params, -g, AdamState.zeros(params), cfg)
        assert np.array_equal(up.theta, -dn.theta)

    def test_deterministic_state_bits(self):
        cfg = TrainConfig(hidden_dims=(3,))
        params = init_params(cfg, 6)
        grads = np.zeros_like(params.theta)
        dict(params.blocks(grads))["Wr"][...] += 0.25
        _, s1 = adam_step(params, grads, AdamState.zeros(params), cfg)
        _, s2 = adam_step(params, grads, AdamState.zeros(params), cfg)
        assert np.array_equal(s1.m, s2.m)
        assert np.array_equal(s1.v, s2.v)
        assert np.all(s1.v >= 0)  # second moments are squares

    def test_non_finite_gradient_names_block(self):
        cfg = TrainConfig(hidden_dims=(2,))
        params = init_params(cfg, 1)
        grads = np.zeros_like(params.theta)
        dict(params.blocks(grads))["layer1.Vf"][0, 0] = float("nan")
        with pytest.raises(GradientError, match="layer1.Vf"):
            adam_step(params, grads, AdamState.zeros(params), cfg)

    def test_zero_learning_rate_is_identity(self):
        # TrainConfig itself requires lr > 0, so probe the optimizer math
        # directly with a bare config carrying lr = 0
        cfg = SimpleNamespace(learning_rate=0.0)
        params = init_params(TrainConfig(hidden_dims=(3,)), 8)
        state = AdamState.zeros(params)
        grads = np.full_like(params.theta, 0.7)
        current = params
        for _ in range(5):
            current, state = adam_step(current, grads, state, cfg)
        assert np.array_equal(params.theta, current.theta)
        assert state.t == 5


class TestTrainLoop:
    def test_one_step_per_epoch_when_batch_covers_train(self):
        split = tiny_split(n=30)
        cfg = TrainConfig(hidden_dims=(4,), epochs=7, batch_size=500, seed=1)
        _, report = train(split, cfg)
        assert report.optimizer_steps == 7
        assert report.epochs_completed == 7

    def test_batch_count_matches_ceiling_division(self):
        split = tiny_split(n=40)  # 35 windows -> 24 train
        cfg = TrainConfig(hidden_dims=(4,), epochs=3, batch_size=10, seed=1)
        _, report = train(split, cfg)
        assert report.optimizer_steps == 3 * math.ceil(24 / 10)

    def test_window_mismatch_rejected(self):
        split = tiny_split(window=4)
        with pytest.raises(ConfigError):
            train(split, TrainConfig(hidden_dims=(4,), window=5, epochs=1))

    def test_deterministic_runs(self):
        cfg = TrainConfig(hidden_dims=(6,), epochs=5, seed=123)
        p1, r1 = train(tiny_split(), cfg)
        p2, r2 = train(tiny_split(), cfg)
        assert np.array_equal(p1.theta, p2.theta)
        assert r1.train_loss == r2.train_loss
        assert r1.test_rmse == r2.test_rmse

    def test_divergence_guard_reports_last_good_epoch(self):
        split = tiny_split()
        bad_targets = split.train.targets.copy()
        bad_targets[3] = float("nan")
        poisoned = SplitDataset(
            WindowedDataset(
                split.train.windows,
                bad_targets,
                split.train.origin_indices,
                split.train.target_timestamps,
            ),
            split.test,
        )
        cfg = TrainConfig(hidden_dims=(4,), epochs=5, seed=2)
        with pytest.raises(TrainingDivergedError) as err:
            train(poisoned, cfg)
        assert err.value.report is not None
        assert err.value.report.epochs_completed == 0
        assert "last good epoch: 0" in str(err.value)

    def test_sine_overfit_quick_variant(self):
        # 20 training windows of the noiseless sine, single full batch
        series = make_sine_series(34)
        split, _ = prepare_training_data(series, 5)
        assert len(split.train) == 20
        cfg = TrainConfig(hidden_dims=(8,), epochs=500, seed=42)
        _, report = train(split, cfg)
        assert report.train_loss[-1] < 1e-4

    def test_loss_mostly_non_increasing_on_sine(self):
        series = make_sine_series(200)
        split, _ = prepare_training_data(series, 5)
        cfg = TrainConfig(hidden_dims=(8,), epochs=100, seed=42)
        _, report = train(split, cfg)
        losses = report.train_loss
        non_increasing = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
        assert non_increasing >= 95  # strict monotonicity is not guaranteed, 95/100 is

    def test_report_csv_format(self, tmp_path):
        report = TrainReport(train_loss=[0.5, 0.25], test_rmse=[0.4, 0.3])
        path = tmp_path / "r.csv"
        write_report_csv(report, path)
        assert path.read_text() == "epoch,train_loss,test_rmse\n1,0.5,0.4\n2,0.25,0.3\n"

    def test_bce_mode_trains(self):
        split = tiny_split()
        cfg = TrainConfig(hidden_dims=(4,), epochs=3, loss_mode="bce", seed=5)
        params, report = train(split, cfg)
        assert params.loss_mode == "bce"
        assert all(np.isfinite(v) for v in report.train_loss)

    def test_max_grad_norm_caps_gradient_norm(self):
        from prognost.train import _clip_gradients

        params = init_params(TrainConfig(hidden_dims=(3,)), 4)
        grads = np.ones_like(params.theta)
        clipped = _clip_gradients(grads, 0.5)
        total = math.fsum(float(v * v) for v in clipped)
        assert math.sqrt(total) == pytest.approx(0.5, rel=1e-12)
        # training with a clip still converges on a sane setup
        cfg = TrainConfig(hidden_dims=(4,), epochs=3, seed=5, max_grad_norm=1.0)
        _, report = train(tiny_split(), cfg)
        assert all(np.isfinite(v) for v in report.train_loss)

    def test_clipped_nan_gradient_names_its_block(self, monkeypatch):
        # a NaN makes the norm NaN; clipping must not smear it over every block
        def nan_in_vf(m, cache, dldy):
            grads = np.zeros_like(m.theta)
            dict(m.blocks(grads))["layer1.Vf"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(TRAIN, "bptt_backward", nan_in_vf)
        cfg = TrainConfig(hidden_dims=(3,), epochs=1, max_grad_norm=1.0)
        with pytest.raises(GradientError, match="layer1.Vf"):
            train(tiny_split(), cfg)

    @settings(max_examples=12, deadline=None)
    @given(
        dims=st.sampled_from([(4,), (5, 3), (4, 3, 2)]),
        loss_mode=st.sampled_from(["mse", "bce"]),
        max_grad_norm=st.sampled_from([None, 0.05]),
        n=st.integers(20, 50),
        batch_size=st.sampled_from([4, 7, 11]),
        seed=st.integers(0, 1000),
    )
    def test_train_keeps_its_bits_on_any_number_of_cores(
        self, dims, loss_mode, max_grad_norm, n, batch_size, seed
    ):
        # batch sizes that leave a short last batch in most examples
        split = tiny_split(n=n, seed=seed)
        cfg = TrainConfig(hidden_dims=dims, loss_mode=loss_mode, max_grad_norm=max_grad_norm,
                          batch_size=batch_size, epochs=2, seed=seed)
        runs = []
        for cores in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                use_cores(mp, cores)
                params, report = train(split, cfg)
            runs.append((params.theta.tobytes(),
                         np.array(report.train_loss + report.test_rmse).tobytes()))
        assert runs[0] == runs[1] == runs[2]

    def test_parallel_train_under_thread_stress(self, monkeypatch):
        # more workers than cores, switching threads every few microseconds
        split = tiny_split(n=60)
        cfg = TrainConfig(hidden_dims=(6, 4, 3), epochs=2, batch_size=9, seed=2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        serial, _ = train(split, cfg)
        use_cores(monkeypatch, 8)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert train(split, cfg)[0].theta.tobytes() == serial.theta.tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before

    def test_only_bptt_and_predict_start_threads(self, monkeypatch):
        # on two workers of the 128/64 stack the forward pass and Adam run on
        # the calling thread; BPTT hands its weight products to one helper,
        # and predict forwards its second share of 1,000 windows on another
        use_cores(monkeypatch, 2)
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        cfg = TrainConfig()
        params = init_params(cfg, 5)
        rng = np.random.Generator(np.random.PCG64(5))
        counts = {}

        def count(fn, *args):
            before = len(started)
            out = fn(*args)
            counts[fn.__name__] = len(started) - before
            return out

        y, cache = count(forward_windows, params, rng.uniform(-1, 1, size=(50, 5)))
        grads = count(bptt_backward, params, cache, y - 0.5)
        count(adam_step, params, grads, AdamState.zeros(params), cfg)
        count(predict_windows, params, rng.uniform(-1, 1, size=(1000, 5)))
        assert counts == {"forward_windows": 0, "bptt_backward": 1,
                          "adam_step": 0, "predict_windows": 1}

    def test_max_grad_norm_config_file_none(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("max_grad_norm = none\nepochs = 1\n")
        assert parse_config_file(path).max_grad_norm is None
        path.write_text("max_grad_norm = 2.5\n")
        assert parse_config_file(path).max_grad_norm == 2.5


class TestGradCheck:
    def test_zero_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            grad_check(TrainConfig(hidden_dims=(4, 3)), seed=7, eps=0.0)

    def test_reports_every_block(self):
        checks = grad_check(TrainConfig(hidden_dims=(2,)), seed=7, eps=1e-6)
        names = [c.block for c in checks]
        assert names[0] == "layer1.Wi" and names[-1] == "Wr"
        assert len(names) == 13

    @pytest.mark.parametrize("dims, window", [((4, 3), 1), ((4, 3, 2), 5), ((3, 3, 2), 1)])
    def test_gate_holds_at_window_1_and_on_three_layers(self, dims, window):
        # at window 1 step 0, which starts from the zero state, is also the last step
        for mode in ("mse", "bce"):
            checks = grad_check(TrainConfig(hidden_dims=dims, window=window, loss_mode=mode),
                                seed=7, eps=1e-6)
            assert len(checks) == 12 * len(dims) + 1
            assert max(c.max_rel_err for c in checks) < 1e-4, mode

    def test_no_gradient_reaches_v_or_the_forget_gate_at_window_1(self):
        params = init_params(TrainConfig(hidden_dims=(4, 3), window=1), 3)
        y, cache = forward_windows(params, np.array([[0.4], [-0.7], [0.9]]))
        grads = bptt_backward(params, cache, compute_loss(y, np.zeros(3))[1])
        for name, block in params.blocks(grads):
            label = name.rpartition(".")[2]
            assert (label[0] == "V" or label[1:] == "f") == (not block.any()), name

    def test_worst_coordinate_is_reported(self):
        checks = grad_check(TrainConfig(hidden_dims=(2,)), seed=7, eps=1e-6)
        for c in checks:
            assert c.max_rel_err >= 0
            assert isinstance(c.coord, tuple)
