import math

import numpy as np
import pytest

from cqbrain import skullnet
from cqbrain.diffusion import (
    DESK_T,
    NoisePredictor,
    NoisePredictorConfig,
    NoiseSchedule,
    build_schedule,
    forward_jump,
    forward_step,
    sample,
    sinusoidal_embedding,
    train_step,
)
from cqbrain.errors import Diverged, EmptyInput, InvalidArgument
from cqbrain.neuralkernel import Params, make_optimizer
from cqbrain.rng import Rng

from oracles import finite_difference_grad_at, with_float64_params
from synthcorpus import two_blob_images


class _WiredEpsOracle:
    """Test double that reproduces the exact noise from (x_t, t) and x0."""

    def __init__(self, x0: np.ndarray, schedule: NoiseSchedule):
        self.x0 = x0
        self.schedule = schedule

    def forward(self, x_t, ts, keep=True):
        abar = self.schedule.alpha_bars[np.asarray(ts) - 1].astype(np.float64)
        a = np.sqrt(abar).reshape(-1, 1, 1, 1)
        b = np.sqrt(1.0 - abar).reshape(-1, 1, 1, 1)
        return ((x_t - a * self.x0) / b).astype(np.float32)

    def backward(self, dy):
        return Params({})

    def params(self):
        return Params({})


class _ZeroPredictor:
    def forward(self, x_t, ts, keep=True):
        return np.zeros_like(x_t)

    def backward(self, dy):
        return Params({})

    def params(self):
        return Params({})


class TestSchedule:
    def test_single_step(self):
        sched = build_schedule(T=1, beta_start=0.5, beta_end=0.5)
        assert sched.alpha_bars[0] == pytest.approx(0.5)

    def test_thousand_step_schedule_terminal_value(self):
        sched = build_schedule(1000)
        # independent accumulation: plain python product over the same betas
        acc = 1.0
        for i in range(1000):
            acc *= 1.0 - (1e-4 + (0.02 - 1e-4) * i / 999)
        assert sched.alpha_bars[-1] == pytest.approx(acc, rel=1e-9)
        assert acc == pytest.approx(4.0e-5, rel=0.05)
        assert sched.alpha_bars[-1] < 0.01

    def test_abar_strictly_decreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t_count = int(rng.integers(2, 50))
            start = float(rng.uniform(1e-5, 0.4))
            end = float(rng.uniform(start, 0.6))
            sched = build_schedule(t_count, start, end)
            assert (np.diff(sched.alpha_bars) < 0).all()
            assert ((sched.betas > 0) & (sched.betas < 1)).all()
            assert (np.diff(sched.betas) >= -1e-15).all()

    @pytest.mark.parametrize("kwargs", [
        {"T": 0}, {"beta_start": 0.0}, {"beta_start": 0.5, "beta_end": 0.4}, {"beta_end": 1.0},
    ])
    def test_bad_ranges(self, kwargs):
        with pytest.raises(InvalidArgument):
            build_schedule(**{"T": 10, "beta_start": 1e-4, "beta_end": 0.02, **kwargs})

    def test_timestep_bounds(self):
        sched = build_schedule(T=5)
        with pytest.raises(InvalidArgument):
            sched.at(0)
        with pytest.raises(InvalidArgument):
            sched.at(6)


class TestForwardProcess:
    def test_zero_beta_is_identity(self):
        sched = NoiseSchedule(3, 0.0, 0.0)
        x = np.random.default_rng(0).random((4, 4)).astype(np.float32)
        assert np.array_equal(forward_step(x, 2, sched, Rng(1)), x)

    def test_beta_one_is_pure_draw(self):
        sched = NoiseSchedule(1, 1.0, 1.0)
        out = forward_step(np.zeros((3, 3), np.float32), 1, sched, Rng(2))
        expected = Rng(2).normal((3, 3)).astype(np.float32)
        assert np.array_equal(out, expected)

    def test_step_moments(self):
        sched = build_schedule(T=10, beta_start=0.3, beta_end=0.3)
        x_prev = np.full((2, 2), 0.8, np.float32)
        rng = Rng(3)
        draws = np.stack([forward_step(x_prev, 4, sched, rng) for _ in range(10_000)])
        alpha = 0.7
        se_mean = math.sqrt(1.0 - alpha) / math.sqrt(draws.size)
        assert abs(draws.mean() - math.sqrt(alpha) * 0.8) <= 3.0 * se_mean
        var = draws.var()
        se_var = (1.0 - alpha) * math.sqrt(2.0 / draws.size)
        assert abs(var - (1.0 - alpha)) <= 3.0 * se_var

    def test_jump_degenerate_identity(self):
        sched = NoiseSchedule(4, 0.0, 0.0)
        x0 = np.random.default_rng(1).random((3, 3)).astype(np.float32)
        x_t, _ = forward_jump(x0, 4, sched, Rng(4))
        assert np.array_equal(x_t, x0)

    def test_jump_from_zero_image(self):
        sched = build_schedule(T=8, beta_start=0.2, beta_end=0.2)
        x_t, eps = forward_jump(np.zeros((5, 5), np.float32), 8, sched, Rng(5))
        abar = float(sched.alpha_bars[-1])
        assert np.allclose(x_t, np.float32(math.sqrt(1.0 - abar)) * eps)

    @pytest.mark.parametrize("shape", [(6, 5, 5), (3, 1, 4, 4), (4, 4)])
    def test_scalar_timestep_is_the_same_timestep_for_every_item(self, shape):
        sched = build_schedule(T=20)
        x0 = np.random.default_rng(3).random(shape).astype(np.float32)
        one = forward_jump(x0, 13, sched, Rng(8))
        each = forward_jump(x0, np.full(shape[0], 13), sched, Rng(8))
        assert one[0].tobytes() == each[0].tobytes() and one[1].tobytes() == each[1].tobytes()

    def test_jump_matches_iterated_steps_in_distribution(self):
        # first two moments over 10^4 trials at t=5 on 2x2 images, 3 SE bound
        sched = build_schedule(T=5, beta_start=0.05, beta_end=0.3)
        x0 = np.array([[0.9, -0.4], [0.2, 0.6]], np.float32)
        trials = 10_000
        rng_a, rng_b = Rng(6), Rng(7)
        jumps = np.stack([forward_jump(x0, 5, sched, rng_a)[0] for _ in range(trials)])
        iterated = []
        for _ in range(trials):
            x = x0
            for t in range(1, 6):
                x = forward_step(x, t, sched, rng_b)
            iterated.append(x)
        iterated = np.stack(iterated)
        abar = float(sched.alpha_bars[-1])
        se_mean = math.sqrt(1.0 - abar) / math.sqrt(trials)
        assert np.abs(jumps.mean(axis=0) - iterated.mean(axis=0)).max() <= 6.0 * se_mean
        se_var = (1.0 - abar) * math.sqrt(2.0 / trials)
        assert np.abs(jumps.var(axis=0) - iterated.var(axis=0)).max() <= 6.0 * se_var

    def test_bad_timestep(self):
        sched = build_schedule(T=3)
        with pytest.raises(InvalidArgument):
            forward_step(np.zeros((2, 2)), 4, sched, Rng(0))
        with pytest.raises(InvalidArgument):
            forward_jump(np.zeros((2, 2)), 0, sched, Rng(0))

    def test_randomness_comes_only_from_stream(self):
        sched = build_schedule(T=4)
        x0 = np.random.default_rng(2).random((4, 4)).astype(np.float32)
        a = forward_jump(x0, 3, sched, Rng(11))
        b = forward_jump(x0, 3, sched, Rng(11))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestPredictor:
    def test_output_shape_matches_input(self):
        for size, widths in ((8, (4, 8)), (16, (4, 8, 16))):
            pred = NoisePredictor(NoisePredictorConfig(size, widths, 8), Rng(0))
            x = np.random.default_rng(0).random((3, 1, size, size)).astype(np.float32)
            assert pred.forward(x, 5).shape == x.shape

    def test_config_checks_emb_dim_and_size(self):
        with pytest.raises(InvalidArgument):
            NoisePredictorConfig(8, (4, 8), 7)
        with pytest.raises(InvalidArgument):
            NoisePredictorConfig(6, (2, 4, 8), 8)

    def test_distinct_timesteps_change_output(self):
        pred = NoisePredictor(NoisePredictorConfig(8, (4, 8), 8), Rng(1))
        x = np.random.default_rng(1).random((1, 1, 8, 8)).astype(np.float32)
        out_a = pred.forward(x, 1)
        out_b = pred.forward(x, 150)
        assert not np.allclose(out_a, out_b)

    def test_embedding_shape_and_range(self):
        emb = sinusoidal_embedding(np.array([1, 10, 100]), 12)
        assert emb.shape == (3, 12)
        assert np.abs(emb).max() <= 1.0
        with pytest.raises(InvalidArgument):
            sinusoidal_embedding(np.array([1]), 7)

    def test_gradients_match_finite_differences_4x4(self):
        pred = NoisePredictor(NoisePredictorConfig(4, (2, 4), 8), Rng(2))
        with_float64_params(pred.unet)
        rng = np.random.default_rng(3)
        x = rng.random((2, 1, 4, 4))
        ts = np.array([1, 3])
        up = rng.standard_normal((2, 1, 4, 4))
        pred.forward(x, ts)
        grads = pred.backward(up)

        def loss(_):
            return float((pred.forward(x, ts) * up).sum())

        for name, param in pred.params().items():
            idxs = rng.choice(param.size, size=min(param.size, 25), replace=False)
            numeric = finite_difference_grad_at(loss, param, idxs, h_scale=1e-5)
            flat = np.asarray(grads[name]).reshape(-1)
            for i, val in numeric.items():
                assert abs(flat[i] - val) <= 1e-3 * max(1.0, abs(val), abs(flat[i])), f"{name}[{i}]"


    def test_backward_skips_the_unet_input_gradient(self, monkeypatch):
        flags = []
        real = skullnet.conv2d_backward

        def spy(dy, x, w, *args, **kwargs):
            flags.append(kwargs.get("input_grad", True))
            return real(dy, x, w, *args, **kwargs)

        monkeypatch.setattr(skullnet, "conv2d_backward", spy)
        pred = NoisePredictor(NoisePredictorConfig(8, (2, 4), 8), Rng(0))
        x = np.random.default_rng(0).random((2, 1, 8, 8)).astype(np.float32)
        pred.forward(x, 3)
        grads = pred.backward(np.ones_like(x))
        assert flags.count(False) == 1 and flags[-1] is False and set(grads) == set(pred.params())


class TestTrainStep:
    def test_wired_oracle_scores_zero(self):
        sched = build_schedule(T=20)
        x0 = two_blob_images(8, 8, seed=0)
        oracle = _WiredEpsOracle(x0[:, None], sched)
        loss = train_step(oracle, x0, sched, make_optimizer("adam"), Rng(1))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_zero_predictor_scores_pixel_count(self):
        sched = build_schedule(T=50)
        rng = Rng(2)
        x0 = np.zeros((512, 4, 4), np.float32)
        loss = train_step(_ZeroPredictor(), x0, sched, make_optimizer("adam"), rng)
        npix = 16
        se = npix * math.sqrt(2.0 / (512 * npix))  # chi-square mean spread
        assert abs(loss - npix) <= 4.0 * se

    def test_empty_batch_rejected(self):
        sched = build_schedule(T=5)
        with pytest.raises(EmptyInput):
            train_step(_ZeroPredictor(), np.zeros((0, 4, 4)), sched, make_optimizer("adam"), Rng(0))

    def test_non_finite_loss_leaves_the_parameters_alone(self):
        pred = NoisePredictor(NoisePredictorConfig(16, (2, 4), 8), Rng(0))
        pred.params()["temb_b"][0] = np.nan
        before = pred.params().flat.copy()
        opt = make_optimizer("adam")
        loss = train_step(pred, two_blob_images(2, 16, seed=1), build_schedule(T=5), opt, Rng(0))
        assert math.isnan(loss)
        assert np.array_equal(pred.params().flat, before, equal_nan=True)
        assert opt.t == 0

    def test_loss_halves_on_tiny_corpus(self):
        sched = build_schedule(DESK_T)
        train = two_blob_images(32, 8, seed=3)
        pred = NoisePredictor(NoisePredictorConfig(8, (8, 16), 16), Rng(3))
        opt = make_optimizer("adam", lr=2e-3)
        rng = Rng(4)
        losses = []
        for epoch in range(120):
            order = rng.derive(f"ep{epoch}").permutation(len(train))
            batch_losses = [
                train_step(pred, train[order[b : b + 16]], sched, opt, rng.derive(f"s{epoch}:{b}"))
                for b in range(0, len(train), 16)
            ]
            losses.append(float(np.mean(batch_losses)))
        assert losses[-1] <= 0.5 * losses[0]


class TestSampling:
    def test_single_step_formula(self):
        sched = build_schedule(T=1, beta_start=0.5, beta_end=0.5)
        out = sample(_ZeroPredictor(), sched, (3, 3), Rng(5), count=2)
        x_t = Rng(5).derive("x_T").normal((2, 1, 3, 3)).astype(np.float32)
        expected = (np.clip(x_t[:, 0] / np.float32(math.sqrt(0.5)), -1, 1) + 1) / 2
        assert np.allclose(out, expected)

    def test_fixed_seed_bit_identical(self):
        sched = build_schedule(T=10)
        pred = NoisePredictor(NoisePredictorConfig(8, (4, 8), 8), Rng(6))
        a = sample(pred, sched, (8, 8), Rng(7), count=3)
        b = sample(pred, sched, (8, 8), Rng(7), count=3)
        assert np.array_equal(a, b)

    def test_output_range(self):
        sched = build_schedule(T=5)
        out = sample(_ZeroPredictor(), sched, (4, 4), Rng(8), count=4)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_non_finite_step_raises_diverged_naming_the_first_such_timestep(self):
        class NanFromStep4(_ZeroPredictor):
            def forward(self, x_t, t, keep=True):
                return np.full_like(x_t, np.nan if t <= 4 else 0.0)

        with pytest.raises(Diverged, match="sampling diverged at timestep 4 of 10: the images are not finite"):
            sample(NanFromStep4(), build_schedule(T=10), (4, 4), Rng(8), count=2)

    def test_overflowing_denoiser_raises_diverged(self):
        pred = NoisePredictor(NoisePredictorConfig(8, (4, 8), 8), Rng(6))
        pred.params().flat[...] *= np.float32(1e15)
        with np.errstate(all="ignore"), pytest.raises(Diverged, match="at timestep 10 of 10"):
            sample(pred, build_schedule(T=10), (8, 8), Rng(7), count=3)


class TestTerminalMoments:
    def test_standardized_image_becomes_unit_noise(self):
        # desk schedule: x_T from a standardized image keeps mean ~0, std ~1
        sched = build_schedule(DESK_T)
        rng_img = np.random.default_rng(9)
        img = rng_img.standard_normal((2, 2)).astype(np.float32)
        img = (img - img.mean()) / img.std()
        draws = forward_jump(np.tile(img, (10_000, 1, 1)), DESK_T, sched, Rng(10))[0]
        assert abs(float(draws.mean())) <= 0.05
        assert 0.9 <= float(draws.std()) <= 1.1
