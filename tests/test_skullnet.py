import tracemalloc
import weakref

import numpy as np
import pytest

from cqbrain.errors import Diverged, EmptyInput, InvalidArgument
from cqbrain.diffusion import NoisePredictor, NoisePredictorConfig, build_schedule, sample
from cqbrain.neuralkernel import dice_iou, make_optimizer
from cqbrain.rng import Rng
from cqbrain import skullnet
from cqbrain.skullnet import (
    FULL_WIDTHS,
    MaskPair,
    UNet,
    UNetConfig,
    seg_scores,
    segment_many,
    segmentation_loss,
    train_segmenter,
)

from oracles import (
    finite_difference_grad,
    finite_difference_grad_at,
    grads_close,
    segmentation_loss_per_item,
    with_float64_params,
)
from synthcorpus import annulus_corpus


def _f64_model(cfg: UNetConfig, seed: int) -> UNet:
    """Model with float64 parameters: FD checks run at full precision."""
    return with_float64_params(UNet(cfg, Rng(seed)))


class TestConfig:
    def test_full_plan(self):
        cfg = UNetConfig()
        assert cfg.widths == FULL_WIDTHS == (32, 64, 128, 256, 512)
        assert cfg.depth == 5
        assert cfg.widths[-1] == 512

    def test_width_scale_eighth(self):
        cfg = UNetConfig(input_size=64, width_scale=1 / 8)
        assert cfg.widths == (4, 8, 16, 32, 64)

    def test_width_scale_is_not_kept(self):
        # the scale is spent on the widths; no attribute answers with a stale 1.0
        cfg = UNetConfig(input_size=64, width_scale=1 / 8)
        with pytest.raises(AttributeError):
            cfg.width_scale

    def test_width_scale_floor_at_one(self):
        cfg = UNetConfig(input_size=32, widths=(4, 8), width_scale=1 / 16)
        assert cfg.widths == (1, 1)

    def test_indivisible_input_rejected(self):
        with pytest.raises(InvalidArgument):
            UNetConfig(input_size=100)  # not a multiple of 16
        with pytest.raises(InvalidArgument):
            UNetConfig(input_size=8)

    def test_single_level_rejected(self):
        with pytest.raises(InvalidArgument):
            UNetConfig(input_size=16, widths=(8,))

    @pytest.mark.parametrize("widths", [(0, 4), (4, -2)])
    def test_channel_counts_below_one_rejected(self, widths):
        with pytest.raises(InvalidArgument, match="channel counts must be >= 1"):
            UNetConfig(input_size=16, widths=widths)


class TestForward:
    def test_full_width_parameter_plan(self):
        model = UNet(UNetConfig(), Rng(0))
        assert model.params()["enc0_c1_w"].shape == (32, 1, 3, 3)
        assert model.params()["enc4_c2_w"].shape == (512, 512, 3, 3)
        assert model.params()["up0_w"].shape == (64, 32, 2, 2)
        assert model.params()["dec0_c1_w"].shape == (32, 64, 3, 3)
        assert model.params()["head_w"].shape == (1, 32, 1, 1)

    @pytest.mark.parametrize("size,scale", [(64, 0.125), (32, 0.25), (16, 1 / 16)])
    def test_output_shape_equals_input(self, size, scale):
        model = UNet(UNetConfig(input_size=size, width_scale=scale), Rng(1))
        x = np.random.default_rng(0).random((2, 1, size, size)).astype(np.float32)
        assert model.forward(x).shape == (2, 1, size, size)

    def test_width_scale_changes_channels_not_shape(self):
        for scale in (1 / 8, 1 / 4):
            model = UNet(UNetConfig(input_size=32, width_scale=scale), Rng(2))
            x = np.random.default_rng(1).random((1, 1, 32, 32)).astype(np.float32)
            assert model.forward(x).shape == (1, 1, 32, 32)

    def test_one_image_apply_shapes(self):
        model = UNet(UNetConfig(input_size=32, width_scale=0.125), Rng(3))
        img = np.random.default_rng(2).random((32, 32)).astype(np.float32)
        mask, stripped = next(segment_many(model, [img]))
        assert mask.shape == stripped.shape == (32, 32)
        with pytest.raises(InvalidArgument):
            next(segment_many(model, [np.zeros((1, 32, 32), np.float32)]))

    def test_wrong_input_shape_rejected(self):
        model = UNet(UNetConfig(input_size=32, width_scale=0.125), Rng(4))
        with pytest.raises(InvalidArgument):
            model.forward(np.zeros((1, 1, 16, 16), np.float32))
        with pytest.raises(InvalidArgument):
            model.forward(np.zeros((1, 2, 32, 32), np.float32))

    def test_bottleneck_add_requires_matching_channels(self):
        cfg = UNetConfig(input_size=16, widths=(2, 4))
        model = UNet(cfg, Rng(5))
        x = np.zeros((1, 1, 16, 16), np.float32)
        with pytest.raises(InvalidArgument):
            model.forward(x, bottleneck_add=np.zeros((1, 3), np.float32))

    def test_float64_bottleneck_vector_widens_the_decoder(self):
        # the decoder input takes the wider of the upsampled maps and the float32 skip, as a concatenation would
        cfg = UNetConfig(input_size=16, widths=(2, 4))
        model = UNet(cfg, Rng(5))
        x = np.random.default_rng(5).random((2, 1, 16, 16)).astype(np.float32)
        logits = model.forward(x, bottleneck_add=np.ones((2, 4)))
        assert logits.dtype == np.float64 and model._cache["cat0"].dtype == np.float64
        assert model._cache["enc0_c2"].dtype == np.float32


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_tiny_config_matches_finite_differences(self, seed):
        # 16x16 input, 1/16 width scale; f64 parameters keep FD noise ~1e-9
        cfg = UNetConfig(input_size=16, width_scale=1 / 16)
        model = _f64_model(cfg, seed)
        rng = np.random.default_rng(seed)
        x = rng.random((1, 1, 16, 16))
        up = rng.standard_normal((1, 1, 16, 16))
        model.forward(x)
        grads, _ = model.backward(up)

        def loss(_):
            return float((model.forward(x) * up).sum())

        for name, param in model.params().items():
            k = min(param.size, 30)
            idxs = rng.choice(param.size, size=k, replace=False)
            numeric = finite_difference_grad_at(loss, param, idxs, h_scale=1e-5)
            analytic = np.asarray(grads[name]).reshape(-1)
            for i, val in numeric.items():
                assert abs(analytic[i] - val) <= 1e-3 * max(1.0, abs(val), abs(analytic[i])), (
                    f"{name}[{i}]: analytic {analytic[i]} vs numeric {val}")

    def test_bottleneck_vector_gradient(self):
        cfg = UNetConfig(input_size=16, widths=(2, 4))
        model = _f64_model(cfg, 7)
        rng = np.random.default_rng(7)
        x = rng.random((2, 1, 16, 16))
        up = rng.standard_normal((2, 1, 16, 16))
        badd = rng.standard_normal((2, cfg.widths[-1]))
        model.forward(x, bottleneck_add=badd)
        _, dba = model.backward(up)

        def loss(_):
            return float((model.forward(x, bottleneck_add=badd) * up).sum())

        num = finite_difference_grad(loss, badd, h_scale=1e-5)
        assert grads_close(dba, num, 1e-3)


class TestSkippedInputGradient:
    @pytest.mark.parametrize("use_add", [False, True])
    def test_parameter_grads_match_a_backward_that_computes_every_input_gradient(self, use_add, monkeypatch):
        cfg = UNetConfig(input_size=16, widths=(2, 4, 8))
        model = UNet(cfg, Rng(4))
        rng = np.random.default_rng(4)
        x = rng.random((3, 1, 16, 16)).astype(np.float32)
        up = rng.standard_normal((3, 1, 16, 16)).astype(np.float32)
        badd = rng.standard_normal((3, cfg.widths[-1])).astype(np.float32) if use_add else None
        model.forward(x, bottleneck_add=badd)
        skipped, dba = model.backward(up)
        real = skullnet.conv2d_backward
        monkeypatch.setattr(skullnet, "conv2d_backward",
                            lambda *args, **kwargs: real(*args, **{**kwargs, "input_grad": True}))
        model.forward(x, bottleneck_add=badd)  # backward used up the first forward's cache
        full, dba_full = model.backward(up)
        assert full.keys() == skipped.keys()
        assert all(np.array_equal(full[k], skipped[k]) for k in full)
        assert (dba is None) == (dba_full is None) == (not use_add)
        if use_add:
            assert np.array_equal(dba, dba_full)

    def test_only_the_first_conv_skips_its_input_gradient(self, monkeypatch):
        calls = []
        real = skullnet.conv2d_backward

        def spy(dy, x, w, *args, **kwargs):
            calls.append(kwargs.get("input_grad", True))
            return real(dy, x, w, *args, **kwargs)

        monkeypatch.setattr(skullnet, "conv2d_backward", spy)
        model = UNet(UNetConfig(input_size=16, widths=(2, 4)), Rng(0))
        model.forward(np.zeros((1, 1, 16, 16), np.float32))
        model.backward(np.ones((1, 1, 16, 16), np.float32))
        assert calls.count(False) == 1 and calls[-1] is False  # enc0_c1 runs last

    def test_training_skips_the_input_gradient(self, monkeypatch):
        flags = []
        real = skullnet.conv2d_backward

        def spy(dy, x, w, *args, **kwargs):
            flags.append(kwargs.get("input_grad", True))
            return real(dy, x, w, *args, **kwargs)

        monkeypatch.setattr(skullnet, "conv2d_backward", spy)
        model = UNet(UNetConfig(input_size=16, widths=(2, 4)), Rng(0))
        train_segmenter(model, annulus_corpus(3, 16, seed=1), epochs=1,
                        optimizer=make_optimizer("adam"), seed=0, batch_size=2)
        assert flags.count(False) == 2  # one first conv per batch


class TestActivationLifetime:
    """forward keeps each activation once; backward uses the cache up; inference keeps none."""

    @staticmethod
    def _batch(cfg: UNetConfig, n: int = 2, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        shape = (n, 1, cfg.input_size, cfg.input_size)
        return rng.random(shape).astype(np.float32), rng.standard_normal(shape).astype(np.float32)

    def test_forward_keeps_relu_outputs_not_conv_outputs(self):
        cfg = UNetConfig(input_size=16, widths=(2, 4, 8))
        model = UNet(cfg, Rng(0))
        x, _ = self._batch(cfg)
        model.forward(x)
        convs = [f"{part}{lvl}_{stage}" for lvl in range(3) for part in ("enc", "dec")
                 for stage in ("c1", "c2") if part == "enc" or lvl < 2]
        assert set(model._cache) == {"x", "add", "bottleneck", "pool0", "pool1", "cat0", "cat1", *convs}
        for key in convs:
            assert (model._cache[key] >= 0).all()  # ReLU outputs; no conv output is kept beside them

    def test_each_activation_is_kept_once(self):
        cfg = UNetConfig(input_size=16, widths=(2, 4, 8))
        model = UNet(cfg, Rng(0))
        x, _ = self._batch(cfg)
        model.forward(x)
        cache = model._cache
        # a skip is the second half of its level's decoder input, not a copy of it
        shared = {frozenset(("enc0_c2", "cat0")), frozenset(("enc1_c2", "cat1")),
                  frozenset(("enc2_c2", "bottleneck"))}  # no bottleneck vector: the same array
        for lvl, width in enumerate(cfg.widths[:-1]):
            assert np.array_equal(cache[f"cat{lvl}"][:, width:], cache[f"enc{lvl}_c2"])
        keys = [k for k, v in cache.items() if isinstance(v, np.ndarray)]
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                assert np.shares_memory(cache[a], cache[b]) == (frozenset((a, b)) in shared), (a, b)

    @pytest.mark.parametrize("use_add", [False, True])
    def test_backward_frees_each_activation_once_read(self, use_add, monkeypatch):
        cfg = UNetConfig(input_size=16, widths=(2, 4, 8))
        model = UNet(cfg, Rng(1))
        x, up = self._batch(cfg, n=3, seed=2)
        model.forward(x, bottleneck_add=np.ones((3, cfg.widths[-1]), np.float32) if use_add else None)
        refs = {k: weakref.ref(v) for k, v in model._cache.items() if isinstance(v, np.ndarray)}
        del x
        alive = []
        real = skullnet.conv2d_backward

        def spy(*args, **kwargs):
            alive.append({k for k, ref in refs.items() if ref() is not None})
            return real(*args, **kwargs)

        monkeypatch.setattr(skullnet, "conv2d_backward", spy)
        model.backward(up)
        assert all(later <= earlier for earlier, later in zip(alive, alive[1:]))
        assert alive[-1] == {"x"}  # the first conv's input, read by the last call
        assert not any(ref() is not None for ref in refs.values())
        assert model._cache is None

    def test_second_backward_needs_a_new_forward(self):
        cfg = UNetConfig(input_size=16, widths=(2, 4))
        model = UNet(cfg, Rng(2))
        x, up = self._batch(cfg)
        with pytest.raises(InvalidArgument, match="backward needs a forward"):
            model.backward(up)
        model.forward(x)
        first, _ = model.backward(up)
        with pytest.raises(InvalidArgument, match="backward needs a forward"):
            model.backward(up)
        model.forward(x)
        again, _ = model.backward(up)
        assert all(np.array_equal(first[k], again[k]) for k in first)

    def test_inference_keeps_no_cache(self):
        cfg = UNetConfig(input_size=16, widths=(2, 4))
        model = UNet(cfg, Rng(3))
        x, _ = self._batch(cfg)
        logits = model.forward(x, keep=False)
        assert model._cache is None
        list(segment_many(model, list(x[:, 0])))
        assert model._cache is None
        assert np.array_equal(logits, model.forward(x))  # the same code, with or without a cache

    def test_inference_between_forward_and_backward_changes_no_gradient(self):
        cfg = UNetConfig(input_size=16, widths=(2, 4, 8))
        model = UNet(cfg, Rng(4))
        x, up = self._batch(cfg, seed=4)
        model.forward(x)
        want, _ = model.backward(up)
        model.forward(x)
        list(segment_many(model, list(np.flip(x, axis=-1)[:, 0])))
        got, _ = model.backward(up)
        assert all(np.array_equal(want[k], got[k]) for k in want)

    def test_sampling_leaves_no_activation_in_the_denoiser(self):
        predictor = NoisePredictor(NoisePredictorConfig(8, (4, 8), 8), Rng(6))
        sample(predictor, build_schedule(T=3), (8, 8), Rng(7), count=2)
        assert predictor.unet._cache is None and predictor._emb is None
        with pytest.raises(InvalidArgument, match="backward needs a forward"):
            predictor.backward(np.zeros((2, 1, 8, 8), np.float32))


class TestMemory:
    """One batch-8 training step of the segment workload's U-Net (64 px, width 1/8) under tracemalloc."""

    # measured 7.59 MB (the loss's float64 temporaries on top of a 5.36 MB forward cache);
    # a forward that cached each conv output beside its ReLU copy and a concatenated skip peaked at 15.2 MB
    STEP_PEAK_BYTES = 8_500_000

    def test_training_step_peak_and_what_stays(self):
        model = UNet(UNetConfig(input_size=64, width_scale=1 / 8), Rng(0))
        rng = np.random.default_rng(0)
        imgs = rng.random((8, 1, 64, 64)).astype(np.float32)
        masks = (rng.random((8, 1, 64, 64)) > 0.5).astype(np.float32)
        optimizer = make_optimizer("adam")

        def step():
            _, dz = segmentation_loss(model.forward(imgs), masks)
            optimizer.step(model.params(), model.backward(dz)[0])

        step()  # warm-up: the conv workspace and the optimizer's moments
        list(segment_many(model, list(imgs[:, 0])))
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.STEP_PEAK_BYTES
        assert model._cache is None
        list(segment_many(model, list(imgs[:, 0])))
        assert model._cache is None


class TestLoss:
    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = rng.standard_normal((2, 5, 5)) * 3
            mask = (rng.random((2, 5, 5)) > 0.5).astype(np.float32)
            loss, _ = segmentation_loss(logits, mask)
            assert loss >= 0.0

    def test_perfect_prediction_loss_near_zero(self):
        mask = np.zeros((1, 8, 8), np.float32)
        mask[0, 2:6, 2:6] = 1.0
        logits = np.where(mask > 0, 30.0, -30.0)
        loss, _ = segmentation_loss(logits, mask)
        assert loss < 1e-3

    @pytest.mark.parametrize("n", [1, 3])
    def test_gradient_matches_finite_differences(self, n):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((n, 6, 6))
        mask = (rng.random((n, 6, 6)) > 0.4).astype(np.float64)
        _, dz = segmentation_loss(logits, mask)
        num = finite_difference_grad(lambda _: segmentation_loss(logits, mask)[0], logits, h_scale=1e-5)
        assert dz.shape == logits.shape
        assert grads_close(dz, num, 1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgument):
            segmentation_loss(np.zeros((1, 4, 4)), np.zeros((1, 5, 5)))

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("shape", [(13, 11), (1, 16, 16)])
    def test_batched_dice_equals_the_per_item_loop(self, n, shape):
        rng = np.random.default_rng(10 + n)
        logits = (rng.standard_normal((n, *shape)) * 4).astype(np.float32)
        mask = (rng.random((n, *shape)) > 0.6).astype(np.float32)
        loss, dz = segmentation_loss(logits, mask)
        want_loss, want_dz = segmentation_loss_per_item(logits, mask)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert dz.tobytes() == want_dz.tobytes()


class TestTraining:
    def test_single_pair_memorization(self):
        pairs = annulus_corpus(1, 32, seed=0)
        model = UNet(UNetConfig(input_size=32, width_scale=0.125), Rng(0))
        optimizer = make_optimizer("adam", lr=3e-3)
        for epoch in range(80):
            (report,) = train_segmenter(model, pairs, epochs=1, optimizer=optimizer, seed=epoch, batch_size=1)
            if report.dice >= 0.99:
                break
        assert report.dice >= 0.99

    def test_all_background_masks_drive_empty_predictions(self):
        rng = np.random.default_rng(3)
        pairs = [MaskPair(rng.random((16, 16)).astype(np.float32), np.zeros((16, 16))) for _ in range(4)]
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(1))
        reports = train_segmenter(model, pairs, epochs=40, optimizer=make_optimizer("adam", lr=3e-3),
                                  seed=1, batch_size=4)
        assert reports[-1].loss < reports[0].loss
        predicted = [mask.mean() for mask, _ in segment_many(model, [p.image for p in pairs])]
        assert max(predicted) <= 0.02

    def test_rising_dice_curve_on_annulus_corpus(self):
        pairs = annulus_corpus(16, 32, seed=4)
        model = UNet(UNetConfig(input_size=32, width_scale=0.125), Rng(2))
        reports = train_segmenter(model, pairs, epochs=18, optimizer=make_optimizer("adam", lr=3e-3),
                                  seed=2, batch_size=8)
        dices = [r.dice for r in reports]
        assert dices[-1] >= 0.75
        assert np.mean(dices[-3:]) > np.mean(dices[:3])

    def test_deterministic_training(self):
        def run():
            model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(9))
            reports = train_segmenter(model, annulus_corpus(4, 16, seed=5), epochs=3,
                                      optimizer=make_optimizer("adam", lr=1e-3), seed=9)
            return [(r.loss, r.dice, r.iou) for r in reports], {k: v.copy() for k, v in model.params().items()}

        (r1, p1), (r2, p2) = run(), run()
        assert r1 == r2
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_non_finite_loss_raises_diverged(self):
        model = UNet(UNetConfig(input_size=16, widths=(2, 4)), Rng(0))
        model.params()["head_b"][0] = np.nan
        before = {k: v.copy() for k, v in model.params().items()}
        with pytest.raises(Diverged, match=r"epoch 0, shuffled position 0 \(dataset index 0\): loss is nan"):
            train_segmenter(model, annulus_corpus(3, 16, seed=1), epochs=2,
                            optimizer=make_optimizer("adam"), seed=0, batch_size=2)
        assert all(np.array_equal(before[k], v, equal_nan=True) for k, v in model.params().items())

    def test_empty_pairs_rejected(self):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(0))
        with pytest.raises(EmptyInput):
            train_segmenter(model, [], epochs=1, optimizer=make_optimizer("adam"), seed=0)


class TestApply:
    def test_forced_full_mask_returns_image(self):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(4))
        model.params()["head_w"][...] = 0.0
        model.params()["head_b"][...] = 50.0
        img = np.random.default_rng(6).random((16, 16)).astype(np.float32)
        mask, stripped = next(segment_many(model, [img]))
        assert mask.all()
        assert np.array_equal(stripped, img)

    def test_forced_empty_mask_returns_zeros(self):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(4))
        model.params()["head_w"][...] = 0.0
        model.params()["head_b"][...] = -50.0
        img = np.random.default_rng(7).random((16, 16)).astype(np.float32)
        mask, stripped = next(segment_many(model, [img]))
        assert not mask.any()
        assert not stripped.any()

    def test_stripped_never_exceeds_original(self):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(5))
        img = np.random.default_rng(8).random((16, 16)).astype(np.float32)
        _, stripped = next(segment_many(model, [img]))
        assert (stripped <= img + 1e-7).all()

    @pytest.mark.parametrize("size, width_scale", [(16, 0.25), (64, 0.125)])
    def test_chunked_apply_equals_per_image_apply(self, size, width_scale):
        model = UNet(UNetConfig(input_size=size, width_scale=width_scale), Rng(7))
        rng = np.random.default_rng(10)
        images = [rng.random((size, size)).astype(np.float32) for _ in range(2 * skullnet.APPLY_CHUNK + 3)]
        chunked = list(segment_many(model, images))
        assert len(chunked) == len(images)
        for img, (mask, stripped) in zip(images, chunked):
            want = (model.forward(img[None, None])[0, 0] >= 0.0).astype(np.float32)
            assert np.array_equal(mask, want)
            assert np.array_equal(stripped, img * want)

    def test_non_finite_logits_raise_diverged_naming_the_image(self):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(4))
        rng = np.random.default_rng(11)
        images = [rng.random((16, 16)).astype(np.float32) for _ in range(skullnet.APPLY_CHUNK + 3)]
        bad = skullnet.APPLY_CHUNK + 1  # in the second chunk
        images[bad][5, 5] = np.inf
        results = segment_many(model, images)
        for _ in range(skullnet.APPLY_CHUNK):  # the first chunk is finite
            next(results)
        with np.errstate(invalid="ignore"), pytest.raises(Diverged, match=f"at image {bad}: its logits are not finite"):
            next(results)

    @pytest.mark.parametrize("count", [1, 9, 17])
    def test_scores_are_the_mean_of_one_image_scores(self, count):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(8))
        pairs = annulus_corpus(count, 16, seed=12)
        one_image = [dice_iou(next(segment_many(model, [p.image]))[0], p.mask) for p in pairs]
        dice, iou = seg_scores(model, pairs)
        assert dice == float(np.mean([d for d, _ in one_image]))
        assert iou == float(np.mean([j for _, j in one_image]))

    def test_mask_pair_validation(self):
        with pytest.raises(InvalidArgument):
            MaskPair(np.zeros((4, 4)), np.zeros((5, 5)))
        pair = MaskPair(np.zeros((4, 4)), np.full((4, 4), 0.7))
        assert set(np.unique(pair.mask)) <= {0.0, 1.0}

    def test_binarized_scores_satisfy_iou_identity(self):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(6))
        pairs = annulus_corpus(3, 16, seed=9)
        for pair in pairs:
            mask, _ = next(segment_many(model, [pair.image]))
            dice, iou = dice_iou(mask, pair.mask)
            if dice < 2.0:  # identity holds whenever defined
                assert iou == pytest.approx(dice / (2.0 - dice))
