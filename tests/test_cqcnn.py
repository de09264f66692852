import math
import sys
import tracemalloc

import numpy as np
import pytest

from cqbrain import cqcnn
from cqbrain.cqcnn import (
    HEAD_CLASSICAL,
    HEAD_QUANTUM,
    CqcnnConfig,
    CqcnnModel,
    backward,
    evaluate,
    param_count,
    train_epoch,
)
from cqbrain.errors import Diverged, EmptyInput, InvalidArgument
from cqbrain.neuralkernel import ConfusionCounts, cross_entropy, make_optimizer, ops
from cqbrain.rng import Rng

from oracles import finite_difference_grad, grads_close, reference_step


def _toy_dataset(n_per_class: int, size: int = 16) -> list:
    return [(np.zeros((size, size), np.float32), 0),
            (np.ones((size, size), np.float32), 1)] * n_per_class


def _small_config(**over) -> CqcnnConfig:
    defaults = dict(image_size=16, n_qubits=2, dropout_rate=0.0, seed=0)
    defaults.update(over)
    return CqcnnConfig(**defaults)


class TestShapesAndCounts:
    def test_full_size_shape_trace(self):
        trace = CqcnnConfig(image_size=128).shape_trace()
        assert trace["conv1"] == (2, 124, 124)
        assert trace["pool1"] == (2, 62, 62)
        assert trace["conv2"] == (4, 58, 58)
        assert trace["pool2"] == (4, 29, 29)
        assert trace["flat"] == (3364,)

    def test_matched_size_count_is_13721(self):
        cfg = CqcnnConfig.matched_size(n_qubits=3)
        assert param_count(cfg) == 13_721
        assert 13_400 <= param_count(cfg) <= 14_000
        assert param_count(CqcnnConfig.matched_size(n_qubits=2)) == 13_720

    def test_fc_width_3_count_is_10356(self):
        assert param_count(CqcnnConfig(n_qubits=3, fc_width=3)) == 10_356

    def test_count_matches_direct_summation(self):
        # independent decomposition: conv1 + conv2 + fc + affine + angles
        for n_q, fc_w in ((2, 4), (3, 4), (3, 3), (2, 0)):
            cfg = CqcnnConfig(n_qubits=n_q, fc_width=fc_w)
            fc = fc_w or n_q
            expected = (2 * 25 + 2) + (4 * 2 * 25 + 4) + (fc * 3364 + fc) + 2 + n_q
            assert param_count(cfg) == expected

    def test_model_count_matches_config_count(self):
        for head in ("quantum", "classical_softmax"):
            cfg = _small_config(head=head)
            model = CqcnnModel(cfg)
            assert model.params().flat.size == param_count(cfg) == sum(v.size for v in model.params().values())
        cfg = CqcnnConfig(n_qubits=3, fc_width=4, head="classical_softmax")  # head: dense(4 -> 2)
        assert param_count(cfg) == (2 * 25 + 2) + (4 * 2 * 25 + 4) + (4 * 3364 + 4) + 2 * 4 + 2

    def test_baseline_count_within_one_percent(self):
        q = param_count(CqcnnConfig.matched_size(3))
        c = param_count(CqcnnConfig.matched_size(3, head="classical_softmax"))
        assert abs(q - c) / q < 0.01

    def test_config_validation(self):
        with pytest.raises(InvalidArgument):
            CqcnnConfig(n_qubits=4)
        with pytest.raises(InvalidArgument):
            CqcnnConfig(head="bogus")
        with pytest.raises(InvalidArgument):
            CqcnnConfig(n_qubits=3, fc_width=2)
        with pytest.raises(InvalidArgument):
            CqcnnConfig(dropout_rate=1.0)

    def test_fc_width_0_matches_the_qubit_count(self):
        assert [CqcnnConfig(n_qubits=n).fc_width for n in (2, 3)] == [2, 3]
        with pytest.raises(InvalidArgument, match="fc_width must be 0 or >= n_qubits"):
            CqcnnConfig(fc_width=-1)


class TestForward:
    def test_output_map_concatenation(self):
        model = CqcnnModel(_small_config())
        gamma = model.forward(np.random.default_rng(0).random((16, 16)).astype(np.float32))
        o1 = model._cache["o1"]
        assert gamma[0] == pytest.approx(o1, abs=1e-7)
        assert gamma[1] == pytest.approx(1.0 - o1, abs=1e-7)

    def test_distribution_for_random_inputs(self):
        rng = np.random.default_rng(1)
        for head in ("quantum", "classical_softmax"):
            model = CqcnnModel(_small_config(head=head))
            for _ in range(100):
                gamma = model.forward(rng.random((16, 16)).astype(np.float32))
                assert gamma.shape == (2,)
                assert gamma.min() >= 0.0 and gamma.max() <= 1.0
                assert float(gamma.sum()) == pytest.approx(1.0, abs=1e-6)

    def test_wrong_image_size_rejected(self):
        with pytest.raises(InvalidArgument):
            CqcnnModel(_small_config()).forward(np.zeros((8, 8), np.float32))

    def test_identical_trunks_give_identical_features(self):
        quantum = CqcnnModel(_small_config(seed=5))
        classical = CqcnnModel(_small_config(seed=5, head="classical_softmax"))
        for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "fc_w", "fc_b"):
            classical.params()[name] = quantum.params()[name]
        img = np.random.default_rng(2).random((16, 16)).astype(np.float32)
        quantum.forward(img)
        flat_q = quantum._cache["flat"].copy()
        classical.forward(img)
        assert np.array_equal(flat_q, classical._cache["flat"])

    def test_quantum_head_periodic_in_theta(self):
        model = CqcnnModel(_small_config(seed=3))
        img = np.random.default_rng(3).random((16, 16)).astype(np.float32)
        base = model.forward(img).copy()
        model.params()["theta"][...] += np.float32(2.0 * math.pi)
        assert np.allclose(model.forward(img), base, atol=1e-6)


class TestBackward:
    # eval mode scales nothing, so a dropout rate must not scale the eval-mode gradients
    @pytest.mark.parametrize("seed, dropout_rate", [(s, 0.0) for s in range(20)] + [(s, 0.5) for s in range(4)])
    def test_full_model_finite_difference(self, seed, dropout_rate):
        cfg = _small_config(seed=seed, dropout_rate=dropout_rate)
        model = CqcnnModel(cfg)
        rng = np.random.default_rng(seed)
        img = rng.random((16, 16)).astype(np.float32)
        y = np.zeros(2, np.float32)
        y[seed % 2] = 1.0

        _, grads = backward(model, img, y, mode="eval")

        def loss_fn(_):
            return cross_entropy(model.forward(img, mode="eval"), y)

        for name, param in model.params().items():
            # small step keeps the perturbation from flipping pool/relu routing
            num = finite_difference_grad(loss_fn, param, h_scale=2e-4)
            assert grads_close(grads[name], num, 1e-2), f"{name} gradient mismatch (seed {seed})"

    @pytest.mark.parametrize("dropout_rate", [0.0, 0.5])
    def test_classical_head_finite_difference(self, dropout_rate):
        cfg = _small_config(seed=1, head="classical_softmax", dropout_rate=dropout_rate)
        model = CqcnnModel(cfg)
        rng = np.random.default_rng(1)
        img = rng.random((16, 16)).astype(np.float32)
        y = np.array([0.0, 1.0], np.float32)
        _, grads = backward(model, img, y, mode="eval")

        def loss_fn(_):
            return cross_entropy(model.forward(img, mode="eval"), y)

        for name, param in model.params().items():
            num = finite_difference_grad(loss_fn, param, h_scale=2e-4)
            assert grads_close(grads[name], num, 1e-2), f"{name} gradient mismatch"

    def test_soft_label_at_output_zeroes_theta_gradient(self):
        model = CqcnnModel(_small_config(seed=2))
        img = np.random.default_rng(4).random((16, 16)).astype(np.float32)
        gamma = model.forward(img, mode="eval")
        grads = model.backward(gamma)  # y == gamma: upstream at o1 vanishes
        assert np.abs(grads["theta"]).max() <= 1e-6

    def test_eval_mode_backward_deterministic(self):
        model = CqcnnModel(_small_config(seed=6))
        img = np.random.default_rng(5).random((16, 16)).astype(np.float32)
        y = np.array([1.0, 0.0], np.float32)
        _, g1 = backward(model, img, y, mode="eval")
        _, g2 = backward(model, img, y, mode="eval")
        assert all(np.array_equal(g1[k], g2[k]) for k in g1)

    @pytest.mark.parametrize("head", [HEAD_QUANTUM, HEAD_CLASSICAL])
    def test_only_conv1_skips_its_input_gradient(self, head, monkeypatch):
        calls = []
        real = cqcnn.conv2d_backward

        def spy(dy, x, w, *args, **kwargs):
            calls.append((w.shape, kwargs.get("input_grad", True)))
            return real(dy, x, w, *args, **kwargs)

        monkeypatch.setattr(cqcnn, "conv2d_backward", spy)
        model = CqcnnModel(_small_config(head=head))
        img = np.random.default_rng(3).random((16, 16)).astype(np.float32)
        grads = backward(model, img, np.array([0.0, 1.0], np.float32))[1]
        params = model.params()
        assert calls == [(params["conv2_w"].shape, True), (params["conv1_w"].shape, False)]
        assert grads["conv1_w"].shape == params["conv1_w"].shape


    @pytest.mark.parametrize("head", [HEAD_QUANTUM, HEAD_CLASSICAL])
    def test_training_step_runs_only_the_fused_pool_backward(self, head, monkeypatch):
        calls = []

        def spy(fn):
            return lambda dy, z: calls.append((fn.__name__, z.shape)) or fn(dy, z)

        kernels = [getattr(ops, name) for name in ("relu_maxpool2x2_backward", "relu_backward", "maxpool2x2_backward")]
        for name, module in list(sys.modules.items()):
            if name.startswith("cqbrain"):  # every binding a module could call one through
                for attr, value in list(vars(module).items()):
                    if any(value is kernel for kernel in kernels):
                        monkeypatch.setattr(module, attr, spy(value))
        config = _small_config(head=head, dropout_rate=0.5)
        img = np.random.default_rng(8).random((16, 16)).astype(np.float32)
        backward(CqcnnModel(config), img, np.array([1.0, 0.0], np.float32), mode="train", rng=Rng(2))
        trace = config.shape_trace()
        assert calls == [("relu_maxpool2x2_backward", trace["conv2"]), ("relu_maxpool2x2_backward", trace["conv1"])]


class TestKeptColumns:
    """A training step builds each conv's columns once: forward keeps them in the model, backward reuses them."""

    @staticmethod
    def _step_after_predict(model: CqcnnModel, rng: np.random.Generator):
        img, others = rng.random((128, 128), np.float32), list(rng.random((3, 128, 128), np.float32))
        model.forward(img, mode="train", rng=Rng(1))
        model.predict(others)  # refills the shared column workspace with other images' columns
        return model.backward(np.array([0.0, 1.0], np.float32))

    @pytest.mark.parametrize("head", [HEAD_QUANTUM, HEAD_CLASSICAL])
    def test_gradients_equal_those_from_rebuilt_columns(self, head, monkeypatch):
        kept = self._step_after_predict(CqcnnModel(CqcnnConfig(head=head)), np.random.default_rng(2))
        real = cqcnn.conv2d_backward

        def rebuilding(dy, x, w, *args, cols=None, **kwargs):
            return real(dy, x, w, *args, **kwargs)

        monkeypatch.setattr(cqcnn, "conv2d_backward", rebuilding)
        rebuilt = self._step_after_predict(CqcnnModel(CqcnnConfig(head=head)), np.random.default_rng(2))
        for name in kept:
            assert np.array_equal(kept[name], rebuilt[name]), name

    def test_backward_builds_no_columns(self, monkeypatch):
        model = CqcnnModel(CqcnnConfig())
        model.forward(np.random.default_rng(3).random((128, 128), np.float32))
        calls = []
        real = ops._im2col
        monkeypatch.setattr(ops, "_im2col", lambda *args: calls.append(args[1:]) or real(*args))
        model.backward(np.array([1.0, 0.0], np.float32))
        # x's columns come from the forward; the one set built is conv2's dy, padded by K - 1
        assert calls == [(5, 1, 62, 62, 4)]

    def test_warm_training_step_allocates_no_conv1_columns(self, monkeypatch):
        # one conv1 channel keeps the rest of the step (conv2's padded dy above all)
        # below the size of conv1's columns; conv2's dy columns, as large, reuse the
        # workspace that the warm-up grew
        monkeypatch.setattr(cqcnn, "CONV1_OUT", 1)
        model = CqcnnModel(CqcnnConfig())
        assert model.params()["conv1_w"].shape == (1, 1, 5, 5)
        img = np.random.default_rng(4).random((128, 128), np.float32)
        y = np.array([0.0, 1.0], np.float32)
        backward(model, img, y, rng=Rng(0))  # warm-up: allocates the model's column buffers
        conv1_cols = 25 * 124 * 124 * 4
        tracemalloc.start()
        try:
            backward(model, img, y, rng=Rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < conv1_cols  # so no array that large was allocated


class TestTraining:
    def test_zero_learning_rate_keeps_params_and_matches_eval_loss(self):
        model = CqcnnModel(_small_config())
        before = {k: v.copy() for k, v in model.params().items()}
        ds = _toy_dataset(5)
        eval_loss = evaluate(model, ds).loss
        report = train_epoch(model, ds, make_optimizer("adam", lr=0.0), seed=0)
        assert all(np.array_equal(before[k], v) for k, v in model.params().items())
        assert report.loss == pytest.approx(eval_loss, abs=1e-7)

    def test_deterministic_epoch_reports(self):
        def run():
            model = CqcnnModel(_small_config(seed=9, dropout_rate=0.5))
            opt = make_optimizer("adam", lr=1e-3)
            reports = [train_epoch(model, _toy_dataset(5), opt, seed=9, epoch=e) for e in range(2)]
            return [(r.loss, r.train_acc) for r in reports], {k: v.copy() for k, v in model.params().items()}

        (r1, p1), (r2, p2) = run(), run()
        assert r1 == r2
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_separable_toy_set_reaches_full_accuracy_within_5_epochs(self):
        for seed in (0, 1, 2):
            model = CqcnnModel(_small_config(seed=seed))
            opt = make_optimizer("adam", lr=1e-2)
            ds = _toy_dataset(25)
            accs = []
            for ep in range(5):
                accs.append(train_epoch(model, ds, opt, seed=seed, epoch=ep).train_acc)
                if accs[-1] == 1.0:
                    break
            assert accs[-1] == 1.0, f"seed {seed} never separated: {accs}"

    def test_theta_moves_under_training(self):
        model = CqcnnModel(_small_config(seed=4))
        theta_before = model.params()["theta"].copy()
        train_epoch(model, _toy_dataset(10), make_optimizer("adam", lr=1e-3), seed=4)
        assert float(np.linalg.norm(model.params()["theta"] - theta_before)) > 0.0

    @pytest.mark.parametrize("head", [HEAD_QUANTUM, HEAD_CLASSICAL])
    def test_per_sample_updates_equal_the_per_dict_reference(self, head):
        """11 samples, one Adam step each: the flat update matches per-tensor dict steps."""
        gen = np.random.default_rng(8)
        ds = [(gen.random((16, 16)).astype(np.float32), i % 2) for i in range(11)]
        flat_model = CqcnnModel(_small_config(seed=7, dropout_rate=0.5, head=head))
        ref_model = CqcnnModel(_small_config(seed=7, dropout_rate=0.5, head=head))
        train_epoch(flat_model, ds, make_optimizer("adam", lr=1e-2), seed=7, epoch=1)

        rng = Rng(7).derive("epoch:1")
        order = rng.derive("shuffle").permutation(len(ds))
        drop_rng = rng.derive("dropout")
        ref_params, states = dict(ref_model.params()), {}
        for idx in order:
            img, label = ds[int(idx)]
            _, grads = backward(ref_model, img, np.eye(2, dtype=np.float32)[label], rng=drop_rng)
            reference_step(ref_params, dict(grads), states, lr=1e-2)
        for key, value in ref_model.params().items():
            assert np.array_equal(flat_model.params()[key], value), key

    def test_each_head_holds_only_its_own_tensors(self):
        trunk = {"conv1_w", "conv1_b", "conv2_w", "conv2_b", "fc_w", "fc_b"}
        assert set(CqcnnModel(_small_config()).params()) == trunk | {"w_out", "b_out", "theta"}
        assert set(CqcnnModel(_small_config(head=HEAD_CLASSICAL)).params()) == trunk | {"head_w", "head_b"}

    @pytest.mark.parametrize("head", [HEAD_QUANTUM, HEAD_CLASSICAL])
    def test_nan_weight_raises_diverged_naming_epoch_and_sample(self, head):
        model = CqcnnModel(_small_config(head=head))
        model.params()["conv1_w"][0, 0, 0, 0] = np.nan
        ds = _toy_dataset(3)
        first = int(Rng(5).derive("epoch:2").derive("shuffle").permutation(len(ds))[0])
        with pytest.raises(Diverged, match=rf"epoch 2, shuffled position 0 \(dataset index {first}\)"):
            train_epoch(model, ds, make_optimizer("adam"), seed=5, epoch=2)

    def test_non_finite_loss_raises_diverged(self):
        model = CqcnnModel(_small_config())
        model.params()["w_out"][...] = np.nan  # finite head input, non-finite output
        with pytest.raises(Diverged, match="epoch 0, shuffled position 0 .*: loss is nan"):
            train_epoch(model, _toy_dataset(2), make_optimizer("adam"), seed=0)

    def test_empty_dataset_rejected(self):
        model = CqcnnModel(_small_config())
        with pytest.raises(EmptyInput):
            train_epoch(model, [], make_optimizer("adam"), seed=0)
        with pytest.raises(EmptyInput):
            evaluate(model, [])


class TestEvaluate:
    def test_single_correct_sample(self):
        model = CqcnnModel(_small_config(seed=11))
        img = np.random.default_rng(6).random((16, 16)).astype(np.float32)
        label = int(np.argmax(model.forward(img)))
        result = evaluate(model, [(img, label)])
        assert result.metrics["accuracy"] == 1.0

    def test_all_class0_predictions_on_balanced_set(self):
        model = CqcnnModel(_small_config(seed=12))
        model.params()["w_out"][...] = 0.0
        model.params()["b_out"][...] = 5.0  # o1 ~ 1: always class 0
        result = evaluate(model, _toy_dataset(10))
        assert result.metrics["accuracy"] == pytest.approx(0.5)
        assert result.metrics["recall"] == 0.0  # class 1 never predicted
        assert result.metrics["specificity"] == 1.0

    def test_fixed_fixture_matches_hand_counts(self):
        # force predictions via the head, then count the confusion cells by hand
        model = CqcnnModel(_small_config(seed=13))
        rng = np.random.default_rng(7)
        data = []
        preds = []
        for i in range(10):
            img = rng.random((16, 16)).astype(np.float32)
            pred = int(np.argmax(model.forward(img)))
            label = pred if i < 6 else 1 - pred  # 6 right, 4 wrong
            data.append((img, label))
            preds.append((pred, label))
        result = evaluate(model, data)
        tp = sum(1 for p, t in preds if p == 1 and t == 1)
        fp = sum(1 for p, t in preds if p == 1 and t == 0)
        tn = sum(1 for p, t in preds if p == 0 and t == 0)
        fn = sum(1 for p, t in preds if p == 0 and t == 1)
        assert (result.counts.tp, result.counts.fp, result.counts.tn, result.counts.fn) == (tp, fp, tn, fn)
        assert result.metrics["accuracy"] == pytest.approx(0.6)


def _forward_loop(model: CqcnnModel, dataset: list) -> tuple[np.ndarray, ConfusionCounts, float]:
    """The one-image-at-a-time eval pass: per-sample gammas, confusion counts, mean loss."""
    gammas, counts, total = [], ConfusionCounts(), 0.0
    for img, label in dataset:
        gamma = model.forward(img, mode="eval").copy()
        counts.add(int(np.argmax(gamma)), label)
        y = np.zeros(2, np.float32)
        y[label] = 1.0
        total += cross_entropy(gamma, y)
        gammas.append(gamma)
    return np.stack(gammas), counts, total / len(dataset)


class TestBatchedInference:
    HEADS = {"q2": dict(n_qubits=2), "q3": dict(n_qubits=3), "classical": dict(head=HEAD_CLASSICAL)}

    @pytest.fixture(scope="class")
    def images(self):
        rng = np.random.default_rng(21)
        return [rng.random((128, 128)).astype(np.float32) for _ in range(108)]

    @pytest.mark.parametrize("head", sorted(HEADS))
    @pytest.mark.parametrize("n", sorted({1, max(1, cqcnn.EVAL_CHUNK - 1), cqcnn.EVAL_CHUNK + 1, 108}))
    def test_evaluate_equals_forward_loop(self, images, head, n):
        model = CqcnnModel(CqcnnConfig(seed=3, **self.HEADS[head]))
        dataset = [(img, i % 3 % 2) for i, img in enumerate(images[:n])]
        gammas, counts, loss = _forward_loop(model, dataset)
        sentinel = {}
        model._cache = sentinel
        result = evaluate(model, dataset)
        assert model._cache is sentinel  # eval keeps no activation cache
        assert result.counts == counts
        assert result.loss == loss
        assert np.array_equal(model.predict([img for img, _ in dataset]), gammas)

    @pytest.mark.parametrize("head", [HEAD_QUANTUM, HEAD_CLASSICAL])
    def test_nan_weight_raises_diverged_from_evaluate(self, head):
        model = CqcnnModel(_small_config(head=head))
        model.params()["conv1_w"][0, 0, 0, 0] = np.nan
        with pytest.raises(Diverged, match="head input is not finite"):
            evaluate(model, _toy_dataset(3))

    def test_predict_names_the_first_image_whose_head_input_is_not_finite(self):
        images = [np.full((16, 16), 0.5, np.float32) for _ in range(5)]
        images[3][4, 4] = images[4][0, 0] = np.nan
        with pytest.raises(Diverged, match="classification diverged at image 3: its head input is not finite"):
            CqcnnModel(_small_config()).predict(images)

    @pytest.mark.parametrize("head, tensor", [(HEAD_QUANTUM, "w_out"), (HEAD_CLASSICAL, "head_w")])
    def test_non_finite_class_distribution_raises_diverged(self, head, tensor):
        model = CqcnnModel(_small_config(head=head))
        model.params()[tensor][...] = np.nan  # the trunk and the head input stay finite
        with pytest.raises(Diverged, match="image 0: its class distribution is not finite"):
            evaluate(model, _toy_dataset(3))

    def test_wrong_image_size_rejected(self):
        model = CqcnnModel(_small_config())
        with pytest.raises(InvalidArgument):
            model.predict([np.zeros((16, 16), np.float32), np.zeros((8, 8), np.float32)])
