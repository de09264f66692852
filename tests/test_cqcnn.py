import math

import numpy as np
import pytest

from cqbrain.cqcnn import (
    CqcnnConfig,
    CqcnnModel,
    backward,
    evaluate,
    param_count,
    train_epoch,
)
from cqbrain.errors import EmptyDataset, ShapeMismatch
from cqbrain.neuralkernel import cross_entropy, make_optimizer

from oracles import finite_difference_grad, grads_close


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
        for n_q, fc_w in ((2, 4), (3, 4), (3, 3), (2, None)):
            cfg = CqcnnConfig(n_qubits=n_q, fc_width=fc_w)
            fc = cfg.fc_out
            expected = (2 * 25 + 2) + (4 * 2 * 25 + 4) + (fc * 3364 + fc) + 2 + n_q
            assert param_count(cfg) == expected

    def test_doubling_conv1_out_doubles_its_contribution(self):
        def conv1_part(c):
            return c.conv1_out * c.kernel**2 + c.conv1_out

        base = CqcnnConfig(conv1_out=2)
        doubled = CqcnnConfig(conv1_out=4)
        assert conv1_part(doubled) == 2 * conv1_part(base)
        conv2_delta = (4 * 4 * 25 + 4) - (4 * 2 * 25 + 4)
        assert param_count(doubled) - param_count(base) == conv1_part(base) + conv2_delta

    def test_model_count_matches_config_count(self):
        for head in ("quantum", "classical_softmax"):
            cfg = _small_config(head=head)
            assert CqcnnModel(cfg).param_count() == param_count(cfg)

    def test_baseline_count_within_one_percent(self):
        q = param_count(CqcnnConfig.matched_size(3))
        c = param_count(CqcnnConfig.matched_size(3, head="classical_softmax"))
        assert abs(q - c) / q < 0.01

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CqcnnConfig(n_qubits=4)
        with pytest.raises(ValueError):
            CqcnnConfig(head="bogus")
        with pytest.raises(ValueError):
            CqcnnConfig(n_qubits=3, fc_width=2)


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
        with pytest.raises(ShapeMismatch):
            CqcnnModel(_small_config()).forward(np.zeros((8, 8), np.float32))

    def test_identical_trunks_give_identical_features(self):
        quantum = CqcnnModel(_small_config(seed=5))
        classical = CqcnnModel(_small_config(seed=5, head="classical_softmax"))
        for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "fc_w", "fc_b"):
            setattr(classical, name, getattr(quantum, name).copy())
        img = np.random.default_rng(2).random((16, 16)).astype(np.float32)
        quantum.forward(img)
        flat_q = quantum._cache["flat"].copy()
        classical.forward(img)
        assert np.array_equal(flat_q, classical._cache["flat"])

    def test_quantum_head_periodic_in_theta(self):
        model = CqcnnModel(_small_config(seed=3))
        img = np.random.default_rng(3).random((16, 16)).astype(np.float32)
        base = model.forward(img).copy()
        model.theta = model.theta + np.float32(2.0 * math.pi)
        assert np.allclose(model.forward(img), base, atol=1e-6)


class TestBackward:
    @pytest.mark.parametrize("seed", range(20))
    def test_full_model_finite_difference(self, seed):
        cfg = _small_config(seed=seed)
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

    def test_classical_head_finite_difference(self):
        cfg = _small_config(seed=1, head="classical_softmax")
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
        theta_before = model.theta.copy()
        train_epoch(model, _toy_dataset(10), make_optimizer("adam", lr=1e-3), seed=4)
        assert float(np.linalg.norm(model.theta - theta_before)) > 0.0

    def test_batched_updates_run(self):
        model = CqcnnModel(_small_config(seed=7))
        report = train_epoch(model, _toy_dataset(8), make_optimizer("adam", lr=1e-3), seed=7, batch_size=4)
        assert np.isfinite(report.loss)

    def test_empty_dataset_rejected(self):
        model = CqcnnModel(_small_config())
        with pytest.raises(EmptyDataset):
            train_epoch(model, [], make_optimizer("adam"), seed=0)
        with pytest.raises(EmptyDataset):
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
        model.w_out = np.array(0.0, np.float32)
        model.b_out = np.array(5.0, np.float32)  # o1 ~ 1: always class 0
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
