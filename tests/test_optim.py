import numpy as np
import pytest

from cqbrain.errors import Diverged, EmptyInput, InvalidArgument
from cqbrain.neuralkernel import Params, make_optimizer, run_epoch
from cqbrain.rng import Rng

from oracles import params_of, reference_step


def _hand_adam(grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar reference iteration of the Adam recurrences (pure Python)."""
    m = v = 0.0
    theta = 0.0
    updates = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        step = lr * m_hat / (v_hat**0.5 + eps)
        theta -= step
        updates.append(step)
    return theta, updates


def _vector(values) -> Params:
    return params_of({"w": np.asarray(values, np.float32)})


def _steps(values, grad_values, n: int, lr: float = 1e-3) -> list[np.ndarray]:
    """Parameter vector after each of n Adam steps with a constant gradient."""
    params, grads = _vector(values), _vector(grad_values)
    opt = make_optimizer("adam", lr=lr)
    out = []
    for _ in range(n):
        opt.step(params, grads)
        out.append(params["w"].copy())
    return out


class TestParams:
    def test_named_tensors_are_views_into_one_vector(self):
        params = params_of({"a": np.ones((2, 3), np.float32), "s": np.float32(5.0), "b": np.arange(4.0)})
        assert params.flat.size == 11 and list(params) == ["a", "s", "b"]
        assert params["s"].shape == () and params.flat.dtype == np.float32
        params.flat[6] = -1.0  # "a" holds entries 0-5, "s" entry 6
        assert float(params["s"]) == -1.0
        params["b"][...] = 7.0
        assert np.array_equal(params.flat[7:], np.full(4, 7.0, np.float32))

    def test_assignment_copies_and_checks_the_shape(self):
        params = Params({"w": (2, 2)})
        params["w"] = np.eye(2)
        assert np.array_equal(params.flat, [1, 0, 0, 1])
        with pytest.raises(InvalidArgument):
            params["w"] = np.zeros(4)

    def test_zeros_like_and_copies_keep_the_layout(self):
        params = params_of({"a": np.full(3, 2.0), "b": np.full((1, 2), 3.0)})
        zeros, wide = params.zeros_like(), params_of(params, np.float64)
        assert list(zeros) == list(wide) == ["a", "b"]
        assert not zeros.flat.any() and zeros["b"].shape == (1, 2)
        assert wide.flat.dtype == np.float64 and np.array_equal(wide.flat, params.flat)
        assert not np.shares_memory(wide.flat, params.flat)


class TestAdam:
    def test_first_step_magnitude_and_direction(self):
        grad = np.array([0.5, -2.0, 10.0], np.float32)
        (new_param,) = _steps(np.zeros(3), grad, 1)
        assert np.allclose(np.abs(new_param), 1e-3, rtol=1e-4)
        assert np.array_equal(np.sign(new_param), -np.sign(grad))

    def test_one_step_counter(self):
        params, grads = _vector(np.zeros(3)), _vector(np.ones(3))
        opt = make_optimizer("adam")
        for _ in range(3):
            opt.step(params, grads)
        assert opt.t == 3

    def test_zero_gradient_leaves_param(self):
        (new_param,) = _steps([1.0, 2.0], np.zeros(2), 1)
        assert np.array_equal(new_param, [1.0, 2.0])

    def test_two_identical_gradients_hand_iteration(self):
        _, updates = _hand_adam([0.7, 0.7])
        assert updates[1] <= updates[0] + 1e-12

        p1, p2 = _steps([0.0], [0.7], 2)
        first = abs(float(p1[0]))
        second = abs(float(p1[0] - p2[0]))
        assert second <= first + 1e-9
        assert float(p2[0]) == pytest.approx(_hand_adam([0.7, 0.7])[0], rel=1e-5)

    def test_size_mismatch(self):
        opt = make_optimizer("adam")
        with pytest.raises(InvalidArgument):
            opt.step(_vector(np.zeros(3)), _vector(np.zeros(4)))
        opt.step(_vector(np.zeros(3)), _vector(np.ones(3)))
        with pytest.raises(InvalidArgument):  # state sized by the first step
            opt.step(_vector(np.zeros(4)), _vector(np.ones(4)))


    def test_steps_preserve_shape_and_finiteness(self):
        rng = np.random.default_rng(42)
        params = params_of({"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)})
        grads = params_of({k: rng.standard_normal(v.shape) * 10 for k, v in params.items()})
        opt = make_optimizer("adam", lr=1e-2)
        for _ in range(5):
            opt.step(params, grads)
        assert params["a"].shape == (3, 4) and params["b"].shape == (5,)
        assert np.isfinite(params.flat).all()

    def test_optimizer_is_deterministic(self):
        def run():
            params = _vector(np.ones(4))
            opt = make_optimizer("adam", lr=1e-3)
            for i in range(20):
                opt.step(params, _vector(np.full(4, 0.1 * (i + 1))))
            return params.flat.copy()

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize("name", ["lbfgs", "sgd"])
    def test_unknown_optimizer_rejected(self, name):
        with pytest.raises(InvalidArgument, match=name):
            make_optimizer(name)


def test_flat_rule_matches_the_per_tensor_reference_bit_for_bit():
    """50 steps over mixed shapes (0-d included), gradients spanning 1e-6 to 30."""
    rng = np.random.default_rng(7)
    shapes = {"conv_w": (4, 2, 3, 3), "bias": (4,), "scale": (), "theta": (3,), "fc_w": (2, 9)}
    init = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
    flat, opt = params_of(init), make_optimizer("adam", lr=3e-3)
    ref, states = {k: v.copy() for k, v in init.items()}, {}
    for _ in range(50):
        grads = {k: (rng.choice([-1.0, 1.0], s) * 10.0 ** rng.uniform(-6, np.log10(30), s)).astype(np.float32)
                 for k, s in shapes.items()}
        opt.step(flat, params_of(grads))
        reference_step(ref, grads, states, lr=3e-3)
    for key, value in ref.items():
        assert np.array_equal(flat[key].view(np.uint32), value.view(np.uint32)), key


class _FixedShuffle:
    """A shuffle stream whose permutation is a given order; records each n it is asked for."""

    def __init__(self, order):
        self.order, self.asked = np.asarray(order), []

    def permutation(self, n):
        self.asked.append(n)
        return self.order


class TestRunEpoch:
    ORDER = [4, 0, 6, 2, 5, 1, 3]  # a shuffled order of 7 dataset indices

    @classmethod
    def _run(cls, batch_size, epoch, step):
        return run_epoch(_FixedShuffle(cls.ORDER), len(cls.ORDER), batch_size, epoch, step)

    @staticmethod
    def _recorder(losses):
        """A step returning `losses` in turn and recording what it was called with."""
        calls = []

        def step(indices, b0):
            calls.append((indices.tolist(), b0))
            return losses[len(calls) - 1]

        return step, calls

    def test_batches_walk_the_order_with_a_partial_last_batch(self):
        step, calls = self._recorder([1.0, 2.0, 3.0])
        self._run(3, 0, step)
        assert calls == [([4, 0, 6], 0), ([2, 5, 1], 3), ([3], 6)]

    def test_batch_size_one_passes_each_shuffled_position(self):
        step, calls = self._recorder([0.5] * 7)
        self._run(1, 0, step)
        assert calls == [([i], pos) for pos, i in enumerate(self.ORDER)]

    def test_mean_over_batches_in_order(self):
        losses = [0.1, 0.7, 0.25]  # the partial batch counts as one batch, like the others
        step, _ = self._recorder(losses)
        assert self._run(3, 0, step)[0] == (0.1 + 0.7 + 0.25) / 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_loss_names_epoch_position_and_index(self, bad):
        step, calls = self._recorder([1.0, bad, 3.0])
        with pytest.raises(Diverged) as info:
            self._run(3, 4, step)
        assert str(info.value) == f"training diverged at epoch 4, shuffled position 3 (dataset index 2): loss is {bad}"
        assert len(calls) == 2  # no step after the failing batch

    def test_diverged_step_names_epoch_position_and_index(self):
        calls = []

        def step(indices, b0):
            calls.append(b0)
            if b0 == 2:
                raise Diverged("head input is not finite")
            return 1.0

        with pytest.raises(Diverged) as info:
            self._run(2, 1, step)
        assert str(info.value) == ("training diverged at epoch 1, shuffled position 2 (dataset index 6): "
                                   "head input is not finite")
        assert isinstance(info.value.__cause__, Diverged)
        assert calls == [0, 2]

    def test_other_errors_pass_through(self):
        def step(indices, b0):
            raise InvalidArgument("bad shape")

        with pytest.raises(InvalidArgument, match="^bad shape$"):
            self._run(2, 0, step)

    def test_empty_set_raises_before_any_step_or_draw(self):
        shuffle, calls = _FixedShuffle([]), []
        with pytest.raises(EmptyInput, match="^training set is empty$"):
            run_epoch(shuffle, 0, 2, 0, lambda indices, b0: calls.append(b0) or 1.0)
        assert calls == [] and shuffle.asked == []

    @pytest.mark.parametrize("n, batch_size", [(1, 1), (7, 3), (9, 16)])
    def test_visits_the_streams_permutation_once_and_times_the_pass(self, n, batch_size):
        seen = []

        def step(indices, b0):
            seen.extend(indices.tolist())
            return 1.0

        loss, seconds = run_epoch(Rng(11).derive("shuffle"), n, batch_size, 0, step)
        assert seen == Rng(11).derive("shuffle").permutation(n).tolist()
        assert loss == 1.0
        assert seconds >= 0.0
