"""Hybrid conv-net + quantum-head binary classifier.

Trunk: conv(5x5, valid, 2 channels) -> relu -> 2x2 maxpool -> conv(5x5,
valid, 4 channels) -> relu -> maxpool -> dropout -> flatten -> dense down to
a small feature vector. The convs are the paper's and no config sets them.
Each stage computes relu(maxpool2x2(z)), pooling before the ReLU: both are
monotone, so the output equals maxpool2x2(relu(z)) byte for byte (the ReLU
turns a pooled -0.0 into the +0.0 it gives each element), at a quarter of
the ReLU work. Backward runs `relu_maxpool2x2_backward` once per stage.
The quantum head feeds the first n_qubits features into the simulated
circuit, squashes the resulting probability through a scalar affine +
sigmoid stage o1, and emits the class distribution (o1, 1 - o1). The
classical baseline keeps the identical trunk and replaces the head with
dense(fc_width -> 2) + softmax, which keeps the trainable parameter counts
within 1% of each other.

Index convention: output[c] is the probability of class c; class 1 is the
positive class for confusion counts.

Inference: `CqcnnModel.predict` (behind `evaluate`) runs the trunk over
EVAL_CHUNK images per call and `_head` over the whole stack at once: one
`qsim.pqc_forward` call scores every image. It keeps no activation cache.
`forward` runs the same trunk code on one image, sends its one row through
the same `_head`, and caches its activations for `backward`. Every predicted
distribution equals the one-image `forward` result bit for bit: the conv
kernels compute each batch item on its own, `dense` takes one row
(a stacked matrix product may sum in another order than the matrix-vector
one), and the circuit evaluator forms each row's phase product in a fixed
order.

Training keeps its conv columns: `forward` builds each conv's im2col
columns (25 x 15376 and 50 x 3364 values at 128 px) in two float32
buffers the model allocates when it is built, and `backward` hands the
same arrays to `conv2d_backward`, so a training step builds each set of
columns once. `predict` builds its columns in the shared workspace of
`neuralkernel.ops` and leaves the model's buffers alone, so a `predict`
between `forward` and `backward` changes no gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, EmptyInput, InvalidArgument
from .neuralkernel import (
    ConfusionCounts,
    Optimizer,
    Params,
    classify_metrics,
    conv2d,
    conv2d_backward,
    cross_entropy,
    cross_entropy_grad,
    dense,
    dense_backward,
    dropout,
    dropout_backward,
    glorot,
    maxpool2x2,
    relu,
    relu_maxpool2x2_backward,
    run_epoch,
    sigmoid,
    sigmoid_backward,
)
from .qsim import pqc_backward, pqc_forward
from .rng import Rng

HEAD_QUANTUM = "quantum"
HEAD_CLASSICAL = "classical_softmax"

Dataset = list[tuple[np.ndarray, int]]  # (image (H, W) in [0,1], label in {0,1})

# Images per trunk call in `predict`. Each one keeps 1.5 MB more conv1 columns
# (at 128 px) in the column workspace. On the classify benchmark (2-vCPU VM),
# chunk 2 evaluated about 12% faster than chunk 1 for +1 MB of peak RSS;
# in a standalone 108-image evaluate, chunks 4 and 8 cost +6 and +14 MB.
EVAL_CHUNK = 2

# The trunk's two valid convs: kernel side and output channels.
KERNEL = 5
CONV1_OUT = 2
CONV2_OUT = 4


@dataclass
class CqcnnConfig:
    image_size: int = 128
    dropout_rate: float = 0.5
    n_qubits: int = 2
    fc_width: int = 0  # 0 asks for n_qubits; the config stores the resolved width
    head: str = HEAD_QUANTUM
    seed: int = 0

    def __post_init__(self):
        if self.head not in (HEAD_QUANTUM, HEAD_CLASSICAL):
            raise InvalidArgument(f"head must be {HEAD_QUANTUM!r} or {HEAD_CLASSICAL!r}")
        if self.n_qubits not in (2, 3):
            raise InvalidArgument(f"n_qubits must be 2 or 3, got {self.n_qubits}")
        if self.fc_width and self.fc_width < self.n_qubits:
            raise InvalidArgument(f"fc_width must be 0 or >= n_qubits = {self.n_qubits}, got {self.fc_width}")
        self.fc_width = self.fc_width or self.n_qubits
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidArgument(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @classmethod
    def matched_size(cls, n_qubits: int, **overrides) -> "CqcnnConfig":
        """fc_width pinned to 4: parameter count stays constant across qubit counts."""
        return cls(n_qubits=n_qubits, fc_width=4, **overrides)

    def shape_trace(self) -> dict[str, tuple[int, ...]]:
        """Spatial sizes through the trunk; raises if the geometry collapses."""
        s1 = self.image_size - KERNEL + 1
        p1 = s1 // 2
        s2 = p1 - KERNEL + 1
        p2 = s2 // 2
        if min(s1, p1, s2, p2) < 1:
            raise InvalidArgument(f"image_size {self.image_size} too small for two {KERNEL}x{KERNEL} conv+pool stages")
        return {
            "conv1": (CONV1_OUT, s1, s1),
            "pool1": (CONV1_OUT, p1, p1),
            "conv2": (CONV2_OUT, s2, s2),
            "pool2": (CONV2_OUT, p2, p2),
            "flat": (CONV2_OUT * p2 * p2,),
        }

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every trainable tensor of the configured head, in vector order."""
        k, c1, c2, fc = KERNEL, CONV1_OUT, CONV2_OUT, self.fc_width
        shapes = {"conv1_w": (c1, 1, k, k), "conv1_b": (c1,), "conv2_w": (c2, c1, k, k), "conv2_b": (c2,),
                  "fc_w": (fc, self.shape_trace()["flat"][0]), "fc_b": (fc,)}
        if self.head == HEAD_QUANTUM:
            # scalar affine on the circuit probability, then ansatz angles
            return {**shapes, "w_out": (), "b_out": (), "theta": (self.n_qubits,)}
        return {**shapes, "head_w": (2, fc), "head_b": (2,)}


def param_count(config: CqcnnConfig) -> int:
    """Exact trainable scalar count for the configured head: the size of a model's vector."""
    return sum(math.prod(shape) for shape in config.param_shapes().values())


def _finite_rows(rows: np.ndarray, what: str) -> np.ndarray:
    """rows (one per image), or Diverged naming the first image whose row is not finite."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise Diverged(f"classification diverged at image {int(finite.argmin())}: its {what} is not finite")
    return rows


class CqcnnModel:
    """Holds parameters and per-sample forward cache for backprop."""

    def __init__(self, config: CqcnnConfig, rng: Rng | None = None):
        self.config = config
        rng = rng if rng is not None else Rng(config.seed)
        p = self._params = Params(config.param_shapes())
        for name in ("conv1", "conv2", "fc", "head"):
            if f"{name}_w" in p:
                glorot(rng.derive(f"init:{name}_w"), p[f"{name}_w"])
                # trunk biases start slightly positive so constant/low-contrast
                # inputs cannot kill every ReLU channel at initialization
                p[f"{name}_b"].fill(0.0 if name == "head" else 0.01)
        if config.head == HEAD_QUANTUM:
            p["w_out"].fill(1.0)
            p["theta"] = rng.derive("init:theta").uniform(config.n_qubits) * np.pi
        self._cache: dict | None = None
        trace = config.shape_trace()
        # each conv's columns for one image, kept from `forward` to `backward` (module docstring)
        self._cols1 = np.empty((1, KERNEL * KERNEL, trace["conv1"][1] ** 2), np.float32)
        self._cols2 = np.empty((1, CONV1_OUT * KERNEL * KERNEL, trace["conv2"][1] ** 2), np.float32)

    def params(self) -> Params:
        """Trainable tensors of the active head, as views into one flat vector."""
        return self._params

    def _image(self, img: np.ndarray) -> np.ndarray:
        img = np.asarray(img, dtype=np.float32)
        size = self.config.image_size
        if img.shape != (size, size):
            raise InvalidArgument(f"expected {size}x{size} image, got {img.shape}")
        return img

    def _trunk(self, x0: np.ndarray, keep: bool = False) -> dict[str, np.ndarray]:
        """Conv outputs and pooled activations for one (1, H, W) image or an (N, 1, H, W) stack.

        keep (one image only): build each conv's columns in this model's own
        buffers and return them too, for `backward`.
        """
        p = self._params
        cols1 = self._cols1 if keep else None
        z1 = conv2d(x0, p["conv1_w"], p["conv1_b"], cols=cols1)
        p1 = relu(maxpool2x2(z1))  # pool first (module docstring)
        cols2 = self._cols2 if keep else None
        z2 = conv2d(p1, p["conv2_w"], p["conv2_b"], cols=cols2)
        return {"x0": x0, "z1": z1, "p1": p1, "z2": z2, "p2": relu(maxpool2x2(z2)),
                "cols1": cols1, "cols2": cols2}

    def _head(self, fc_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """(class distributions (R, 2), p_q, o1) for head inputs (R, fc_width).

        p_q and o1 (R,) are the quantum head's circuit probabilities and sigmoid
        outputs, which backward reads; the classical head returns None for both.
        """
        p = self._params
        if self.config.head == HEAD_CLASSICAL:
            logits = np.stack([dense(row, p["head_w"], p["head_b"]) for row in fc_rows])
            shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
            return (shifted / shifted.sum(axis=1, keepdims=True)).astype(np.float32), None, None
        x_sub = fc_rows[:, : self.config.n_qubits].astype(np.float64)
        p_q = pqc_forward(x_sub, p["theta"].astype(np.float64))
        o1 = sigmoid(float(p["w_out"]) * p_q + float(p["b_out"]))
        return np.stack([o1, 1.0 - o1], axis=1).astype(np.float32), p_q, o1

    def forward(self, img: np.ndarray, mode: str = "eval", rng: Rng | None = None) -> np.ndarray:
        """Class distribution (2,) for one image; caches activations for backward."""
        cache = self._trunk(self._image(img)[None], keep=True)
        d, cache["mask"] = dropout(cache["p2"], self.config.dropout_rate, mode, rng)
        cache["rate"] = self.config.dropout_rate if mode == "train" else 0.0  # eval mode scales nothing
        cache["flat"] = d.reshape(-1)
        fc_out = cache["fc_out"] = dense(cache["flat"], self._params["fc_w"], self._params["fc_b"])
        if not np.isfinite(fc_out).all():
            raise Diverged("head input is not finite")
        gamma, p_q, o1 = self._head(fc_out[None])
        if p_q is not None:
            cache.update({"p_q": float(p_q[0]), "o1": float(o1[0])})
        cache["gamma"] = gamma[0]
        self._cache = cache
        return cache["gamma"]

    def predict(self, images: list[np.ndarray]) -> np.ndarray:
        """Eval-mode class distributions (N, 2), EVAL_CHUNK images per trunk call; no cache kept."""
        fc_rows = []
        for start in range(0, len(images), EVAL_CHUNK):
            chunk = np.stack([self._image(img) for img in images[start : start + EVAL_CHUNK]])
            pooled = self._trunk(chunk[:, None])["p2"]
            fc_rows.extend(dense(p.reshape(-1), self._params["fc_w"], self._params["fc_b"]) for p in pooled)
        fc_rows = _finite_rows(np.stack(fc_rows), "head input")
        return _finite_rows(self._head(fc_rows)[0], "class distribution")

    def backward(self, y: np.ndarray) -> Params:
        """Loss gradients of every parameter, in the layout of `params()`; needs a cached forward."""
        if self._cache is None:
            raise InvalidArgument("backward called before forward")
        c = self._cache
        y = np.asarray(y, dtype=np.float32)
        cfg = self.config
        p = self._params
        grads = p.zeros_like()

        if cfg.head == HEAD_QUANTUM:
            dgamma = cross_entropy_grad(c["gamma"], y)
            do1 = float(dgamma[0]) - float(dgamma[1])
            dz_out = sigmoid_backward(do1, c["o1"])
            grads["w_out"] = np.float32(dz_out * c["p_q"])
            grads["b_out"] = np.float32(dz_out)
            dp_q = dz_out * float(p["w_out"])
            x_sub = c["fc_out"][: cfg.n_qubits].astype(np.float64)
            grad_x_sub, grad_theta = pqc_backward(x_sub, p["theta"].astype(np.float64), upstream=dp_q)
            grads["theta"] = grad_theta.astype(np.float32)
            dfc = np.zeros(cfg.fc_width, np.float32)
            dfc[: cfg.n_qubits] = grad_x_sub.astype(np.float32)
        else:
            # softmax + cross-entropy collapse to (probabilities - labels)
            dlogits = c["gamma"] - y
            dfc, grads["head_w"], grads["head_b"] = dense_backward(dlogits, c["fc_out"], p["head_w"])

        dflat, grads["fc_w"], grads["fc_b"] = dense_backward(dfc, c["flat"], p["fc_w"])
        dd = dflat.reshape(c["p2"].shape)
        dp2 = dropout_backward(dd, c["mask"], c["rate"])
        dz2 = relu_maxpool2x2_backward(dp2, c["z2"])
        dp1, grads["conv2_w"], grads["conv2_b"] = conv2d_backward(dz2, c["p1"], p["conv2_w"], cols=c["cols2"])
        dz1 = relu_maxpool2x2_backward(dp1, c["z1"])
        _, grads["conv1_w"], grads["conv1_b"] = conv2d_backward(
            dz1, c["x0"], p["conv1_w"], input_grad=False, cols=c["cols1"])
        return grads


def backward(model: CqcnnModel, img: np.ndarray, y: np.ndarray,
             mode: str = "train", rng: Rng | None = None) -> tuple[float, Params]:
    """One forward/backward pass; returns (loss, gradients)."""
    gamma = model.forward(img, mode, rng)
    loss = cross_entropy(gamma, y)
    return loss, model.backward(y)


@dataclass
class EvalResult:
    counts: ConfusionCounts
    metrics: dict[str, float]
    loss: float


@dataclass
class EpochReport:
    epoch: int
    loss: float
    train_eval: EvalResult  # eval-mode pass over the training set after the epoch's last update
    wall_time_s: float  # the training pass alone, without train_eval

    @property
    def train_acc(self) -> float:
        return self.train_eval.metrics["accuracy"]


def _one_hot(label: int) -> np.ndarray:
    y = np.zeros(2, np.float32)
    y[int(label)] = 1.0
    return y


def evaluate(model: CqcnnModel, dataset: Dataset) -> EvalResult:
    """Deterministic eval-mode pass: argmax predictions vs labels, via `predict`."""
    if not dataset:
        raise EmptyInput("evaluation set is empty")
    counts = ConfusionCounts()
    total_loss = 0.0
    gammas = model.predict([img for img, _ in dataset])
    for gamma, (_, label) in zip(gammas, dataset):
        counts.add(int(np.argmax(gamma)), int(label))
        total_loss += cross_entropy(gamma, _one_hot(label))
    return EvalResult(counts, classify_metrics(counts), total_loss / len(dataset))


def train_epoch(model: CqcnnModel, dataset: Dataset, optimizer: Optimizer,
                seed: int, epoch: int = 0) -> EpochReport:
    """One seeded-shuffled pass with an update after every sample; mutates the model."""
    rng = Rng(seed).derive(f"epoch:{epoch}")
    drop_rng = rng.derive("dropout")

    def step(indices: np.ndarray, _b0: int) -> float:
        img, label = dataset[int(indices[0])]
        loss, grads = backward(model, img, _one_hot(label), mode="train", rng=drop_rng)
        if math.isfinite(loss):
            optimizer.step(model.params(), grads)
        return loss

    loss, seconds = run_epoch(rng.derive("shuffle"), len(dataset), 1, epoch, step)
    return EpochReport(epoch, loss, evaluate(model, dataset), seconds)
