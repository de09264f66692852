"""Hybrid conv-net + quantum-head binary classifier.

Trunk: conv(5x5, valid) -> relu -> 2x2 maxpool -> conv -> relu -> maxpool
-> dropout -> flatten -> dense down to a small feature vector. The quantum
head feeds the first n_qubits features into the simulated circuit, squashes
the resulting probability through a scalar affine + sigmoid stage o1, and
emits the class distribution (o1, 1 - o1). The classical baseline keeps the
identical trunk and replaces the head with dense(fc_width -> 2) + softmax,
which keeps the trainable parameter counts within 1% of each other.

Index convention: output[c] is the probability of class c; class 1 is the
positive class for confusion counts.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, ShapeMismatch
from .neuralkernel import (
    ConfusionCounts,
    Optimizer,
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
    maxpool2x2_backward,
    relu,
    relu_backward,
    sigmoid,
)
from .qsim import pqc_backward, pqc_forward
from .rng import Rng

HEAD_QUANTUM = "quantum"
HEAD_CLASSICAL = "classical_softmax"

Dataset = list[tuple[np.ndarray, int]]  # (image (H, W) in [0,1], label in {0,1})


@dataclass
class CqcnnConfig:
    image_size: int = 128
    conv1_out: int = 2
    conv2_out: int = 4
    kernel: int = 5
    dropout_rate: float = 0.5
    n_qubits: int = 2
    fc_width: int | None = None  # None: matches n_qubits
    head: str = HEAD_QUANTUM
    seed: int = 0

    def __post_init__(self):
        if self.head not in (HEAD_QUANTUM, HEAD_CLASSICAL):
            raise ValueError(f"head must be {HEAD_QUANTUM!r} or {HEAD_CLASSICAL!r}")
        if self.n_qubits not in (2, 3):
            raise ValueError(f"n_qubits must be 2 or 3, got {self.n_qubits}")
        if self.fc_width is not None and self.fc_width < self.n_qubits:
            raise ValueError("fc_width must be >= n_qubits")

    @property
    def fc_out(self) -> int:
        return self.n_qubits if self.fc_width is None else self.fc_width

    @classmethod
    def matched_size(cls, n_qubits: int, **overrides) -> "CqcnnConfig":
        """fc_width pinned to 4: parameter count stays constant across qubit counts."""
        return cls(n_qubits=n_qubits, fc_width=4, **overrides)

    def shape_trace(self) -> dict[str, tuple[int, ...]]:
        """Spatial sizes through the trunk; raises if the geometry collapses."""
        s1 = self.image_size - self.kernel + 1
        p1 = s1 // 2
        s2 = p1 - self.kernel + 1
        p2 = s2 // 2
        if min(s1, p1, s2, p2) < 1:
            raise ShapeMismatch(f"image_size {self.image_size} too small for two {self.kernel}x{self.kernel} conv+pool stages")
        return {
            "conv1": (self.conv1_out, s1, s1),
            "pool1": (self.conv1_out, p1, p1),
            "conv2": (self.conv2_out, s2, s2),
            "pool2": (self.conv2_out, p2, p2),
            "flat": (self.conv2_out * p2 * p2,),
        }


def param_count(config: CqcnnConfig) -> int:
    """Exact trainable scalar count for the configured head."""
    k2 = config.kernel * config.kernel
    flat = config.shape_trace()["flat"][0]
    trunk = (config.conv1_out * k2 + config.conv1_out
             + config.conv2_out * config.conv1_out * k2 + config.conv2_out
             + config.fc_out * flat + config.fc_out)
    if config.head == HEAD_QUANTUM:
        return trunk + 2 + config.n_qubits  # scalar affine + ansatz angles
    return trunk + 2 * config.fc_out + 2


class CqcnnModel:
    """Holds parameters and per-sample forward cache for backprop."""

    def __init__(self, config: CqcnnConfig, rng: Rng | None = None):
        self.config = config
        rng = rng if rng is not None else Rng(config.seed)
        k = config.kernel
        c1, c2, fc = config.conv1_out, config.conv2_out, config.fc_out
        flat = config.shape_trace()["flat"][0]
        # biases start slightly positive so constant/low-contrast inputs cannot
        # kill every ReLU channel at initialization
        self.conv1_w = glorot(rng.derive("init:conv1_w"), (c1, 1, k, k), k * k, c1 * k * k)
        self.conv1_b = np.full(c1, 0.01, np.float32)
        self.conv2_w = glorot(rng.derive("init:conv2_w"), (c2, c1, k, k), c1 * k * k, c2 * k * k)
        self.conv2_b = np.full(c2, 0.01, np.float32)
        self.fc_w = glorot(rng.derive("init:fc_w"), (fc, flat), flat, fc)
        self.fc_b = np.full(fc, 0.01, np.float32)
        # quantum head: scalar affine on the circuit probability, then ansatz angles
        self.w_out = np.array(1.0, np.float32)
        self.b_out = np.array(0.0, np.float32)
        self.theta = (rng.derive("init:theta").uniform(config.n_qubits) * np.pi).astype(np.float32)
        # classical baseline head
        self.head_w = glorot(rng.derive("init:head_w"), (2, fc), fc, 2)
        self.head_b = np.zeros(2, np.float32)
        self._cache: dict | None = None

    def params(self) -> dict[str, np.ndarray]:
        """Trainable tensors for the active head, stable name order."""
        base = {
            "conv1_w": self.conv1_w, "conv1_b": self.conv1_b,
            "conv2_w": self.conv2_w, "conv2_b": self.conv2_b,
            "fc_w": self.fc_w, "fc_b": self.fc_b,
        }
        if self.config.head == HEAD_QUANTUM:
            base.update({"w_out": self.w_out, "b_out": self.b_out, "theta": self.theta})
        else:
            base.update({"head_w": self.head_w, "head_b": self.head_b})
        return base

    def param_count(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.params().values())

    def forward(self, img: np.ndarray, mode: str = "eval", rng: Rng | None = None) -> np.ndarray:
        """Class distribution (2,) for one image; caches activations for backward."""
        img = np.asarray(img, dtype=np.float32)
        size = self.config.image_size
        if img.shape != (size, size):
            raise ShapeMismatch(f"expected {size}x{size} image, got {img.shape}")
        x0 = img[None]  # (1, H, W)
        z1 = conv2d(x0, self.conv1_w, self.conv1_b)
        a1 = relu(z1)
        p1 = maxpool2x2(a1)
        z2 = conv2d(p1, self.conv2_w, self.conv2_b)
        a2 = relu(z2)
        p2 = maxpool2x2(a2)
        d, mask = dropout(p2, self.config.dropout_rate, mode, rng)
        flat = d.reshape(-1)
        fc_out = dense(flat, self.fc_w, self.fc_b)
        cache = {"x0": x0, "z1": z1, "a1": a1, "p1": p1, "z2": z2, "a2": a2,
                 "p2": p2, "mask": mask, "flat": flat, "fc_out": fc_out}

        if self.config.head == HEAD_QUANTUM:
            x_sub = fc_out[: self.config.n_qubits].astype(np.float64)
            p_q = pqc_forward(x_sub, self.theta.astype(np.float64))
            z_out = float(self.w_out) * p_q + float(self.b_out)
            o1 = sigmoid(z_out)
            gamma = np.array([o1, 1.0 - o1], np.float32)
            cache.update({"x_sub": x_sub, "p_q": p_q, "o1": o1})
        else:
            logits = dense(fc_out, self.head_w, self.head_b)
            shifted = np.exp(logits - logits.max())
            gamma = (shifted / shifted.sum()).astype(np.float32)
            cache["gamma64"] = (shifted / shifted.sum()).astype(np.float64)
        cache["gamma"] = gamma
        self._cache = cache
        return gamma

    def backward(self, y: np.ndarray) -> dict[str, np.ndarray]:
        """Loss gradients for every active parameter; needs a cached forward."""
        if self._cache is None:
            raise ShapeMismatch("backward called before forward")
        c = self._cache
        y = np.asarray(y, dtype=np.float32)
        cfg = self.config

        if cfg.head == HEAD_QUANTUM:
            dgamma = cross_entropy_grad(c["gamma"], y)
            do1 = float(dgamma[0]) - float(dgamma[1])
            o1 = c["o1"]
            dz_out = do1 * o1 * (1.0 - o1)
            grads_head = {
                "w_out": np.array(dz_out * c["p_q"], np.float32),
                "b_out": np.array(dz_out, np.float32),
            }
            dp_q = dz_out * float(self.w_out)
            grad_x_sub, grad_theta = pqc_backward(c["x_sub"], self.theta.astype(np.float64), upstream=dp_q)
            grads_head["theta"] = grad_theta.astype(np.float32)
            dfc = np.zeros(cfg.fc_out, np.float32)
            dfc[: cfg.n_qubits] = grad_x_sub.astype(np.float32)
        else:
            # softmax + cross-entropy collapse to (probabilities - labels)
            dlogits = (c["gamma64"] - y).astype(np.float32)
            dfc, dhead_w, dhead_b = dense_backward(dlogits, c["fc_out"], self.head_w)
            grads_head = {"head_w": dhead_w, "head_b": dhead_b}

        dflat, dfc_w, dfc_b = dense_backward(dfc, c["flat"], self.fc_w)
        dd = dflat.reshape(c["p2"].shape)
        dp2 = dropout_backward(dd, c["mask"], cfg.dropout_rate)
        da2 = maxpool2x2_backward(dp2, c["a2"])
        dz2 = relu_backward(da2, c["z2"])
        dp1, dconv2_w, dconv2_b = conv2d_backward(dz2, c["p1"], self.conv2_w)
        da1 = maxpool2x2_backward(dp1, c["a1"])
        dz1 = relu_backward(da1, c["z1"])
        _, dconv1_w, dconv1_b = conv2d_backward(dz1, c["x0"], self.conv1_w)

        grads = {"conv1_w": dconv1_w, "conv1_b": dconv1_b,
                 "conv2_w": dconv2_w, "conv2_b": dconv2_b,
                 "fc_w": dfc_w, "fc_b": dfc_b}
        grads.update(grads_head)
        return grads


def backward(model: CqcnnModel, img: np.ndarray, y: np.ndarray,
             mode: str = "train", rng: Rng | None = None) -> tuple[float, dict[str, np.ndarray]]:
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
    wall_time_s: float

    @property
    def train_acc(self) -> float:
        return self.train_eval.metrics["accuracy"]


def _one_hot(label: int) -> np.ndarray:
    y = np.zeros(2, np.float32)
    y[int(label)] = 1.0
    return y


def evaluate(model: CqcnnModel, dataset: Dataset) -> EvalResult:
    """Deterministic eval-mode pass: argmax predictions vs labels."""
    if not dataset:
        raise EmptyDataset("evaluation set is empty")
    counts = ConfusionCounts()
    total_loss = 0.0
    for img, label in dataset:
        gamma = model.forward(img, mode="eval")
        counts.add(int(np.argmax(gamma)), int(label))
        total_loss += cross_entropy(gamma, _one_hot(label))
    return EvalResult(counts, classify_metrics(counts), total_loss / len(dataset))


def train_epoch(model: CqcnnModel, dataset: Dataset, optimizer: Optimizer,
                seed: int, epoch: int = 0, batch_size: int = 1) -> EpochReport:
    """One seeded-shuffled pass with per-batch updates; mutates the model.

    batch_size 1 reproduces plain per-sample updates; larger sizes average
    gradients across the batch before stepping.
    """
    if not dataset:
        raise EmptyDataset("training set is empty")
    start = time.perf_counter()
    rng = Rng(seed).derive(f"epoch:{epoch}")
    order = rng.derive("shuffle").permutation(len(dataset))
    drop_rng = rng.derive("dropout")

    params = model.params()
    total_loss = 0.0
    batch_grads: dict[str, np.ndarray] | None = None
    in_batch = 0
    for pos, idx in enumerate(order):
        img, label = dataset[int(idx)]
        loss, grads = backward(model, img, _one_hot(label), mode="train", rng=drop_rng)
        total_loss += loss
        if batch_grads is None:
            batch_grads = {k: v.astype(np.float32).copy() for k, v in grads.items()}
        else:
            for k, v in grads.items():
                batch_grads[k] += v
        in_batch += 1
        if in_batch == batch_size or pos == len(order) - 1:
            for k in batch_grads:
                batch_grads[k] /= np.float32(in_batch)
            optimizer.step(params, batch_grads)
            batch_grads, in_batch = None, 0

    train_eval = evaluate(model, dataset)
    return EpochReport(epoch, total_loss / len(dataset), train_eval, time.perf_counter() - start)
