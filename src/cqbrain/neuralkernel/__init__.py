"""Deterministic tensor kernels with hand-written backprop, optimizers, and metrics.

Tensors are plain float32 numpy arrays. Every forward op has a paired
`*_backward` returning analytic gradients; the pairing is verified against
central finite differences in the test suite. A model keeps its trainable
tensors in one `Params`: named views into one flat float32 vector, which
an `Optimizer` updates with one elementwise rule and one step counter.
Every trainer runs its epochs through `run_epoch`, which shuffles and times them.
"""
from .ops import (
    conv2d,
    conv2d_backward,
    conv_transpose2x2,
    conv_transpose2x2_backward,
    dense,
    dense_backward,
    dropout,
    dropout_backward,
    glorot,
    maxpool2x2,
    maxpool2x2_backward,
    relu,
    relu_backward,
    relu_maxpool2x2_backward,
    sigmoid,
    sigmoid_backward,
)
from .loss import cross_entropy, cross_entropy_grad
from .optim import Optimizer, Params, make_optimizer, run_epoch
from .metrics import ConfusionCounts, classify_metrics, dice_iou

__all__ = [
    "conv2d", "conv2d_backward", "conv_transpose2x2", "conv_transpose2x2_backward",
    "dense", "dense_backward", "dropout", "dropout_backward", "glorot",
    "maxpool2x2", "maxpool2x2_backward", "relu", "relu_backward", "relu_maxpool2x2_backward",
    "sigmoid", "sigmoid_backward",
    "cross_entropy", "cross_entropy_grad",
    "Params", "Optimizer", "make_optimizer", "run_epoch",
    "ConfusionCounts", "classify_metrics", "dice_iou",
]
