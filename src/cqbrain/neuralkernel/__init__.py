"""Deterministic tensor kernels with hand-written backprop, optimizers, and metrics.

Tensors are plain float32 numpy arrays. Every forward op has a paired
`*_backward` returning analytic gradients; the pairing is verified against
central finite differences in the test suite.
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
    sigmoid,
    sigmoid_backward,
)
from .loss import cross_entropy, cross_entropy_grad
from .optim import (
    AdagradState,
    AdamState,
    Optimizer,
    RmspropState,
    SgdState,
    adagrad_step,
    adam_step,
    make_optimizer,
    rmsprop_step,
    sgd_step,
)
from .metrics import ConfusionCounts, classify_metrics, dice_iou

__all__ = [
    "conv2d", "conv2d_backward", "conv_transpose2x2", "conv_transpose2x2_backward",
    "dense", "dense_backward", "dropout", "dropout_backward", "glorot",
    "maxpool2x2", "maxpool2x2_backward", "relu", "relu_backward",
    "sigmoid", "sigmoid_backward",
    "cross_entropy", "cross_entropy_grad",
    "AdamState", "SgdState", "RmspropState", "AdagradState",
    "adam_step", "sgd_step", "rmsprop_step", "adagrad_step",
    "Optimizer", "make_optimizer",
    "ConfusionCounts", "classify_metrics", "dice_iou",
]
