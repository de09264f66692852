"""Classification and segmentation quality metrics.

Degenerate denominators follow fixed conventions so reports stay
deterministic: 0/0 ratios are 0, and two empty masks score perfect
overlap (1, 1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgument


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def add(self, pred: int, truth: int) -> None:
        if truth == 1:
            if pred == 1:
                self.tp += 1
            else:
                self.fn += 1
        else:
            if pred == 1:
                self.fp += 1
            else:
                self.tn += 1


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def classify_metrics(counts: ConfusionCounts) -> dict[str, float]:
    """Accuracy, precision, recall, F1, specificity from confusion counts."""
    precision = _ratio(counts.tp, counts.tp + counts.fp)
    recall = _ratio(counts.tp, counts.tp + counts.fn)
    return {
        "accuracy": _ratio(counts.tp + counts.tn, counts.total),
        "precision": precision,
        "recall": recall,
        "f1": _ratio(2.0 * precision * recall, precision + recall),
        "specificity": _ratio(counts.tn, counts.tn + counts.fp),
    }


def dice_iou(pred_mask: np.ndarray, true_mask: np.ndarray) -> tuple[float, float]:
    """Overlap coefficients of two masks, binarized at 0.5."""
    pred_mask = np.asarray(pred_mask)
    true_mask = np.asarray(true_mask)
    if pred_mask.shape != true_mask.shape:
        raise InvalidArgument(f"mask shapes differ: {pred_mask.shape} vs {true_mask.shape}")
    a = pred_mask >= 0.5
    b = true_mask >= 0.5
    inter = int(np.count_nonzero(a & b))
    size_sum = int(np.count_nonzero(a)) + int(np.count_nonzero(b))
    union = int(np.count_nonzero(a | b))
    if size_sum == 0:
        return 1.0, 1.0
    return 2.0 * inter / size_sum, inter / union
