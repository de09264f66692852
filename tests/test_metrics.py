import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqbrain.errors import InvalidArgument
from cqbrain.neuralkernel import ConfusionCounts, classify_metrics, dice_iou


class TestClassifyMetrics:
    def test_perfect_classifier(self):
        m = classify_metrics(ConfusionCounts(tp=1, fp=0, tn=9, fn=0))
        assert m["precision"] == 1.0
        assert m["specificity"] == 1.0
        assert m["accuracy"] == 1.0

    def test_hand_computed_mix(self):
        m = classify_metrics(ConfusionCounts(tp=8, fp=2, tn=6, fn=4))
        assert m["precision"] == pytest.approx(0.8)
        assert m["recall"] == pytest.approx(2 / 3)
        assert m["f1"] == pytest.approx(8 / 11)
        assert m["specificity"] == pytest.approx(0.75)
        assert m["accuracy"] == pytest.approx(0.7)

    def test_zero_denominator_convention(self):
        m = classify_metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=3))
        assert m["precision"] == 0.0
        assert m["f1"] == 0.0

    def test_add_helper(self):
        c = ConfusionCounts()
        for pred, truth in [(1, 1), (1, 0), (0, 0), (0, 1)]:
            c.add(pred, truth)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)
        assert c.total == 4

    @given(tp=st.integers(0, 50), fp=st.integers(0, 50), tn=st.integers(0, 50), fn=st.integers(0, 50))
    @settings(max_examples=200, deadline=None)
    def test_f1_identity(self, tp, fp, tn, fn):
        m = classify_metrics(ConfusionCounts(tp, fp, tn, fn))
        p, r = m["precision"], m["recall"]
        if p + r > 0:
            assert m["f1"] == pytest.approx(2 * p * r / (p + r))
        assert all(0.0 <= v <= 1.0 for v in m.values())


class TestDiceIou:
    def test_identical_nonempty(self):
        mask = np.zeros((4, 4))
        mask[1:3, 1:3] = 1.0
        assert dice_iou(mask, mask) == (1.0, 1.0)

    def test_disjoint_nonempty(self):
        a = np.zeros((4, 4))
        b = np.zeros((4, 4))
        a[0, 0] = 1.0
        b[3, 3] = 1.0
        assert dice_iou(a, b) == (0.0, 0.0)

    def test_half_overlap(self):
        a = np.zeros(8)
        b = np.zeros(8)
        a[:4] = 1.0
        b[2:6] = 1.0
        dice, iou = dice_iou(a, b)
        assert dice == pytest.approx(0.5)
        assert iou == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert dice_iou(np.zeros((3, 3)), np.zeros((3, 3))) == (1.0, 1.0)

    def test_binarization_at_half(self):
        a = np.array([0.49, 0.5, 0.51])
        b = np.array([0.0, 1.0, 1.0])
        assert dice_iou(a, b) == (1.0, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgument):
            dice_iou(np.zeros((2, 2)), np.zeros((3, 3)))

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=200, deadline=None)
    def test_iou_dice_identity(self, bits_a, bits_b):
        a = np.array([(bits_a >> i) & 1 for i in range(16)], dtype=float)
        b = np.array([(bits_b >> i) & 1 for i in range(16)], dtype=float)
        dice, iou = dice_iou(a, b)
        assert iou == pytest.approx(dice / (2.0 - dice))
