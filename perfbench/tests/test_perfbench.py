"""Self-tests of the benchmark: span arithmetic, computed counts, metric names, verdicts.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import compare
import metrics
import tracer
from cqbrain import cqcnn, qsim, skullnet
from cqbrain.neuralkernel import ops
from cqbrain.rng import Rng

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _span(name, start, end, parent):
    return [name, start, end, parent, "r0:test", False, None]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a1", 2.0, 3.0, 1),     # grandchild: covered by a, not counted twice in root
        _span("b", 3.0, 6.0, 0),      # overlaps a: [1, 6] is covered once
        _span("c", 8.0, 12.0, 0),     # runs past its parent: only [8, 10] counts
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_layer_metrics_sum_calls_and_times_per_name():
    spans = [_span("qsim.pqc_backward", 0.0, 2.0, -1), _span("qsim.pqc_backward", 3.0, 3.5, -1)]
    out = tracer.layer_metrics(spans, {})
    assert out["qsim.pqc_backward.calls"] == 2
    assert out["qsim.pqc_backward.s"] == pytest.approx(2.5)
    assert out["qsim.pqc_backward.self_s"] == pytest.approx(2.5)


@pytest.mark.parametrize("n_qubits, circuits", [(2, 1 + 2 * 5), (3, 1 + 2 * 9)])
def test_circuit_count_for_one_forward_and_backward(n_qubits, circuits):
    x = np.linspace(0.1, 0.9, n_qubits)
    theta = np.linspace(0.3, 1.2, n_qubits)
    tr = tracer.Tracer()
    with tr.installed():
        tr.command = "r0:test"
        cqcnn.pqc_forward(x, theta)
        cqcnn.pqc_backward(x, theta, upstream=1.0)
    assert tr.counters["qsim.circuits"] == circuits
    assert [s[tracer.NAME] for s in tr.spans] == ["qsim.pqc_forward", "qsim.pqc_backward"]


def test_conv_counts_for_a_known_shape():
    rng = np.random.default_rng(0)
    x = rng.random((1, 3, 8, 8), dtype=np.float32)
    w = rng.random((4, 3, 3, 3), dtype=np.float32)
    b = np.zeros(4, np.float32)
    image = rng.random((1, 1, 8, 8), dtype=np.float32)
    w1 = rng.random((3, 1, 3, 3), dtype=np.float32)
    tr = tracer.Tracer()
    with tr.installed():
        tr.command = "r0:test"
        y = cqcnn.conv2d(x, w, b)                        # 4 x 27 taps at 6 x 6 positions
        cqcnn.conv2d_backward(np.ones_like(y), x, w)     # weight and input gradients
        z = cqcnn.conv2d(image, w1, np.zeros(3, np.float32))
        cqcnn.conv2d_backward(np.ones_like(z), image, w1)  # input gradient of the image: wasted
    forward = 2 * 4 * 27 * 36
    image_forward = 2 * 3 * 9 * 36
    assert tr.counters["neuralkernel.conv_flop.cqcnn"] == 3 * forward + 3 * image_forward
    assert tr.counters["neuralkernel.im2col_bytes.cqcnn"] == 2 * 27 * 36 * 4 + 2 * 9 * 36 * 4
    out = tracer.layer_metrics(tr.spans, tr.counters)
    assert out["neuralkernel.conv_dx_useful_ratio.cqcnn"] == pytest.approx(
        forward / (forward + image_forward))


def test_unet_convolutions_are_attributed_to_levels():
    model = skullnet.UNet(skullnet.UNetConfig(input_size=8, widths=(2, 4)), Rng(0))
    tr = tracer.Tracer()
    with tr.installed():
        tr.command = "r0:test"
        model.backward(np.ones_like(model.forward(np.ones((1, 1, 8, 8), np.float32))))
    out = tracer.layer_metrics(tr.spans, tr.counters)
    assert out["skullnet.level0.s"] > 0 and out["skullnet.level1.s"] > 0
    assert "skullnet.level2.s" not in out
    assert out["skullnet.UNet.forward.calls"] == 1


def test_wrappers_are_restored_and_idle_outside_commands():
    originals = (cqcnn.conv2d, skullnet.conv2d, qsim.pqc_forward, cqcnn.CqcnnModel.__dict__["forward"])
    tr = tracer.Tracer()
    with tr.installed():
        assert cqcnn.conv2d is not ops.conv2d
        qsim.pqc_forward([0.1, 0.2], [0.3, 0.4])   # no command set: not recorded
    assert tr.spans == []
    assert (cqcnn.conv2d, skullnet.conv2d, qsim.pqc_forward,
            cqcnn.CqcnnModel.__dict__["forward"]) == originals
    assert cqcnn.conv2d is ops.conv2d


def test_metric_names_fit_the_pattern_and_are_unique():
    names = list(metrics.END_TO_END) + list(metrics.DETAIL) + list(metrics.PER_LAYER_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert len(metrics.PER_LAYER_NAMES) <= 128
    for layer in metrics.LAYERS:
        assert any(n.startswith(layer + ".") for n in metrics.PER_LAYER_NAMES), layer


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == metrics.PER_LAYER_NAMES
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == metrics.per_layer_unit(m["name"]), m["name"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [v * 1.2 for v in parent]
    assert compare.verdict(parent, faster, True, 0.1, 0, 0) == ("improved", 1.0)
    assert compare.verdict(parent, faster, True, 0.1, 0, 1)[0] != "improved"  # more failures
    assert compare.verdict(parent, [v * 0.8 for v in parent], True, 0.1, 0, 0)[0] == "worse"
    assert compare.verdict(parent, list(reversed(parent)), True, 0.1, 0, 0)[0] == "unchanged"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, noisy[::-1], True, 0.1, 0, 0)[0] == "unresolved"
    assert compare.verdict(parent, faster, False, 0.1, 0, 0)[0] == "worse"  # lower is better
