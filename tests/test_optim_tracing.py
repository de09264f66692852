"""The benchmark's tracer still finds every training loop's optimizer step.

perfbench/tracer.py wraps `Optimizer.step` and names each span after the
module that calls it, so `cqcnn.optim_step`, `skullnet.optim_step` and
`diffusion.optim_step` exist only while `cqcnn.train_epoch`,
`skullnet.train_segmenter` and `diffusion.train_step` call the step
themselves. Each tiny run below makes a known number of steps.
"""
import math
import sys
from pathlib import Path

import numpy as np

from cqbrain.pipeline.cli import main
from cqbrain.pipeline.dataset import DatasetManifest, load_split
from cqbrain.volio import Image2D, write_pgm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def _pgms(directory: Path, count: int, size: int, seed: int) -> None:
    directory.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    for i in range(count):
        (directory / f"img_{i:02d}.pgm").write_bytes(write_pgm(Image2D(size, size, rng.random((size, size)))))


def _config(path: Path, **kv) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()), encoding="utf-8")
    return str(path)


def test_each_training_loop_reports_its_optimizer_steps(tmp_path):
    for cls in ("a", "b"):
        _pgms(tmp_path / "data" / cls / "axial", 5, 16, seed=ord(cls))
    _pgms(tmp_path / "imgs", 5, 16, seed=1)
    _pgms(tmp_path / "masks", 5, 16, seed=2)
    commands = {
        "build-dataset": _config(tmp_path / "ds.cfg", input_dir=tmp_path / "data", output_dir=tmp_path / "ds",
                                 plane="axial", balance="false", size=16),
        "train": _config(tmp_path / "tr.cfg", dataset=tmp_path / "ds" / "manifest.json",
                         output_dir=tmp_path / "run", epochs=2, timing="zero"),
        "segment-train": _config(tmp_path / "seg.cfg", images_dir=tmp_path / "imgs", masks_dir=tmp_path / "masks",
                                 output_dir=tmp_path / "seg", size=16, width_scale=0.125, epochs=2,
                                 batch_size=2, timing="zero"),
        "diffuse-train": _config(tmp_path / "diff.cfg", input_dir=tmp_path / "imgs", output_dir=tmp_path / "diff",
                                 size=16, widths="2,4", emb_dim=8, T=5, epochs=3, batch_size=4, timing="zero"),
    }
    t = tracer.Tracer()
    with t.installed():
        for i, (command, cfg) in enumerate(commands.items()):
            t.command = f"r{i}:{command}"
            assert main([command, "-c", cfg]) == 0
        t.command = None
    counts = tracer.layer_metrics(t.spans, t.counters)

    n_train = len(load_split(DatasetManifest.load(tmp_path / "ds" / "manifest.json"), "train"))
    assert n_train == 8  # 4 of each class's 5 images
    assert counts["cqcnn.optim_step.calls"] == 2 * n_train  # one step per sample
    assert counts["skullnet.optim_step.calls"] == 2 * math.ceil(5 / 2)
    assert counts["diffusion.optim_step.calls"] == 3 * math.ceil(5 / 4)
