"""End-to-end tests of dataset assembly and the CLI commands."""
import json
import math
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cqbrain import cqcnn, skullnet
from cqbrain.cqcnn import CqcnnConfig, CqcnnModel
from cqbrain.diffusion import NoisePredictor, NoisePredictorConfig, build_schedule
from cqbrain.errors import BadFormat, EmptyInput, InvalidArgument
from cqbrain.pipeline import commands
from cqbrain.pipeline.atomic import write_atomic
from cqbrain.pipeline.checkpoint import save_checkpoint
from cqbrain.pipeline.cli import main
from cqbrain.pipeline.dataset import DatasetManifest, build_dataset, load_split, split_90_10
from cqbrain.pipeline.modelio import pack_cqcnn, pack_predictor, pack_unet
from cqbrain.pipeline.report import write_csv
from cqbrain.rng import Rng
from cqbrain.skullnet import UNet, UNetConfig
from cqbrain.volio import Image2D, write_pgm

from fixtures import nifti_bytes
from oracles import diffuse_sample_pgms, synthesized_pgms
from synthcorpus import blob_image


def _write_pgms(directory, count, size=16, seed=0, label=0):
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        img = Image2D(size, size, blob_image(rng, size, label))
        path = directory / f"img_{i:04d}.pgm"
        path.write_bytes(write_pgm(img))
        paths.append(path)
    return paths


def _tiny_diffusion_ckpt(tmp_path, size=16):
    pred = NoisePredictor(NoisePredictorConfig(size, (2, 4), 8), Rng(0))
    path = tmp_path / "diff.cqck"
    save_checkpoint(path, pack_predictor(pred, build_schedule(5, 0.05, 0.3)))
    return path


class TestSplit:
    def test_90_10_counts(self):
        files = [f"f{i:03d}" for i in range(90)]
        train, test = split_90_10(files, Rng(0).derive("t"))
        assert len(train) == 81 and len(test) == 9
        assert not set(train) & set(test)
        train10, test10 = split_90_10(files[:10], Rng(0).derive("t"))
        assert len(train10) == 9 and len(test10) == 1

    def test_deterministic(self):
        files = [f"f{i}" for i in range(37)]
        assert split_90_10(files, Rng(3).derive("x")) == split_90_10(files, Rng(3).derive("x"))


class TestOneSampler:
    """`diffuse-sample` and balancing share one sampler; its bytes match each command's old loop."""

    @pytest.mark.parametrize("denoiser_size", [8, 16])
    def test_diffuse_sample_bytes_match_the_reference(self, tmp_path, denoiser_size):
        ckpt = _tiny_diffusion_ckpt(tmp_path, size=denoiser_size)
        cfg = _write_cfg(tmp_path / "s.cfg", checkpoint=ckpt, output_dir=tmp_path / "out", count=3, seed=5)
        assert main(["diffuse-sample", "-c", str(cfg)]) == 0
        written = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())}
        assert written == diffuse_sample_pgms(ckpt, 3, 5)

    @pytest.mark.parametrize("denoiser_size", [8, 16])  # resized into the 16 px dataset, and native
    def test_build_dataset_synthetic_bytes_match_the_reference(self, tmp_path, denoiser_size):
        root = tmp_path / "data"
        _write_pgms(root / "healthy" / "axial", 12, seed=1, label=0)
        _write_pgms(root / "disease" / "axial", 4, seed=2, label=1)
        ckpt = _tiny_diffusion_ckpt(tmp_path, size=denoiser_size)
        cfg = _write_cfg(tmp_path / "b.cfg", input_dir=root, output_dir=tmp_path / "out", plane="axial",
                         seed=3, size=16, diffusion_ckpt_axial=ckpt)
        assert main(["build-dataset", "-c", str(cfg)]) == 0
        synth_dir = tmp_path / "out" / "synthetic" / "disease" / "axial"
        written = {p.name: p.read_bytes() for p in sorted(synth_dir.iterdir())}
        assert len(written) == 10 - 3  # train splits: 90% of 12 real against 90% of 4
        assert written == synthesized_pgms(ckpt, len(written), 16, 3, "disease_axial")
        manifest = DatasetManifest.load(tmp_path / "out" / "manifest.json")
        assert [e.path for e in manifest.classes["disease"]["train"] if e.provenance == "synthetic"] == \
            [str(synth_dir / name) for name in written]


class TestBuildDataset:
    def test_imbalanced_classes_get_synthetic_topup(self, tmp_path):
        root = tmp_path / "data"
        _write_pgms(root / "healthy" / "axial", 90, seed=1, label=0)
        _write_pgms(root / "disease" / "axial", 10, seed=2, label=1)
        ckpt = _tiny_diffusion_ckpt(tmp_path)
        manifest = build_dataset(root, tmp_path / "out", "axial", seed=0,
                                 balance=True, diffusion_ckpts={"axial": ckpt}, image_size=16)
        counts = manifest.counts()
        assert counts["healthy"] == {"train": 81, "test": 9}
        assert counts["disease"] == {"train": 81, "test": 1}
        synth = [e for e in manifest.classes["disease"]["train"] if e.provenance == "synthetic"]
        assert len(synth) == 72
        assert all(e.provenance == "real" for e in manifest.classes["disease"]["test"])

    def test_balanced_classes_need_no_synthesis(self, tmp_path):
        root = tmp_path / "data"
        _write_pgms(root / "a" / "coronal", 20, seed=3)
        _write_pgms(root / "b" / "coronal", 20, seed=4)
        manifest = build_dataset(root, tmp_path / "out", "coronal", seed=0,
                                 balance=True, diffusion_ckpts={}, image_size=16)
        entries = [e for c in manifest.classes.values() for e in c["train"]]
        assert all(e.provenance == "real" for e in entries)

    def test_missing_checkpoint_raises(self, tmp_path):
        root = tmp_path / "data"
        _write_pgms(root / "a" / "axial", 30, seed=5)
        _write_pgms(root / "b" / "axial", 10, seed=6)
        with pytest.raises(InvalidArgument, match="needs a diffusion checkpoint"):
            build_dataset(root, tmp_path / "out", "axial", seed=0, balance=True, diffusion_ckpts={},
                          image_size=16)

    def test_three_plane_pooling(self, tmp_path):
        root = tmp_path / "data"
        for plane in ("axial", "coronal", "sagittal"):
            _write_pgms(root / "a" / plane, 10, seed=7)
            _write_pgms(root / "b" / plane, 10, seed=8)
        manifest = build_dataset(root, tmp_path / "out", "3plane", seed=0,
                                 balance=False, diffusion_ckpts={}, image_size=16)
        assert manifest.counts()["a"] == {"train": 27, "test": 3}

    def test_manifest_roundtrip_and_validation(self, tmp_path):
        root = tmp_path / "data"
        _write_pgms(root / "a" / "axial", 10, seed=9)
        _write_pgms(root / "b" / "axial", 10, seed=10)
        manifest = build_dataset(root, tmp_path / "out", "axial", seed=0,
                                 balance=False, diffusion_ckpts={}, image_size=16)
        loaded = DatasetManifest.load(tmp_path / "out" / "manifest.json")
        assert loaded.counts() == manifest.counts()
        loaded.classes["a"]["test"][0].provenance = "synthetic"
        with pytest.raises(BadFormat):
            loaded.validate()

    def test_load_split_labels_follow_sorted_class_order(self, tmp_path):
        root = tmp_path / "data"
        _write_pgms(root / "zzz" / "axial", 5, seed=11, label=1)
        _write_pgms(root / "aaa" / "axial", 5, seed=12, label=0)
        manifest = build_dataset(root, tmp_path / "out", "axial", seed=0,
                                 balance=False, diffusion_ckpts={}, image_size=16)
        data = load_split(manifest, "train")
        assert {label for _, label in data} == {0, 1}
        assert data[0][0].shape == (16, 16)

    def test_empty_input_rejected(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        with pytest.raises(EmptyInput):
            build_dataset(root, tmp_path / "out", "axial", seed=0, balance=True, diffusion_ckpts={},
                          image_size=16)


def _write_cfg(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()), encoding="utf-8")
    return path


class TestCli:
    def test_slice_command_and_determinism(self, tmp_path, capsys):
        vol_dir = tmp_path / "vols"
        vol_dir.mkdir()
        rng = np.random.default_rng(0)
        payload = nifti_bytes((16, 12, 16), rng.random(16 * 12 * 16))
        (vol_dir / "subj01.nii").write_bytes(payload)

        def run(out_name):
            cfg = _write_cfg(tmp_path / f"{out_name}.cfg",
                             input_dir=vol_dir, output_dir=tmp_path / out_name,
                             n=4, k1_axial=1, k2_axial=1, k1_coronal=1, k2_coronal=1,
                             k1_sagittal=1, k2_sagittal=1, size=16)
            assert main(["slice", "-c", str(cfg)]) == 0
            files = sorted((tmp_path / out_name).rglob("*.pgm"))
            return {f.relative_to(tmp_path / out_name): f.read_bytes() for f in files}

        first = run("out1")
        second = run("out2")
        # axial m=16 i=4 -> ceil(16/4)-2 = 2 slices; same for coronal; sagittal m=12 i=3 -> 2
        assert len(first) == 6
        assert first == second

    def test_slice_full_size_volume_yields_50_slices(self, tmp_path):
        # full-size 256x192x256 volume: axial/coronal plans give 15 each, sagittal 20
        vol_dir = tmp_path / "vols"
        vol_dir.mkdir()
        rng = np.random.default_rng(5)
        voxels = (rng.random(256 * 192 * 256) * 400 - 50).astype(np.int64)
        (vol_dir / "full.nii").write_bytes(nifti_bytes((256, 192, 256), voxels, datatype=4))
        cfg = _write_cfg(tmp_path / "full.cfg", input_dir=vol_dir,
                         output_dir=tmp_path / "slices", size=128)
        assert main(["slice", "-c", str(cfg)]) == 0
        out = tmp_path / "slices"
        assert len(list((out / "axial").glob("*.pgm"))) == 15
        assert len(list((out / "coronal").glob("*.pgm"))) == 15
        assert len(list((out / "sagittal").glob("*.pgm"))) == 20

    @pytest.mark.parametrize("field, value", [
        (108, math.nan), (108, math.inf), (108, 3.5), (108, 0.0), (108, 348.0),
        (112, math.nan), (112, math.inf), (116, math.nan), (116, -math.inf),
    ])
    def test_slice_bad_header_exits_2_naming_the_file(self, tmp_path, capsys, field, value):
        vol_dir = tmp_path / "vols"
        vol_dir.mkdir()
        payload = bytearray(nifti_bytes((8, 8, 8), np.arange(512), datatype=4, scl_slope=1.0))
        struct.pack_into("<f", payload, field, value)
        (vol_dir / "bad.nii").write_bytes(bytes(payload))
        cfg = _write_cfg(tmp_path / "s.cfg", input_dir=vol_dir, output_dir=tmp_path / "o", n=2,
                         k1_axial=0, k2_axial=0, k1_coronal=0, k2_coronal=0,
                         k1_sagittal=0, k2_sagittal=0, size=8)
        capsys.readouterr()
        assert main(["slice", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: bad.nii: ")

    @pytest.mark.parametrize("voxel, datatype, slope", [
        (math.nan, 16, 0.0), (math.inf, 16, 0.0), (30000, 4, 1e35),
    ], ids=["nan", "inf", "slope-overflow"])
    def test_slice_non_finite_voxel_exits_2_naming_the_file(self, tmp_path, capsys, voxel, datatype, slope):
        vol_dir = tmp_path / "vols"
        vol_dir.mkdir()
        voxels = np.ones(512)
        voxels[4 * 64] = voxel  # z = 4, on the second axial slice the plan takes
        (vol_dir / "bad.nii").write_bytes(nifti_bytes((8, 8, 8), voxels, datatype=datatype, scl_slope=slope))
        cfg = _write_cfg(tmp_path / "s.cfg", input_dir=vol_dir, output_dir=tmp_path / "o", n=2,
                         plane="axial", k1_axial=0, k2_axial=0, size=8)
        capsys.readouterr()
        assert main(["slice", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: bad.nii [axial]: axial slice 4 holds non-finite values")
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("good_first", [False, True], ids=["one-volume", "after-a-good-volume"])
    def test_failed_slice_leaves_no_pgm(self, tmp_path, good_first):
        vol_dir = tmp_path / "vols"
        vol_dir.mkdir()
        voxels = np.ones(512)
        if good_first:  # a.nii sorts first and slices cleanly; its PGMs go too
            (vol_dir / "a.nii").write_bytes(nifti_bytes((8, 8, 8), np.arange(512.0), datatype=16))
        voxels[4 * 64] = math.nan  # z = 4: the plan [0, 4] writes axial slice 0 first
        (vol_dir / "bad.nii").write_bytes(nifti_bytes((8, 8, 8), voxels, datatype=16))
        cfg = _write_cfg(tmp_path / "s.cfg", input_dir=vol_dir, output_dir=tmp_path / "o", n=2,
                         plane="axial", k1_axial=0, k2_axial=0, size=8)
        assert main(["slice", "-c", str(cfg)]) == 2
        assert (tmp_path / "o").is_dir()
        assert not list((tmp_path / "o").rglob("*.pgm"))

    def test_slice_two_file_nifti_exits_2(self, tmp_path, capsys):
        vol_dir = tmp_path / "vols"
        vol_dir.mkdir()
        (vol_dir / "pair.nii").write_bytes(nifti_bytes((8, 8, 8), np.arange(512), magic=b"ni1\x00"))
        cfg = _write_cfg(tmp_path / "s.cfg", input_dir=vol_dir, output_dir=tmp_path / "o", n=2, size=8)
        capsys.readouterr()
        assert main(["slice", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: pair.nii: unrecognized magic b'ni1\\x00'")
        assert not (tmp_path / "o").exists()

    def test_slice_holds_one_payload_at_a_time(self, tmp_path):
        vol_dir = tmp_path / "vols"
        vol_dir.mkdir()
        rng = np.random.default_rng(6)
        for name in ("a.nii", "b.nii"):
            voxels = rng.integers(0, 1000, 64 ** 3)
            (vol_dir / name).write_bytes(nifti_bytes((64, 64, 64), voxels, datatype=4, scl_slope=0.5))
        payload = (vol_dir / "a.nii").stat().st_size
        cfg = _write_cfg(tmp_path / "s.cfg", input_dir=vol_dir, output_dir=tmp_path / "o", n=4,
                         k1_axial=0, k2_axial=0, k1_coronal=0, k2_coronal=0,
                         k1_sagittal=0, k2_sagittal=0, size=16)
        tracemalloc.start()
        try:
            assert main(["slice", "-c", str(cfg)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(list((tmp_path / "o").rglob("*.pgm"))) == 2 * 3 * 4
        assert peak < 1.5 * payload, f"peak {peak} B, payload {payload} B"

    def test_slice_empty_dir_fails_with_runtime_code(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        cfg = _write_cfg(tmp_path / "s.cfg", input_dir=empty, output_dir=tmp_path / "o")
        assert main(["slice", "-c", str(cfg)]) == 2

    def test_directory_given_for_a_file_exits_1_naming_the_key(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "t.cfg", dataset=tmp_path, output_dir=tmp_path / "o")
        capsys.readouterr()
        assert main(["train", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err == f"config error: dataset: path {str(tmp_path)!r} is not a file\n"

    def test_file_given_for_a_directory_exits_1_naming_the_key(self, tmp_path, capsys):
        ckpt = _tiny_diffusion_ckpt(tmp_path)
        cfg = _write_cfg(tmp_path / "s.cfg", input_dir=ckpt, output_dir=tmp_path / "o")
        capsys.readouterr()
        assert main(["slice", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err == f"config error: input_dir: path {str(ckpt)!r} is not a directory\n"

    def test_slice_directory_named_like_a_volume_exits_2(self, tmp_path, capsys):
        (tmp_path / "vols" / "x.nii").mkdir(parents=True)
        cfg = _write_cfg(tmp_path / "s.cfg", input_dir=tmp_path / "vols", output_dir=tmp_path / "o")
        capsys.readouterr()
        assert main(["slice", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x.nii" in err

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_bytes(b"dataset = \xff\xfe\n")
        capsys.readouterr()
        assert main(["train", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {cfg}: ")

    def test_unknown_config_key_fails_with_validation_code(self, tmp_path):
        cfg = _write_cfg(tmp_path / "bad.cfg", input_dir=tmp_path, output_dir=tmp_path,
                         bogus_key=1)
        assert main(["slice", "-c", str(cfg)]) == 1

    def test_train_evaluate_report_cycle(self, tmp_path):
        root = tmp_path / "data"
        _write_pgms(root / "a" / "axial", 12, size=16, seed=1, label=0)
        _write_pgms(root / "b" / "axial", 12, size=16, seed=2, label=1)
        ds_cfg = _write_cfg(tmp_path / "ds.cfg", input_dir=root, output_dir=tmp_path / "ds",
                            plane="axial", balance="false", size=16)
        assert main(["build-dataset", "-c", str(ds_cfg)]) == 0

        run_dir = tmp_path / "run1"
        train_cfg = _write_cfg(tmp_path / "t.cfg",
                               dataset=tmp_path / "ds" / "manifest.json",
                               output_dir=run_dir, run="demo", qubits=2, epochs=2,
                               dropout=0.0, lr=0.01, seed=0, timing="zero")
        assert main(["train", "-c", str(train_cfg)]) == 0
        assert (run_dir / "checkpoint.cqck").exists()
        curves = (run_dir / "curves.csv").read_text().splitlines()
        assert curves[0] == "run,plane,skull_stripped,qubits,seed,epoch,split,loss,accuracy,precision,recall,f1,specificity,epoch_time_s"
        assert len(curves) == 1 + 2 * 2  # two epochs x (train + test)

        eval_cfg = _write_cfg(tmp_path / "e.cfg", checkpoint=run_dir / "checkpoint.cqck",
                              dataset=tmp_path / "ds" / "manifest.json",
                              output=tmp_path / "eval.csv")
        assert main(["evaluate", "-c", str(eval_cfg)]) == 0
        assert (tmp_path / "eval.csv").read_text().startswith("split,n,loss,accuracy")

        rep_cfg = _write_cfg(tmp_path / "r.cfg", runs=run_dir, output=tmp_path / "summary.csv")
        assert main(["report", "-c", str(rep_cfg)]) == 0
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 2

    def test_train_rerun_is_byte_identical(self, tmp_path):
        root = tmp_path / "data"
        _write_pgms(root / "a" / "axial", 8, size=16, seed=3, label=0)
        _write_pgms(root / "b" / "axial", 8, size=16, seed=4, label=1)
        ds_cfg = _write_cfg(tmp_path / "ds.cfg", input_dir=root, output_dir=tmp_path / "ds",
                            plane="axial", balance="false", size=16)
        assert main(["build-dataset", "-c", str(ds_cfg)]) == 0

        outputs = []
        for name in ("r1", "r2"):
            cfg = _write_cfg(tmp_path / f"{name}.cfg",
                             dataset=tmp_path / "ds" / "manifest.json",
                             output_dir=tmp_path / name, run="same", qubits=2, epochs=1,
                             dropout=0.5, lr=0.001, seed=7, timing="zero")
            assert main(["train", "-c", str(cfg)]) == 0
            outputs.append({
                "ckpt": (tmp_path / name / "checkpoint.cqck").read_bytes(),
                "curves": (tmp_path / name / "curves.csv").read_bytes(),
            })
        assert outputs[0] == outputs[1]

    def test_epochs_zero_is_rejected_before_any_output(self, tmp_path, capsys):
        root = tmp_path / "data"
        _write_pgms(root / "a" / "axial", 4, size=16, seed=5, label=0)
        _write_pgms(root / "b" / "axial", 4, size=16, seed=6, label=1)
        ds_cfg = _write_cfg(tmp_path / "ds.cfg", input_dir=root, output_dir=tmp_path / "ds",
                            plane="axial", balance="false", size=16)
        assert main(["build-dataset", "-c", str(ds_cfg)]) == 0
        cfg = _write_cfg(tmp_path / "z.cfg", dataset=tmp_path / "ds" / "manifest.json",
                         output_dir=tmp_path / "zero", epochs=0, seed=9, timing="zero")
        capsys.readouterr()
        assert main(["train", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error: epochs: ")
        assert not (tmp_path / "zero").exists()

    def test_segment_and_diffuse_commands(self, tmp_path):
        img_dir = tmp_path / "imgs"
        mask_dir = tmp_path / "masks"
        rng = np.random.default_rng(1)
        img_dir.mkdir()
        mask_dir.mkdir()
        for i in range(6):
            img = rng.random((16, 16)).astype(np.float32)
            mask = np.zeros((16, 16), np.float32)
            mask[4:12, 4:12] = 1.0
            (img_dir / f"s{i}.pgm").write_bytes(write_pgm(Image2D(16, 16, img)))
            (mask_dir / f"s{i}.pgm").write_bytes(write_pgm(Image2D(16, 16, mask)))

        seg_cfg = _write_cfg(tmp_path / "seg.cfg", images_dir=img_dir, masks_dir=mask_dir,
                             output_dir=tmp_path / "seg", size=16, width_scale=0.25,
                             epochs=2, timing="zero")
        assert main(["segment-train", "-c", str(seg_cfg)]) == 0
        assert (tmp_path / "seg" / "checkpoint.cqck").exists()

        apply_cfg = _write_cfg(tmp_path / "app.cfg", checkpoint=tmp_path / "seg" / "checkpoint.cqck",
                               input_dir=img_dir, output_dir=tmp_path / "applied")
        assert main(["segment-apply", "-c", str(apply_cfg)]) == 0
        assert len(list((tmp_path / "applied" / "masks").glob("*.pgm"))) == 6
        assert len(list((tmp_path / "applied" / "stripped").glob("*.pgm"))) == 6

        diff_cfg = _write_cfg(tmp_path / "diff.cfg", input_dir=img_dir,
                              output_dir=tmp_path / "diff", size=16, widths="2,4",
                              emb_dim=8, T=5, epochs=2, batch_size=4, timing="zero")
        assert main(["diffuse-train", "-c", str(diff_cfg)]) == 0

        samp_cfg = _write_cfg(tmp_path / "samp.cfg", checkpoint=tmp_path / "diff" / "checkpoint.cqck",
                              output_dir=tmp_path / "samples", count=3, seed=1)
        assert main(["diffuse-sample", "-c", str(samp_cfg)]) == 0
        assert len(list((tmp_path / "samples").glob("*.pgm"))) == 3

    def test_segment_apply_bytes_do_not_depend_on_chunk(self, tmp_path, monkeypatch):
        img_dir = tmp_path / "imgs"
        count = skullnet.APPLY_CHUNK + 3  # one full chunk and a partial one
        _write_pgms(img_dir, count, size=16, seed=4)
        ckpt = tmp_path / "seg.cqck"
        save_checkpoint(ckpt, pack_unet(UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(2))))

        def run(out_name):
            cfg = _write_cfg(tmp_path / f"{out_name}.cfg", checkpoint=ckpt, input_dir=img_dir,
                             output_dir=tmp_path / out_name)
            assert main(["segment-apply", "-c", str(cfg)]) == 0
            return {p.relative_to(tmp_path / out_name): p.read_bytes()
                    for p in sorted((tmp_path / out_name).rglob("*.pgm"))}

        chunked = run("chunked")
        assert len(chunked) == 2 * count  # masks and stripped images
        monkeypatch.setattr(skullnet, "APPLY_CHUNK", 1)
        assert run("single") == chunked

    def test_diffuse_sample_rerun_is_byte_identical(self, tmp_path):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rng = np.random.default_rng(4)
        for i in range(8):
            (img_dir / f"x{i}.pgm").write_bytes(write_pgm(Image2D(16, 16, rng.random((16, 16)))))
        train_cfg = _write_cfg(tmp_path / "d.cfg", input_dir=img_dir, output_dir=tmp_path / "d",
                               size=16, widths="2,4", emb_dim=8, T=5, epochs=1,
                               batch_size=4, timing="zero")
        assert main(["diffuse-train", "-c", str(train_cfg)]) == 0
        blobs = []
        for name in ("s1", "s2"):
            cfg = _write_cfg(tmp_path / f"{name}.cfg", checkpoint=tmp_path / "d" / "checkpoint.cqck",
                             output_dir=tmp_path / name, count=2, seed=3)
            assert main(["diffuse-sample", "-c", str(cfg)]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).glob("*.pgm"))})
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("absolute", [False, True])
    def test_report_accepts_glob_patterns(self, tmp_path, monkeypatch, absolute):
        from cqbrain.pipeline.report import CURVE_COLUMNS

        for name in ("runB", "runA", "runC"):
            d = tmp_path / name
            d.mkdir()
            write_csv(d / "curves.csv", CURVE_COLUMNS, [{
                "run": name, "plane": "axial", "skull_stripped": "false", "qubits": "2",
                "seed": "0", "epoch": "0", "split": "test", "loss": "0.1",
                "accuracy": "0.9", "precision": "0.9", "recall": "0.9", "f1": "0.9",
                "specificity": "0.9", "epoch_time_s": "0.0"}])
        seen = []
        real = commands.summarize_runs
        monkeypatch.setattr(commands, "summarize_runs", lambda dirs, threshold: seen.extend(dirs) or real(dirs, threshold))
        monkeypatch.chdir(tmp_path)
        pattern = f"{tmp_path}/run*" if absolute else "run*"
        cfg = _write_cfg(tmp_path / "rep.cfg", runs=pattern, output=tmp_path / "sum.csv")
        assert main(["report", "-c", str(cfg)]) == 0
        assert [d.name for d in seen] == ["runA", "runB", "runC"]
        assert all(d.is_absolute() == absolute for d in seen)
        assert (tmp_path / "sum.csv").read_text().splitlines()[1].startswith("axial,false,2,3,")

    @pytest.mark.parametrize("case", ["segment_train_run", "no_classifier_columns", "non_numeric_epoch"])
    def test_report_on_a_foreign_curves_csv_exits_2_naming_it(self, tmp_path, capsys, case):
        from cqbrain.pipeline.report import CURVE_COLUMNS

        run = tmp_path / "run"
        run.mkdir()
        if case == "segment_train_run":
            write_csv(run / "curves.csv", commands.SEG_CURVE_COLUMNS, [
                {"run": "run", "seed": 0, "epoch": 0, "loss": 0.5, "dice": 0.8, "iou": 0.7, "epoch_time_s": 0}])
        elif case == "no_classifier_columns":
            write_csv(run / "curves.csv", ["epoch", "split", "loss"], [{"epoch": 0, "split": "test", "loss": 0.5}])
        else:
            row = dict.fromkeys(CURVE_COLUMNS, "0")
            write_csv(run / "curves.csv", CURVE_COLUMNS, [{**row, "split": "test", "epoch": "last"}])
        cfg = _write_cfg(tmp_path / "rep.cfg", runs=run, output=tmp_path / "sum.csv")
        assert main(["report", "-c", str(cfg)]) == 2
        assert f"error: {run / 'curves.csv'}: " in capsys.readouterr().err
        assert not (tmp_path / "sum.csv").exists()

    def test_skull_strip_flag_in_training(self, tmp_path):
        img_dir = tmp_path / "imgs"
        mask_dir = tmp_path / "masks"
        img_dir.mkdir()
        mask_dir.mkdir()
        rng = np.random.default_rng(2)
        for i in range(4):
            (img_dir / f"s{i}.pgm").write_bytes(write_pgm(Image2D(16, 16, rng.random((16, 16)))))
            mask = np.zeros((16, 16), np.float32)
            mask[2:14, 2:14] = 1.0
            (mask_dir / f"s{i}.pgm").write_bytes(write_pgm(Image2D(16, 16, mask)))
        seg_cfg = _write_cfg(tmp_path / "seg.cfg", images_dir=img_dir, masks_dir=mask_dir,
                             output_dir=tmp_path / "seg", size=16, width_scale=0.25,
                             epochs=1, timing="zero")
        assert main(["segment-train", "-c", str(seg_cfg)]) == 0

        root = tmp_path / "data"
        _write_pgms(root / "a" / "axial", 6, size=16, seed=7, label=0)
        _write_pgms(root / "b" / "axial", 6, size=16, seed=8, label=1)
        ds_cfg = _write_cfg(tmp_path / "ds.cfg", input_dir=root, output_dir=tmp_path / "ds",
                            plane="axial", balance="false", size=16)
        assert main(["build-dataset", "-c", str(ds_cfg)]) == 0
        cfg = _write_cfg(tmp_path / "tr.cfg", dataset=tmp_path / "ds" / "manifest.json",
                         output_dir=tmp_path / "xi", epochs=1, seed=0, timing="zero",
                         skull_strip="true", skullnet_ckpt=tmp_path / "seg" / "checkpoint.cqck")
        assert main(["train", "-c", str(cfg)]) == 0
        curves = (tmp_path / "xi" / "curves.csv").read_text()
        assert ",true," in curves  # skull_stripped column records the flag


class TestAtomicWrites:
    @staticmethod
    def _fail_halfway(monkeypatch):
        def write_bytes(self, data):
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", write_bytes)

    @pytest.mark.parametrize("writer", ["checkpoint", "csv", "manifest", "helper"])
    def test_failed_write_keeps_previous_file_and_no_temp(self, tmp_path, monkeypatch, writer):
        root = tmp_path / "data"
        _write_pgms(root / "a" / "axial", 4, seed=1)
        _write_pgms(root / "b" / "axial", 4, seed=2)
        manifest = build_dataset(root, tmp_path / "ds", "axial", seed=0, balance=False, diffusion_ckpts={},
                                 image_size=16)
        writes = {
            "checkpoint": lambda path, v: save_checkpoint(path, {"w": np.full(3, v, np.float32)}),
            "csv": lambda path, v: write_csv(path, ["a", "b"], [{"a": v, "b": v}] * 50),
            "manifest": lambda path, v: (setattr(manifest, "seed", v), manifest.save(path)),
            "helper": lambda path, v: write_atomic(path, str(v).encode() * 100),
        }
        out = tmp_path / "out"
        out.mkdir()
        target = out / "file"
        writes[writer](target, 1)
        before = target.read_bytes()
        self._fail_halfway(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            writes[writer](target, 2)
        assert target.read_bytes() == before
        assert [f.name for f in out.iterdir()] == ["file"]
        monkeypatch.undo()
        writes[writer](target, 2)
        assert target.read_bytes() != before
        assert [f.name for f in out.iterdir()] == ["file"]

    def test_failed_rename_leaves_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "checkpoint.cqck"
        save_checkpoint(target, {"w": np.zeros(2, np.float32)})
        before = target.read_bytes()

        def replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename refused"):
            save_checkpoint(target, {"w": np.ones(2, np.float32)})
        assert target.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["checkpoint.cqck"]

    def test_failed_write_into_a_new_directory_leaves_no_temp(self, tmp_path, monkeypatch):
        self._fail_halfway(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(tmp_path / "new" / "sub" / "x.csv", b"a,b\n" * 100)
        assert list((tmp_path / "new" / "sub").iterdir()) == []

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_output_in_a_missing_directory_is_created(self, tmp_path, command):
        run = tmp_path / "run"
        manifest = TestRobustTraining._dataset(tmp_path, 16)
        cfg = _write_cfg(tmp_path / "t.cfg", dataset=manifest, output_dir=run, epochs=1, timing="zero")
        assert main(["train", "-c", str(cfg)]) == 0
        out = tmp_path / "new" / "sub" / "x.csv"
        settings = ({"checkpoint": run / "checkpoint.cqck", "dataset": manifest} if command == "evaluate"
                    else {"runs": run})
        cfg = _write_cfg(tmp_path / "c.cfg", output=out, **settings)
        assert main([command, "-c", str(cfg)]) == 0
        assert out.read_text().startswith("split," if command == "evaluate" else "plane,")
        assert [f.name for f in out.parent.iterdir()] == ["x.csv"]


class TestSkullStripRule:
    """skull_strip = true without skullnet_ckpt exits 1 naming the key, before any input is read."""

    @staticmethod
    def _inputs(tmp_path):
        # each would make the command exit 2 once it is read
        manifest = tmp_path / "ds.json"
        entry = {"path": str(tmp_path / "missing.pgm"), "provenance": "real"}
        manifest.write_text(json.dumps({"classes": {"a": {"train": [entry], "test": [entry]}},
                                        "plane": "axial", "image_size": 16, "seed": 0}))
        not_cqck = tmp_path / "junk.cqck"
        not_cqck.write_bytes(b"junk")
        return {"train": {"dataset": manifest, "output_dir": tmp_path / "out"},
                "evaluate": {"checkpoint": not_cqck, "dataset": manifest, "output": tmp_path / "out" / "e.csv"}}

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_rule_is_checked_before_the_inputs(self, tmp_path, capsys, command):
        settings = self._inputs(tmp_path)[command]
        cfg = _write_cfg(tmp_path / "c.cfg", **settings)
        assert main([command, "-c", str(cfg)]) == 2  # the inputs are read without the flag
        capsys.readouterr()
        cfg = _write_cfg(tmp_path / "c.cfg", skull_strip="true", **settings)
        assert main([command, "-c", str(cfg)]) == 1
        assert capsys.readouterr().err == "config error: skullnet_ckpt: required when skull_strip = true\n"
        assert not (tmp_path / "out").exists()


class TestRobustTraining:
    @staticmethod
    def _dataset(tmp_path, size):
        root = tmp_path / "data"
        _write_pgms(root / "a" / "axial", 5, size=size, seed=11, label=0)
        _write_pgms(root / "b" / "axial", 5, size=size, seed=12, label=1)
        cfg = _write_cfg(tmp_path / "ds.cfg", input_dir=root, output_dir=tmp_path / "ds",
                         plane="axial", balance="false", size=size)
        assert main(["build-dataset", "-c", str(cfg)]) == 0
        return tmp_path / "ds" / "manifest.json"

    def test_skull_strip_keeps_manifest_image_size(self, tmp_path):
        img_dir, mask_dir = tmp_path / "imgs", tmp_path / "masks"
        _write_pgms(img_dir, 2, size=16, seed=3)
        mask = np.zeros((16, 16), np.float32)
        mask[2:14, 2:14] = 1.0
        mask_dir.mkdir()
        for name in ("img_0000.pgm", "img_0001.pgm"):
            (mask_dir / name).write_bytes(write_pgm(Image2D(16, 16, mask)))
        seg_cfg = _write_cfg(tmp_path / "seg.cfg", images_dir=img_dir, masks_dir=mask_dir,
                             output_dir=tmp_path / "seg", size=16, width_scale=0.25,
                             epochs=1, timing="zero")
        assert main(["segment-train", "-c", str(seg_cfg)]) == 0
        ckpt = tmp_path / "seg" / "checkpoint.cqck"
        manifest = self._dataset(tmp_path, 32)

        stripped = commands._strip_dataset(load_split(DatasetManifest.load(manifest), "train"), ckpt)
        assert {img.shape for img, _ in stripped} == {(32, 32)}
        cfg = _write_cfg(tmp_path / "tr.cfg", dataset=manifest, output_dir=tmp_path / "run",
                         epochs=1, seed=0, timing="zero", skull_strip="true", skullnet_ckpt=ckpt)
        assert main(["train", "-c", str(cfg)]) == 0
        assert ",true," in (tmp_path / "run" / "curves.csv").read_text()

    @pytest.mark.parametrize("head", ["quantum", "classical"])
    def test_divergence_exits_2_naming_epoch_and_sample(self, tmp_path, monkeypatch, capsys, head):
        class NanModel(commands.CqcnnModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.params()["conv1_w"][0, 0, 0, 0] = np.nan

        monkeypatch.setattr(commands, "CqcnnModel", NanModel)
        cfg = _write_cfg(tmp_path / "tr.cfg", dataset=self._dataset(tmp_path, 16),
                         output_dir=tmp_path / "run", head=head, epochs=1, seed=0)
        assert main(["train", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "diverged at epoch 0, shuffled position 0 (dataset index" in err
        assert not (tmp_path / "run" / "checkpoint.cqck").exists()

    @pytest.mark.parametrize("settings, key", [
        ({"qubits": 4}, "qubits"),
        ({"qubits": 1, "head": "classical"}, "qubits"),
        ({"qubits": 3, "fc_width": 2}, "fc_width"),
    ])
    def test_bad_head_config_exits_1_naming_the_key(self, tmp_path, capsys, settings, key):
        cfg = _write_cfg(tmp_path / "tr.cfg", dataset=self._dataset(tmp_path, 16),
                         output_dir=tmp_path / "run", epochs=1, **settings)
        capsys.readouterr()
        assert main(["train", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not (tmp_path / "run").exists()


class TestLoadTimeBounds:
    """train, slice and build-dataset: each bad value exits 1 naming the key, before any input is read."""

    @staticmethod
    def _base(tmp_path, command):
        empty = tmp_path / "empty"  # reading it would fail with exit 2, so exit 1 means it was not read
        empty.mkdir(exist_ok=True)
        out = tmp_path / "out"
        if command == "train":
            not_a_manifest = tmp_path / "junk.json"
            not_a_manifest.write_text("junk")
            return {"dataset": not_a_manifest, "output_dir": out}
        return {"input_dir": empty, "output_dir": out}

    @pytest.mark.parametrize("command, settings, key", [
        ("train", {"epochs": 0}, "epochs"),
        ("train", {"epochs": -3}, "epochs"),
        ("train", {"lr": -1}, "lr"),
        ("train", {"lr": 0}, "lr"),
        ("train", {"fc_width": -2}, "fc_width"),
        ("train", {"dropout": 1.5}, "dropout"),
        ("train", {"dropout": 1}, "dropout"),
        ("train", {"dropout": -0.1}, "dropout"),
        ("slice", {"n": 0}, "n"),
        ("slice", {"size": 0}, "size"),
        ("slice", {"k1_axial": -1}, "k1_axial"),
        ("slice", {"k2_sagittal": -1}, "k2_sagittal"),
        ("build-dataset", {"size": 0}, "size"),
        ("build-dataset", {"size": -16}, "size"),
    ])
    def test_bad_value_exits_1_before_reading_input(self, tmp_path, capsys, command, settings, key):
        cfg = _write_cfg(tmp_path / "c.cfg", **{**self._base(tmp_path, command), **settings})
        capsys.readouterr()
        assert main([command, "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not (tmp_path / "out").exists()

    def test_batch_size_is_an_unknown_train_key(self, tmp_path, capsys):
        """The classifier updates after every sample, so `train` takes no batch size."""
        cfg = _write_cfg(tmp_path / "c.cfg", **{**self._base(tmp_path, "train"), "batch_size": 1})
        capsys.readouterr()
        assert main(["train", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err == "config error: unknown keys: batch_size\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, settings", [("slice", {"k1_axial": 0}), ("build-dataset", {})])
    def test_values_in_range_reach_the_input(self, tmp_path, command, settings):
        cfg = _write_cfg(tmp_path / "c.cfg", **{**self._base(tmp_path, command), **settings})
        assert main([command, "-c", str(cfg)]) == 2

    def test_train_values_at_the_bounds_run(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.cfg", dataset=TestRobustTraining._dataset(tmp_path, 16),
                         output_dir=tmp_path / "out", epochs=1, dropout=0, fc_width=0)
        assert main(["train", "-c", str(cfg)]) == 0


class TestMalformedManifests:
    """train and evaluate on a file that is not a dataset manifest exit 2 with `error: <path>: ...`."""

    _ENTRY = {"path": "x.pgm", "provenance": "real"}
    _CLASS = {"train": [_ENTRY], "test": []}
    _VALID = {"classes": {"a": _CLASS, "b": _CLASS}, "plane": "axial", "image_size": 16, "seed": 0}
    ONE_CLASS = json.dumps({**_VALID, "classes": {"a": _CLASS}}).encode()
    THREE_CLASSES = json.dumps({**_VALID, "classes": {"a": _CLASS, "b": _CLASS, "c": _CLASS}}).encode()
    CASES = [
        (b"\xff\xfe{}", "not UTF-8"),
        (b"junk", "not JSON"),
        (b"[1, 2]", "not a JSON object"),
        (b"{}", "manifest keys []"),
        (json.dumps({**_VALID, "bogus": 1}).encode(), "manifest keys"),
        (json.dumps({**_VALID, "classes": []}).encode(), "classes is not an object"),
        (json.dumps({**_VALID, "classes": {"a": {"train": []}}}).encode(), "train and test"),
        (json.dumps({**_VALID, "classes": {"a": {"train": {}, "test": []}}}).encode(), "not a list"),
        (json.dumps({**_VALID, "classes": {"a": {"train": [{**_ENTRY, "size": 3}], "test": []}}}).encode(),
         "path and provenance"),
        (json.dumps({**_VALID, "classes": {"a": {"train": [{"path": 1, "provenance": "real"}],
                                                 "test": []}}}).encode(), "bad entry"),
        (json.dumps({**_VALID, "image_size": "16"}).encode(), "image_size is not an integer"),
        (json.dumps({**_VALID, "image_size": 0}).encode(), "image_size is below 1"),
        (json.dumps({**_VALID, "seed": True}).encode(), "seed is not an integer"),
        (json.dumps({**_VALID, "plane": None}).encode(), "plane is not a string"),
        (json.dumps({**_VALID, "extra": [1]}).encode(), "extra is not an object"),
        (ONE_CLASS, "needs exactly two classes, found ['a']"),
        (THREE_CLASSES, "needs exactly two classes, found ['a', 'b', 'c']"),
    ]

    @pytest.mark.parametrize("content, message", CASES, ids=[message for _, message in CASES])
    def test_load_raises_bad_format_naming_the_file(self, tmp_path, content, message):
        path = tmp_path / "manifest.json"
        path.write_bytes(content)
        with pytest.raises(BadFormat, match=f"^{path}: ") as info:
            DatasetManifest.load(path)
        assert message in str(info.value)

    def test_valid_manifest_loads(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(self._VALID))
        assert DatasetManifest.load(path).counts() == {c: {"train": 1, "test": 0} for c in "ab"}

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("content", [b"\xff", b"junk", b"{}", CASES[8][0], ONE_CLASS, THREE_CLASSES],
                             ids=["not UTF-8", "not JSON", "no keys", "unknown entry field", "one class",
                                  "three classes"])
    def test_commands_exit_2(self, tmp_path, capsys, command, content):
        path = tmp_path / "manifest.json"
        path.write_bytes(content)
        if command == "train":
            settings = {"output_dir": tmp_path / "o"}
        else:
            ckpt = tmp_path / "c.cqck"
            save_checkpoint(ckpt, commands.pack_cqcnn(commands.CqcnnModel(commands.CqcnnConfig(image_size=16))))
            settings = {"checkpoint": ckpt, "output": tmp_path / "out.csv"}
        cfg = _write_cfg(tmp_path / "c.cfg", dataset=path, **settings)
        capsys.readouterr()
        assert main([command, "-c", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestMalformedCheckpoints:
    """evaluate, segment-apply and diffuse-sample on a malformed checkpoint exit 2 with `error: ...`."""

    @staticmethod
    def _checkpoint(tmp_path, kind, damage):
        if kind == "classifier":
            tensors = commands.pack_cqcnn(commands.CqcnnModel(commands.CqcnnConfig(image_size=16)))
        elif kind == "segmenter":
            tensors = pack_unet(UNet(UNetConfig(input_size=16, widths=(2, 4)), Rng(0)))
        else:
            tensors = pack_predictor(NoisePredictor(NoisePredictorConfig(8, (2, 4), 8), Rng(0)),
                                     build_schedule(5, 0.05, 0.3))
        damage(tensors)
        path = tmp_path / "bad.cqck"
        save_checkpoint(path, tensors)
        return path

    @staticmethod
    def _resize_last_param(tensors):
        key = max(k for k in tensors if k.startswith("param_"))
        tensors[key] = np.zeros(tensors[key].size + 1, np.float32)

    @pytest.mark.parametrize("kind", ["classifier", "segmenter", "denoiser"])
    @pytest.mark.parametrize("damage, message", [
        (lambda t: t.pop(min(k for k in t if k.startswith("param_"))), "missing"),
        (lambda t: t.update(param_extra=np.zeros(3, np.float32)), "unknown ['extra']"),
        (lambda t: TestMalformedCheckpoints._resize_last_param(t), "values"),
        (lambda t: t.update(meta_kind=np.float32(np.nan)), "expected integers"),
        (lambda t: t.update(meta_kind=np.float32(0.5)), "expected integers"),
    ])
    def test_commands_exit_2(self, tmp_path, capsys, kind, damage, message):
        ckpt = self._checkpoint(tmp_path, kind, damage)
        if kind == "classifier":
            manifest = TestRobustTraining._dataset(tmp_path, 16)
            command, settings = "evaluate", {"dataset": manifest, "output": tmp_path / "out.csv"}
        elif kind == "segmenter":
            _write_pgms(tmp_path / "imgs", 1)
            command, settings = "segment-apply", {"input_dir": tmp_path / "imgs", "output_dir": tmp_path / "o"}
        else:
            command, settings = "diffuse-sample", {"output_dir": tmp_path / "o", "count": 1}
        cfg = _write_cfg(tmp_path / "c.cfg", checkpoint=ckpt, **settings)
        capsys.readouterr()
        assert main([command, "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and message in err


    def test_out_of_range_schedule_exits_2(self, tmp_path, capsys):
        ckpt = self._checkpoint(tmp_path, "denoiser", lambda t: t.update(meta_beta_end=np.float32(1.5)))
        cfg = _write_cfg(tmp_path / "c.cfg", checkpoint=ckpt, output_dir=tmp_path / "o", count=1)
        capsys.readouterr()
        assert main(["diffuse-sample", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: checkpoint metadata describes no noise schedule: need ")
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _zero_channels(kind):
        """Metadata for zero channels, with the emptied parameters such a model would hold."""
        def damage(tensors):
            if kind == "classifier":
                tensors["meta_conv1_out"] = np.float32(0)
                empty = ("param_conv1_w", "param_conv1_b", "param_conv2_w")
            else:
                tensors["meta_in_channels"] = np.float32(0)
                empty = ("param_enc0_c1_w",)
            tensors.update({key: np.zeros(0, np.float32) for key in empty})
        return damage

    @pytest.mark.parametrize("kind, message", [("classifier", "'meta_conv1_out' is 0, every classifier has 2"),
                                               ("segmenter", "'meta_in_channels' is 0, every segmenter has 1")])
    def test_zero_channel_metadata_exits_2(self, tmp_path, capsys, kind, message):
        ckpt = self._checkpoint(tmp_path, kind, self._zero_channels(kind))
        if kind == "classifier":
            command, settings = "evaluate", {"dataset": TestRobustTraining._dataset(tmp_path, 16),
                                             "output": tmp_path / "out.csv"}
        else:
            _write_pgms(tmp_path / "imgs", 1)
            command, settings = "segment-apply", {"input_dir": tmp_path / "imgs", "output_dir": tmp_path / "o"}
        cfg = _write_cfg(tmp_path / "c.cfg", checkpoint=ckpt, **settings)
        capsys.readouterr()
        assert main([command, "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and message in err


class TestUnetCommandGuards:
    """segment-train, diffuse-train and diffuse-sample: bad keys exit 1, NaN training exits 2."""

    @staticmethod
    def _base(tmp_path, command):
        empty = tmp_path / "empty"  # reading it would fail with exit 2, so exit 1 means it was not read
        empty.mkdir(exist_ok=True)
        out = tmp_path / "out"
        if command == "segment-train":
            return {"images_dir": empty, "masks_dir": empty, "output_dir": out, "size": 16}
        if command == "diffuse-train":
            return {"input_dir": empty, "output_dir": out, "size": 16}
        not_a_checkpoint = tmp_path / "junk.cqck"
        not_a_checkpoint.write_bytes(b"junk")
        return {"checkpoint": not_a_checkpoint, "output_dir": out, "count": 2}

    @pytest.mark.parametrize("command, settings, key", [
        ("segment-train", {"batch_size": 0}, "batch_size"),
        ("segment-train", {"batch_size": -2}, "batch_size"),
        ("segment-train", {"epochs": 0}, "epochs"),
        ("segment-train", {"width_scale": -1}, "width_scale"),
        ("segment-train", {"width_scale": 0}, "width_scale"),
        ("segment-train", {"lr": "nan"}, "lr"),
        ("segment-train", {"lr": "inf"}, "lr"),
        ("segment-train", {"lr": -1}, "lr"),
        ("segment-train", {"size": 0}, "size"),
        ("diffuse-train", {"widths": "8,0"}, "widths"),
        ("diffuse-train", {"widths": "8,x"}, "widths"),
        ("diffuse-train", {"batch_size": 0}, "batch_size"),
        ("diffuse-train", {"epochs": 0}, "epochs"),
        ("diffuse-train", {"lr": "nan"}, "lr"),
        ("diffuse-train", {"T": 0}, "T"),
        ("diffuse-train", {"emb_dim": 0}, "emb_dim"),
        ("diffuse-train", {"emb_dim": 1}, "emb_dim"),
        ("diffuse-train", {"beta_start": 0}, "beta_start"),
        ("diffuse-train", {"beta_end": "nan"}, "beta_end"),
        ("segment-train", {"size": 24}, "size"),
        ("diffuse-train", {"size": 18, "widths": "2,4,8"}, "size, widths, emb_dim"),
        ("diffuse-train", {"widths": "8"}, "size, widths, emb_dim"),
        ("diffuse-train", {"emb_dim": 7}, "size, widths, emb_dim"),
        ("diffuse-train", {"beta_start": 0.5, "beta_end": 0.1}, "beta_start, beta_end"),
        ("diffuse-train", {"beta_end": 1.0}, "beta_start, beta_end"),
        ("diffuse-sample", {"count": 0}, "count"),
        ("diffuse-sample", {"count": -1}, "count"),
    ])
    def test_bad_value_exits_1_before_reading_input(self, tmp_path, capsys, command, settings, key):
        cfg = _write_cfg(tmp_path / "c.cfg", **{**self._base(tmp_path, command), **settings})
        capsys.readouterr()
        assert main([command, "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["segment-train", "diffuse-train", "diffuse-sample"])
    def test_base_config_reaches_the_input(self, tmp_path, command):
        cfg = _write_cfg(tmp_path / "c.cfg", **self._base(tmp_path, command))
        assert main([command, "-c", str(cfg)]) == 2

    def test_segment_train_nan_loss_exits_2_without_outputs(self, tmp_path, monkeypatch, capsys):
        class NanUNet(commands.UNet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.params()["head_b"][0] = np.nan

        monkeypatch.setattr(commands, "UNet", NanUNet)
        _write_pgms(tmp_path / "imgs", 3, size=16, seed=1)
        _write_pgms(tmp_path / "masks", 3, size=16, seed=2)
        cfg = _write_cfg(tmp_path / "c.cfg", images_dir=tmp_path / "imgs", masks_dir=tmp_path / "masks",
                         output_dir=tmp_path / "out", size=16, width_scale=0.125, epochs=1, batch_size=2)
        capsys.readouterr()
        assert main(["segment-train", "-c", str(cfg)]) == 2
        assert "diverged at epoch 0, shuffled position 0 (dataset index 0): loss is nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_diffuse_train_nan_loss_exits_2_without_outputs(self, tmp_path, monkeypatch, capsys):
        class NanPredictor(commands.NoisePredictor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.params()["temb_b"][0] = np.nan

        monkeypatch.setattr(commands, "NoisePredictor", NanPredictor)
        _write_pgms(tmp_path / "imgs", 3, size=16, seed=1)
        cfg = _write_cfg(tmp_path / "c.cfg", input_dir=tmp_path / "imgs", output_dir=tmp_path / "out",
                         size=16, widths="2,4", emb_dim=8, T=5, epochs=2, batch_size=2)
        capsys.readouterr()
        assert main(["diffuse-train", "-c", str(cfg)]) == 2
        assert "diverged at epoch 0, shuffled position 0 (dataset index 0): loss is nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOneDivergenceMessage:
    """The three trainers stop a non-finite loss with one message (exit 2), through one epoch pass."""

    @staticmethod
    def _poisoned(cls, tensor):
        class Poisoned(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.params()[tensor][...] = np.nan

        return Poisoned

    @pytest.mark.parametrize("command", ["train", "segment-train", "diffuse-train"])
    def test_nan_loss_names_epoch_position_and_index(self, tmp_path, monkeypatch, capsys, command):
        seed = 7  # the first shuffled sample is a different, nonzero dataset index for each trainer
        if command == "train":
            monkeypatch.setattr(commands, "CqcnnModel", self._poisoned(commands.CqcnnModel, "w_out"))
            settings = {"dataset": TestRobustTraining._dataset(tmp_path, 16)}
            first = Rng(seed).derive("epoch:0").derive("shuffle").permutation(8)[0]
        elif command == "segment-train":
            monkeypatch.setattr(commands, "UNet", self._poisoned(commands.UNet, "head_b"))
            _write_pgms(tmp_path / "imgs", 5, size=16, seed=1)
            _write_pgms(tmp_path / "masks", 5, size=16, seed=2)
            settings = {"images_dir": tmp_path / "imgs", "masks_dir": tmp_path / "masks", "size": 16,
                        "width_scale": 0.125, "batch_size": 2}
            first = Rng(seed).derive("seg-epoch:0").permutation(5)[0]
        else:
            monkeypatch.setattr(commands, "NoisePredictor", self._poisoned(commands.NoisePredictor, "temb_b"))
            _write_pgms(tmp_path / "imgs", 5, size=16, seed=1)
            settings = {"input_dir": tmp_path / "imgs", "size": 16, "widths": "2,4", "emb_dim": 8, "T": 5,
                        "batch_size": 2}
            first = Rng(seed).derive("shuffle:0").permutation(5)[0]
        assert first > 0
        cfg = _write_cfg(tmp_path / "c.cfg", output_dir=tmp_path / "out", epochs=2, seed=seed, **settings)
        capsys.readouterr()
        assert main([command, "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: training diverged at epoch 0, shuffled position 0 (dataset index {first}): loss is nan\n")
        assert not (tmp_path / "out").exists()


class TestShuffleStreams:
    """Each trainer's epoch pass draws its order from the trainer's own labelled stream."""

    @pytest.mark.parametrize("command", ["train", "segment-train", "diffuse-train"])
    def test_epoch_one_visits_the_labelled_streams_permutation(self, tmp_path, monkeypatch, command):
        seed = 7
        module = {"train": cqcnn, "segment-train": skullnet, "diffuse-train": commands}[command]
        real, seen = module.run_epoch, {}

        def recording(shuffle, n, batch_size, epoch, step):
            def spy(indices, b0):
                seen.setdefault(epoch, (n, []))[1].extend(int(i) for i in indices)
                return step(indices, b0)

            return real(shuffle, n, batch_size, epoch, spy)

        monkeypatch.setattr(module, "run_epoch", recording)
        if command == "train":
            settings = {"dataset": TestRobustTraining._dataset(tmp_path, 16)}
            stream = Rng(seed).derive("epoch:1").derive("shuffle")
        elif command == "segment-train":
            _write_pgms(tmp_path / "imgs", 5, size=16, seed=1)
            _write_pgms(tmp_path / "masks", 5, size=16, seed=2)
            settings = {"images_dir": tmp_path / "imgs", "masks_dir": tmp_path / "masks", "size": 16,
                        "width_scale": 0.125, "batch_size": 2}
            stream = Rng(seed).derive("seg-epoch:1")
        else:
            _write_pgms(tmp_path / "imgs", 5, size=16, seed=1)
            settings = {"input_dir": tmp_path / "imgs", "size": 16, "widths": "2,4", "emb_dim": 8, "T": 5,
                        "batch_size": 2}
            stream = Rng(seed).derive("shuffle:1")
        cfg = _write_cfg(tmp_path / "c.cfg", output_dir=tmp_path / "out", epochs=2, seed=seed, **settings)
        assert main([command, "-c", str(cfg)]) == 0
        n, visited = seen[1]
        assert n > 1
        assert visited == stream.permutation(n).tolist()


class TestNonFiniteInference:
    """A denoiser or segmenter that blows up stops its command with Diverged (exit 2), and no PGM is written."""

    @staticmethod
    def _scaled_denoiser(tmp_path):
        pred = NoisePredictor(NoisePredictorConfig(16, (2, 4), 8), Rng(0))
        pred.params().flat[...] *= np.float32(1e15)
        path = tmp_path / "diff.cqck"
        save_checkpoint(path, pack_predictor(pred, build_schedule(5, 0.05, 0.3)))
        return path

    @staticmethod
    def _nan_segmenter(tmp_path):
        model = UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(2))
        model.params().flat[...] = np.nan
        path = tmp_path / "seg.cqck"
        save_checkpoint(path, pack_unet(model))
        return path

    def test_diffuse_sample_exits_2_naming_the_timestep(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "s.cfg", checkpoint=self._scaled_denoiser(tmp_path),
                         output_dir=tmp_path / "out", count=2)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert main(["diffuse-sample", "-c", str(cfg)]) == 2
        assert "sampling diverged at timestep 5 of 5" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.pgm"))

    def test_build_dataset_balancing_exits_2_without_synthetic_files(self, tmp_path, capsys):
        root = tmp_path / "data"
        _write_pgms(root / "healthy" / "axial", 12, seed=1, label=0)
        _write_pgms(root / "disease" / "axial", 4, seed=2, label=1)
        cfg = _write_cfg(tmp_path / "b.cfg", input_dir=root, output_dir=tmp_path / "out", plane="axial",
                         size=16, diffusion_ckpt_axial=self._scaled_denoiser(tmp_path))
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert main(["build-dataset", "-c", str(cfg)]) == 2
        assert "sampling diverged at timestep 5 of 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_segment_apply_exits_2_naming_the_image(self, tmp_path, capsys):
        _write_pgms(tmp_path / "imgs", 3, size=16, seed=4)
        cfg = _write_cfg(tmp_path / "a.cfg", checkpoint=self._nan_segmenter(tmp_path),
                         input_dir=tmp_path / "imgs", output_dir=tmp_path / "out")
        capsys.readouterr()
        assert main(["segment-apply", "-c", str(cfg)]) == 2
        assert "segmentation diverged at image 0: its logits are not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # not even empty masks/ and stripped/ directories

    @pytest.mark.parametrize("head, tensor, what", [("quantum", "fc_b", "head input"),
                                                    ("quantum", "w_out", "class distribution"),
                                                    ("classical_softmax", "head_w", "class distribution")])
    def test_evaluate_exits_2_naming_the_image(self, tmp_path, capsys, head, tensor, what):
        model = CqcnnModel(CqcnnConfig(image_size=16, head=head), Rng(0))
        model.params()[tensor][...] = np.nan
        classifier = tmp_path / "cls.cqck"
        save_checkpoint(classifier, pack_cqcnn(model))
        cfg = _write_cfg(tmp_path / "e.cfg", checkpoint=classifier, output=tmp_path / "eval.csv",
                         dataset=TestRobustTraining._dataset(tmp_path, 16))
        capsys.readouterr()
        assert main(["evaluate", "-c", str(cfg)]) == 2
        assert f"classification diverged at image 0: its {what} is not finite" in capsys.readouterr().err
        assert not (tmp_path / "eval.csv").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_stripping_exits_2_naming_the_image(self, tmp_path, capsys, command):
        manifest = TestRobustTraining._dataset(tmp_path, 16)
        if command == "train":
            settings = {"output_dir": tmp_path / "run", "epochs": 1}
        else:
            classifier = tmp_path / "cls.cqck"
            save_checkpoint(classifier, pack_cqcnn(CqcnnModel(CqcnnConfig(image_size=16), Rng(0))))
            settings = {"checkpoint": classifier, "output": tmp_path / "eval.csv"}
        cfg = _write_cfg(tmp_path / "c.cfg", dataset=manifest, skull_strip="true",
                         skullnet_ckpt=self._nan_segmenter(tmp_path), **settings)
        capsys.readouterr()
        assert main([command, "-c", str(cfg)]) == 2
        assert "segmentation diverged at image 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "eval.csv").exists()


def test_stripped_train_loads_the_segmenter_once(tmp_path, monkeypatch):
    manifest = TestRobustTraining._dataset(tmp_path, 16)
    ckpt = tmp_path / "seg.cqck"
    save_checkpoint(ckpt, pack_unet(UNet(UNetConfig(input_size=16, width_scale=0.25), Rng(2))))
    loads = []
    real_load = commands.load_checkpoint

    def counting_load(path):
        loads.append(Path(path))
        return real_load(path)

    monkeypatch.setattr(commands, "load_checkpoint", counting_load)
    cfg = _write_cfg(tmp_path / "tr.cfg", dataset=manifest, output_dir=tmp_path / "run", epochs=1,
                     timing="zero", skull_strip="true", skullnet_ckpt=ckpt)
    assert main(["train", "-c", str(cfg)]) == 0
    assert loads == [ckpt]

    # stripping both splits in one pass gives each image the bytes it gets from its own split's pass
    loaded = DatasetManifest.load(manifest)
    train, test = load_split(loaded, "train"), load_split(loaded, "test")
    assert len(train) + len(test) > skullnet.APPLY_CHUNK  # the chunk boundaries move
    split_by_split = commands._strip_dataset(train, ckpt) + commands._strip_dataset(test, ckpt)
    in_one_pass = commands._strip_dataset(train + test, ckpt)
    assert [(img.tobytes(), label) for img, label in in_one_pass] == \
        [(img.tobytes(), label) for img, label in split_by_split]
