"""Dataset assembly: stratified split plus diffusion balancing.

Input layout: `root/<class>/<plane>/*.pgm` with exactly two class
directories. The split is 90:10 per class over deterministically sorted
file lists; the minority class's training side is topped up with
diffusion-sampled synthetic images until the class counts match. Test
files are always real.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..diffusion import sample
from ..errors import BadFormat, EmptyInput, InvalidArgument
from ..rng import Rng
from ..volio import Image2D, fit, read_pgm, write_pgm
from .atomic import write_atomic
from .checkpoint import load_checkpoint
from .modelio import unpack_predictor

PLANES = ("axial", "coronal", "sagittal")

REAL = "real"
SYNTHETIC = "synthetic"


@dataclass
class FileEntry:
    path: str
    provenance: str  # real | synthetic

    def to_json(self) -> dict:
        return {"path": self.path, "provenance": self.provenance}


@dataclass
class DatasetManifest:
    classes: dict[str, dict[str, list[FileEntry]]]  # class -> {train: [...], test: [...]}
    plane: str
    image_size: int
    seed: int
    extra: dict = field(default_factory=dict)

    def class_names(self) -> list[str]:
        return sorted(self.classes)

    def counts(self) -> dict[str, dict[str, int]]:
        return {c: {s: len(v[s]) for s in ("train", "test")} for c, v in self.classes.items()}

    def validate(self) -> None:
        if len(self.classes) != 2:
            raise BadFormat(f"manifest needs exactly two classes, found {self.class_names()}")
        for name, splits in self.classes.items():
            train_paths = {e.path for e in splits["train"]}
            test_paths = {e.path for e in splits["test"]}
            if train_paths & test_paths:
                raise BadFormat(f"class {name!r}: train/test overlap")
            for entry in splits["test"]:
                if entry.provenance != REAL:
                    raise BadFormat(f"class {name!r}: synthetic file in test split")

    def to_json(self) -> str:
        payload = {
            "plane": self.plane,
            "image_size": self.image_size,
            "seed": self.seed,
            "extra": self.extra,
            "classes": {
                c: {s: [e.to_json() for e in v[s]] for s in ("train", "test")}
                for c, v in self.classes.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        """Inverse of to_json; anything else raises BadFormat."""
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise BadFormat(f"manifest is not JSON: {exc}") from exc
        _require(isinstance(payload, dict), "manifest is not a JSON object")
        keys = set(payload)
        _require(_MANIFEST_KEYS <= keys <= _MANIFEST_KEYS | {"extra"},
                 f"manifest keys {sorted(keys)}, expected {sorted(_MANIFEST_KEYS)} and optionally extra")
        _require(isinstance(payload["classes"], dict), "manifest classes is not an object")
        classes = {c: _splits(c, v) for c, v in payload["classes"].items()}
        _require(isinstance(payload["plane"], str), "manifest plane is not a string")
        for key in ("image_size", "seed"):
            _require(type(payload[key]) is int, f"manifest {key} is not an integer")
        _require(payload["image_size"] >= 1, "manifest image_size is below 1")
        _require(isinstance(payload.get("extra", {}), dict), "manifest extra is not an object")
        manifest = cls(classes, payload["plane"], payload["image_size"], payload["seed"],
                       payload.get("extra", {}))
        manifest.validate()
        return manifest

    def save(self, path: str | Path) -> None:
        write_atomic(path, self.to_json().encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        """from_json of the file's text; a file that is not a manifest raises BadFormat naming it."""
        try:
            return cls.from_json(Path(path).read_bytes().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BadFormat(f"{path}: manifest is not UTF-8: {exc}") from exc
        except BadFormat as exc:
            raise BadFormat(f"{path}: {exc}") from exc


_MANIFEST_KEYS = {"classes", "plane", "image_size", "seed"}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise BadFormat(message)


def _splits(name: str, splits: object) -> dict[str, list[FileEntry]]:
    """One class's {train, test} entry lists from their JSON form."""
    _require(isinstance(splits, dict) and set(splits) == {"train", "test"},
             f"manifest class {name!r} needs exactly the keys train and test")
    out = {}
    for split, entries in splits.items():
        _require(isinstance(entries, list), f"manifest class {name!r} {split} is not a list")
        for entry in entries:
            _require(isinstance(entry, dict) and set(entry) == {"path", "provenance"},
                     f"manifest class {name!r} {split}: entry {entry!r} needs exactly "
                     f"the keys path and provenance")
            _require(isinstance(entry["path"], str) and entry["provenance"] in (REAL, SYNTHETIC),
                     f"manifest class {name!r} {split}: bad entry {entry!r}")
        out[split] = [FileEntry(e["path"], e["provenance"]) for e in entries]
    return out


def split_90_10(files: list[str], rng: Rng) -> tuple[list[str], list[str]]:
    """Seeded 90:10 partition of a sorted file list."""
    ordered = sorted(files)
    perm = rng.permutation(len(ordered))
    n_train = int(0.9 * len(ordered))
    train = sorted(ordered[int(i)] for i in perm[:n_train])
    test = sorted(ordered[int(i)] for i in perm[n_train:])
    return train, test


def sample_pgms(ckpt: Path, count: int, rng: Rng, out_dir: Path, prefix: str,
                size: int | None = None) -> list[Path]:
    """Sample `count` images from a denoiser checkpoint into out_dir/<prefix>_NNNN.pgm.

    Each image is fitted to size x size (by default the denoiser's own size).
    """
    predictor, schedule = unpack_predictor(load_checkpoint(ckpt))
    native = predictor.config.image_size
    size = native if size is None else size
    images = sample(predictor, schedule, (native, native), rng, count=count)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, img in enumerate(images):
        path = out_dir / f"{prefix}_{i:04d}.pgm"
        path.write_bytes(write_pgm(fit(Image2D(native, native, img), size, size)))
        paths.append(path)
    return paths


def build_dataset(input_dir: str | Path, output_dir: str | Path, plane: str, seed: int,
                  balance: bool, diffusion_ckpts: dict[str, Path], image_size: int) -> DatasetManifest:
    """Assemble the split manifest; see module docstring for the layout."""
    root = Path(input_dir)
    out_root = Path(output_dir)
    class_names = sorted(d.name for d in root.iterdir() if d.is_dir())
    if len(class_names) != 2:
        raise EmptyInput(f"need exactly two class directories under {root}, found {class_names}")
    planes = list(PLANES) if plane == "3plane" else [plane]

    classes: dict[str, dict[str, list[FileEntry]]] = {}
    per_class_plane_train: dict[str, dict[str, list[str]]] = {}
    for name in class_names:
        per_plane = {p: sorted(str(f) for f in (root / name / p).glob("*.pgm")) for p in planes}
        if sum(len(v) for v in per_plane.values()) == 0:
            raise EmptyInput(f"class {name!r} has no .pgm files for plane {plane!r}")
        split_rng = Rng(seed).derive(f"split:{name}")
        train_entries: list[FileEntry] = []
        test_entries: list[FileEntry] = []
        plane_train: dict[str, list[str]] = {}
        for p in planes:
            train, test = split_90_10(per_plane[p], split_rng.derive(p))
            plane_train[p] = train
            train_entries += [FileEntry(f, REAL) for f in train]
            test_entries += [FileEntry(f, REAL) for f in test]
        classes[name] = {"train": train_entries, "test": test_entries}
        per_class_plane_train[name] = plane_train

    counts = {c: len(v["train"]) for c, v in classes.items()}
    majority = max(class_names, key=lambda c: counts[c])
    minority = min(class_names, key=lambda c: counts[c])
    shortfall = counts[majority] - counts[minority]
    if balance and shortfall > 0:
        # spread synthesis across planes proportionally to the minority's real counts
        plane_counts = {p: len(per_class_plane_train[minority][p]) for p in planes}
        total_real = max(sum(plane_counts.values()), 1)
        remaining = shortfall
        for j, p in enumerate(planes):
            want = remaining if j == len(planes) - 1 else round(shortfall * plane_counts[p] / total_real)
            want = min(want, remaining)
            if want == 0:
                continue
            if p not in diffusion_ckpts:
                raise InvalidArgument(f"balancing needs a diffusion checkpoint for plane {p!r}")
            tag = f"{minority}_{p}"
            paths = sample_pgms(Path(diffusion_ckpts[p]), want, Rng(seed).derive(f"synth:{tag}"),
                                out_root / "synthetic" / minority / p, f"synthetic_{tag}", image_size)
            classes[minority]["train"] += [FileEntry(str(f), SYNTHETIC) for f in paths]
            remaining -= want

    manifest = DatasetManifest(classes, plane, image_size, seed)
    manifest.validate()
    manifest.save(out_root / "manifest.json")
    return manifest


def load_split(manifest: DatasetManifest, split: str) -> list[tuple[np.ndarray, int]]:
    """(image, label) pairs; labels follow sorted class-name order."""
    size = manifest.image_size
    return [(fit(read_pgm(Path(entry.path).read_bytes()), size, size).pixels, label)
            for label, name in enumerate(manifest.class_names())
            for entry in manifest.classes[name][split]]
