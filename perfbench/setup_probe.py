"""One set-up measurement, run in a fresh interpreter by run.py.

Times the cold import of the cqbrain CLI (and with it numpy and every
layer) plus the package's own loaders over a workload's inputs and
checkpoints, up to where the first unit of work would start. Prints the
seconds as its only output line.

Usage: python3 setup_probe.py SRC_DIR STEP...   (run from the work directory)
A STEP is `manifest:PATH`, `pgms:DIR` or `checkpoint:PATH:UNPACK_FUNCTION`.
"""
import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(src: str, steps: list[str]) -> None:
    sys.path.insert(0, src)
    import cqbrain.pipeline.cli  # noqa: F401  the console script's import
    from cqbrain.pipeline import modelio
    from cqbrain.pipeline.checkpoint import load_checkpoint
    from cqbrain.pipeline.dataset import DatasetManifest, load_split
    from cqbrain.volio import read_pgm

    for step in steps:
        kind, _, arg = step.partition(":")
        if kind == "manifest":
            manifest = DatasetManifest.load(arg)
            load_split(manifest, "train")
            load_split(manifest, "test")
        elif kind == "pgms":
            for f in sorted(Path(arg).glob("*.pgm")):
                read_pgm(f.read_bytes())
        elif kind == "checkpoint":
            path, _, unpack = arg.rpartition(":")
            getattr(modelio, unpack)(load_checkpoint(path))
        else:
            raise SystemExit(f"unknown set-up step {step!r}")
    print(f"{time.perf_counter() - START:.9f}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
