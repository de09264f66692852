"""Atomic file replacement for the pipeline's checkpoints, CSVs and manifests."""
from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write `data` to a temp file beside `path`, then rename it over `path`.

    Missing parent directories are created first. A reader sees either the
    previous file or the complete new one, never a partial write, and a
    failed write leaves no temp file behind. This guards against an
    interrupted or failing process only: there is no fsync, so it does not
    make the write durable across power loss or an OS crash.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
