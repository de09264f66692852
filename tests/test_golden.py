"""Determinism contract: every benchmark workload's outputs hash to pinned values.

Each case runs one round of a `perfbench` workload (its CLI commands under
`timing = zero`, on inputs generated from the seed) through
`perfbench/run.py`'s `run_round` and compares `digest_of` its output hashes
with the value pinned here. A change that moves an output byte edits the
pinned value, and says which output moved and why.

The digests depend on numpy and its BLAS, so their versions are pinned too;
on another environment the test fails and names both.
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402  (perfbench modules, importable once their directory is on sys.path)
from workloads import WORKLOADS  # noqa: E402

NUMPY = "2.4.6"
BLAS = "scipy-openblas 0.3.31.188.0"

DIGESTS = {
    ("classify", 1): "894d33cab26dc207b43e7926aa0e900985e3166a7eff57f3fab1668d7aefee72",
    ("segment", 1): "f7b2f7de8e324eb60f814f78d7bd9f9d3dd4fa8e9a30cfcaafa20b4cfc6fbe4a",
    ("synthesize", 1): "959296cda2cd66878584a297165bd98375c44d1640d908a47762050ac4c4f66b",
    ("classify", 2): "b967263875147fba537066478bba099e464766a4653098fc3c8b1ba34bb00ba9",
    ("segment", 2): "415348e3a3e400e483c2d14b9c37050d4ad2b3030593a1fe18e9d3480d3fcb17",
    ("synthesize", 2): "94bd20718d39ea109e9a0c064512ae62f311680d0eba8126f9b9056693d0a062",
    ("classify", 3): "d60485bbe3a805a8cec463f7467e229425d3c8f7d63f653048a04e8a35325fd8",
}


def _environment() -> tuple[str, str]:
    """(numpy version, BLAS name and version) as the benchmark records them."""
    env = run.environment(types.SimpleNamespace(workload=None, seed=None, seconds=None, trace=None))
    return env["numpy"], env["blas"]


def _pinned_for() -> str:
    numpy, blas = _environment()
    return f"digests are pinned for numpy {NUMPY} with {BLAS}; this environment has numpy {numpy} with {blas}"


def test_environment_is_the_pinned_one():
    assert _environment() == (NUMPY, BLAS), _pinned_for()


@pytest.mark.parametrize("name, seed", list(DIGESTS))
def test_round_outputs_match_pinned_digest(name, seed, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    workload.generate(tmp_path / "inputs", seed)
    (tmp_path / "cfg").mkdir()
    for cmd in workload.commands:
        (tmp_path / "cfg" / f"{cmd.tag}.cfg").write_text(cmd.config_text(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # the configs' paths are relative to the work directory
    result = run.run_round(workload, tmp_path, "golden")
    assert not result.failures
    got, pinned = run.digest_of(result.digests), DIGESTS[name, seed]
    assert got == pinned, f"{name} seed {seed}: digest {got}, pinned {pinned} ({_pinned_for()})"
