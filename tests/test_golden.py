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
    ("segment", 1): "eada39a5e2d9e230920222199e9e340225bb96223ee4bb16fef620e60814e992",
    ("synthesize", 1): "7063ff3678958734ebb9d9cd4f8d24f61dd6e7040025812630d766468af0478a",
    ("classify", 2): "b967263875147fba537066478bba099e464766a4653098fc3c8b1ba34bb00ba9",
    ("segment", 2): "4c0576d61cbeea4b339d356b0555a263649e2b98daeea5a5d16673bf49d1fb80",
    ("synthesize", 2): "a2c47ea901cb5c4b62bedcd8e6d5e1730cf13bd22ab00aede2cd9f04fb391660",
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
