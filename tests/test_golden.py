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
    ("classify", 1): "f1bb8076c72658285aad905d61df18bb08be2ed1a0ab960bf8f06574fc7dac6c",
    ("segment", 1): "b9d72e9f24f5325894761b671272021ce53cc4961aa855ba3199a682561bbc58",
    ("synthesize", 1): "cab096347769fb176690dc5af8642767c296ee3c7b3031cb209c21c2f2c2ddb8",
    ("classify", 2): "5ffedb153f40df2f112be6fdff9992a54896d71a17b3b6148d427d73f2f451f9",
    ("segment", 2): "740f71c04b8491a1c5b497df2e13988926c14b184ce02f5e99a7cb0eff55d7b4",
    ("synthesize", 2): "63ede4565501b185ab596eb03c30210d4ca4b835251ccca55fa81cdf52a72308",
    ("classify", 3): "6ef78fd9b8a994cfb869d2bece9b740fc17d32797316421a446892e4cb0c339e",
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
