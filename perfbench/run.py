"""cqbrain benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

The run generates its inputs from the seed, then plays the workload's CLI
commands (workloads.py) as one closed-loop client in this process: one
untimed warm-up round, then timed rounds until `--seconds` have passed.
Every command's outputs are checked with the package's own readers and
hashed; with `timing = zero` the hashes must repeat across rounds.

`--trace 0` reports the end-to-end metrics (medians over the timed rounds,
set-up time as the median of several cold child interpreters, and the
process's peak RSS). `--trace 1` alternates untraced and traced rounds and
reports the per-layer metrics (medians over the traced rounds) plus the
tracing overhead; it fails the correctness check if a traced round's
output hashes differ from the untraced ones.

BLAS runs one thread: the matrices are small enough that threads add noise
and no speed, and one thread keeps parent and change comparable on a shared
machine. The last stdout line is the JSON result; the full record (with the
environment, per-round times and output hashes) goes to
`.perfbench_results/` in the checkout, and traced runs also write their
spans there. Exit code 2 means the benchmark could not start.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import metrics
import tracer as tracing

BLAS_THREADS = 1
SETUP_REPEATS = 5
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


def pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify", "segment", "synthesize"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args: argparse.Namespace) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS, "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


@dataclass
class Round:
    label: str
    wall: dict[str, float] = field(default_factory=dict)      # command tag -> seconds
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)     # output path -> SHA-256


def run_round(workload, work: Path, label: str, tracer=None) -> Round:
    """One pass over the workload's commands, each timed, checked and hashed."""
    from cqbrain.pipeline.cli import main
    from workloads import output_digests

    result = Round(label)
    shutil.rmtree(work / "out", ignore_errors=True)
    for cmd in workload.commands:
        argv = [cmd.cli, "-c", f"cfg/{cmd.tag}.cfg"]
        if tracer is not None:
            tracer.command = f"{label}:{cmd.tag}"
        gc.collect()  # each CLI command would start in a fresh process, with no garbage left over
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # the CLI lets non-package errors escape; count and go on
            traceback.print_exc()
            code = -1
        finally:
            result.wall[cmd.tag] = time.perf_counter() - start
            if tracer is not None:
                tracer.command = None
        if code != 0:
            result.failures.append(f"{label}:{cmd.tag}: exit {code}")
            continue
        try:
            cmd.check(work)
        except Exception as exc:  # any reader error is a failed output check
            result.failures.append(f"{label}:{cmd.tag}: {type(exc).__name__}: {exc}")
    result.digests = output_digests(work / "out")
    return result


def setup_seconds(workload, work: Path) -> list[float]:
    """set-up time of SETUP_REPEATS fresh interpreters, each waited for."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), *workload.setup_probe],
                              cwd=work, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def round_metrics(workload, rnd: Round) -> dict[str, float]:
    return {**workload.metrics(rnd.wall), "workflow_s": sum(rnd.wall.values())}


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def digest_of(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_blas()
    if not (SRC / "cqbrain" / "__init__.py").is_file():
        print(f"perfbench: no cqbrain sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cqbrain

    if Path(cqbrain.__file__).resolve().parent != SRC / "cqbrain":
        print(f"perfbench: imported cqbrain from {cqbrain.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports numpy, so only after pin_blas

    workload = WORKLOADS[args.workload]
    env = environment(args)
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cfg").mkdir(parents=True)
    cwd = os.getcwd()
    try:
        start = time.perf_counter()
        workload.generate(work / "inputs", args.seed)
        generate_s = time.perf_counter() - start
        for cmd in workload.commands:
            (work / "cfg" / f"{cmd.tag}.cfg").write_text(cmd.config_text(), encoding="utf-8")
        os.chdir(work)
        record = measure(args, workload, work)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    record["env"] = env
    record["generate_s"] = generate_s
    report(args, record)
    return 0


def measure(args, workload, work: Path) -> dict:
    warm = run_round(workload, work, "warmup")
    untraced: list[Round] = []
    traced: list[tuple[Round, dict[str, float]]] = []
    spans: list[list] = []
    deadline = time.perf_counter() + args.seconds
    while not untraced or (args.trace and not traced) or time.perf_counter() < deadline:
        untraced.append(run_round(workload, work, f"r{len(untraced)}"))
        if args.trace and (time.perf_counter() < deadline or not traced):
            tr = tracing.Tracer()
            with tr.installed():
                rnd = run_round(workload, work, f"t{len(traced)}", tr)
            traced.append((rnd, tracing.layer_metrics(tr.spans, tr.counters)))
            spans.extend(tr.spans)
    rounds = [warm, *untraced, *(r for r, _ in traced)]
    failures = [f for r in rounds for f in r.failures]
    changed = sorted({f"{r.label}:{path}" for r in rounds for path in set(r.digests) | set(warm.digests)
                      if r.digests.get(path) != warm.digests.get(path)})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": sum(len(r.wall) for r in rounds), "failed": len(failures), "failures": failures,
        "rounds": {r.label: r.wall for r in rounds},
        "digests": warm.digests, "digest": digest_of(warm.digests), "digest_changes": changed,
    }
    e2e = medians([round_metrics(workload, r) for r in untraced])
    record["correct"] = not failures
    if args.trace:
        traced_e2e = medians([round_metrics(workload, r) for r, _ in traced])
        layers = {name: statistics.median(m.get(name, 0.0) for _, m in traced)
                  for name in metrics.PER_LAYER_NAMES}
        overhead = traced_e2e["workflow_s"] - e2e["workflow_s"]
        layers["tracing.overhead_s"] = overhead
        layers["tracing.overhead_share"] = overhead / e2e["workflow_s"]
        record["tracing_overhead"] = {k: traced_e2e[k] - e2e[k] for k in e2e}
        traced_changed = [c for c in changed if c.startswith("t")]
        record["correct"] = record["correct"] and not traced_changed
        record["metrics"] = {name: (layers[name], metrics.per_layer_unit(name)[0])
                             for name in metrics.PER_LAYER_NAMES}
        record["spans_file"] = write_spans(args, spans)
    else:
        setup = setup_seconds(workload, work)
        e2e["setup_s"] = statistics.median(setup)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["setup_runs_s"] = setup
        record["metrics"] = {name: (e2e[name], unit) for name, (unit, _) in metrics.END_TO_END.items()}
    record["detail"] = {name: (e2e[name], unit) for name, (unit, _, wl, _) in metrics.DETAIL.items()
                        if wl == args.workload}
    return record


def _results_dir() -> Path:
    out = ROOT / ".perfbench_results"
    out.mkdir(exist_ok=True)
    return out


def write_spans(args, spans: list[list]) -> str:
    path = _results_dir() / f"{args.workload}-s{args.seed}-spans-{time.time_ns()}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return str(path.relative_to(ROOT))


def report(args, record: dict) -> None:
    record["finished_ns"] = time.time_ns()
    path = _results_dir() / f"{args.workload}-s{args.seed}-t{args.trace}-{record['finished_ns']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    env = record["env"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"cpu={env['cpu_model']!r} nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']!r} blas_threads={env['blas_threads']} commit={env['git_commit']} "
          f"source={env['source_sha256'][:16]}")
    for label, wall in record["rounds"].items():
        print(f"round {label}: " + " ".join(f"{k}={v:.4f}s" for k, v in wall.items()))
    for name, (value, unit) in {**record["detail"], **record["metrics"]}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, delta in record.get("tracing_overhead", {}).items():
        print(f"tracing overhead {name} = {delta:+.6g} (traced minus untraced)")
    print(f"fail_ratio = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} commands failed)")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    groups: dict[str, dict[str, str]] = {}
    for name, sha in record["digests"].items():
        groups.setdefault(name.split("/", 1)[0], {})[name] = sha
    for group, digests in sorted(groups.items()):
        print(f"digest out/{group} {digest_of(digests)} ({len(digests)} files)")
    print(f"digest out {record['digest']}; changed across repeats: {len(record['digest_changes'])}")
    for change in record["digest_changes"]:
        print(f"DIGEST CHANGED {change}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in record["metrics"].items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
