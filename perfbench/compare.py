"""Compare two result sets of run.py: a parent commit and a change.

Usage: python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the `.json` records that run.py writes to
`.perfbench_results/` (untraced runs only are compared). Runs pair up by
workload and seed, in the order they finished. Per workload and end-to-end
metric the report gives each side's median and quartiles, the fraction of
pairs the change won, and a verdict:

- improved: the change won at least 9 of 10 pairs (ties count for neither),
  its median is better by more than the parent's quartile spread, and it
  failed no more operations than the parent;
- worse: its median is worse than the parent's by more than the metric's
  bound from BENCHMARK.json;
- unresolved: neither, and one side's quartile spread is wider than the
  bound, unless every change run beats every parent run;
- unchanged: otherwise.

Per-command metrics (metrics.DETAIL) use the bound of the end-to-end metric
they feed. Exit code 1 if any metric is worse.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import metrics

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
ENV_KEYS = ("cpu_model", "nproc", "python", "numpy", "blas", "blas_threads", "seconds")


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced records by workload, each list ordered by seed then finish time."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: (r["seed"], r["finished_ns"]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], higher_is_better: bool, bound: float,
            parent_failed: int, change_failed: int) -> tuple[str, float]:
    """(verdict, fraction of pairs won by the change) by the rule in the module docstring."""
    sign = 1.0 if higher_is_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs) if pairs else 0.0
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    gain = sign * (cmed - pmed)
    if won >= 0.9 and gain > p3 - p1 and change_failed <= parent_failed:
        return "improved", won
    if -gain > bound * abs(pmed):
        return "worse", won
    spread = max((p3 - p1) / abs(pmed), (c3 - c1) / abs(cmed))
    dominates = (min(change) > max(parent)) if higher_is_better else (max(change) < min(parent))
    if spread > bound and not dominates:
        return "unresolved", won
    return "unchanged", won


def _value(record: dict, name: str) -> float | None:
    entry = record["metrics"].get(name) or record.get("detail", {}).get(name)
    return None if entry is None else float(entry[0])


def compare(parent_dir: Path, change_dir: Path, benchmark: Path = BENCHMARK) -> int:
    bounds = {m["name"]: m["bound"] for m in json.loads(benchmark.read_text())["end_to_end"]}
    parent, change = load(parent_dir), load(change_dir)
    any_worse = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_env = {k: p_runs[0]["env"].get(k) for k in ENV_KEYS}
        c_env = {k: c_runs[0]["env"].get(k) for k in ENV_KEYS}
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        print(f"== {workload}: parent {len(p_runs)} runs ({p_failed} of "
              f"{sum(r['attempted'] for r in p_runs)} operations failed), change {len(c_runs)} runs "
              f"({c_failed} of {sum(r['attempted'] for r in c_runs)} failed)")
        diff = {k: (p_env[k], c_env[k]) for k in ENV_KEYS if p_env[k] != c_env[k]}
        print("   environment identical" if not diff else f"   ENVIRONMENT DIFFERS: {diff}")
        names = [(n, u, d, bounds[n]) for n, (u, d) in metrics.END_TO_END.items()]
        names += [(n, u, d, bounds[parent_metric]) for n, (u, d, wl, parent_metric)
                  in metrics.DETAIL.items() if wl == workload]
        for name, unit, direction, bound in names:
            p_vals = [v for v in (_value(r, name) for r in p_runs) if v is not None]
            c_vals = [v for v in (_value(r, name) for r in c_runs) if v is not None]
            if not p_vals or not c_vals:
                continue
            result, won = verdict(p_vals, c_vals, direction == "higher", bound, p_failed, c_failed)
            any_worse |= result == "worse"
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            print(f"   {name:28s} {unit:6s} parent {pm:10.4g} [{p1:.4g}, {p3:.4g}]  "
                  f"change {cm:10.4g} [{c1:.4g}, {c3:.4g}]  won {won:4.0%}  bound {bound:.0%}  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
