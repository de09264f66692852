"""CSV experiment reports: per-epoch curves and cross-run summaries."""
from __future__ import annotations

import csv
import io
import math
from pathlib import Path

from ..errors import BadFormat, EmptyInput
from .atomic import write_atomic

CURVE_COLUMNS = ["run", "plane", "skull_stripped", "qubits", "seed", "epoch", "split",
                 "loss", "accuracy", "precision", "recall", "f1", "specificity", "epoch_time_s"]

SUMMARY_METRICS = ["precision", "f1", "specificity", "accuracy"]
SUMMARY_COLUMNS = (["plane", "skull_stripped", "qubits", "n_runs"]
                   + [f"{m}_{s}" for m in SUMMARY_METRICS for s in ("mean", "std")]
                   + ["train_time", "train_time_std", "epochs_to_threshold_mean",
                      "epochs_to_threshold_std"])


def write_csv(path: str | Path, columns: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def read_csv(path: str | Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1); a single value has std 0."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def format_hms(seconds: float) -> str:
    total = int(round(seconds))
    return f"{total // 3600:02d}:{total % 3600 // 60:02d}:{total % 60:02d}"


def format_ms(seconds: float) -> str:
    total = int(round(seconds))
    return f"{total // 60:02d}:{total % 60:02d}"


def _epochs_to_threshold(rows: list[dict], threshold: float) -> int:
    """First 1-based epoch whose train accuracy reaches threshold; -1 if never."""
    train = sorted((int(r["epoch"]), float(r["accuracy"])) for r in rows if r["split"] == "train")
    for epoch, acc in train:
        if acc >= threshold:
            return epoch + 1
    return -1


def summarize_runs(run_dirs: list[str | Path], threshold: float = 0.95) -> list[dict]:
    """One summary row per (plane, skull_stripped, qubits) configuration.

    Metrics are the final-epoch test values per run, reported as mean and
    sample std across the runs in the group; training time is the summed
    epoch wall time, formatted hh:mm:ss (std mm:ss). A curves.csv that is
    not a classifier run's (a missing column, a non-numeric value) raises
    `BadFormat` naming the file.
    """
    groups: dict[tuple, list[dict]] = {}
    for run_dir in run_dirs:
        curve_path = Path(run_dir) / "curves.csv"
        if not curve_path.exists():
            continue
        try:
            rows = read_csv(curve_path)
            if not rows:
                continue
            test_rows = [r for r in rows if r["split"] == "test"]
            final = max(test_rows, key=lambda r: int(r["epoch"])) if test_rows else None
            groups.setdefault((rows[0]["plane"], rows[0]["skull_stripped"], rows[0]["qubits"]), []).append({
                "final": {metric: float(final[metric]) for metric in SUMMARY_METRICS} if final else None,
                "train_time": sum(float(r["epoch_time_s"]) for r in rows if r["split"] == "train"),
                "epochs_to_threshold": _epochs_to_threshold(rows, threshold),
            })
        except KeyError as exc:
            raise BadFormat(f"{curve_path}: no {exc.args[0]!r} column; not a classifier run's curves") from exc
        except (TypeError, ValueError) as exc:
            raise BadFormat(f"{curve_path}: {exc}") from exc
    if not groups:
        raise EmptyInput("no completed runs with curves.csv found")

    out = []
    for key in sorted(groups):
        plane, stripped, qubits = key
        members = groups[key]
        row = {"plane": plane, "skull_stripped": stripped, "qubits": qubits,
               "n_runs": len(members)}
        for metric in SUMMARY_METRICS:
            vals = [m["final"][metric] for m in members if m["final"] is not None]
            mean, std = mean_std(vals) if vals else (0.0, 0.0)
            row[f"{metric}_mean"] = f"{mean:.6f}"
            row[f"{metric}_std"] = f"{std:.6f}"
        t_mean, t_std = mean_std([m["train_time"] for m in members])
        row["train_time"] = format_hms(t_mean)
        row["train_time_std"] = format_ms(t_std)
        reached = [float(m["epochs_to_threshold"]) for m in members if m["epochs_to_threshold"] > 0]
        if reached:
            e_mean, e_std = mean_std(reached)
        else:
            e_mean, e_std = -1.0, 0.0
        row["epochs_to_threshold_mean"] = f"{e_mean:.2f}"
        row["epochs_to_threshold_std"] = f"{e_std:.2f}"
        out.append(row)
    return out
