import math
import statistics

import pytest

from cqbrain.errors import EmptyInput
from cqbrain.pipeline.report import (
    CURVE_COLUMNS,
    SUMMARY_COLUMNS,
    format_hms,
    format_ms,
    mean_std,
    read_csv,
    summarize_runs,
    write_csv,
)


def _curve_row(**over):
    row = {"run": "r", "plane": "axial", "skull_stripped": "false", "qubits": "2",
           "seed": "0", "epoch": "0", "split": "test", "loss": "0.5",
           "accuracy": "0.9", "precision": "0.8", "recall": "0.7", "f1": "0.75",
           "specificity": "0.85", "epoch_time_s": "1.0"}
    row.update({k: str(v) for k, v in over.items()})
    return row


def _write_run(tmp_path, name, rows):
    run_dir = tmp_path / name
    run_dir.mkdir()
    write_csv(run_dir / "curves.csv", CURVE_COLUMNS, rows)
    return run_dir


class TestMath:
    def test_two_point_sample_std(self):
        mean, std = mean_std([0.9, 1.0])
        assert mean == pytest.approx(0.95)
        assert std == pytest.approx(0.0707, abs=2e-4)
        assert std == pytest.approx(statistics.stdev([0.9, 1.0]))

    def test_single_point_std_zero(self):
        assert mean_std([0.73]) == (0.73, 0.0)

    def test_matches_library_on_random_sets(self):
        import random

        rnd = random.Random(0)
        for _ in range(20):
            vals = [rnd.random() for _ in range(rnd.randint(2, 9))]
            mean, std = mean_std(vals)
            assert mean == pytest.approx(statistics.fmean(vals))
            assert std == pytest.approx(statistics.stdev(vals))

    def test_time_formatting(self):
        assert format_hms(0) == "00:00:00"
        assert format_hms(3723.4) == "01:02:03"
        assert format_ms(83) == "01:23"


class TestSummaries:
    def test_two_runs_mean_and_std(self, tmp_path):
        r1 = _write_run(tmp_path, "r1", [
            _curve_row(split="train", accuracy="0.8", epoch_time_s="10.0"),
            _curve_row(split="test", accuracy="0.9"),
        ])
        r2 = _write_run(tmp_path, "r2", [
            _curve_row(split="train", accuracy="0.99", seed="1", epoch_time_s="14.0"),
            _curve_row(split="test", accuracy="1.0", seed="1"),
        ])
        rows = summarize_runs([r1, r2])
        assert len(rows) == 1
        row = rows[0]
        assert row["n_runs"] == 2
        assert float(row["accuracy_mean"]) == pytest.approx(0.95)
        assert float(row["accuracy_std"]) == pytest.approx(math.sqrt(0.005), abs=1e-6)
        assert row["train_time"] == "00:00:12"

    def test_single_run_std_zero(self, tmp_path):
        r1 = _write_run(tmp_path, "solo", [_curve_row()])
        row = summarize_runs([r1])[0]
        assert float(row["accuracy_std"]) == 0.0
        assert row["n_runs"] == 1

    def test_column_set_matches_schema(self, tmp_path):
        r1 = _write_run(tmp_path, "cols", [_curve_row()])
        out = tmp_path / "summary.csv"
        write_csv(out, SUMMARY_COLUMNS, summarize_runs([r1]))
        parsed = read_csv(out)
        assert list(parsed[0].keys()) == SUMMARY_COLUMNS

    def test_epochs_to_threshold(self, tmp_path):
        rows = [
            _curve_row(split="train", epoch="0", accuracy="0.5"),
            _curve_row(split="train", epoch="1", accuracy="0.96"),
            _curve_row(split="train", epoch="2", accuracy="1.0"),
            _curve_row(split="test", epoch="2", accuracy="0.9"),
        ]
        r1 = _write_run(tmp_path, "thr", rows)
        row = summarize_runs([r1], threshold=0.95)[0]
        assert float(row["epochs_to_threshold_mean"]) == pytest.approx(2.0)

    def test_never_reaching_threshold_gives_sentinel(self, tmp_path):
        r1 = _write_run(tmp_path, "never", [_curve_row(split="train", accuracy="0.4")])
        row = summarize_runs([r1], threshold=0.95)[0]
        assert float(row["epochs_to_threshold_mean"]) == -1.0

    def test_groups_split_by_configuration(self, tmp_path):
        r1 = _write_run(tmp_path, "a", [_curve_row(qubits="2")])
        r2 = _write_run(tmp_path, "b", [_curve_row(qubits="3", seed="1")])
        r3 = _write_run(tmp_path, "c", [_curve_row(qubits="0", seed="2")])
        rows = summarize_runs([r1, r2, r3])
        assert [r["qubits"] for r in rows] == ["0", "2", "3"]

    def test_no_runs_error(self, tmp_path):
        with pytest.raises(EmptyInput):
            summarize_runs([tmp_path / "missing"])
