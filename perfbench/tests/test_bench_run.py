import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent.parent


def test_percentile_interpolates_between_order_statistics():
    assert run.percentile([4, 1, 3, 2], 0.5) == 2.5
    assert run.percentile([1, 2, 3, 4, 5], 0.9) == 4.6
    assert run.percentile([7], 0.9) == 7


def test_tail_quantile_keeps_ten_samples_beyond_it():
    for ops in (11, 16, 30, 35, 100):
        for passes in (3, 6):
            q = run.tail_quantile(ops, passes)
            assert q <= 0.9
            assert (1 - q) * ops * passes >= 10 - 1e-9
    assert run.tail_quantile(100, 3) == 0.9


def test_spread_reports_quartiles():
    s = run.spread([1.0, 2.0, 3.0, 4.0, 100.0])
    assert (s["median"], s["samples"]) == (3.0, 5)
    assert s["iqr"] == s["q3"] - s["q1"] > 0


def test_host_factor_is_the_geometric_mean_over_the_reference_parts():
    elimination, loop = run.REFERENCE_S
    assert run.host_factor([elimination, loop]) == pytest.approx(1)
    assert run.host_factor([2 * elimination, 8 * loop]) == pytest.approx(4)


def test_end_to_end_times_are_divided_by_the_host_factor():
    out = {
        "reference_s": [2 * t for t in run.REFERENCE_S],
        "passes": [[0.1, 0.3], [0.2, 0.5]] * 3,
        "ops_per_pass": 2,
        "setup_s": 0.4,
        "attempted": 12,
        "failed": 3,
        "decided": 6,
        "peak_rss_mb": 10.0,
    }
    metrics = run.end_to_end("certify", out, [{"setup_s": 0.2}] * 4)
    assert list(metrics) == list(run.METRIC_MAP["end_to_end"])
    # a pass: median 0.15 s for the first operation plus 0.4 s for the second
    assert metrics["wall_s"]["measured"] == pytest.approx(0.55)
    assert metrics["wall_s"]["median"] == pytest.approx(0.275)
    assert metrics["verdicts_per_s"]["median"] == pytest.approx(2 / 0.275)
    assert metrics["verdict_p50_ms"]["measured"] == pytest.approx(250)
    assert metrics["verdict_p50_ms"]["median"] == pytest.approx(125)
    assert metrics["setup_s"]["median"] == pytest.approx(0.1)
    assert metrics["correct_ratio"]["median"] == 0.75
    assert metrics["decided_ratio"]["median"] == 0.5
    assert metrics["peak_rss_mb"]["median"] == 10.0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
