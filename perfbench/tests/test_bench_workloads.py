import json
import os
import subprocess
import sys
from pathlib import Path

import workloads
import worker

BENCH = Path(__file__).resolve().parent.parent


def _inputs(ops):
    """The arguments each operation passes to cubechar."""
    return [(op.name, op.run.args[1:]) for op in ops]


def test_same_seed_same_inputs():
    build = workloads.build_certify
    assert _inputs(build(7)) == _inputs(build(7))
    assert _inputs(build(7)) != _inputs(build(8))


def _gram_ops():
    ops = workloads.gram_ops(3)
    return [op for op in ops if op.name in ("L3-n32-alpha1", "e;level=2: (0 1)-alpha3/2-auto")]


def test_right_answers_pass_and_float_verdicts_are_undecided():
    ops = _gram_ops()
    executed = [(i, op.summarize(op.run())) for i, op in enumerate(ops)]
    verdict = worker.check_answers(ops, executed)
    assert (verdict["attempted"], verdict["failed"], verdict["decided"]) == (2, 0, 1)
    assert verdict["undecided_ops"] == ["e;level=2: (0 1)-alpha3/2-auto"]


def test_wrong_answers_and_exceptions_count_as_failed():
    ops = _gram_ops()
    good = ops[0].summarize(ops[0].run())
    wrong = dict(good, matrix="0" * 64)
    crashed = {"error": "ValueError: boom", "decided": False}
    executed = [(0, good), (0, wrong), (0, good), (1, crashed)]
    verdict = worker.check_answers(ops, executed)
    assert (verdict["attempted"], verdict["failed"]) == (4, 2)
    assert {f["reason"] for f in verdict["failures"]} == {"wrong answer", "ValueError: boom"}


def test_a_wrong_oracle_answer_counts_as_failed():
    op = workloads.build_certify(1)[-1]  # signed_derangement_sum_bruteforce-8 against theory
    summary = op.summarize(op.run())
    assert op.check(summary)
    lying = workloads.Op(op.name, op.run, op.summarize, lambda s: s["value"] == "9")
    verdict = worker.check_answers([lying], [(0, summary)])
    assert verdict["failed"] == 1


def test_recorded_report_is_todays_verify_all_output():
    out = subprocess.run(
        [sys.executable, "-m", "cubechar.cli", "verify-all", "--seed", "42"],
        env={**os.environ, "PYTHONPATH": str(BENCH.parent / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == workloads.RECORDED_REPORT.read_text()
    names = list(workloads.recorded_blocks())
    assert len(names) == 12 and names[-1] == workloads.DETERMINISM
    assert [op.name for op in workloads.build_acceptance(5)] == names[:-1]


def test_metric_map_matches_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metric_map = json.loads((BENCH / "metric_map.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metric_map["workloads"])
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == {
        name: (m["unit"], m["better"], m["bound"]) for name, m in metric_map["end_to_end"].items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, m["unit"], m["better"]) for name, m in metric_map["per_layer"].items()
    ]
