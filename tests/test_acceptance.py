"""Acceptance gate: every criterion of the verification suite, one test each.

Run `pytest tests/test_acceptance.py -v` for the matrix; each test prints its
own PASS/FAIL line with the measured runtime against the stated budget.
"""

from pathlib import Path

import pytest

from cubechar import verify

SEED = 42
#: The `cubechar verify-all --seed 42` report, recorded once; read only.
RECORDED_REPORT = Path(__file__).resolve().parents[1] / "perfbench/expected/verify_all_seed42.txt"

CRITERIA = list(verify._CRITERIA) + [verify.criterion_determinism]
IDS = [f.__name__.removeprefix("criterion_") for f in CRITERIA]


@pytest.mark.parametrize("criterion", CRITERIA, ids=IDS)
def test_acceptance(criterion, capsys):
    if criterion is verify.criterion_determinism:
        results = verify.run_criteria(SEED)
        result = criterion(SEED, results)
        report = f"seed: {SEED}\n" + verify.render_text(results + [result])
        assert report == RECORDED_REPORT.read_text()
    else:
        result = criterion(SEED)
    line = f"{'PASS' if result.passed else 'FAIL'}  criterion {result.number:2d} {result.name}"
    if result.limit_seconds is not None:
        line += f"  ({result.elapsed_seconds:.3f}s, budget {result.limit_seconds:g}s)"
    with capsys.disabled():
        print(line)
    assert result.passed, "\n".join(result.details)
    if result.limit_seconds is not None:
        assert result.elapsed_seconds < result.limit_seconds, (
            f"runtime {result.elapsed_seconds:.3f}s over budget {result.limit_seconds}s"
        )
