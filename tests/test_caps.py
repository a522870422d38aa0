"""The cap registry and the README table that documents it."""

import dataclasses
import shlex
import time
from pathlib import Path

import pytest

import cubechar
from cubechar import CapExceededError, caps
from conftest import run_cli_capped

README = Path(__file__).resolve().parents[1] / "README.md"
RECORDS = [value for value in vars(caps).values() if isinstance(value, caps.Cap)]
HEADER = "| name | limit | unit | bounds | refused example |"


def _table_rows() -> list:
    """The cells of each row of the README's cap table, the example cell
    without its backticks."""
    lines = README.read_text().splitlines()
    start = lines.index(HEADER) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split(" | ")]
        rows.append(cells[:-1] + [cells[-1].strip("`")])
    return rows


def test_the_readme_table_is_the_registry():
    assert [row[:4] for row in _table_rows()] == [
        [cap.name, str(cap.limit), cap.unit, cap.bounds] for cap in RECORDS
    ]
    assert len({cap.name for cap in RECORDS}) == len(RECORDS)
    assert all(getattr(caps, cap.name) is cap for cap in RECORDS)


@pytest.mark.parametrize("row", _table_rows(), ids=lambda row: row[0])
def test_each_readme_example_is_refused_by_its_cap(row):
    """A `cubechar ...` example exits 3 at once in a capped child and names
    its cap; a library example raises that cap's CapExceededError."""
    name, example = row[0], row[-1]
    cap = getattr(caps, name)
    if not example.startswith("cubechar "):
        with pytest.raises(CapExceededError) as info:
            eval(example, dict(vars(cubechar)))
        assert info.value.cap is cap and info.value.value > cap.limit
        return
    started = time.perf_counter()
    done = run_cli_capped(shlex.split(example)[1:])
    assert time.perf_counter() - started < 2
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith(f"cap exceeded: {name} ") and done.stderr.count("\n") == 1


def test_a_refusal_is_rendered_from_its_record():
    cap = caps.Cap("SAMPLE", 5, "bits", "a sample quantity")
    cap.check(5)
    with pytest.raises(CapExceededError) as info:
        cap.check(6)
    assert (info.value.cap, info.value.value) == (cap, 6)
    assert str(info.value) == "SAMPLE 6 over its limit 5 (bits: a sample quantity)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        cap.limit = 6


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 2**40 - 1, 2**40, 2**40 + 1])
def test_log2_ceil_is_exact(n):
    """n > 2^k exactly when log2_ceil(n) > k, checked in ints."""
    k = caps.log2_ceil(n)
    assert n <= 1 << k and (k == 0 or n > 1 << (k - 1))


def test_derived_limits_come_from_the_digit_cap():
    """2^EXACT_POWER is the largest power of two under 10^DIGITS, and a
    log2 past EXACT_VALUE_BITS means more than DIGITS digits."""
    assert caps.EXACT_VALUE_BOUND == 10**caps.DIGITS.limit
    assert 1 << caps.EXACT_POWER.limit < caps.EXACT_VALUE_BOUND < 1 << caps.EXACT_POWER.limit + 1
    bits = caps.EXACT_VALUE_BOUND.bit_length()
    assert bits < caps.EXACT_VALUE_BITS < bits + 1
