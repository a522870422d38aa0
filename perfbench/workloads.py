"""The two workloads: inputs made from a seed, the calls into cubechar, and
the independent check of every answer.

Each workload is a list of operations, one pass.  An operation's `run` is the
timed call into cubechar's public API; `summarize` turns its result into a
small JSON-able summary outside the timed region; `check` judges a summary
against an oracle from `oracles`, never against cubechar itself.  Every
summary carries `decided`: whether the verdict is certified (exact, interval
certified, or a certified sign) rather than a float guess or undetermined.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from cubechar import Alpha, CubePermutation, characters, obstruction, parse_permutation, verify

#: The verify-all report recorded at the commit that defined this benchmark.
RECORDED_REPORT = Path(__file__).resolve().parent / "expected" / "verify_all_seed42.txt"

_BLOCK_START = re.compile(r"^(PASS|FAIL) +\d+ (\S+)$")


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Callable[[dict], bool]


def call(owner, name: str, *args, **kwargs):
    """owner.name(*args, **kwargs), looked up when the operation runs, so that
    the traced run's wrappers see the call."""
    return partial(_late_call, owner, name, args, kwargs)


def _late_call(owner, name, args, kwargs):
    return getattr(owner, name)(*args, **kwargs)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _exact_summary(value) -> dict:
    return {"value": str(value), "decided": True}


def _matches(expected: Callable[[], object], summary: dict) -> bool:
    return summary["value"] == expected()


# --- acceptance: verify-all, one criterion per operation -----------------------


def recorded_blocks() -> dict:
    """Criterion name -> its rendered block, from the recorded report."""
    lines = RECORDED_REPORT.read_text().splitlines()[1:-1]  # drop 'seed:' and the tally
    blocks, name = {}, None
    for line in lines:
        match = _BLOCK_START.match(line)
        if match:
            name = match.group(2)
            blocks[name] = [line]
        else:
            blocks[name].append(line)
    return {key: "\n".join(value) for key, value in blocks.items()}


def _criterion_summary(result) -> dict:
    block = "\n".join(verify.render_text([result]).splitlines()[:-1])
    return {"block": block, "decided": result.passed}


#: The meta-check that runs criteria 1-11 twice and compares the runs.
DETERMINISM = "determinism"


def build_acceptance(seed: int) -> list:
    """What `cubechar verify-all --seed SEED` runs: criteria 1-11, one
    operation each.  The determinism meta-check is not timed: it only runs the
    other criteria twice more and compares, and every pass of a run is
    compared with the recorded report anyway.  The report does not depend on
    the seed."""
    ops = []
    for name, block in recorded_blocks().items():
        if name == DETERMINISM:
            continue
        criterion = getattr(verify, "criterion_" + name.replace("-", "_"))
        ops.append(
            Op(
                name,
                partial(criterion, seed),
                _criterion_summary,
                lambda summary, block=block: summary["block"] == block,
            )
        )
    return ops


# --- certify, part 1: Gram matrices and their PSD verdicts --------------------------

#: (level, size, alpha) for random distinct subsets; theory: PSD, exactly.
#: The costs fall into clusters (tens of ms, 0.1-0.3 s, 1-2 s) wide enough
#: that the median and the tail quantile each land inside one, not in a gap.
GRAM_CLASSIFIED = (
    (3, 32, "1"),
    (3, 32, "2"),
    (3, 32, "3"),
    (4, 24, "inf"),
    (4, 32, "3"),
    (4, 96, "0"),
    (4, 96, "inf"),
    (4, 64, "2"),
)

#: (alpha, element set, witness strategy) at non-integer exponents.
GRAM_NONINTEGER = (
    ("3/2", "S(2^2)", "signs"),
    ("3/10", "S(2^2)", "signs"),
    ("1/2", "S(2^2)", "signs"),
    ("3/2", "e;level=2: (0 1)", "auto"),
)


def _distinct_rows(rng, level: int, count: int) -> np.ndarray:
    rows = {}
    while len(rows) < count:
        row = rng.permutation(1 << level)
        rows[row.tobytes()] = row
    return np.array(list(rows.values()), dtype=np.int64)


def _matrix_digest(matrix) -> str:
    return hashlib.sha256("\n".join(",".join(row) for row in matrix).encode()).hexdigest()


def _gram_summary(report) -> dict:
    method = report.method
    summary = {
        "verdict": report.verdict,
        "method": method,
        "level": report.level,
        "matrix": _matrix_digest(report.matrix),
        "witness": list(report.witness) if report.witness is not None else None,
        "witness_value": report.witness_value,
        "decided": method == "exact" or method.endswith("+interval-certified"),
    }
    if method != "exact":
        summary["entries"] = [list(row) for row in report.matrix]
    return summary


def _check_classified(rows: np.ndarray, alpha: str, summary: dict) -> bool:
    size = rows.shape[1]
    counts = oracles.agreement_counts(rows)
    expected = [[oracles.classified_entry(int(c), size, alpha) for c in row] for row in counts]
    return (
        summary["verdict"] == "PSD"
        and summary["method"] == "exact"
        and summary["matrix"] == _matrix_digest(expected)
    )


def _interval_bounds(text: str) -> tuple:
    lo, hi = text.strip("[]").split(",")
    return Fraction(lo.strip()), Fraction(hi.strip())


def _check_noninteger(rows: np.ndarray, alpha: str, strategy: str, summary: dict) -> bool:
    size = rows.shape[1]
    exponent = Fraction(alpha)
    matrix = oracles.real_matrix(oracles.agreement_counts(rows), size, exponent)
    n = rows.shape[0]
    for i in range(n):
        for j in range(n):
            if abs(float(summary["entries"][i][j]) - float(matrix[i, j])) > 1e-12:
                return False
    is_psd = oracles.min_eigenvalue(matrix) >= 0
    if (summary["verdict"] == "PSD") != is_psd:
        return False
    if summary["method"].endswith("+interval-certified"):
        witness = [Fraction(w) for w in summary["witness"]]
        if strategy == "signs" and witness != [oracles.parity_sign(row) for row in rows]:
            return False
        value = oracles.quadratic_form(matrix, witness)
        lo, hi = _interval_bounds(summary["witness_value"])
        return value < 0 and oracles.within(value, lo, hi, 256)
    return True


#: Stream of the one random draw of subsets that every seed relabels.
GRAM_SUBSET_STREAM = 1005


def gram_ops(seed: int) -> list:
    """Gram-matrix operations.  Each subset is one fixed random draw, relabelled per seed as g -> h g k
    with seeded h, k.  Fix(h g_i k (h g_j k)^-1) = h Fix(g_i g_j^-1), so the
    Gram matrix, and with it the exact elimination's work, is the same for
    every seed, while every element table differs."""
    draw = _rng(GRAM_SUBSET_STREAM, 1)
    rng = _rng(seed, 1)
    ops = []
    for level, size, alpha in GRAM_CLASSIFIED:
        h, k = rng.permutation(1 << level), rng.permutation(1 << level)
        rows = h[_distinct_rows(draw, level, size)[:, k]]
        elements = [CubePermutation(level, row.tolist()) for row in rows]
        ops.append(
            Op(
                f"L{level}-n{size}-alpha{alpha}",
                call(characters, "gram_matrix", Alpha.parse(alpha), elements),
                _gram_summary,
                partial(_check_classified, rows, alpha),
            )
        )
    s22_rows = np.array(list(itertools.permutations(range(4))), dtype=np.int64)
    for alpha, elements_text, strategy in GRAM_NONINTEGER:
        if elements_text == "S(2^2)":
            rows = s22_rows
            elements = [CubePermutation(2, row.tolist()) for row in rows]
        else:
            elements = [parse_permutation(t) for t in elements_text.split(";")]
            rows = np.array([[0, 1, 2, 3], [1, 0, 2, 3]], dtype=np.int64)
        ops.append(
            Op(
                f"{elements_text}-alpha{alpha}-{strategy}",
                call(characters, "gram_matrix", Alpha.parse(alpha), elements, witness_strategy=strategy),
                _gram_summary,
                partial(_check_noninteger, rows, alpha, strategy),
            )
        )
    return ops


# --- certify, part 2: sign certification of C_alpha(m) ----------------------------

WITNESS_ANCHORS = (0, 0, 1, 2, 3, 5, 8, 13, 21, 34, 55)
WITNESS_FRACTIONS = tuple(
    Fraction(t) for t in ("1/3", "1/2", "2/3", "3/4", "2/5", "3/5", "3/10", "7/10", "5/8", "7/8")
)
#: A large half-integer, whose certification escalates to 256 bits.  Fixed
#: rather than seeded: it is the costliest sign operation.
WITNESS_FIXED = (Fraction(201, 2),)


def _enclosure_summary(sign: str, method: str, enclosure, value=None) -> dict:
    summary = {"sign": sign, "method": method, "decided": sign != "undetermined"}
    if enclosure is not None:
        summary.update(prec=enclosure.prec, lo=str(enclosure.lo), hi=str(enclosure.hi))
    else:
        summary["value"] = str(value)
    return summary


def _witness_summary(result) -> dict:
    m, report = result
    summary = _enclosure_summary(report.sign, report.method, report.enclosure)
    summary["m"] = m
    return summary


def _report_summary(report) -> dict:
    return _enclosure_summary(report.sign, report.method, report.enclosure, report.exact_value)


def _oracle_bits(summary: dict) -> int:
    return 2 * summary.get("prec", 64) + 256


def _check_sign(alpha: Fraction, m: int, summary: dict) -> bool:
    if summary["sign"] == "undetermined":
        return True  # not a wrong answer; counted as undecided
    bits = _oracle_bits(summary)
    value = oracles.c_alpha(alpha, m, bits)
    lo, hi = Fraction(summary["lo"]), Fraction(summary["hi"])
    return oracles.sign_of(value) == summary["sign"] and oracles.within(value, lo, hi, bits)


def _check_witness(alpha: Fraction, summary: dict) -> bool:
    m = summary["m"]
    return (
        2 <= m <= math.floor(alpha) + 4
        and summary["sign"] == "negative"
        and _check_sign(alpha, m, summary)
    )


def _check_alt_trace(alpha: Fraction, m: int, summary: dict) -> bool:
    if alpha.denominator == 1:
        a = int(alpha)
        return summary["value"] == str(Fraction(oracles.c_integer(a, m), math.factorial(m) * m**a))
    value = oracles.alt_trace(alpha, m, 256)
    return oracles.within(value, Fraction(summary["value"][0]), Fraction(summary["value"][1]), 256)


def _alt_trace_summary(value) -> dict:
    if isinstance(value, Fraction):
        return {"value": str(value), "decided": True}
    return {"value": [str(value.lo), str(value.hi)], "decided": True}


def _integer_row(n: int) -> list:
    return [obstruction.c_alpha_integer(n, m) for m in range(1, 41)]


def sign_ops(seed: int) -> list:
    rng = _rng(seed, 3)

    def fraction():
        return WITNESS_FRACTIONS[int(rng.integers(len(WITNESS_FRACTIONS)))]

    ops = []
    alphas = [anchor + fraction() for anchor in WITNESS_ANCHORS] + list(WITNESS_FIXED)
    for alpha in alphas:
        ops.append(
            Op(
                f"witness-alpha{alpha}",
                call(obstruction, "noninteger_witness", alpha),
                _witness_summary,
                partial(_check_witness, alpha),
            )
        )
    # ten rows of similar cost, m = 60..78: the median operation falls among
    # them.  The integer part of alpha, which sets a row's cost, is fixed.
    for whole, m in enumerate(range(60, 80, 2), start=1):
        alpha = whole + fraction()
        ops.append(
            Op(
                f"c_alpha_real-alpha{alpha}-m{m}",
                call(obstruction, "c_alpha_real", alpha, m),
                _report_summary,
                partial(_check_sign, alpha, m),
            )
        )
    for n in (10, 20, 30, 40):
        ops.append(
            Op(
                f"c_alpha_integer-n{n}",
                partial(_integer_row, n),
                lambda values: {"value": [str(v) for v in values], "decided": True},
                partial(
                    lambda n, s: s["value"] == [str(oracles.c_integer(n, m)) for m in range(1, 41)], n
                ),
            )
        )
    for m, alpha in ((6, Fraction(int(rng.integers(0, 5)))), (7, 1 + fraction()), (8, 2 + fraction())):
        ops.append(
            Op(
                f"alt_trace_bruteforce-m{m}-alpha{alpha}",
                call(obstruction, "alt_trace_bruteforce", alpha, m),
                _alt_trace_summary,
                partial(_check_alt_trace, alpha, m),
            )
        )
    ops.append(
        Op(
            "signed_derangement_sum_bruteforce-8",
            call(obstruction, "signed_derangement_sum_bruteforce", 8),
            _exact_summary,
            partial(_matches, lambda: str(oracles.signed_derangement_sum(8))),
        )
    )
    return ops


def build_certify(seed: int) -> list:
    """Verdict certification: PSD verdicts of Gram matrices, then certified
    signs of C_alpha(m) and the brute-force sums."""
    return gram_ops(seed) + sign_ops(seed)


WORKLOADS = {
    "acceptance": build_acceptance,
    "certify": build_certify,
}
