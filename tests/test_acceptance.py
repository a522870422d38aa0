"""Acceptance gate: every criterion of the verification suite, one test each.

Run `pytest tests/test_acceptance.py -v` for the matrix; each test prints its
own PASS/FAIL line with the measured runtime against the stated budget.
"""

import itertools
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cubechar import (
    Alpha,
    NiceSet,
    all_permutations,
    appendix,
    characters,
    fixed_fraction,
    gnsfinite,
    identity,
    transposition,
    verify,
)
from cubechar.perm import table_from_cycles

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


def test_gns_criterion_reports_a_rep_that_moves_an_extra_point(monkeypatch):
    rep = gnsfinite.rep_matrix
    # also swaps the points 0 = (0, 0), on the diagonal, and 1 = (1, 0), off it
    monkeypatch.setattr(gnsfinite, "rep_matrix", lambda s: rep(s).compose(transposition(2 * s.level, 0, 1)))
    result = verify.criterion_gns_identity(SEED)
    assert not result.passed
    assert result.details[0] == "level 2 mismatch at CubePermutation(level=2, e)"


def test_stirling_criterion_reports_a_route_mismatch(monkeypatch):
    exact = verify.obstruction.c_alpha_integer
    monkeypatch.setattr(verify.obstruction, "c_alpha_integer", lambda n, m: exact(n, m) + 1)
    result = verify.criterion_stirling_obstruction(SEED)
    assert not result.passed
    assert result.details[0] == "C_0(1): direct sum 2 != Stirling route 1"


def test_stirling_criterion_computes_each_stirling_number_once(monkeypatch):
    """S(n, m) for n <= 15 and m <= 15 is 256 distinct values, each computed
    once: the previous m's S(n, m) is this m's S(n, m-1)."""
    calls = []
    stirling2 = verify.obstruction.stirling2

    def counted(n, m):
        calls.append((n, m))
        return stirling2(n, m)

    monkeypatch.setattr(verify.obstruction, "stirling2", counted)
    assert verify.criterion_stirling_obstruction(SEED).passed
    assert sorted(calls) == [(n, m) for n in range(16) for m in range(16)]


def test_tensor_criterion_reports_a_wrong_tensor(monkeypatch):
    monkeypatch.setattr(verify.gnsfinite, "tensor_character", lambda s, k: Fraction(1))
    result = verify.criterion_tensor_powers(SEED)
    assert not result.passed
    assert result.details[0] == "16-dim tensor of the level-1 transposition gave 1"


def test_multiplicativity_criterion_reports_a_wrong_block_product(monkeypatch):
    product = verify.block_product
    monkeypatch.setattr(verify, "block_product", lambda s1, s2: product(s1, identity(s2.level)))
    result = verify.criterion_multiplicativity(SEED)
    assert not result.passed
    assert result.details[0] == (
        "alpha=1: failed at CubePermutation(level=2, e), CubePermutation(level=2, (2 3))"
    )


def test_multiplicativity_failures_keep_the_per_pair_order(monkeypatch):
    """Failures are listed pair by pair and exponent by exponent, exactly
    as a loop that checks every pair at every exponent lists them."""
    true_product = verify.block_product

    def wrong_product(s1, s2):
        if s1.images[0] == s2.images[1]:
            return true_product(s1, identity(s2.level))  # drops the factor of s2
        if s2.images[0] == 3:
            return identity(s1.level + s2.level)  # fixes every point
        return true_product(s1, s2)

    def wrong_bases(s1, s2):
        return fixed_fraction(wrong_product(s1, s2)), fixed_fraction(s1), fixed_fraction(s2)

    monkeypatch.setattr(verify, "block_product", wrong_product)
    result = verify.criterion_multiplicativity(SEED)
    expected = []
    alphas = [Alpha(0), Alpha(1), Alpha(2), Alpha(3), Alpha.infinity()]
    elements = list(all_permutations(2))
    for s1 in elements:
        for s2 in elements:
            bases = wrong_bases(s1, s2)
            for alpha in alphas:
                if not characters.multiplicativity_holds(alpha, bases):
                    expected.append(f"alpha={alpha}: failed at {s1!r}, {s2!r}")
    assert not result.passed
    assert result.details == tuple(expected)
    failed_alphas = {detail.split(":")[0] for detail in expected}
    assert failed_alphas == {"alpha=1", "alpha=2", "alpha=3", "alpha=inf"}
    assert len({detail.split(":")[1] for detail in expected}) > 100


def test_projection_criterion_reports_a_scan_that_moves(monkeypatch):
    flip = gnsfinite.flip_perm
    monkeypatch.setattr(gnsfinite, "flip_perm", lambda a, m: flip(NiceSet.empty(1), m) if m == 8 else flip(a, m))
    result = verify.criterion_projection_identities(SEED)
    assert not result.passed
    assert result.details[0] == (
        "alpha=1 full-vs-empty: scan not constant: ['3/4', '3/4', '3/4', '3/4', '0']"
    )


@pytest.mark.parametrize("seed", [7, SEED])
def test_projection_criterion_scans_nonzero_values(monkeypatch, seed):
    """The constancy check compares values that are not all zero: at least
    half of the catalog entries scan a nonzero fixed set."""
    scans = []
    bases = gnsfinite.stabilization_bases

    def recorded(*args):
        scans.append(bases(*args))
        return scans[-1]

    monkeypatch.setattr(gnsfinite, "stabilization_bases", recorded)
    assert verify.criterion_projection_identities(seed).passed
    assert len(scans) == len(verify._PROJECTION_CATALOG)
    assert 2 * sum(scan[0] != 0 for scan in scans) >= len(scans)


def test_projection_criterion_reports_a_wrong_intersection(monkeypatch):
    monkeypatch.setattr(gnsfinite, "nice_intersect", lambda a, b: NiceSet.full(1))
    result = verify.criterion_projection_identities(SEED)
    assert not result.passed
    assert result.details[0] == "alpha=1 full-vs-empty: intersection: 0 != 1"


def test_conjugation_criterion_reports_a_conjugate_that_returns_s(monkeypatch):
    monkeypatch.setattr(verify, "conjugate", lambda s, g: s)
    result = verify.criterion_conjugation_law(SEED)
    assert not result.passed
    assert result.details[0] == "g=CubePermutation(level=2, (2 3)) mask=0100 m=3"


def test_derangement_criterion_reports_an_off_by_one(monkeypatch):
    # (-1)^(k-1) k in place of (-1)^(k-1) (k-1)
    monkeypatch.setattr(verify.obstruction, "signed_derangement_sum", lambda k: k if k % 2 else -k)
    result = verify.criterion_derangement_sums(SEED)
    assert not result.passed
    assert result.details[0] == "k=1: brute 0 != closed 1"


def test_alt_trace_criterion_reports_a_wrong_enumeration(monkeypatch):
    counts = verify.obstruction.signed_fixcount_distribution
    monkeypatch.setattr(
        verify.obstruction,
        "signed_fixcount_distribution",
        lambda m: [a + (f == 0) for f, a in enumerate(counts(m))],
    )
    result = verify.criterion_alt_trace_oracle(SEED)
    assert not result.passed
    assert result.details[0] == "alpha=0 m=2: 1/2 != 0"


def test_negativity_criterion_reports_a_witness_one_too_early(monkeypatch):
    witness = verify.obstruction.noninteger_witness
    c_alpha_real = verify.obstruction.c_alpha_real

    def early(alpha):
        m, _ = witness(alpha)
        return m - 1, c_alpha_real(alpha, m - 1)

    monkeypatch.setattr(verify.obstruction, "noninteger_witness", early)
    result = verify.criterion_noninteger_negativity(SEED)
    assert not result.passed
    assert result.details[0] == "alpha=0.3: m=2 sign=positive"


def test_negativity_criterion_reports_a_witness_one_too_early_with_the_true_report(monkeypatch):
    witness = verify.obstruction.noninteger_witness

    def early(alpha):
        m, report = witness(alpha)
        return m - 1, report

    monkeypatch.setattr(verify.obstruction, "noninteger_witness", early)
    result = verify.criterion_noninteger_negativity(SEED)
    assert not result.passed
    assert result.details[:2] == ("alpha=0.3: witness m=2, report m=3", "alpha=0.3: m=2 sign=negative")


def test_gram_criterion_reports_an_uncertified_sign_witness(monkeypatch):
    monkeypatch.setattr(characters, "certify_sign", lambda evaluate, start_prec: (None, "undetermined"))
    result = verify.criterion_gram_psd(SEED)
    assert not result.passed
    assert result.details[0] == "alpha=3/2: expected certified not-PSD, got not PSD"


def test_gram_criterion_certifies_every_positive_definite_subset_matrix(monkeypatch):
    """Criterion 10 checks all 84 of its classified matrices exactly.  The
    Cholesky certificate, not the elimination, decides every alpha in
    {1, 2, 3} matrix of the 20 seeded subsets; every alpha = 0 matrix (all
    ones, rank 1) goes on to the elimination.  On S(2^2) the elimination
    decides alpha = 0, 1 and 2, so it runs exactly 23 times per pass: a
    change in which matrices reach it fails here."""
    decided = []
    certify = characters._cholesky_certifies_pd
    eliminated = []
    bareiss = characters._bareiss_psd

    def counted(a):
        decided.append(certify(a))
        return decided[-1]

    def counted_bareiss(rows):
        eliminated.append(len(rows))
        return bareiss(rows)

    exponents = []
    gram_ints = verify.gram_ints

    def recorded(alpha, build):
        exponents.append((str(alpha), len(build.counts)))
        return gram_ints(alpha, build)

    monkeypatch.setattr(characters, "_cholesky_certifies_pd", counted)
    monkeypatch.setattr(characters, "_bareiss_psd", counted_bareiss)
    monkeypatch.setattr(verify, "gram_ints", recorded)
    assert verify.criterion_gram_psd(SEED).passed
    assert len(decided) == len(exponents) == 84
    subsets = [(alpha, ok) for (alpha, n), ok in zip(exponents, decided) if n == 20]
    assert len(subsets) == 80
    assert all(ok == (alpha != "0") for alpha, ok in subsets)
    assert len(eliminated) == 23
    s22 = [alpha for (alpha, n), ok in zip(exponents, decided) if n == 24 and not ok]
    assert s22 == ["0", "1", "2"]


def test_gram_criterion_records_a_failed_psd_check(monkeypatch):
    """A classified matrix that fails the exact check is a failure detail
    of criterion 10, not an error that stops the suite."""
    monkeypatch.setattr(characters, "psd_check_exact", lambda mat: False)
    result = verify.criterion_gram_psd(SEED)
    assert not result.passed
    assert result.details[0] == "alpha=0 on S(2^2): alpha=0: Gram matrix failed the PSD check"
    assert "alpha=3 subset 19: alpha=3: Gram matrix failed the PSD check" in result.details
    text = verify.render_text(verify.run_criteria(SEED))
    assert [line.split()[1] for line in text.splitlines()[:-1] if not line.startswith(" ")] == [
        str(n) for n in range(1, 12)
    ]
    assert "FAIL  10 gram-psd" in text


def test_gram_criterion_renders_nothing(monkeypatch):
    """Criterion 10 decides its matrices without naming an element or
    building a report."""

    def refuse(*args, **kwargs):
        raise AssertionError("criterion 10 rendered a Gram matrix")

    monkeypatch.setattr(characters, "cycle_string", refuse)
    monkeypatch.setattr(characters, "GramReport", refuse)
    assert verify.criterion_gram_psd(SEED).passed


def test_appendix_criterion_reports_a_generator_with_an_odd_quotient(monkeypatch):
    def odd_pair(k, degree):
        g1 = table_from_cycles(degree, [tuple(range(k))])
        g2 = table_from_cycles(degree, [tuple(range(1, k + 1))])  # g1's cycle moved up one point
        return appendix.CyclePair(k, degree, g1, g2)

    monkeypatch.setattr(appendix, "lemma_g1", odd_pair)
    result = verify.criterion_appendix_constructions(SEED)
    assert not result.passed
    assert result.details[0] == "lemma k=5 degree=8: quotient has odd cycle lengths [3]"


def test_determinism_criterion_reports_a_note_that_counts(monkeypatch):
    calls = itertools.count()

    def counting(seed):
        return verify._result(1, "counter", None, time.perf_counter(), [], [f"run {next(calls)}"])

    monkeypatch.setattr(verify, "_CRITERIA", (counting,))
    result = verify.run_all(SEED)[-1]
    assert result.name == "determinism" and not result.passed
    assert result.details == ("reports differ between runs",)
