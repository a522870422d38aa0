import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubechar import (
    CapExceededError,
    FalsificationError,
    ObstructionReport,
    alt_trace_bruteforce,
    alt_trace_closed_form,
    c_alpha_integer,
    c_alpha_real,
    certreal,
    noninteger_witness,
    noninteger_witness_scan,
    obstruction,
    signed_derangement_sum,
    signed_derangement_sum_bruteforce,
    signed_fixcount_distribution,
    stirling2,
    stirling2_recurrence,
)
from cubechar.obstruction import (
    EXACT_VALUE_CAP_DIGITS,
    REAL_SUM_MAX_M,
    _permutation_rows,
    _signed_fixcounts,
    check_m_range,
)
from cubechar.perm import permutation_sign
from conftest import traced_peak

#: Non-integer alpha = num/den with num < 60 and den in {2, 3, 4, 7}.
noninteger_alphas = st.builds(
    Fraction, st.integers(1, 59), st.sampled_from((2, 3, 4, 7))
).filter(lambda a: a.denominator != 1)


# -- derangement sums ------------------------------------------------------------


def test_derangement_examples():
    assert signed_derangement_sum(1) == 0
    assert signed_derangement_sum(2) == -1
    assert signed_derangement_sum(3) == 2
    assert signed_derangement_sum_bruteforce(6) == -5


def test_derangement_brute_vs_closed():
    for k in range(1, 10):
        assert signed_derangement_sum_bruteforce(k) == signed_derangement_sum(k)


def test_derangement_recurrence():
    for k in range(2, 21):
        lhs = signed_derangement_sum(k + 1)
        assert lhs == -k * (signed_derangement_sum(k) + signed_derangement_sum(k - 1))


def test_derangement_bruteforce_bounds():
    with pytest.raises(ValueError):
        signed_derangement_sum_bruteforce(10)


def _fixcounts_by_loop(k):
    """One permutation at a time, the sign by its cycles: the oracle."""
    dist = [0] * (k + 1)
    for p in itertools.permutations(range(k)):
        dist[sum(1 for i in range(k) if p[i] == i)] += permutation_sign(p)
    return dist


@pytest.mark.parametrize("k", range(8))
def test_permutation_rows_enumerate_s_k_in_order(k):
    pairs = [
        (tuple(int(x) for x in row), bool(o)) for block, odd in _permutation_rows(k) for row, o in zip(block, odd)
    ]
    rows = [row for row, _ in pairs]
    assert rows == list(itertools.permutations(range(k)))
    for row, odd in pairs:
        inversions = sum(row[i] > row[j] for i, j in itertools.combinations(range(k), 2))
        assert (-1) ** inversions == permutation_sign(row)
        assert odd == bool(inversions & 1)


@pytest.mark.parametrize("k", range(1, 8))
def test_signed_fixcounts_match_the_loop(k):
    assert _signed_fixcounts(k) == _fixcounts_by_loop(k)


@pytest.mark.parametrize("k", [8, 9])
def test_signed_fixcounts_match_the_closed_form(k):
    """a[f] = C(k, f) d(k - f): choose the fixed points, derange the rest,
    with d(0) = 1 and d(j) the signed derangement sum of S(j)."""
    d = [1] + [signed_derangement_sum(j) for j in range(1, k + 1)]
    assert _signed_fixcounts(k) == [math.comb(k, f) * d[k - f] for f in range(k + 1)]


def test_derangement_bruteforce_memory_is_bounded():
    # one block of 8! rows at a time; S(9) whole would be 3.3 MB of int8
    value, peak = traced_peak(lambda: signed_derangement_sum_bruteforce(9))
    assert value == 8
    assert peak < 2 << 20


# -- Stirling numbers -------------------------------------------------------------


def test_stirling_examples():
    assert stirling2(3, 2) == 3
    assert stirling2(2, 3) == 0
    for n in range(1, 10):
        assert stirling2(n, 1) == 1
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0


def test_stirling_formula_matches_recurrence():
    for n in range(26):
        for m in range(26):
            assert stirling2(n, m) == stirling2_recurrence(n, m)


# -- C_n(m), integer channel --------------------------------------------------------


def test_c_alpha_integer_pinned_convention():
    # pins the (-1)^(j-1)(j-1) weight: only the j=0 term survives at (n,m)=(2,2)
    assert c_alpha_integer(2, 2) == 4


def test_c_alpha_integer_examples():
    assert c_alpha_integer(3, 2) == 8  # 2!(S(3,2)+S(3,1)) = 2(3+1)
    for n in range(7):
        for m in range(n + 2, n + 6):
            assert c_alpha_integer(n, m) == 0
    for n in range(16):
        for m in range(1, 16):
            assert c_alpha_integer(n, m) >= 0


@pytest.mark.parametrize("n, m", [(9012, 3), (2684, 40)])
def test_integer_cap_edge(n, m):
    """The largest n that prints at each m prints in full; n + 1 raises."""
    assert len(str(c_alpha_integer(n, m))) == EXACT_VALUE_CAP_DIGITS
    with pytest.raises(CapExceededError):
        c_alpha_integer(n + 1, m)


def test_integer_cap_edge_past_n_plus_1():
    """For m >= n+2 the value is 0; the sums' powers m^n are capped at the
    same bit count, whose edge at m = n+2 is n = 1370."""
    assert c_alpha_integer(1370, 1372) == 0
    with pytest.raises(CapExceededError, match="sums powers"):
        c_alpha_integer(1371, 1373)


def test_integer_cap_is_checked_before_the_sums():
    with pytest.raises(CapExceededError, match="at least"):
        c_alpha_integer(10**11, 3)
    with pytest.raises(CapExceededError, match="sums powers"):
        c_alpha_integer(10**4, 10**4 + 2)
    assert c_alpha_integer(10**11, 1) == 1
    assert c_alpha_integer(5, 100) == 0


def test_integer_work_cap_edge():
    """Past m = n+1 the sums' work m (n log2 m + m) is capped at 2^25 bit
    operations; at m = 2200 the edge is n = 1175.  The largest work below
    the digit cap, at m <= n+1, still prints."""
    assert c_alpha_integer(1175, 2200) == 0
    with pytest.raises(CapExceededError, match="work cap"):
        c_alpha_integer(1176, 2200)
    assert len(str(c_alpha_integer(1556, 1557))) <= EXACT_VALUE_CAP_DIGITS


def test_integer_work_cap_is_checked_before_the_sums():
    # with n small the powers stay under the digit cap; only the work cap stops these
    with pytest.raises(CapExceededError, match="work cap"):
        c_alpha_integer(1000, 19966)
    with pytest.raises(CapExceededError, match="work cap"):
        c_alpha_integer(0, 10**12)


def test_exact_caps_take_unbounded_integers():
    """No cap turns an int into a float: C_n(1) = 1 for every n, and n or m
    past the float range is refused by bit length; the 2^64 switch refuses
    on both sides."""
    huge = 10**400
    assert c_alpha_integer(huge, 1) == 1
    for n, m in ((3, huge), (huge, 5), (huge, 2), (huge, huge), (0, huge), (2**64, 2)):
        with pytest.raises(CapExceededError, match="at least 2\\^64 bit operations"):
            c_alpha_integer(n, m)
    with pytest.raises(CapExceededError, match="digit cap"):
        c_alpha_integer(2**64 - 1, 2)
    with pytest.raises(CapExceededError, match="work cap"):
        c_alpha_integer(3, 2**64 - 1)
    with pytest.raises(CapExceededError, match="work cap"):
        check_m_range(Fraction(3), 1, huge)
    check_m_range(Fraction(huge), 1, 1)


def test_real_sum_cap_edge(monkeypatch):
    """The interval route sums m = REAL_SUM_MAX_M and refuses one more before
    any term; a 64-bit precision cap keeps the edge to one pass."""
    monkeypatch.setattr(certreal, "PRECISION_CAP", 64)
    report = c_alpha_real(Fraction(3, 2), REAL_SUM_MAX_M)
    assert report.m == REAL_SUM_MAX_M and report.method == "interval"
    with pytest.raises(CapExceededError):
        c_alpha_real(Fraction(3, 2), REAL_SUM_MAX_M + 1)
    with pytest.raises(CapExceededError):
        noninteger_witness(Fraction(2 * REAL_SUM_MAX_M - 1, 2))  # m* = REAL_SUM_MAX_M + 2
    # integer alpha takes the exact route, which its own work cap bounds
    assert c_alpha_real(Fraction(1), REAL_SUM_MAX_M + 1).sign == "zero"


def test_c_alpha_direct_equals_stirling_route():
    for n in range(12):
        for m in range(1, 12):
            direct = c_alpha_integer(n, m)
            assert direct == math.factorial(m) * (stirling2(n, m) + stirling2(n, m - 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(1, 41))
def test_c_alpha_integer_matches_stirling_recurrence(n, m):
    expected = math.factorial(m) * (stirling2_recurrence(n, m) + stirling2_recurrence(n, m - 1))
    assert c_alpha_integer(n, m) == expected


@pytest.mark.parametrize("n", [0, 1, 100, 1175, 1370, 1371, 5000, 9014, 9015, 14286, 20000])
def test_exact_caps_rise_with_m(n):
    """The m that pass the closed-form caps are 1..edge, so a range's largest m decides."""
    passed = []
    for m in range(1, 6001):
        try:
            obstruction._check_exact_caps(n, m)
            passed.append(m)
        except CapExceededError:
            pass
    assert passed == list(range(1, len(passed) + 1))


def test_m_range_cap_edges():
    """A range is refused, before any sum, exactly when its largest m would be."""
    check_m_range(Fraction(3, 2), 1, REAL_SUM_MAX_M)
    with pytest.raises(CapExceededError, match="interval-sum cap"):
        check_m_range(Fraction(3, 2), 1, REAL_SUM_MAX_M + 1)
    check_m_range(Fraction(1175), 1, 2200)  # the work cap's edge at m = 2200
    with pytest.raises(CapExceededError, match="work cap"):
        check_m_range(Fraction(1176), 1, 2200)
    check_m_range(Fraction(1370), 1, 1372)  # the power cap's edge at m = n + 2
    with pytest.raises(CapExceededError, match="sums powers"):
        check_m_range(Fraction(1371), 1, 1373)
    check_m_range(Fraction(9014), 1, 3)  # the lower bound's edge at m = 3
    with pytest.raises(CapExceededError, match="at least"):
        check_m_range(Fraction(9015), 1, 3)


def test_m_range_is_refused_before_it_is_listed():
    for alpha in (Fraction(3, 2), Fraction(3)):
        _, peak = traced_peak(
            lambda: pytest.raises(CapExceededError, check_m_range, alpha, 1, 10**9)
        )
        assert peak < 1 << 16


def test_m_range_checks_arguments_first():
    """The range gives the ValueError c_alpha_real gives at its first m."""
    for args, message in [
        ((Fraction(0), 1, 10**9), "alpha must be positive"),
        ((Fraction(3, 2), 0, 10**9), "m must be positive"),
        ((Fraction(3, 2), 1, 10**9, 32), "precision must be at least"),
    ]:
        with pytest.raises(ValueError, match=message):
            check_m_range(*args)


# -- C_alpha(m), real channel ---------------------------------------------------------


def test_real_channel_integer_alpha_is_exact():
    report = c_alpha_real(Fraction(2), 2)
    assert report.method == "exact" and report.exact_value == 4
    report = c_alpha_real(Fraction(2), 4)
    assert report.sign == "zero"  # C_2(4) = 0, certified exactly


def test_real_channel_certifies_negatives():
    seen = {m: c_alpha_real(Fraction(3, 2), m).sign for m in (4, 5)}
    assert "negative" in seen.values()
    seen = {m: c_alpha_real(Fraction(1, 2), m).sign for m in (3, 4)}
    assert "negative" in seen.values()


def test_real_channel_validation():
    with pytest.raises(ValueError):
        c_alpha_real(Fraction(-1, 2), 3)
    with pytest.raises(ValueError):
        c_alpha_real(Fraction(3, 2), 3, precision=16)


def test_report_serialization():
    report = c_alpha_real(Fraction(3, 2), 4)
    data = report.to_json_dict()
    assert data["sign"] == "negative"
    assert Fraction(data["value_hi"]) < 0
    row = report.csv_row()
    assert row[0] == "3/2" and row[1] == "4"


def test_real_channel_needs_only_the_cancelled_bits():
    """C_alpha(74) for alpha in (8, 9) cancels about 120 bits.  With each power
    enclosed to a few units in its last place, 128 bits certify every such
    sign; powers that lost log2(alpha * log(74)) bits each needed 256 for
    alpha = 71/8."""
    for alpha in (Fraction(25, 3), Fraction(43, 5), Fraction(71, 8)):
        report = c_alpha_real(alpha, 74)
        assert (report.sign, report.enclosure.prec) == ("positive", 128)


# -- alternating trace ------------------------------------------------------------------


def test_fixcount_distribution_is_a_signed_partition():
    for m in (2, 3, 4, 5):
        dist = signed_fixcount_distribution(m)
        assert sum(dist) == 0  # equal counts of even and odd permutations, m >= 2
        assert dist[m] == 1  # the identity
        assert dist[m - 1] == 0  # no permutation fixes exactly m-1 points


def test_alt_trace_examples():
    assert alt_trace_bruteforce(Fraction(1), 4) == Fraction(0)
    for m in range(2, 7):
        assert alt_trace_bruteforce(Fraction(0), m) == Fraction(0)
    assert alt_trace_bruteforce(Fraction(3), 4) == alt_trace_closed_form(Fraction(3), 4)


def test_alt_trace_matches_closed_form():
    for m in range(2, 7):
        for a in (0, 1, 2, 3):
            assert alt_trace_bruteforce(Fraction(a), m) == alt_trace_closed_form(Fraction(a), m)
        brute = alt_trace_bruteforce(Fraction(3, 2), m)
        closed = alt_trace_closed_form(Fraction(3, 2), m)
        assert brute.overlaps(closed)


def test_alt_trace_rejects_large_m():
    with pytest.raises(ValueError):
        alt_trace_bruteforce(Fraction(1), 9)


def test_alt_trace_caps_integer_exponents_like_the_closed_form():
    """The enumerated numerator is C_alpha(m), so both routes refuse the
    same exponents before summing, and agree below the cap."""
    for route in (alt_trace_bruteforce, alt_trace_closed_form):
        with pytest.raises(CapExceededError):
            route(Fraction(10**5), 8)
    assert alt_trace_bruteforce(Fraction(4000), 8) == alt_trace_closed_form(Fraction(4000), 8)


# -- witness search --------------------------------------------------------------------


@pytest.mark.parametrize("text", ["0.3", "0.5", "1.5", "2.5", "3.7", "5.25"])
def test_noninteger_witness_grid(text):
    alpha = Fraction(text)
    m, report = noninteger_witness(alpha)
    assert report.sign == "negative"
    assert 2 <= m <= int(alpha) + 4


def test_noninteger_witness_rejects_near_integers():
    with pytest.raises(ValueError):
        noninteger_witness(Fraction(2) + Fraction(1, 1 << 30))
    with pytest.raises(ValueError):
        noninteger_witness(Fraction(3))


def test_paper_dichotomy_window():
    # the witness is the sign rule's m* = ceil(alpha) + 2 = floor(alpha) + 3;
    # the oracle tests below check the rule against the scan
    for text in ("0.3", "0.5", "1.5", "2.5", "3.7", "5.25"):
        alpha = Fraction(text)
        m, _ = noninteger_witness(alpha)
        assert m == int(alpha) + 3


@settings(max_examples=25, deadline=None)
@given(noninteger_alphas)
def test_witness_matches_scan(alpha):
    """Same m and sign as the scan; the witness may certify its sum at a
    higher precision than the scan's doubling from 64 bits, so the two
    enclosures need only overlap."""
    m, report = noninteger_witness(alpha)
    scan_m, scan_report = noninteger_witness_scan(alpha)
    assert (m, report.sign) == (scan_m, scan_report.sign) == (scan_m, "negative")
    assert report.enclosure.prec >= scan_report.enclosure.prec
    assert report.enclosure.overlaps(scan_report.enclosure)


@settings(max_examples=25, deadline=None)
@given(noninteger_alphas)
def test_certified_signs_follow_the_rule(alpha):
    for m in range(1, math.floor(alpha) + 5):
        sign = c_alpha_real(alpha, m).sign
        if m < alpha + 1:
            expected = "positive"
        else:
            expected = "negative" if (m - math.ceil(alpha)) % 2 == 0 else "positive"
        assert sign in (expected, "undetermined"), (alpha, m, sign)


def _counted_certify_sign(monkeypatch):
    """Replace obstruction's certify_sign by one that records the sum it is
    given, as (alpha, m), and certifies it negative without evaluating it."""
    calls = []

    def counted(evaluate, start_prec):
        terms, alpha = evaluate.args
        calls.append((alpha, len(terms)))  # the m terms j = 0, 2, ..., m of C_alpha(m)
        return None, "negative"

    monkeypatch.setattr(obstruction, "certify_sign", counted)
    return calls


def test_witness_certifies_one_sum(monkeypatch):
    calls = _counted_certify_sign(monkeypatch)
    alpha = Fraction(1001, 2)
    m, report = noninteger_witness(alpha)
    assert calls == [(alpha, 503)]
    assert (m, report) == (503, ObstructionReport(alpha, 503, "negative", "interval"))


def test_witness_past_the_digit_cap_is_refused_before_its_sum(monkeypatch):
    """The predicted log2|C_alpha(m*)| is 2.4 bits under log2(10^4300) at
    alpha = 3117/2 and 8.2 bits over it at 3119/2: the first goes on to its
    one sum, the second is refused before any term."""
    calls = _counted_certify_sign(monkeypatch)
    cap_bits = EXACT_VALUE_CAP_DIGITS * math.log2(10)
    for alpha, m, over in ((Fraction(3117, 2), 1561, -2.4), (Fraction(3119, 2), 1562, 8.2)):
        _, log2_value = obstruction._witness_precision(alpha, m, 64)
        assert abs(log2_value - cap_bits - over) < 0.1
    with pytest.raises(CapExceededError, match="4300-digit cap"):
        noninteger_witness(Fraction(3119, 2))
    assert calls == []
    assert noninteger_witness(Fraction(3117, 2))[0] == 1561
    assert calls == [(Fraction(3117, 2), 1561)]


@pytest.mark.parametrize("text", ["3/10", "5/2", "43/2", "277/8", "557/10", "201/2", "401/2"])
def test_witness_is_certified_in_one_evaluation(text, monkeypatch):
    """The witness sum starts at the precision its cancellation needs: one
    evaluation, on the doubling ladder from the requested precision."""
    tried = []
    certify = obstruction.certify_sign

    def recording(evaluate, start_prec):
        return certify(lambda prec: tried.append(prec) or evaluate(prec), start_prec)

    monkeypatch.setattr(obstruction, "certify_sign", recording)
    alpha = Fraction(text)
    m, report = noninteger_witness(alpha)
    assert (m, report.sign) == (math.ceil(alpha) + 2, "negative")
    assert tried == [report.enclosure.prec]
    quotient, rest = divmod(report.enclosure.prec, 64)
    assert rest == 0 and quotient & (quotient - 1) == 0
    tried.clear()
    noninteger_witness(alpha, precision=4096)
    assert tried == [4096]


def test_witness_undetermined_at_precision_cap(monkeypatch):
    monkeypatch.setattr(certreal, "PRECISION_CAP", 64)
    with pytest.raises(FalsificationError) as info:
        noninteger_witness(Fraction(1001, 2))
    assert [r.sign for r in info.value.report] == ["undetermined"]
