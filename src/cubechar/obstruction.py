"""The integrality obstruction: signed derangement sums, Stirling numbers of
the second kind, and the alternating sums C_alpha(m) whose sign rules out
non-integer exponents.

Conventions pinned here and cross-checked by tests:

  C_alpha(m) = sum_{j=0}^{m} binom(m,j) * (-1)^(j-1) * (j-1) * (m-j)^alpha

with 0^alpha = 0 for alpha > 0 and 0^0 = 1, so C_2(2) = 4 (only the j = 0
term survives).  For integer alpha = n this equals m!(S(n,m) + S(n,m-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .certreal import (
    DEFAULT_PRECISION,
    EXACT_VALUE_CAP_DIGITS,
    Enclosure,
    certify_sign,
    check_exponent_digits,
    check_precision,
    power_sum,
)
from .errors import CapExceededError, FalsificationError, InternalInconsistencyError

ALT_TRACE_MAX_M = 8

#: noninteger_witness rejects alpha this close to an integer.
INTEGER_DISTANCE_THRESHOLD = Fraction(1, 1 << 20)

# Every exact C_n(m) under the digit cap prints; c_alpha_integer refuses the rest.
_EXACT_VALUE_BOUND = 10**EXACT_VALUE_CAP_DIGITS
# A lower bound of more bits than log2(10^4300) means too many digits; the
# extra bit absorbs float rounding in that bound.
_EXACT_VALUE_CAP_BITS = EXACT_VALUE_CAP_DIGITS * math.log2(10) + 1

#: log2 of the bound on m (n log2 m + m), the bit work of the exact sums for
#: C_n(m): m + 1 terms, each an m-bit binomial times an (n log2 m)-bit power.
#: Every C_n(m) with m <= n + 1 that passes the digit cap costs at most
#: 2^24.75 by this count (n = m = 1558), so only the zero values at m >= n + 2
#: with m in the thousands reach it; at the bound the sums take a few seconds.
EXACT_SUM_WORK_CAP_LOG2 = 25

#: Bits the witness sum's evaluation gets above the cancellation that
#: `_witness_precision` predicts; with powers tight to a few units in their
#: last place it needed at most 8 of them (alpha from 0.01 to 201).
WITNESS_GUARD_BITS = 16

#: Bits by which the witness's predicted log2|C_alpha(m)| may pass
#: _EXACT_VALUE_CAP_BITS before noninteger_witness refuses it unsummed;
#: nearer the cap the exact digit check of the printed value decides (the
#: prediction is within 0.3 bits for m >= 8).
WITNESS_DIGIT_MARGIN_BITS = 4

#: Largest m at which c_alpha_real encloses C_alpha(m) for non-integer alpha.
#: The sum cancels up to about 2.5 m bits, so each of its m terms escalates
#: to a precision of that order; up to this bound a sign takes at most about
#: half a minute (the witness of alpha = 4001/2 at m = 2003, one evaluation
#: at 4096 bits, takes about 5 s).
REAL_SUM_MAX_M = 2048


def signed_derangement_sum(k: int) -> int:
    """Sum of permutation signs over all derangements of S(k): (-1)^(k-1)(k-1)."""
    if k < 1:
        raise ValueError("k must be positive")
    return (k - 1) if k % 2 else -(k - 1)


def signed_derangement_sum_bruteforce(k: int) -> int:
    """The same sum by literal enumeration of S(k): the signs, each the parity
    of the permutation's inversions, of the permutations with no fixed point."""
    if not 1 <= k <= 9:
        raise ValueError("brute force supported only for 1 <= k <= 9")
    return _signed_fixcounts(k)[0]


def _permutation_rows(k: int):
    """Yield S(k) in lexicographic order as k pairs (block, odd): an int8
    block of (k-1)! rows and the inversion parity of each row.

    Block v holds the permutations with first image v: v, then the rows of
    S(k-1) relabelled onto range(k) minus v (adding 1 to each image >= v
    keeps their order, so it keeps their inversions).  The first column adds
    exactly v inversions, one for each later entry below v, so a row's
    parity is its S(k-1) row's parity XOR (v & 1).  Every block is written
    into one buffer, which the next block overwrites: from block v-1 to
    block v, the image v of the relabelled rows becomes v-1.
    """
    import numpy as np

    if k == 0:
        yield np.zeros((1, 0), np.int8), np.zeros(1, bool)
        return
    # column-major, so that every column the loops read is contiguous
    size = math.factorial(k - 1)
    block = np.empty((size, k), np.int8, order="F")
    inherited = np.empty(size, bool)
    for v, (rows, odd) in enumerate(_permutation_rows(k - 1)):
        block[v * len(rows) : (v + 1) * len(rows), 1:] = rows
        inherited[v * len(rows) : (v + 1) * len(rows)] = odd
    np.add(block[:, 1:], 1, out=block[:, 1:])
    flipped = ~inherited
    moved = np.empty(size, bool)
    for v in range(k):
        if v:
            for c in range(1, k):
                np.equal(block[:, c], v, out=moved)
                np.subtract(block[:, c], moved, out=block[:, c])
        block[:, 0] = v
        yield block, flipped if v & 1 else inherited


def _signed_fixcounts(k: int) -> list:
    """a[f] = sum of sign(s) over the s in S(k) with exactly f fixed points.

    Enumerates every permutation, block by block of _permutation_rows, which
    gives each row's sign as the parity of its inversions.  Its fixed-point
    count is the number of columns i holding i.  One bincount per block
    counts (k+1)*odd + fixed: the even rows land in its first k+1 bins, the
    odd rows in the rest, which are subtracted at the end.  The buffers are
    preallocated, so at k = 9 the peak stays under 1 MB.
    """
    import numpy as np

    size = math.factorial(k - 1)
    hit = np.empty(size, bool)
    fixed = np.empty(size, np.int8)
    dist = np.zeros(2 * k + 2, np.int64)
    for block, odd in _permutation_rows(k):
        np.multiply(odd, np.int8(k + 1), out=fixed)
        for i in range(k):
            np.equal(block[:, i], i, out=hit)
            np.add(fixed, hit, out=fixed)
        dist += np.bincount(fixed, minlength=2 * k + 2)
    return [int(a) for a in dist[: k + 1] - dist[k + 1 :]]


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind, by the explicit alternating formula."""
    if n < 0 or m < 0:
        raise ValueError("indices must be non-negative")
    total = sum((-1) ** j * math.comb(m, j) * (m - j) ** n for j in range(m + 1))
    quo, rem = divmod(total, math.factorial(m))
    if rem:
        raise InternalInconsistencyError(f"S({n},{m}) alternating sum not divisible by m!")
    return quo


def stirling2_recurrence(n: int, m: int) -> int:
    """Independent route: S(n,m) = m*S(n-1,m) + S(n-1,m-1)."""
    if n < 0 or m < 0:
        raise ValueError("indices must be non-negative")
    row = [1] + [0] * m
    for _ in range(n):
        row = [0] + [m_ * row[m_] + row[m_ - 1] for m_ in range(1, m + 1)]
    return row[m]


def _check_exact_caps(n: int, m: int) -> None:
    """Raise CapExceededError if the exact sum for C_n(m) passes a cap; each
    bound rises with m.  For 1 <= m <= n+1, C_n(m) >= m! m^(n-m) since
    S(n,m) >= m S(n-1,m); past EXACT_VALUE_CAP_DIGITS digits it is refused.
    For m >= n+2 the value is 0, but the sum still forms the powers (m-j)^n:
    refused when m^n has more bits, or past 2^EXACT_SUM_WORK_CAP_LOG2 work.
    """
    if m <= 1:  # C_n(0) = 0^n and C_n(1) = 1^n pass every cap
        return
    if max(n, m).bit_length() > 64:  # settled before n or m could overflow a float
        raise CapExceededError(f"C_{n}({m}) needs at least 2^64 bit operations, over the work cap")
    if m <= n + 1:
        bits = math.lgamma(m + 1) / math.log(2) + (n - m) * math.log2(m)
        if bits > _EXACT_VALUE_CAP_BITS:
            raise CapExceededError(
                f"C_{n}({m}) has at least {bits:.0f} bits,"
                f" over the {EXACT_VALUE_CAP_DIGITS}-digit cap"
            )
    elif n * math.log2(m) > _EXACT_VALUE_CAP_BITS:
        raise CapExceededError(
            f"C_{n}({m}) sums powers {m}^{n} of {n * math.log2(m):.0f} bits,"
            f" over the {EXACT_VALUE_CAP_DIGITS}-digit cap"
        )
    work = math.log2(m * (n * math.log2(m) + m))
    if work > EXACT_SUM_WORK_CAP_LOG2:
        raise CapExceededError(
            f"C_{n}({m}) needs about 2^{work:.2f} bit operations,"
            f" over the 2^{EXACT_SUM_WORK_CAP_LOG2} work cap"
        )


def _c_alpha_terms(m: int):
    """The terms (c, m - j, 1) of C_alpha(m) = sum c (m - j)^alpha over j = 0..m,
    c = binom(m, j) (-1)^(j-1) (j-1), as a generator; the zero c at j = 1 is left out."""
    return ((math.comb(m, j) * -((-1) ** j) * (j - 1), m - j, 1) for j in range(m + 1) if j != 1)


def c_alpha_integer(n: int, m: int) -> int:
    """C_n(m) by the alternating sum (criterion 7 checks it against m!(S(n,m) +
    S(n,m-1))), capped by `_check_exact_caps` and at EXACT_VALUE_CAP_DIGITS digits."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    if m < 1:
        raise ValueError("m must be positive")
    _check_exact_caps(n, m)
    total = sum(c * b**n for c, b, _ in _c_alpha_terms(m))
    if total >= _EXACT_VALUE_BOUND:
        raise CapExceededError(f"C_{n}({m}) has more than {EXACT_VALUE_CAP_DIGITS} digits")
    if total < 0:
        raise FalsificationError(f"C_{n}({m}) = {total} < 0 at integer exponent")
    return total


@dataclass(frozen=True)
class ObstructionReport:
    """Sign-certified value of C_alpha(m)."""

    alpha: Fraction
    m: int
    sign: str  # positive | negative | zero | undetermined
    method: str  # exact | interval
    exact_value: int | None = None
    enclosure: Enclosure | None = None

    def to_json_dict(self) -> dict:
        out = {
            "alpha": str(self.alpha),
            "m": self.m,
            "sign": self.sign,
            "method": self.method,
        }
        if self.method == "exact":
            out["value"] = str(self.exact_value)
        else:
            out["value_lo"], out["value_hi"] = self.enclosure.format_pair()
            out["precision_bits"] = self.enclosure.prec
        return out

    def csv_row(self) -> list:
        if self.method == "exact":
            lo = hi = str(self.exact_value)
        else:
            lo, hi = self.enclosure.format_pair()
        return [str(self.alpha), str(self.m), lo, hi, self.sign, self.method]


def check_m_range(alpha: Fraction, lo: int, hi: int, precision: int = DEFAULT_PRECISION) -> None:
    """Raise, before any sum, what c_alpha_real(alpha, m, precision) raises
    for some lo <= m <= hi: ValueError for its arguments, or CapExceededError.
    Each cap checked before a sum rises with m, so m = hi decides them all."""
    alpha = Fraction(alpha)
    check_exponent_digits(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    check_precision(precision)
    if lo < 1:
        raise ValueError("m must be positive")
    if alpha.denominator == 1:
        _check_exact_caps(int(alpha), hi)
    elif hi > REAL_SUM_MAX_M:
        raise CapExceededError(f"C_{alpha}({hi}): m over the interval-sum cap {REAL_SUM_MAX_M}")


def c_alpha_real(alpha: Fraction, m: int, precision: int = DEFAULT_PRECISION) -> ObstructionReport:
    """C_alpha(m) for real alpha > 0 with a certified sign.

    Integer-valued alpha is evaluated exactly (the enclosure degenerates to a
    point and the sign may be 'zero').  Otherwise the alternating sum is
    enclosed by interval arithmetic, doubling the working precision until the
    sign is certified or the cap is hit, in which case the report says
    'undetermined' rather than guessing.  That route refuses m above
    REAL_SUM_MAX_M before it sums.
    """
    check_m_range(alpha, m, m, precision)
    alpha = Fraction(alpha)
    if alpha.denominator == 1:
        value = c_alpha_integer(int(alpha), m)
        sign = "zero" if value == 0 else ("positive" if value > 0 else "negative")
        return ObstructionReport(alpha, m, sign, "exact", exact_value=value)
    enc, sign = certify_sign(partial(power_sum, list(_c_alpha_terms(m)), alpha), start_prec=precision)
    return ObstructionReport(alpha, m, sign, "interval", enclosure=enc)


def signed_fixcount_distribution(m: int) -> list:
    """a[f] = sum of sign(s) over s in S(m) with exactly f fixed points, by
    literal enumeration of S(m), each sign the parity of the inversions."""
    if not 1 <= m <= ALT_TRACE_MAX_M:
        raise ValueError(f"m must be between 1 and {ALT_TRACE_MAX_M}")
    return _signed_fixcounts(m)


def _check_nonnegative(alpha: Fraction) -> Fraction:
    alpha = Fraction(alpha)
    check_exponent_digits(alpha)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return alpha


def alt_trace_bruteforce(alpha: Fraction, m: int):
    """(1/m!) * sum over S(m) of sign(s) * (|Fix(s)|/m)^alpha by enumeration.

    Exact Fraction for integer alpha, under the caps of `c_alpha_integer`;
    a certified Enclosure otherwise.  The composition of
    `signed_fixcount_distribution` and `alt_trace_from_distribution`.
    """
    _check_nonnegative(alpha)
    return alt_trace_from_distribution(alpha, signed_fixcount_distribution(m))


def alt_trace_from_distribution(alpha: Fraction, dist: list):
    """The exponent half of `alt_trace_bruteforce`: the trace at alpha from
    the enumerated a[f] = dist[f] of S(m), m = len(dist) - 1."""
    alpha = _check_nonnegative(alpha)
    m = len(dist) - 1
    fact = math.factorial(m)
    if alpha.denominator == 1:
        a = int(alpha)
        _check_exact_caps(a, m)  # num is C_a(m)
        num = sum(coeff * f**a for f, coeff in enumerate(dist) if coeff)
        return Fraction(num, fact * m**a)
    terms = [(coeff, f, 1) for f, coeff in enumerate(dist)]
    return power_sum(terms, alpha, DEFAULT_PRECISION, divisor=(fact, m, 1))


def alt_trace_closed_form(alpha: Fraction, m: int):
    """C_alpha(m) / (m! * m^alpha), the closed form the enumeration must match."""
    alpha = Fraction(alpha)
    fact = math.factorial(m)
    if alpha.denominator == 1:
        return Fraction(c_alpha_integer(int(alpha), m), fact * m ** int(alpha))
    return power_sum(_c_alpha_terms(m), alpha, DEFAULT_PRECISION, divisor=(fact, m, 1))


def _check_noninteger(alpha: Fraction) -> Fraction:
    alpha = Fraction(alpha)
    check_exponent_digits(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    nearest = round(alpha)
    if abs(alpha - nearest) <= INTEGER_DISTANCE_THRESHOLD:
        raise ValueError(f"alpha {alpha} is within {INTEGER_DISTANCE_THRESHOLD} of an integer")
    return alpha


def noninteger_witness(alpha: Fraction, precision: int = DEFAULT_PRECISION) -> tuple:
    """The first m with C_alpha(m) < 0, m* = ceil(alpha) + 2, certified once.

    Sign rule, for non-integer alpha > 0:
      * C_alpha(m) > 0 for 1 <= m < alpha + 1;
      * for m > alpha + 1, C_alpha(m) < 0 exactly when m - ceil(alpha) is even;
    so the first negative value is at m* = ceil(alpha) + 2 = floor(alpha) + 3.

    Proof sketch.  C_alpha(m) = Delta^m g(0) for g(x) = x^alpha (x + 1 - m),
    Delta the forward difference.  By the Peano-kernel (B-spline) form of
    divided differences (Curry and Schoenberg 1966; de Boor, A Practical
    Guide to Splines), Delta^m g(0) = int_0^m g^(m)(t) N_m(t) dt with N_m the
    cardinal B-spline, positive on (0, m) with integral 1; the integral
    converges at 0 because N_m(t) = O(t^(m-1)).  Here
    g^(m)(t) = (alpha)_m t^(alpha-m) [(alpha+1) t / (alpha+1-m) + 1 - m].  For
    m > alpha + 1 the bracket is negative on (0, m) and the falling factorial
    (alpha)_m has m - ceil(alpha) negative factors.  For m < alpha + 1,
    C_alpha(m) = m Delta^(m-1) h(0) + Delta^m h(0) with h = x^alpha, and both
    terms are positive.

    Returns (m*, ObstructionReport).  If the report at m* is not certified
    negative (undetermined at the precision cap, or a contradiction of the
    rule) raises FalsificationError carrying [report].
    `noninteger_witness_scan` is the brute-force oracle for the rule.
    """
    alpha = _check_noninteger(alpha)
    m = math.ceil(alpha) + 2
    check_m_range(alpha, m, m, precision)
    start, log2_value = _witness_precision(alpha, m, precision)
    if log2_value > _EXACT_VALUE_CAP_BITS + WITNESS_DIGIT_MARGIN_BITS:
        raise CapExceededError(
            f"C_alpha({m}) for alpha={alpha} has about {log2_value:.0f} bits,"
            f" over the {EXACT_VALUE_CAP_DIGITS}-digit cap"
        )
    enc, sign = certify_sign(partial(power_sum, list(_c_alpha_terms(m)), alpha), start_prec=start)
    report = ObstructionReport(alpha, m, sign, "interval", enclosure=enc)
    if sign != "negative":
        raise FalsificationError(
            f"C_alpha({m}) for alpha={alpha} is {sign}, not certified negative",
            report=[report],
        )
    return m, report


def _witness_precision(alpha: Fraction, m: int, precision: int) -> tuple:
    """(the first of precision * 2^k that covers the bits the sum for the
    witness C_alpha(m), m = ceil(alpha) + 2, cancels, plus WITNESS_GUARD_BITS,
    and the predicted log2|C_alpha(m)|): the one evaluation it takes at that
    precision certifies the sign.

    The sum cancels log2(sum of |terms|) - log2|C_alpha(m)| bits.  By the
    Peano-kernel form in `noninteger_witness`, C_alpha(m) is g^(m) averaged
    against the B-spline N_m, whose mean is m/2, and with alpha within 3 of m
    it is |g^(m)(m/2)| to within 0.3 bits for m >= 8 (7 bits at m = 3),
    g^(m)(t) = (alpha)_(m-1) t^(alpha-m) [(alpha+1) t - (m-1)(alpha+1-m)]."""
    a = float(alpha)
    logs = [math.log2(abs(c)) + a * math.log2(b) for c, b, _ in _c_alpha_terms(m) if b]
    top = max(logs)
    log2_sum = top + math.log2(sum(2.0 ** (x - top) for x in logs))
    half = m / 2
    log2_value = (
        sum(math.log2(abs(a - k)) for k in range(m - 1))
        + (a - m) * math.log2(half)
        + math.log2((a + 1) * half - (m - 1) * (a + 1 - m))
    )
    needed = log2_sum - log2_value + WITNESS_GUARD_BITS
    while precision < needed:
        precision *= 2
    return precision, log2_value


def noninteger_witness_scan(alpha: Fraction, precision: int = DEFAULT_PRECISION) -> tuple:
    """First m <= floor(alpha)+4 with certified C_alpha(m) < 0, by certifying
    every m from 2 up; the oracle for `noninteger_witness`.

    Returns (m, ObstructionReport).  Raises FalsificationError if no certified
    negative value exists in the scanned range, carrying all reports.
    """
    alpha = _check_noninteger(alpha)
    reports = []
    for m in range(2, int(alpha) + 5):
        report = c_alpha_real(alpha, m, precision=precision)
        reports.append(report)
        if report.sign == "negative":
            return m, report
    raise FalsificationError(
        f"no certified-negative C_alpha(m) for alpha={alpha} with m <= {int(alpha) + 4}",
        report=reports,
    )
