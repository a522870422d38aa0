"""Every resource limit of the package, one record each.

The paper's groups are infinite, so every finite check stops at a cap.  A
`Cap` names the quantity it bounds and its limit, and `cap.check(value)`
refuses a value over the limit with `CapExceededError(cap, value)`, before
the work that value would cost starts.  The limits are fixed: no option or
environment variable changes them.  The modules read the records here at
call time; the README's cap table lists them, and a test keeps the two equal.

A count bounded by 2^limit is checked as its log2 rounded up (`log2_ceil`),
in ints, so no 2^limit is formed and an input of any size compares exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceededError


@dataclass(frozen=True, slots=True)
class Cap:
    """One fixed limit: the largest accepted value, in `unit`, of `bounds`."""

    name: str
    limit: int
    unit: str
    bounds: str

    def check(self, value: int) -> None:
        if value > self.limit:
            raise CapExceededError(self, value)


def log2_ceil(n: int) -> int:
    """ceil(log2 n) for n >= 1, and 0 for n = 0: n > 2^k exactly when this is over k."""
    return max(n - 1, 0).bit_length()


LEVEL = Cap("LEVEL", 20, "level", "n of a dense table of 2^n entries")
#: certify_sign stops doubling here and reports `undetermined`.
PRECISION = Cap("PRECISION", 16384, "bits", "the working precision of an interval sum")
#: Python's default limit on the digits of an int converted to str.
DIGITS = Cap(
    "DIGITS",
    4300,
    "digits",
    "decimal digits of an exponent's numerator or denominator, an exact value or a printed endpoint",
)

#: 10^DIGITS.limit: an int of more digits is at least this.
EXACT_VALUE_BOUND = 10**DIGITS.limit
#: A value whose log2 passes this has more than DIGITS.limit digits; the
#: extra bit absorbs the float rounding of a log2 bound.
EXACT_VALUE_BITS = DIGITS.limit * math.log2(10) + 1

EXACT_POWER = Cap(
    "EXACT_POWER",
    EXACT_VALUE_BOUND.bit_length() - 1,
    "bits",
    "alpha times the bits of an exact power's base other than 0 and 1",
)
#: The witness at alpha = 2046, m = 2048 needs about 2.3e4.
ENDPOINT = Cap("ENDPOINT", 1 << 20, "bits", "numerator and denominator of an interval endpoint")
#: Every C_n(m) with m <= n + 1 under the DIGITS cap costs at most 2^24.75
#: (n = m = 1558), so only zero values with m in the thousands reach it;
#: at the limit the sums take a few seconds.
EXACT_SUM_WORK = Cap(
    "EXACT_SUM_WORK", 25, "log2", "bit operations m (n log2 m + m) of the exact sum C_n(m)"
)
#: The sum cancels up to about 2.5 m bits, so each of its m terms escalates
#: to a precision of that order: up to the limit a sign takes at most about
#: half a minute.
REAL_SUM_M = Cap("REAL_SUM_M", 2048, "m", "m of the interval sum C_alpha(m) at a non-integer alpha")
ENUMERATION = Cap("ENUMERATION", 9, "k", "k of a brute-force enumeration of S(k)")
#: A Gram verdict's float eigen-decomposition grows as n^3, its agreement
#: counts as n^2 x 2^level.
GRAM_ELEMENTS = Cap("GRAM_ELEMENTS", 128, "elements", "permutations a Gram matrix compares")
GRAM_WORK = Cap("GRAM_WORK", 26, "log2", "n^2 x 2^level point comparisons of a Gram matrix")
TENSOR = Cap("TENSOR", 14, "log2", "dimension 4^(n k) of an explicit tensor power")
SI_TABLES = Cap(
    "SI_TABLES", LEVEL.limit, "log2", "tail-table entries of construct_si: 2^r members x tables x 2^(m r)"
)
SI_PAIRS = Cap(
    "SI_PAIRS", LEVEL.limit, "log2", "(family size)^2 x head points that verify_si_properties checks"
)
SI_PAIR_ENTRIES = Cap(
    "SI_PAIR_ENTRIES", 22, "log2", "those pairs' head points x 2^(tail level) tail entries that it composes"
)
#: Each sample builds a table of 4^n entries; the default 50 pass at n = 10.
GNS_SAMPLES = Cap("GNS_SAMPLES", 26, "log2", "gns-check samples x 4^n table entries")


def check_digits(*ints: int) -> None:
    """Refuse (DIGITS) an int of more than DIGITS.limit decimal digits among
    `ints`, before anything prints it: str() of one raises.  The value
    reported is its digit count from a float log10, at least the limit + 1."""
    big = max(map(abs, ints))
    if big >= EXACT_VALUE_BOUND:
        raise CapExceededError(DIGITS, max(DIGITS.limit + 1, int(math.log10(big)) + 1))


def check_value_bits(bits: float, margin: float = 0) -> None:
    """Refuse (DIGITS) a value of about 2^bits or more, `bits` a float bound,
    when it passes EXACT_VALUE_BITS by more than `margin` bits; the value
    reported is the digit count of 2^bits."""
    if bits > EXACT_VALUE_BITS + margin:
        raise CapExceededError(DIGITS, int(bits * math.log10(2)) + 1)
