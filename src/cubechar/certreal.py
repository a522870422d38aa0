"""Certified real evaluation: interval arithmetic with escalating precision.

All non-exact real quantities in this package are sums sum c * (num/den)^alpha,
computed by `power_sum` as rigorous enclosures [lo, hi]: each power on raw
`libmp` interval tuples at its own working precision, and the coefficients,
the sum and the divisor in a private mpmath interval context per precision,
whose precision is set once when it is built and never changed.  The
endpoints are then extracted as exact rationals, so downstream sign
decisions and comparisons never depend on a rounding mode or global
precision state.  No other module touches an interval context.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp

from .errors import CapExceededError

DEFAULT_PRECISION = 64
#: The highest working precision (bits): `check_precision` refuses a start
#: above it, and `certify_sign` stops doubling at it.
PRECISION_CAP = 16384
#: Fractional decimal places of a printed enclosure endpoint.
DECIMAL_DIGITS = 25

#: Python's default limit on the digits of an int converted to str: a value
#: with more integer digits is refused, exact or enclosed.
EXACT_VALUE_CAP_DIGITS = 4300

#: Bound on the bits of an enclosure endpoint, numerator and denominator
#: together (2^20).  The witness at alpha = 2046, m = 2048 needs about 2.3e4.
ENDPOINT_CAP_BITS = 1048576


def check_precision(prec: int) -> None:
    """Refuse a working precision below DEFAULT_PRECISION (ValueError) or
    above PRECISION_CAP (CapExceededError) before any evaluation."""
    if prec < DEFAULT_PRECISION:
        raise ValueError(f"precision must be at least {DEFAULT_PRECISION}")
    if prec > PRECISION_CAP:
        raise CapExceededError(f"precision {prec} over the {PRECISION_CAP}-bit cap")


def exponent_digits_refusal() -> CapExceededError:
    """The refusal of an exponent past EXACT_VALUE_CAP_DIGITS digits."""
    return CapExceededError(
        f"alpha has more than {EXACT_VALUE_CAP_DIGITS} digits in its numerator or denominator,"
        " over the cap"
    )


def check_exponent_digits(alpha: Fraction) -> None:
    """Refuse (CapExceededError) an exponent whose numerator or denominator
    has more than EXACT_VALUE_CAP_DIGITS digits, before anything prints it:
    str() of such an int raises.  An int of at most 3 * EXACT_VALUE_CAP_DIGITS
    bits is below 8^EXACT_VALUE_CAP_DIGITS, so only a longer one is compared
    with 10^EXACT_VALUE_CAP_DIGITS, which takes tens of microseconds to form."""
    big = max(abs(alpha.numerator), alpha.denominator)
    if big.bit_length() > 3 * EXACT_VALUE_CAP_DIGITS and big >= 10**EXACT_VALUE_CAP_DIGITS:
        raise exponent_digits_refusal()


@functools.lru_cache(maxsize=64)
def _make_context(prec: int):
    """The interval context at `prec`: one private context per precision,
    built on first use and reused by every later `power_sum`, so mpmath's
    global `mp` and `iv` are never touched.  Its precision is set here and
    nowhere else: a step that needs more bits passes them to `libmp`.

    A context holds about 30 KB and a caller may ask for any precision up
    to the cap, so only the 64 precisions used last are kept."""
    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.prec = prec
    return ctx


def _endpoint(raw) -> Fraction:
    """The exact value man * 2^exp of an mpf endpoint.  Its numerator and
    denominator take about bc + |exp| bits, so past ENDPOINT_CAP_BITS it is
    refused before any of them is allocated."""
    _, _, exp, bc = raw
    if abs(exp) + bc > ENDPOINT_CAP_BITS:
        raise CapExceededError(
            f"an interval endpoint of scale 2^{exp} needs {abs(exp) + bc} bits,"
            f" over the {ENDPOINT_CAP_BITS}-bit cap"
        )
    p, q = libmp.to_rational(raw)
    return Fraction(int(p), int(q))


@dataclass(frozen=True)
class Enclosure:
    """A certified interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction
    prec: int

    def sign(self):
        """'positive', 'negative', 'zero', or None when the sign is undecided."""
        if self.hi < 0:
            return "negative"
        if self.lo > 0:
            return "positive"
        if self.lo == 0 == self.hi:
            return "zero"
        return None

    def overlaps(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def format_pair(self) -> tuple:
        return (
            fraction_to_decimal(self.lo, round_up=False),
            fraction_to_decimal(self.hi, round_up=True),
        )

    def __str__(self):
        lo, hi = self.format_pair()
        return f"[{lo}, {hi}]"


def fraction_to_decimal(f: Fraction, round_up: bool) -> str:
    """Decimal string with DECIMAL_DIGITS fractional places, rounded outward;
    a value of more than EXACT_VALUE_CAP_DIGITS integer digits is refused."""
    sign = "-" if f < 0 else ""
    num, den = abs(f.numerator), f.denominator
    scaled = num * 10**DECIMAL_DIGITS
    quo, rem = divmod(scaled, den)
    if rem and (round_up != (f < 0)):
        quo += 1
    whole, frac = divmod(quo, 10**DECIMAL_DIGITS)
    if whole >= 10**EXACT_VALUE_CAP_DIGITS:
        raise CapExceededError(
            f"a value has more than {EXACT_VALUE_CAP_DIGITS} integer digits, over the cap"
        )
    return f"{sign}{whole}.{frac:0{DECIMAL_DIGITS}d}"


def _ratio_mpi(num: int, den: int, prec: int) -> tuple:
    """num/den as a raw `libmp` interval at prec: each int rounded outward
    (floor and ceiling), then divided, as an interval context at prec does
    it.  An integer (den == 1) enters undivided: its endpoints are already
    rounded outward to prec, so dividing by the exact 1 would return them
    unchanged."""
    n = (libmp.from_int(num, prec, libmp.round_floor), libmp.from_int(num, prec, libmp.round_ceiling))
    if den == 1:
        return n
    d = (libmp.from_int(den, prec, libmp.round_floor), libmp.from_int(den, prec, libmp.round_ceiling))
    return libmp.mpi_div(n, d, prec)


def _power(base_num: int, base_den: int, exponent: Fraction, prec: int, alphas: dict) -> tuple:
    """(base_num/base_den) ** exponent for base >= 0, exponent > 0, as a raw
    `libmp` interval at prec.

    exp(exponent * log(base)) turns the absolute width of its argument into
    the relative width of the power: at prec the power would come back wider
    by the factor |exponent * log(base)|, below (floor(exponent) + 1) times
    the bit length of base_num or base_den.  log and exp run at the working
    precision wp = prec + guard, the guard being the bit length of that
    bound plus 2 more bits, and the power is rounded outward to prec, within
    a few units in its last place.  Every step is the `libmp` call an
    interval context at wp makes, so the endpoints are the ones it gives.

    `alphas` maps each working precision wp to the raw enclosure of exponent
    at wp, filled on first use.  The enclosure depends on nothing but the
    exponent and wp, so a reused one has the endpoints a new one would have."""
    if base_num < 0 or base_den <= 0:
        raise ValueError("base must be non-negative")
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    if base_num == 0:
        return libmp.fzero, libmp.fzero
    if exponent.denominator == 1:
        e = int(exponent)
        return _ratio_mpi(base_num**e, base_den**e, prec)
    bits = max(base_num.bit_length(), base_den.bit_length())
    wp = prec + ((exponent.numerator // exponent.denominator + 1) * bits).bit_length() + 2
    alpha = alphas.get(wp)
    if alpha is None:
        alpha = alphas[wp] = _ratio_mpi(exponent.numerator, exponent.denominator, wp)
    log = libmp.mpi_log(_ratio_mpi(base_num, base_den, wp), wp)
    return libmp.mpi_pos(libmp.mpi_exp(libmp.mpi_mul(alpha, log, wp), wp), prec)


def _term(ctx, c, num: int, den: int, exponent: Fraction, alphas: dict):
    """c * (num/den) ** exponent: an int c enters as ctx.mpf(c), a Fraction c
    as `_ratio_mpi` of its numerator and denominator."""
    if isinstance(c, Fraction):
        coeff = ctx.make_mpf(_ratio_mpi(c.numerator, c.denominator, ctx.prec))
    else:
        coeff = ctx.mpf(c)
    return coeff * ctx.make_mpf(_power(num, den, exponent, ctx.prec, alphas))


def power_sum(terms, exponent: Fraction, prec: int, divisor=None) -> Enclosure:
    """Enclosure at `prec` of sum c * (num/den) ** exponent over the
    (c, num, den) terms, each base non-negative and exponent > 0; terms with
    c = 0 or num = 0 add nothing.  A single power is the one term (1, num, den).
    With `divisor` = (c, num, den), a nonzero term, the sum is divided by
    c * (num/den) ** exponent.

    The terms are added in the order given, each rounded outward as `_power`
    rounds it.  The enclosure of exponent is built once per working
    precision and shared by the terms and the divisor of this call only (a
    sum of C_alpha(m) meets 3 or 4 working precisions); an integer base
    enters undivided.  Both leave every endpoint as a term-by-term
    evaluation would."""
    ctx = _make_context(prec)
    alphas = {}
    total = ctx.mpf(0)
    for c, num, den in terms:
        if c and num:
            total += _term(ctx, c, num, den, exponent, alphas)
    if divisor is not None:
        total /= _term(ctx, *divisor, exponent, alphas)
    lo, hi = total._mpi_
    return Enclosure(_endpoint(lo), _endpoint(hi), prec)


def certify_sign(evaluate, start_prec: int = DEFAULT_PRECISION):
    """Call evaluate(prec) -> Enclosure, doubling prec until the sign is
    certified or PRECISION_CAP is reached; a start above the cap is clamped
    to it.  Returns (enclosure, sign_string)."""
    cap = PRECISION_CAP
    prec = min(max(start_prec, 8), cap)
    while True:
        enc = evaluate(prec)
        sign = enc.sign()
        if sign is not None:
            return enc, sign
        if prec >= cap:
            return enc, "undetermined"
        prec = min(2 * prec, cap)
