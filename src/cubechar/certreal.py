"""Certified real evaluation: interval arithmetic with escalating precision.

All non-exact real quantities in this package are sums sum c * (num/den)^alpha,
computed by `power_sum` as rigorous enclosures [lo, hi]: every step (each
power at its own working precision; each coefficient, term, partial sum and
the divisor at the precision asked for) is a `libmp` call on raw interval
tuples with its precision passed as an argument, so no interval context and
no global precision state is involved.  mpmath's interval context appears
only in the tests, as the reference whose endpoints these steps reproduce.
The endpoints are then extracted as exact rationals, so downstream sign
decisions and comparisons never depend on a rounding mode.  No other module
touches mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import libmp

from . import caps

DEFAULT_PRECISION = 64
#: Fractional decimal places of a printed enclosure endpoint.
DECIMAL_DIGITS = 25


def check_precision(prec: int) -> None:
    """Refuse a working precision below DEFAULT_PRECISION (ValueError) or
    above the PRECISION cap before any evaluation."""
    if prec < DEFAULT_PRECISION:
        raise ValueError(f"precision must be at least {DEFAULT_PRECISION}")
    caps.PRECISION.check(prec)


def _endpoint(raw) -> Fraction:
    """The exact value man * 2^exp of an mpf endpoint.  An infinity or a nan
    (mantissa 0, like zero, which `to_rational` would read as 0) is refused.
    Its numerator and denominator take about bc + |exp| bits, so past the
    ENDPOINT cap it is refused before any of them is allocated."""
    _, man, exp, bc = raw
    if not man and raw != libmp.fzero:
        raise ValueError(f"enclosure endpoint {libmp.to_str(raw, 5)} is not finite")
    caps.ENDPOINT.check(abs(exp) + bc)
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
    a value of more integer digits than the DIGITS cap is refused."""
    sign = "-" if f < 0 else ""
    num, den = abs(f.numerator), f.denominator
    scaled = num * 10**DECIMAL_DIGITS
    quo, rem = divmod(scaled, den)
    if rem and (round_up != (f < 0)):
        quo += 1
    whole, frac = divmod(quo, 10**DECIMAL_DIGITS)
    caps.check_digits(whole)
    return f"{sign}{whole}.{frac:0{DECIMAL_DIGITS}d}"


def _ratio_mpi(num: int, den: int, prec: int) -> tuple:
    """num/den as a raw `libmp` interval at prec: each int rounded outward
    (floor and ceiling), then divided.  An integer (den == 1) enters
    undivided: its endpoints are already rounded outward to prec, so dividing
    by the exact 1 would return them unchanged.  These are the endpoints
    mpmath's interval context at prec gives num/den (the tests' reference)."""
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
    the bit length of base_num or base_den.  log and exp run on raw tuples
    at the working precision wp = prec + guard, the guard being the bit
    length of that bound plus 2 more bits, and the power is rounded outward
    to prec, within a few units in its last place.

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


def _term(c, num: int, den: int, exponent: Fraction, prec: int, alphas: dict) -> tuple:
    """c * (num/den) ** exponent at prec, c an int or a Fraction."""
    coeff = _ratio_mpi(c.numerator, c.denominator, prec)
    return libmp.mpi_mul(coeff, _power(num, den, exponent, prec, alphas), prec)


def power_sum(terms, exponent: Fraction, prec: int, divisor=None) -> Enclosure:
    """Enclosure at `prec` of sum c * (num/den) ** exponent over the
    (c, num, den) terms, each base non-negative and exponent > 0; terms with
    c = 0 or num = 0 add nothing.  A single power is the one term (1, num, den).
    With `divisor` = (c, num, den), a nonzero term (ValueError otherwise),
    the sum is divided by c * (num/den) ** exponent.

    The terms are added in the order given, each rounded outward as `_power`
    rounds it; each coefficient, product, partial sum and the quotient is
    rounded outward to prec.  The enclosure of exponent is built once per
    working precision and shared by the terms and the divisor of this call
    only (a sum of C_alpha(m) meets 3 or 4 working precisions); an integer
    base enters undivided.  Both leave every endpoint as a term-by-term
    evaluation would."""
    if divisor is not None and not (divisor[0] and divisor[1]):
        raise ValueError("divisor must be a nonzero term")
    alphas = {}
    total = libmp.fzero, libmp.fzero
    for c, num, den in terms:
        if c and num:
            total = libmp.mpi_add(total, _term(c, num, den, exponent, prec, alphas), prec)
    if divisor is not None:
        total = libmp.mpi_div(total, _term(*divisor, exponent, prec, alphas), prec)
    lo, hi = total
    return Enclosure(_endpoint(lo), _endpoint(hi), prec)


def certify_sign(evaluate, start_prec: int = DEFAULT_PRECISION):
    """Call evaluate(prec) -> Enclosure, doubling prec until the sign is
    certified or the PRECISION cap is reached; a start above the cap is
    clamped to it.  Returns (enclosure, sign_string)."""
    cap = caps.PRECISION.limit
    prec = min(max(start_prec, 8), cap)
    while True:
        enc = evaluate(prec)
        sign = enc.sign()
        if sign is not None:
            return enc, sign
        if prec >= cap:
            return enc, "undetermined"
        prec = min(2 * prec, cap)
