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

Beside it runs an exact kernel with no mpmath at all: the prec-bit floor and
ceiling of each power (num/den)^(a/b), from one integer b-th root
(`_rounded_power`).  It never supplies a reported value.  It proves, in ints,
that `power_sum` at a precision would straddle 0 (`_rounded_sum`), so
`rung_enclosure` lets `certify_sign` double past that precision without
summing there; every precision tried and every returned enclosure stay as
they would be without it.
"""

from __future__ import annotations

import math
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
    evaluation would.  Its enclosure holds `_rounded_sum(terms, exponent,
    prec)`, the exact sum of each power's prec-bit floor or ceiling, so that
    inner bound can show, without this sum, that it straddles 0."""
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


def _iroot(n: int, b: int) -> int:
    """floor(n ** (1/b)) for n >= 0 and b >= 1, in ints.  An even b takes
    math.isqrt first (floor((floor(sqrt(n)))^(2/b)) is the root).  An odd b
    takes integer Newton from above, started from a float estimate of the
    root's top 52 bits raised by 2^-40 relative, so that it lies above the
    root and takes a few steps; each step stays above the root until the
    first that does not decrease, which is the root."""
    if b == 1 or n < 2:
        return n
    if b % 2 == 0:
        return _iroot(math.isqrt(n), b // 2)
    k = max(0, n.bit_length() // b - 52)
    x = (int(2 ** (math.log2(n >> (k * b)) / b) * (1 + 2**-40)) + 1) << k
    while True:
        y = ((b - 1) * x + n // x ** (b - 1)) // b
        if y >= x:
            return x
        x = y


def _rounded_power(num: int, den: int, exponent: Fraction, prec: int):
    """(lo, hi, e) with lo * 2^e and hi * 2^e the largest number of prec
    significant bits at or below x = (num/den)^(a/b) and the smallest at or
    above it, for num, den > 0 and exponent = a/b > 0; None when an integer
    it would form could pass EXACT_POWER.limit bits.

    The shift s puts y = x * 2^s in [2^prec, 2^(prec+3)): b log2(num^a/den^a)
    lies within 1 of the bit lengths' difference d, so s = prec - floor((d-1)/b).
    floor(y) is the integer b-th root of floor(num^a 2^(b s) / den^a), and
    dropping its j = bits - prec low bits leaves floor(y / 2^j), the prec-bit
    floor; the ceiling is one more unless y / 2^j is an integer (the division
    and the root exact, and the dropped bits 0)."""
    a, b = exponent.numerator, exponent.denominator
    if a * max(num.bit_length(), den.bit_length()) + b * (prec + 4) > caps.EXACT_POWER.limit:
        return None
    top, bottom = num**a, den**a
    s = prec - (top.bit_length() - bottom.bit_length() - 1) // b
    if s >= 0:
        n, rem = divmod(top << (b * s), bottom)
    else:
        n, rem = divmod(top, bottom << (-b * s))
    root = _iroot(n, b)
    j = root.bit_length() - prec
    lo = root >> j
    exact = not rem and not root & ((1 << j) - 1) and root**b == n
    return lo, lo + (not exact), j - s


def _rounded_sum(terms, exponent: Fraction, prec: int):
    """The exact Enclosure [lo, hi] at prec of sum c * (num/den)^exponent
    that bounds `power_sum(terms, exponent, prec)` from inside, in ints
    alone; None for a term `_rounded_power` declines, a negative base or an
    exponent <= 0 (`power_sum` refuses those itself).

    With x_lo and x_hi the prec-bit floor and ceiling of a power x,
    lo = sum c * (x_lo if c > 0 else x_hi) and hi = sum c * (x_hi if c > 0
    else x_lo), over the terms with c != 0 and num != 0.  `_power` returns
    prec-bit endpoints P_lo <= x <= P_hi, so P_lo <= x_lo and x_hi <= P_hi;
    the product of the coefficient's interval (which holds c) with
    [P_lo, P_hi] is rounded outward from a box that holds (c, x_lo) and
    (c, x_hi), so its lower end is at most the term's share of lo and its
    upper end at least its share of hi; and the sum rounds outward.  So
    power_sum's enclosure holds [lo, hi], and lo < 0 < hi proves that it
    straddles 0."""
    if exponent.numerator <= 0:
        return None
    parts = []
    for c, num, den in terms:
        cn, cd = c.numerator, c.denominator
        if not (cn and num):
            continue
        if num < 0 or den <= 0:
            return None
        power = _rounded_power(num, den, exponent, prec)
        if power is None:
            return None
        x_lo, x_hi, e = power
        parts.append((cn, cd, x_lo, x_hi, e) if cn > 0 else (cn, cd, x_hi, x_lo, e))
    # the sums in ints over the coefficients' common denominator d and the
    # smallest power of 2
    d = math.lcm(*(cd for _, cd, *_ in parts))
    e0 = min((e for *_, e in parts), default=0)
    lo = sum(cn * (d // cd) * x << (e - e0) for cn, cd, x, _, e in parts)
    hi = sum(cn * (d // cd) * x << (e - e0) for cn, cd, _, x, e in parts)
    up, down = (1 << e0, d) if e0 >= 0 else (1, d << -e0)
    return Enclosure(Fraction(lo * up, down), Fraction(hi * up, down), prec)


def rung_enclosure(terms, exponent: Fraction, prec: int) -> Enclosure:
    """The enclosure at one rung of `certify_sign` for the sum of
    `power_sum(terms, exponent, prec)`, the terms a list; its callers pass
    partial(rung_enclosure, terms, exponent) as the evaluate.  Below the
    PRECISION cap it first forms `_rounded_sum`: where that proves the sum
    straddles 0 at prec, its exact enclosure (sign None) is returned and
    certify_sign doubles past prec without the sum.  Otherwise, and at the
    cap, it is power_sum's enclosure, so the precisions tried and the
    enclosure certify_sign returns are power_sum's alone."""
    if prec < caps.PRECISION.limit:
        enc = _rounded_sum(terms, exponent, prec)
        if enc is not None and enc.lo < 0 < enc.hi:
            return enc
    return power_sum(terms, exponent, prec)


def certify_sign(evaluate, start_prec: int = DEFAULT_PRECISION):
    """Call evaluate(prec) -> Enclosure, doubling prec until the sign is
    certified or the PRECISION cap is reached; a start above the cap is
    clamped to it.  Returns (enclosure, sign_string).  The certified sums
    pass `rung_enclosure`, whose rungs that exact integer rounding proves
    undecided cost no interval sum."""
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
