"""Certified real evaluation: interval arithmetic with escalating precision.

All non-exact real quantities in this package are computed as rigorous
enclosures [lo, hi] via mpmath's interval context; the endpoints are then
extracted as exact rationals, so downstream sign decisions and comparisons
never depend on a rounding mode or global precision state.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp

from .errors import CapExceededError

DEFAULT_PRECISION = 64
DEFAULT_PRECISION_CAP = 16384
PRECISION_CAP_ENV = "CUBECHAR_PRECISION_CAP"
#: Fractional decimal places of a printed enclosure endpoint.
DECIMAL_DIGITS = 25


def precision_cap() -> int:
    raw = os.environ.get(PRECISION_CAP_ENV)
    if raw is None:
        return DEFAULT_PRECISION_CAP
    cap = int(raw)
    if cap < DEFAULT_PRECISION:
        raise ValueError(f"precision cap {cap} below minimum {DEFAULT_PRECISION}")
    return cap


def check_precision(prec: int) -> None:
    """Refuse a working precision below DEFAULT_PRECISION (ValueError) or
    above `precision_cap()` (CapExceededError) before any evaluation."""
    if prec < DEFAULT_PRECISION:
        raise ValueError(f"precision must be at least {DEFAULT_PRECISION}")
    cap = precision_cap()
    if prec > cap:
        raise CapExceededError(f"precision {prec} over the {cap}-bit cap ({PRECISION_CAP_ENV})")


@functools.lru_cache(maxsize=64)
def make_context(prec: int):
    """The interval context at `prec`: one private context per precision,
    built on first use and shared by every later caller, so mpmath's global
    `mp` and `iv` are never touched.  A caller that changes `ctx.prec` must
    restore it before it returns, also when it raises, as `pow_iv` does.

    A context holds about 30 KB and a caller may ask for any precision up
    to the cap, so only the 64 precisions used last are kept."""
    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.prec = prec
    return ctx


def _endpoint(raw) -> Fraction:
    p, q = libmp.to_rational(raw)
    return Fraction(int(p), int(q))


@dataclass(frozen=True)
class Enclosure:
    """A certified interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction
    prec: int

    @classmethod
    def from_iv(cls, x, prec: int) -> "Enclosure":
        lo_raw, hi_raw = x._mpi_
        return cls(_endpoint(lo_raw), _endpoint(hi_raw), prec)

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
    """Decimal string with DECIMAL_DIGITS fractional places, rounded outward."""
    sign = "-" if f < 0 else ""
    num, den = abs(f.numerator), f.denominator
    scaled = num * 10**DECIMAL_DIGITS
    quo, rem = divmod(scaled, den)
    if rem and (round_up != (f < 0)):
        quo += 1
    text = str(quo).rjust(DECIMAL_DIGITS + 1, "0")
    return f"{sign}{text[:-DECIMAL_DIGITS]}.{text[-DECIMAL_DIGITS:]}"


def _ratio_iv(ctx, num: int, den: int):
    """num/den at ctx.prec.  An integer (den == 1) enters as ctx.mpf(num)
    alone: ctx.mpf(num) is already rounded outward to ctx.prec, so dividing it
    by the exact ctx.mpf(1) at the same precision would return each endpoint
    unchanged."""
    return ctx.mpf(num) if den == 1 else ctx.mpf(num) / ctx.mpf(den)


def fraction_iv(ctx, f: Fraction):
    """Enclosure of an arbitrary rational in the given context; an integer
    enters undivided, which is exact (see `_ratio_iv`)."""
    return _ratio_iv(ctx, f.numerator, f.denominator)


def pow_iv(ctx, base_num: int, base_den: int, exponent: Fraction):
    """(base_num/base_den) ** exponent for base >= 0, exponent > 0, as an
    interval at ctx.prec.

    exp(exponent * log(base)) turns the absolute width of its argument into
    the relative width of the power: at ctx.prec the power would come back
    wider by the factor |exponent * log(base)|, below (floor(exponent) + 1)
    times the bit length of base_num or base_den.  log and exp run with the
    bit length of that bound plus 2 more bits, and the power is rounded
    outward to ctx.prec, within a few units in its last place.  An integer
    base (base_den == 1) enters as ctx.mpf(base_num) with no division by 1,
    which is exact (see `_ratio_iv`).  ctx.prec is restored on every exit,
    an exception included: the context may be the one `make_context` shares."""
    return _pow_step(ctx, base_num, base_den, exponent, {})


def _pow_step(ctx, base_num: int, base_den: int, exponent: Fraction, alphas: dict):
    """`pow_iv`, with `alphas` mapping each working precision (ctx.prec plus
    the guard) to the enclosure of exponent at that precision.  The caller
    owns the map for one call with one exponent and one ctx.prec; the step
    fills it on first use of a working precision.  The enclosure depends on
    nothing but the exponent and that precision, so a reused one has the
    endpoints a new one would have."""
    if base_num < 0 or base_den <= 0:
        raise ValueError("base must be non-negative")
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    if base_num == 0:
        return ctx.mpf(0)
    if exponent.denominator == 1:
        e = int(exponent)
        return _ratio_iv(ctx, base_num**e, base_den**e)
    bits = max(base_num.bit_length(), base_den.bit_length())
    guard = ((exponent.numerator // exponent.denominator + 1) * bits).bit_length() + 2
    ctx.prec += guard
    try:
        alpha = alphas.get(ctx.prec)
        if alpha is None:
            alpha = alphas[ctx.prec] = fraction_iv(ctx, exponent)
        power = ctx.exp(alpha * ctx.log(_ratio_iv(ctx, base_num, base_den)))
    finally:
        ctx.prec -= guard
    return +power


def power_sum_iv(ctx, terms, exponent: Fraction):
    """sum c * (num/den) ** exponent over the (c, num, den) terms, each as
    `pow_iv` takes it; terms with c = 0 or num = 0 add nothing.  An int c
    enters exactly as ctx.mpf(c), a Fraction c as `fraction_iv`.

    The terms are added in the order given, each rounded outward as `pow_iv`
    rounds it.  The enclosure of exponent is built once per working
    precision and shared by the terms of this call only (a sum of
    C_alpha(m) meets 3 or 4 working precisions); an integer base enters
    undivided.  Both leave every endpoint as a term-by-term `pow_iv` would."""
    alphas = {}
    total = ctx.mpf(0)
    for c, num, den in terms:
        if c and num:
            coeff = fraction_iv(ctx, c) if isinstance(c, Fraction) else ctx.mpf(c)
            total += coeff * _pow_step(ctx, num, den, exponent, alphas)
    return total


def certify_sign(evaluate, start_prec: int = DEFAULT_PRECISION):
    """Call evaluate(prec) -> Enclosure, doubling prec until the sign is
    certified or the cap from `precision_cap()` is reached.  Returns
    (enclosure, sign_string)."""
    cap = precision_cap()
    prec = min(max(start_prec, 8), cap)
    while True:
        enc = evaluate(prec)
        sign = enc.sign()
        if sign is not None:
            return enc, sign
        if prec >= cap:
            return enc, "undetermined"
        prec = min(2 * prec, cap)
