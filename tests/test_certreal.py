import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from cubechar import Alpha, certreal
from cubechar.certreal import (
    DEFAULT_PRECISION,
    ENDPOINT_CAP_BITS,
    EXACT_VALUE_CAP_DIGITS,
    Enclosure,
    certify_sign,
    check_exponent_digits,
    check_precision,
    fraction_to_decimal,
    power_sum,
)
from cubechar.errors import CapExceededError
from cubechar.obstruction import _c_alpha_terms


def _recording(tried, decide_at=None):
    """An evaluation whose enclosure straddles 0 until prec reaches decide_at."""

    def evaluate(prec):
        tried.append(prec)
        lo = Fraction(1) if decide_at is not None and prec >= decide_at else Fraction(-1)
        return Enclosure(lo, Fraction(2), prec)

    return evaluate


def test_certify_sign_doubles_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(certreal, "PRECISION_CAP", 256)
    tried = []
    enc, sign = certify_sign(_recording(tried))
    assert tried == [64, 128, 256]
    assert sign == "undetermined" and enc.prec == 256


def test_certify_sign_stops_at_the_first_decided_precision(monkeypatch):
    monkeypatch.setattr(certreal, "PRECISION_CAP", 256)
    tried = []
    enc, sign = certify_sign(_recording(tried, decide_at=128))
    assert tried == [64, 128]
    assert sign == "positive" and enc.prec == 128


def test_certify_sign_clamps_to_a_cap_between_doublings(monkeypatch):
    monkeypatch.setattr(certreal, "PRECISION_CAP", 200)
    tried = []
    certify_sign(_recording(tried), start_prec=64)
    assert tried == [64, 128, 200]
    monkeypatch.setattr(certreal, "PRECISION_CAP", 64)
    tried.clear()
    certify_sign(_recording(tried), start_prec=128)
    assert tried == [64]


def test_check_precision_edges(monkeypatch):
    for prec in (DEFAULT_PRECISION, certreal.PRECISION_CAP):
        check_precision(prec)
    with pytest.raises(ValueError, match="precision must be at least 64"):
        check_precision(DEFAULT_PRECISION - 1)
    with pytest.raises(CapExceededError):
        check_precision(certreal.PRECISION_CAP + 1)
    monkeypatch.setattr(certreal, "PRECISION_CAP", 100)
    check_precision(100)
    with pytest.raises(CapExceededError, match="precision 101 over the 100-bit cap"):
        check_precision(101)


# zero coefficients and zero bases are drawn often: both must add nothing
coefficients = st.one_of(
    st.integers(-50, 50),
    st.fractions(Fraction(-50), Fraction(50), max_denominator=1000),
    st.just(0),
    st.just(Fraction(0)),
)
terms = st.lists(
    st.tuples(coefficients, st.one_of(st.just(0), st.integers(0, 300)), st.integers(1, 300)),
    max_size=6,
)
exponents = st.one_of(
    st.integers(1, 12).map(Fraction), st.fractions(Fraction(1, 50), Fraction(12), max_denominator=50)
)


@settings(max_examples=150, deadline=None)
@given(terms, exponents)
def test_power_sum_encloses_the_sum(terms, exponent):
    """At an integer exponent the enclosure holds the exact Fraction sum; at
    a rational one, a 300-digit mpmath value of it."""
    enc = power_sum(terms, exponent, 64)
    if exponent.denominator == 1:
        exact = sum(
            (Fraction(c) * Fraction(num, den) ** int(exponent) for c, num, den in terms if num),
            Fraction(0),
        )
        assert enc.lo <= exact <= enc.hi
        return
    with mpmath.workdps(300):
        e = _mp(exponent)
        parts = [_mp(c) * _mp(Fraction(num, den)) ** e for c, num, den in terms]
        value = mpmath.fsum(parts)
        slack = mpmath.mpf(10) ** -280 * (1 + mpmath.fsum(map(abs, parts)))
        assert _mp(enc.lo) <= value + slack and value - slack <= _mp(enc.hi)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10**4),
    st.integers(1, 1 << 40),
    st.fractions(Fraction(1, 50), Fraction(200), max_denominator=50),
    st.sampled_from((64, 200)),
)
def test_a_single_power_is_tight_whatever_the_exponent(num, den, exponent, prec):
    """The one-term sum's enclosure holds a 300-digit mpmath value and is at
    most 8 units in its last place wide at prec, however large exponent * log(base)."""
    enc = power_sum([(1, num, den)], exponent, prec)
    assert certreal._make_context(prec).prec == prec
    with mpmath.workdps(300):
        value = _mp(Fraction(num, den)) ** _mp(exponent)
        assert _mp(enc.lo) <= value <= _mp(enc.hi)
        assert _mp(enc.hi - enc.lo) <= value * mpmath.mpf(2) ** (3 - prec)


def _fresh_context(prec: int):
    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.prec = prec
    return ctx


def _endpoints(x) -> tuple:
    """The exact endpoints of an interval, as an Enclosure holds them."""
    return tuple(Fraction(int(p), int(q)) for p, q in map(libmp.to_rational, x._mpi_))


def _pair(enc: Enclosure) -> tuple:
    return enc.lo, enc.hi


bases = st.tuples(st.integers(0, 1 << 20), st.integers(1, 1 << 20))
rational_alphas = st.builds(Fraction, st.integers(1, 200), st.integers(1, 10))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(bases, st.lists(st.tuples(st.integers(-9, 9), bases), max_size=4), rational_alphas),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.integers(64, 1024), min_size=2, max_size=4),
)
def test_shared_contexts_agree_with_fresh_ones(steps, precs):
    """power_sum on the shared context at p gives the endpoints the
    reference gives on a fresh context at p, for one power and for a sum,
    with the precisions visited in interleaved order."""
    for i, ((num, den), terms, alpha) in enumerate(steps * 2):
        prec = precs[i % len(precs)]
        shared = certreal._make_context(prec)
        assert shared is certreal._make_context(prec) and shared.prec == prec
        assert _pair(power_sum([(1, num, den)], alpha, prec)) == _endpoints(
            _reference_pow_iv(_fresh_context(prec), num, den, alpha)
        )
        terms = [(c, n, d) for c, (n, d) in terms]
        assert _pair(power_sum(terms, alpha, prec)) == _endpoints(
            _reference_power_sum_iv(_fresh_context(prec), terms, alpha)
        )
        assert shared.prec == prec


def test_make_context_keeps_a_bounded_number_of_contexts():
    make_context = certreal._make_context
    contexts = [make_context(prec) for prec in range(2000, 2100)]
    assert make_context.cache_info().currsize <= 64
    assert make_context(2099) is contexts[-1]
    assert [ctx.prec for ctx in contexts] == list(range(2000, 2100))


def test_power_sum_restores_the_shared_precision_when_exp_raises(monkeypatch):
    ctx = certreal._make_context(320)

    def failing_exp(x):
        assert ctx.prec > 320
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(ctx, "exp", failing_exp)
    with pytest.raises(ZeroDivisionError, match="injected"):
        power_sum([(1, 3, 7)], Fraction(5, 2), 320)
    assert ctx.prec == 320
    monkeypatch.undo()
    assert certreal._make_context(320) is ctx and ctx.prec == 320
    expected = _reference_pow_iv(_fresh_context(320), 3, 7, Fraction(5, 2))
    assert _pair(power_sum([(1, 3, 7)], Fraction(5, 2), 320)) == _endpoints(expected)

    # a power sum whose third term fails: the precision comes back, and the
    # next sum on the shared context is the one a fresh context gives
    real_exp, calls = ctx.exp, []

    def exp_failing_on_the_third_term(x):
        calls.append(ctx.prec)
        if len(calls) == 3:
            raise ZeroDivisionError("injected")
        return real_exp(x)

    terms = [(2, 9, 1), (-5, 3, 4), (Fraction(1, 3), 1 << 30, 1), (7, 11, 2)]
    monkeypatch.setattr(ctx, "exp", exp_failing_on_the_third_term)
    with pytest.raises(ZeroDivisionError, match="injected"):
        power_sum(terms, Fraction(7, 3), 320)
    assert len(calls) == 3 and min(calls) > 320
    assert ctx.prec == 320
    monkeypatch.undo()
    expected = _reference_power_sum_iv(_fresh_context(320), terms, Fraction(7, 3))
    assert _pair(power_sum(terms, Fraction(7, 3), 320)) == _endpoints(expected)
    assert ctx.prec == 320


def _reference_pow_iv(ctx, base_num, base_den, exponent):
    """A single power as it was evaluated on its own: the exponent enclosed
    anew for every power, and every base divided by its denominator, 1
    included."""
    if base_num == 0:
        return ctx.mpf(0)
    if exponent.denominator == 1:
        e = int(exponent)
        return ctx.mpf(base_num**e) / ctx.mpf(base_den**e)
    bits = max(base_num.bit_length(), base_den.bit_length())
    guard = ((exponent.numerator // exponent.denominator + 1) * bits).bit_length() + 2
    ctx.prec += guard
    try:
        alpha = ctx.mpf(exponent.numerator) / ctx.mpf(exponent.denominator)
        power = ctx.exp(alpha * ctx.log(ctx.mpf(base_num) / ctx.mpf(base_den)))
    finally:
        ctx.prec -= guard
    return +power


def _reference_term(ctx, c, num, den, exponent):
    c = Fraction(c)
    return ctx.mpf(c.numerator) / ctx.mpf(c.denominator) * _reference_pow_iv(ctx, num, den, exponent)


def _reference_power_sum_iv(ctx, terms, exponent, divisor=None):
    """The sum term by term, then divided by the divisor's own term."""
    total = ctx.mpf(0)
    for c, num, den in terms:
        if c and num:
            total += _reference_term(ctx, c, num, den, exponent)
    if divisor is not None:
        total /= _reference_term(ctx, *divisor, exponent)
    return total


def _of_bits(bits: int):
    """An integer strategy of exactly `bits` bits."""
    return st.integers(1 << (bits - 1), (1 << bits) - 1)


# bases of 1 to 40 bits meet several guards in one sum; den = 1 is drawn
# often, as are num = 0 and num = den
wide_ints = st.integers(1, 40).flatmap(_of_bits)
wide_bases = st.one_of(
    st.tuples(wide_ints, st.just(1)),
    st.tuples(st.one_of(st.just(0), wide_ints), wide_ints),
    wide_ints.map(lambda n: (n, n)),
)
# int coefficients enter as ctx.mpf(c), Fractions through _fraction_iv, a
# Fraction with denominator 1 among them
mixed_coefficients = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-50, 50).map(Fraction),
    st.fractions(Fraction(-50), Fraction(50), max_denominator=1 << 20),
)
mixed_exponents = st.one_of(
    st.integers(1, 30).map(Fraction),
    st.fractions(Fraction(1, 64), Fraction(120), max_denominator=64),
)
# a nonzero term to divide by; m! m^alpha divides both alternating traces
divisors = st.one_of(
    st.none(),
    st.integers(1, 40).map(lambda m: (math.factorial(m), m, 1)),
    st.tuples(mixed_coefficients.filter(bool), wide_bases.filter(lambda b: b[0] > 0)).map(
        lambda t: (t[0], *t[1])
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(mixed_coefficients, wide_bases), min_size=1, max_size=12),
    mixed_exponents,
    st.integers(64, 1024),
    divisors,
)
def test_power_sums_match_the_per_term_reference_bit_for_bit(terms, exponent, prec, divisor):
    """power_sum gives the endpoints of the term-by-term evaluation, with the
    exponent enclosed once per working precision and integer bases entering
    undivided: for the whole sum with or without a divisor, for each term
    alone, and for each power alone as the one term (1, num, den)."""
    terms = [(c, num, den) for c, (num, den) in terms]
    assert _pair(power_sum(terms, exponent, prec, divisor)) == _endpoints(
        _reference_power_sum_iv(_fresh_context(prec), terms, exponent, divisor)
    )
    for c, num, den in terms:
        assert _pair(power_sum([(c, num, den)], exponent, prec)) == _endpoints(
            _reference_power_sum_iv(_fresh_context(prec), [(c, num, den)], exponent)
        )
        assert _pair(power_sum([(1, num, den)], exponent, prec)) == _endpoints(
            _reference_pow_iv(_fresh_context(prec), num, den, exponent)
        )
    assert certreal._make_context(prec).prec == prec


def test_a_power_sum_encloses_its_exponent_once_per_working_precision(monkeypatch):
    """C_alpha(70) at 128 bits has 69 powers of bases 1 to 70, which meet
    three guards: the exponent 25/3 is enclosed once at each of 134, 135
    and 136 bits (its coefficients are ints, so _fraction_iv builds nothing
    else)."""
    built, real_fraction_iv = [], certreal._fraction_iv

    def counting_fraction_iv(ctx, f):
        built.append((f, ctx.prec))
        return real_fraction_iv(ctx, f)

    monkeypatch.setattr(certreal, "_fraction_iv", counting_fraction_iv)
    power_sum(_c_alpha_terms(70), Fraction(25, 3), 128)
    assert sorted(built) == [(Fraction(25, 3), 134), (Fraction(25, 3), 135), (Fraction(25, 3), 136)]


def test_endpoints_past_the_bit_cap_are_refused_before_conversion():
    """(1/2)^alpha and 3^alpha have an endpoint of scale 2^-alpha and about
    2^(1.58 alpha): under the cap it converts, past it CapExceededError comes
    instead.  (The CLI tests run the huge exponents, in a capped child.)"""
    under = power_sum([(1, 1, 2)], Fraction(2 * ENDPOINT_CAP_BITS - 2001, 2), 64)
    assert 0 < under.lo <= under.hi
    for term, alpha in (((1, 1, 2), ENDPOINT_CAP_BITS), ((1, 3, 1), 2 * ENDPOINT_CAP_BITS // 3)):
        with pytest.raises(CapExceededError, match=f"{ENDPOINT_CAP_BITS}-bit cap"):
            power_sum([term], alpha + Fraction(1, 2), 64)


def test_decimals_past_the_digit_cap_are_refused():
    """A value prints up to EXACT_VALUE_CAP_DIGITS integer digits, in either
    direction of rounding, and is refused with CapExceededError past them."""
    largest = 10**EXACT_VALUE_CAP_DIGITS - 1
    for f in (Fraction(largest), Fraction(-largest), Fraction(largest * 3 + 1, 3)):
        for round_up in (False, True):
            whole, frac = fraction_to_decimal(f, round_up).split(".")
            assert len(whole.lstrip("-")) == EXACT_VALUE_CAP_DIGITS and len(frac) == 25
    for f in (Fraction(10**EXACT_VALUE_CAP_DIGITS), Fraction(-(10**EXACT_VALUE_CAP_DIGITS) * 7, 3)):
        with pytest.raises(CapExceededError, match="more than 4300 integer digits"):
            fraction_to_decimal(f, round_up=True)
    assert fraction_to_decimal(Fraction(-1, 3), round_up=True) == "-0." + "3" * 25
    assert fraction_to_decimal(Fraction(2, 3), round_up=True) == "0." + "6" * 24 + "7"


def test_exponent_digits_cap_edge():
    """An exponent prints with EXACT_VALUE_CAP_DIGITS digits above or below
    its fraction bar; one more digit is refused, by Alpha too, before
    anything prints it."""
    top = 10**EXACT_VALUE_CAP_DIGITS
    for alpha in (Fraction(top - 1), Fraction(1, top - 1), Fraction(1 - top, 7)):
        check_exponent_digits(alpha)
        str(alpha)  # str raises past the digit limit
    assert str(Alpha(top - 1)) == str(top - 1)
    for alpha in (Fraction(top), Fraction(1, top), Fraction(-top, 7)):
        with pytest.raises(CapExceededError, match="more than 4300 digits"):
            check_exponent_digits(alpha)
    with pytest.raises(CapExceededError):
        Alpha(Fraction(3, top))


def _mp(f) -> mpmath.mpf:
    f = Fraction(f)
    return mpmath.mpf(f.numerator) / f.denominator
