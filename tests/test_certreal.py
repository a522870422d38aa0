from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from cubechar import certreal
from cubechar.certreal import (
    DEFAULT_PRECISION,
    DEFAULT_PRECISION_CAP,
    Enclosure,
    certify_sign,
    check_precision,
    make_context,
    pow_iv,
    power_sum_iv,
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


def test_certify_sign_doubles_up_to_the_environment_cap(monkeypatch):
    monkeypatch.setenv("CUBECHAR_PRECISION_CAP", "256")
    tried = []
    enc, sign = certify_sign(_recording(tried))
    assert tried == [64, 128, 256]
    assert sign == "undetermined" and enc.prec == 256


def test_certify_sign_stops_at_the_first_decided_precision(monkeypatch):
    monkeypatch.setenv("CUBECHAR_PRECISION_CAP", "256")
    tried = []
    enc, sign = certify_sign(_recording(tried, decide_at=128))
    assert tried == [64, 128]
    assert sign == "positive" and enc.prec == 128


def test_certify_sign_clamps_to_a_cap_between_doublings(monkeypatch):
    monkeypatch.setenv("CUBECHAR_PRECISION_CAP", "200")
    tried = []
    certify_sign(_recording(tried), start_prec=64)
    assert tried == [64, 128, 200]
    monkeypatch.setenv("CUBECHAR_PRECISION_CAP", "64")
    tried.clear()
    certify_sign(_recording(tried), start_prec=128)
    assert tried == [64]


def test_check_precision_edges(monkeypatch):
    for prec in (DEFAULT_PRECISION, DEFAULT_PRECISION_CAP):
        check_precision(prec)
    with pytest.raises(ValueError, match="precision must be at least 64"):
        check_precision(DEFAULT_PRECISION - 1)
    with pytest.raises(CapExceededError):
        check_precision(DEFAULT_PRECISION_CAP + 1)
    monkeypatch.setenv("CUBECHAR_PRECISION_CAP", "100")
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
def test_power_sum_iv_encloses_the_sum(terms, exponent):
    """At an integer exponent the enclosure holds the exact Fraction sum; at
    a rational one, a 300-digit mpmath value of it."""
    enc = Enclosure.from_iv(power_sum_iv(make_context(64), terms, exponent), 64)
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
def test_pow_iv_is_tight_whatever_the_exponent(num, den, exponent, prec):
    """The power's enclosure holds a 300-digit mpmath value and is at most 8
    units in its last place wide at ctx.prec, however large exponent * log(base)."""
    ctx = make_context(prec)
    power = pow_iv(ctx, num, den, exponent)
    assert ctx.prec == prec
    enc = Enclosure.from_iv(power, prec)
    with mpmath.workdps(300):
        value = _mp(Fraction(num, den)) ** _mp(exponent)
        assert _mp(enc.lo) <= value <= _mp(enc.hi)
        assert _mp(enc.hi - enc.lo) <= value * mpmath.mpf(2) ** (3 - prec)


def _fresh_context(prec: int):
    ctx = mpmath.ctx_iv.MPIntervalContext()
    ctx.prec = prec
    return ctx


def _endpoints(x) -> tuple:
    return tuple(libmp.to_rational(raw) for raw in x._mpi_)


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
    """pow_iv and power_sum_iv on make_context(p) give the endpoints a fresh
    context at p gives, with the precisions visited in interleaved order."""
    for i, ((num, den), terms, alpha) in enumerate(steps * 2):
        prec = precs[i % len(precs)]
        shared, fresh = make_context(prec), _fresh_context(prec)
        assert shared is make_context(prec) and shared.prec == prec
        assert _endpoints(pow_iv(shared, num, den, alpha)) == _endpoints(pow_iv(fresh, num, den, alpha))
        terms = [(c, n, d) for c, (n, d) in terms]
        assert _endpoints(power_sum_iv(shared, terms, alpha)) == _endpoints(
            power_sum_iv(fresh, terms, alpha)
        )
        assert shared.prec == prec


def test_make_context_keeps_a_bounded_number_of_contexts():
    contexts = [make_context(prec) for prec in range(2000, 2100)]
    assert make_context.cache_info().currsize <= 64
    assert make_context(2099) is contexts[-1]
    assert [ctx.prec for ctx in contexts] == list(range(2000, 2100))


def test_pow_iv_restores_the_shared_precision_when_exp_raises(monkeypatch):
    ctx = make_context(320)

    def failing_exp(x):
        assert ctx.prec > 320
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(ctx, "exp", failing_exp)
    with pytest.raises(ZeroDivisionError, match="injected"):
        pow_iv(ctx, 3, 7, Fraction(5, 2))
    assert ctx.prec == 320
    monkeypatch.undo()
    assert make_context(320) is ctx and ctx.prec == 320
    expected = pow_iv(_fresh_context(320), 3, 7, Fraction(5, 2))
    assert _endpoints(pow_iv(ctx, 3, 7, Fraction(5, 2))) == _endpoints(expected)

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
        power_sum_iv(ctx, terms, Fraction(7, 3))
    assert len(calls) == 3 and min(calls) > 320
    assert ctx.prec == 320
    monkeypatch.undo()
    expected = power_sum_iv(_fresh_context(320), terms, Fraction(7, 3))
    assert _endpoints(power_sum_iv(ctx, terms, Fraction(7, 3))) == _endpoints(expected)
    assert ctx.prec == 320


def _reference_pow_iv(ctx, base_num, base_den, exponent):
    """`pow_iv` as it evaluated each power on its own: the exponent enclosed
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


def _reference_power_sum_iv(ctx, terms, exponent):
    total = ctx.mpf(0)
    for c, num, den in terms:
        if c and num:
            c = Fraction(c)
            coeff = ctx.mpf(c.numerator) / ctx.mpf(c.denominator)
            total += coeff * _reference_pow_iv(ctx, num, den, exponent)
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
# int coefficients enter as ctx.mpf(c), Fractions through fraction_iv, a
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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(mixed_coefficients, wide_bases), min_size=1, max_size=12),
    mixed_exponents,
    st.integers(64, 1024),
)
def test_power_sums_match_the_per_term_reference_bit_for_bit(terms, exponent, prec):
    """power_sum_iv and pow_iv give the endpoints of the term-by-term
    evaluation, with the exponent enclosed once per working precision and
    integer bases entering undivided."""
    ctx = make_context(prec)
    terms = [(c, num, den) for c, (num, den) in terms]
    assert _endpoints(power_sum_iv(ctx, terms, exponent)) == _endpoints(
        _reference_power_sum_iv(ctx, terms, exponent)
    )
    for _, num, den in terms:
        assert _endpoints(pow_iv(ctx, num, den, exponent)) == _endpoints(
            _reference_pow_iv(ctx, num, den, exponent)
        )
    assert ctx.prec == prec


def test_a_power_sum_encloses_its_exponent_once_per_working_precision(monkeypatch):
    """C_alpha(70) at 128 bits has 69 powers of bases 1 to 70, which meet
    three guards: the exponent 25/3 is enclosed once at each of 134, 135
    and 136 bits (its coefficients are ints, so fraction_iv builds nothing
    else)."""
    built, real_fraction_iv = [], certreal.fraction_iv

    def counting_fraction_iv(ctx, f):
        built.append((f, ctx.prec))
        return real_fraction_iv(ctx, f)

    monkeypatch.setattr(certreal, "fraction_iv", counting_fraction_iv)
    power_sum_iv(make_context(128), _c_alpha_terms(70), Fraction(25, 3))
    assert sorted(built) == [(Fraction(25, 3), 134), (Fraction(25, 3), 135), (Fraction(25, 3), 136)]


def _mp(f) -> mpmath.mpf:
    f = Fraction(f)
    return mpmath.mpf(f.numerator) / f.denominator
