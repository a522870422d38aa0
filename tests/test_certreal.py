import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from cubechar import Alpha, caps, certreal, obstruction
from cubechar.certreal import (
    DEFAULT_PRECISION,
    Enclosure,
    certify_sign,
    check_precision,
    fraction_to_decimal,
    power_sum,
)
from cubechar.errors import CapExceededError
from cubechar.obstruction import _c_alpha_terms, _witness_precision, c_alpha_real


def _recording(tried, decide_at=None):
    """An evaluation whose enclosure straddles 0 until prec reaches decide_at."""

    def evaluate(prec):
        tried.append(prec)
        lo = Fraction(1) if decide_at is not None and prec >= decide_at else Fraction(-1)
        return Enclosure(lo, Fraction(2), prec)

    return evaluate


def test_certify_sign_doubles_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(caps, "PRECISION", dataclasses.replace(caps.PRECISION, limit=256))
    tried = []
    enc, sign = certify_sign(_recording(tried))
    assert tried == [64, 128, 256]
    assert sign == "undetermined" and enc.prec == 256


def test_certify_sign_stops_at_the_first_decided_precision(monkeypatch):
    monkeypatch.setattr(caps, "PRECISION", dataclasses.replace(caps.PRECISION, limit=256))
    tried = []
    enc, sign = certify_sign(_recording(tried, decide_at=128))
    assert tried == [64, 128]
    assert sign == "positive" and enc.prec == 128


def test_certify_sign_clamps_to_a_cap_between_doublings(monkeypatch):
    monkeypatch.setattr(caps, "PRECISION", dataclasses.replace(caps.PRECISION, limit=200))
    tried = []
    certify_sign(_recording(tried), start_prec=64)
    assert tried == [64, 128, 200]
    monkeypatch.setattr(caps, "PRECISION", dataclasses.replace(caps.PRECISION, limit=64))
    tried.clear()
    certify_sign(_recording(tried), start_prec=128)
    assert tried == [64]


def test_check_precision_edges(monkeypatch):
    for prec in (DEFAULT_PRECISION, caps.PRECISION.limit):
        check_precision(prec)
    with pytest.raises(ValueError, match="precision must be at least 64"):
        check_precision(DEFAULT_PRECISION - 1)
    with pytest.raises(CapExceededError):
        check_precision(caps.PRECISION.limit + 1)
    monkeypatch.setattr(caps, "PRECISION", dataclasses.replace(caps.PRECISION, limit=100))
    check_precision(100)
    with pytest.raises(CapExceededError) as info:
        check_precision(101)
    assert (info.value.cap, info.value.value) == (caps.PRECISION, 101)


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
    """power_sum at p gives the endpoints the reference gives on a fresh
    context at p, for one power and for a sum, with the precisions visited
    in interleaved order: no step carries a precision from one call to the
    next."""
    for i, ((num, den), terms, alpha) in enumerate(steps * 2):
        prec = precs[i % len(precs)]
        assert _pair(power_sum([(1, num, den)], alpha, prec)) == _endpoints(
            _reference_pow_iv(_fresh_context(prec), num, den, alpha)
        )
        terms = [(c, n, d) for c, (n, d) in terms]
        assert _pair(power_sum(terms, alpha, prec)) == _endpoints(
            _reference_power_sum_iv(_fresh_context(prec), terms, alpha)
        )


def test_a_power_sum_that_raises_leaves_mpmath_as_it_was(monkeypatch):
    """A power sum that fails inside its third power, or at a negative base,
    leaves mpmath's global `mp` and `iv` at their precisions (every step
    passes its precision to libmp), and the next sum is the one a fresh
    context gives."""
    precs = mpmath.mp.prec, mpmath.iv.prec
    real_exp, calls = libmp.mpi_exp, []

    def exp_failing_on_the_third_power(x, prec):
        calls.append(prec)
        if len(calls) == 3:
            raise ZeroDivisionError("injected")
        return real_exp(x, prec)

    terms = [(2, 9, 1), (-5, 3, 4), (Fraction(1, 3), 1 << 30, 1), (7, 11, 2)]
    monkeypatch.setattr(libmp, "mpi_exp", exp_failing_on_the_third_power)
    with pytest.raises(ZeroDivisionError, match="injected"):
        power_sum(terms, Fraction(7, 3), 320)
    monkeypatch.undo()
    assert len(calls) == 3 and min(calls) > 320
    assert (mpmath.mp.prec, mpmath.iv.prec) == precs
    with pytest.raises(ValueError, match="non-negative"):
        power_sum([(1, 3, 7), (1, -1, 2)], Fraction(5, 2), 320)
    assert (mpmath.mp.prec, mpmath.iv.prec) == precs
    expected = _reference_power_sum_iv(_fresh_context(320), terms, Fraction(7, 3))
    assert _pair(power_sum(terms, Fraction(7, 3), 320)) == _endpoints(expected)


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
# int and Fraction coefficients both enter through _ratio_mpi, a Fraction
# with denominator 1 among them
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


def _iroot(n: int, b: int) -> int:
    """floor(n ** (1/b)) for n >= 0 and b >= 1, in ints: math.isqrt for
    b = 2, otherwise integer Newton from above, started just above the root
    of n's top half so that it takes a few steps."""
    if b == 1 or n < 2:
        return n
    if b == 2:
        return math.isqrt(n)
    k = n.bit_length() // (2 * b)
    x = (_iroot(n >> (k * b), b) + 1) << k if k else 1 << -(-n.bit_length() // b)
    while True:
        y = ((b - 1) * x + n // x ** (b - 1)) // b
        if y >= x:
            return x
        x = y


def _scaled_power(num: int, den: int, exponent: Fraction, bits: int) -> tuple:
    """The floor and the ceiling of 2^bits * (num/den)^(a/b): the floor is
    the integer b-th root of floor(num^a 2^(b bits) / den^a), and the
    ceiling is one more unless that root is exact."""
    a, b = exponent.numerator, exponent.denominator
    n, rem = divmod(num**a << (b * bits), den**a)
    root = _iroot(n, b)
    return root, root + (rem != 0 or root**b != n)


def _exact_enclosure(terms, exponent: Fraction, bits: int) -> tuple:
    """[lo, hi] around sum c * (num/den)^exponent from ints alone: each power
    within 2^-bits, times c at its floor or its ceiling by the sign of c."""
    lo = hi = Fraction(0)
    for c, num, den in terms:
        floor, ceiling = _scaled_power(num, den, exponent, bits)
        lo += c * (floor if c > 0 else ceiling)
        hi += c * (ceiling if c > 0 else floor)
    return lo / 2**bits, hi / 2**bits


def _oracle_bits(terms, exponent: Fraction, prec: int) -> int:
    """prec + 64 bits, one more per term, and as many as the smallest power
    may fall below 1 (none for integer bases, so C_alpha(m) gets
    prec + m + 64): each power's 2^-bits then lies far inside the outward
    rounding of its term at prec, and a power that power_sum holds exactly
    (a dyadic of at most prec bits) is exact here too."""
    below = max(
        (
            math.ceil(exponent * ((den - 1).bit_length() + 1 - num.bit_length()))
            for c, num, den in terms
            if c and num
        ),
        default=0,
    )
    return prec + 64 + len(terms) + max(0, below)


def _assert_holds_the_exact_enclosure(enc: Enclosure, terms, exponent: Fraction) -> None:
    """power_sum's enclosure holds the integer-root one, and is wider than it
    by at most 2^(5 - prec) of sum |c| (num/den)^exponent: a few units in
    the last place of each term and each partial sum, so a power run
    without its guard bits shows up as too wide."""
    bits = _oracle_bits(terms, exponent, prec=enc.prec)
    lo, hi = _exact_enclosure(terms, exponent, bits)
    assert enc.lo <= lo <= hi <= enc.hi
    _, size = _exact_enclosure([(abs(c), num, den) for c, num, den in terms], exponent, bits)
    assert enc.hi - enc.lo <= hi - lo + size * Fraction(2) ** (5 - enc.prec)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 400), st.integers(1, 70))
def test_integer_roots_are_floors(n, b):
    """The tests' root and the package's are the same floor."""
    root = _iroot(n, b)
    assert root**b <= n < (root + 1) ** b
    assert certreal._iroot(n, b) == root


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 200), st.integers(1, 70), st.sampled_from((-1, 0, 1)))
def test_integer_roots_at_and_beside_exact_powers(r, b, step):
    """At r^b the root is r exactly, one below it r - 1: the two cases a
    start above the root or a last Newton step could get wrong."""
    n = max(r**b + step, 0)
    root = certreal._iroot(n, b)
    assert root**b <= n < (root + 1) ** b
    assert root == _iroot(n, b)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(coefficients, wide_bases), min_size=1, max_size=6),
    st.one_of(exponents, rational_alphas),
    st.integers(64, 320),
)
def test_power_sum_holds_the_integer_root_enclosure(terms, exponent, prec):
    """An oracle that shares nothing with mpmath: the enclosure built from
    integer roots lies inside power_sum's, which is not much wider, for the
    sum and for each term alone.  Bases of up to 40 bits, often integers,
    make powers that do not fit in prec bits and enter undivided, so a wrong
    rounding direction shows."""
    terms = [(c, num, den) for c, (num, den) in terms]
    for part in [terms] + [[term] for term in terms]:
        _assert_holds_the_exact_enclosure(power_sum(part, exponent, prec), part, exponent)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(coefficients, wide_bases), min_size=1, max_size=6),
    st.one_of(exponents, rational_alphas),
    st.integers(64, 320),
    st.booleans(),
    st.one_of(st.none(), st.tuples(st.integers(-3, 3), st.integers(1, 60))),
)
def test_the_rounded_sum_lies_inside_power_sum(terms, exponent, prec, mirror, tiny):
    """`_rounded_sum` at prec holds the integer-root enclosure at
    `_oracle_bits` and lies inside power_sum's enclosure at prec, so where
    it straddles 0, power_sum's sign is undecided.  Mirrored terms (each
    negated on an equal base of other integers) sum to exactly 0, and a
    tiny term c / 2^(k exponent) moves them just off it: there the rounded
    sum straddles often, for the sum and for each term alone."""
    terms = [(c, num, den) for c, (num, den) in terms]
    if mirror:
        terms += [(-c, 3 * num, 3 * den) for c, num, den in terms]
    if tiny is not None:
        terms.append((tiny[0], 1, 1 << tiny[1]))
    for part in [terms] + [[term] for term in terms]:
        enc = certreal._rounded_sum(part, exponent, prec)
        if enc is None:  # an integer past EXACT_POWER: the rung is summed as before
            continue
        lo, hi = _exact_enclosure(part, exponent, _oracle_bits(part, exponent, prec))
        assert enc.prec == prec and enc.lo <= lo <= hi <= enc.hi
        summed = power_sum(part, exponent, prec)
        assert summed.lo <= enc.lo and enc.hi <= summed.hi
        if enc.lo < 0 < enc.hi:
            assert summed.sign() is None


def test_the_rounded_sum_declines_past_the_exact_power_cap():
    """An integer of more than EXACT_POWER.limit bits is never formed: 3^a
    for a = EXACT_POWER.limit has about 1.58 times as many."""
    alpha = Fraction(caps.EXACT_POWER.limit * 2 + 1, 2)
    assert certreal._rounded_sum([(1, 3, 1)], alpha, 64) is None
    assert certreal._rounded_sum([(1, 3, 1)], Fraction(5, 2), 64) is not None


def _power_sums_counted(monkeypatch) -> list:
    """The precision of every power_sum call from here on."""
    summed, real_power_sum = [], certreal.power_sum

    def counting(terms, exponent, prec, divisor=None):
        summed.append(prec)
        return real_power_sum(terms, exponent, prec, divisor)

    monkeypatch.setattr(certreal, "power_sum", counting)
    return summed


def _certify_trails(monkeypatch) -> list:
    """The precisions each certify_sign call of obstruction tries, through a
    recording evaluate as the benchmark's trace wraps it."""
    trails, real_certify = [], obstruction.certify_sign

    def recording(evaluate, start_prec):
        tried = []
        trails.append(tried)
        return real_certify(lambda prec: tried.append(prec) or evaluate(prec), start_prec)

    monkeypatch.setattr(obstruction, "certify_sign", recording)
    return trails


@pytest.mark.parametrize(
    "alpha, m, trail",
    [
        (Fraction(43, 4), 78, [64, 128, 256]),
        (Fraction(29, 3), 76, [64, 128, 256]),
        (Fraction(3, 2), 60, [64, 128]),
    ],
)
def test_only_the_deciding_rung_is_summed(alpha, m, trail, monkeypatch):
    """certify_sign still tries every rung, but the rounded sums prove the
    undecided ones, so power_sum runs once, at the rung that decides, and
    its enclosure is the one reported."""
    summed = _power_sums_counted(monkeypatch)
    trails = _certify_trails(monkeypatch)
    report = c_alpha_real(alpha, m)
    assert trails == [trail] and summed == [trail[-1]]
    monkeypatch.undo()
    assert report.enclosure == power_sum(list(_c_alpha_terms(m)), alpha, trail[-1])
    assert report.sign == ("negative" if (m - math.ceil(alpha)) % 2 == 0 else "positive")


def test_the_rung_at_the_precision_cap_is_always_summed(monkeypatch):
    """At the cap certify_sign stops, so its enclosure is reported: it is
    power_sum's, undecided, even where the rounded sum proves it straddles."""
    monkeypatch.setattr(caps, "PRECISION", dataclasses.replace(caps.PRECISION, limit=128))
    terms = list(_c_alpha_terms(78))
    assert certreal._rounded_sum(terms, Fraction(43, 4), 128).lo < 0
    summed = _power_sums_counted(monkeypatch)
    trails = _certify_trails(monkeypatch)
    report = c_alpha_real(Fraction(43, 4), 78)
    assert trails == [[64, 128]] and summed == [128] and report.sign == "undetermined"
    assert report.enclosure == power_sum(terms, Fraction(43, 4), 128)


def test_a_power_sum_encloses_its_exponent_once_per_working_precision(monkeypatch):
    """C_alpha(70) at 128 bits has 69 powers of bases 1 to 70, which meet
    three guards: the exponent 25/3 is enclosed once at each of 134, 135
    and 136 bits (its bases are integers, so _ratio_mpi divides nothing
    else)."""
    built, real_ratio_mpi = [], certreal._ratio_mpi

    def counting_ratio_mpi(num, den, prec):
        if den != 1:
            built.append((Fraction(num, den), prec))
        return real_ratio_mpi(num, den, prec)

    monkeypatch.setattr(certreal, "_ratio_mpi", counting_ratio_mpi)
    power_sum(_c_alpha_terms(70), Fraction(25, 3), 128)
    assert sorted(built) == [(Fraction(25, 3), 134), (Fraction(25, 3), 135), (Fraction(25, 3), 136)]


@pytest.mark.parametrize(
    "alpha, m", [(Fraction(3, 2), 60), (Fraction(29, 3), 76), (Fraction(43, 4), 78)]
)
@pytest.mark.parametrize("prec", [64, 128, 256, 512])
def test_c_alpha_sums_match_the_reference_at_the_certify_rungs(alpha, m, prec):
    """The C_alpha(m) sums that certify signs, at each precision
    `certify_sign` tries on them, have the endpoints of the term-by-term
    evaluation on a fresh context, and hold the integer-root enclosure at
    prec + m + 64 bits."""
    terms = list(_c_alpha_terms(m))
    enc = power_sum(terms, alpha, prec)
    assert _pair(enc) == _endpoints(_reference_power_sum_iv(_fresh_context(prec), terms, alpha))
    assert _oracle_bits(terms, alpha, prec) == prec + m + 64
    _assert_holds_the_exact_enclosure(enc, terms, alpha)


def test_the_201_2_witness_matches_the_reference_at_its_predicted_rung():
    alpha, m = Fraction(201, 2), 103
    prec, _ = _witness_precision(alpha, m, DEFAULT_PRECISION)
    assert prec == 256
    terms = list(_c_alpha_terms(m))
    enc = power_sum(terms, alpha, prec)
    assert enc.sign() == "negative"
    assert _pair(enc) == _endpoints(_reference_power_sum_iv(_fresh_context(prec), terms, alpha))


def test_endpoints_past_the_bit_cap_are_refused_before_conversion():
    """(1/2)^alpha and 3^alpha have an endpoint of scale 2^-alpha and about
    2^(1.58 alpha): under the cap it converts, past it CapExceededError comes
    instead.  (The CLI tests run the huge exponents, in a capped child.)"""
    cap = caps.ENDPOINT.limit
    under = power_sum([(1, 1, 2)], Fraction(2 * cap - 2001, 2), 64)
    assert 0 < under.lo <= under.hi
    for term, alpha in (((1, 1, 2), cap), ((1, 3, 1), 2 * cap // 3)):
        with pytest.raises(CapExceededError) as info:
            power_sum([term], alpha + Fraction(1, 2), 64)
        assert info.value.cap is caps.ENDPOINT and info.value.value > cap


def test_a_zero_divisor_is_refused_before_any_term():
    """A divisor with c = 0 or num = 0 is zero: libmp would divide to
    (-inf, +inf), which the endpoints would read as [0, 0]."""
    for divisor in ((1, 0, 1), (0, 1, 1), (0, 0, 1), (Fraction(0), 5, 3)):
        with pytest.raises(ValueError, match="divisor must be a nonzero term"):
            power_sum([(1, 1, 1)], Fraction(3, 2), 64, divisor=divisor)
    assert _pair(power_sum([(1, 1, 1)], Fraction(3, 2), 64, divisor=(2, 1, 1))) == (Fraction(1, 2),) * 2


def test_an_endpoint_that_is_not_finite_is_refused():
    """An infinity or a nan has mantissa 0, as zero has; `to_rational`
    would read it as 0."""
    for raw in (libmp.finf, libmp.fninf, libmp.fnan):
        with pytest.raises(ValueError, match="is not finite"):
            certreal._endpoint(raw)
    assert certreal._endpoint(libmp.fzero) == 0
    assert certreal._endpoint(libmp.from_int(-3)) == -3


def test_decimals_past_the_digit_cap_are_refused():
    """A value prints up to DIGITS.limit integer digits, in either direction
    of rounding, and is refused with CapExceededError past them."""
    digits = caps.DIGITS.limit
    largest = 10**digits - 1
    for f in (Fraction(largest), Fraction(-largest), Fraction(largest * 3 + 1, 3)):
        for round_up in (False, True):
            whole, frac = fraction_to_decimal(f, round_up).split(".")
            assert len(whole.lstrip("-")) == digits and len(frac) == 25
    for f in (Fraction(10**digits), Fraction(-(10**digits) * 7, 3)):
        with pytest.raises(CapExceededError) as info:
            fraction_to_decimal(f, round_up=True)
        assert (info.value.cap, info.value.value) == (caps.DIGITS, 4301)
    assert fraction_to_decimal(Fraction(-1, 3), round_up=True) == "-0." + "3" * 25
    assert fraction_to_decimal(Fraction(2, 3), round_up=True) == "0." + "6" * 24 + "7"


def test_exponent_digits_cap_edge():
    """An exponent prints with DIGITS.limit digits above or below its
    fraction bar; one more digit is refused, by Alpha too, before anything
    prints it."""
    top = 10**caps.DIGITS.limit
    for alpha in (Fraction(top - 1), Fraction(1, top - 1), Fraction(1 - top, 7)):
        caps.check_digits(alpha.numerator, alpha.denominator)
        str(alpha)  # str raises past the digit limit
    assert str(Alpha(top - 1)) == str(top - 1)
    for alpha in (Fraction(top), Fraction(1, top), Fraction(-top, 7)):
        with pytest.raises(CapExceededError) as info:
            caps.check_digits(alpha.numerator, alpha.denominator)
        assert (info.value.cap, info.value.value) == (caps.DIGITS, 4301)
    with pytest.raises(CapExceededError):
        Alpha(Fraction(3, top))


def _mp(f) -> mpmath.mpf:
    f = Fraction(f)
    return mpmath.mpf(f.numerator) / f.denominator
