from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubechar import Alpha, Dyadic

dyadics = st.builds(
    Dyadic, st.integers(min_value=-(2**40), max_value=2**40), st.integers(0, 40)
)


def test_canonical_form():
    d = Dyadic(6, 3)
    assert (d.p, d.q) == (3, 2)
    assert Dyadic(0, 7).q == 0
    assert Dyadic(8, 2) == Dyadic(2, 0) == 2
    assert (Dyadic(-6, 3).p, Dyadic(-6, 3).q) == (-3, 2)
    assert (Dyadic(-8, 2).p, Dyadic(-8, 2).q) == (-2, 0)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


@given(dyadics)
def test_canonical_invariant(d):
    assert d.p % 2 == 1 or d.q == 0


@given(st.integers(-(2**40), 2**40), st.integers(0, 40), st.integers(0, 40))
def test_trailing_zero_bits_strip_to_one_form(p, q, k):
    a, b = Dyadic(p << k, q + k), Dyadic(p, q)
    assert a == b and (a.p, a.q) == (b.p, b.q)
    assert a.as_fraction() == Fraction(p, 1 << q)


@given(dyadics, dyadics)
def test_arithmetic_matches_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
    assert (a < b) == (a.as_fraction() < b.as_fraction())


@given(dyadics, st.integers(0, 8))
def test_powers(d, n):
    assert (d**n).as_fraction() == d.as_fraction() ** n


def canonical(d):
    return d.p % 2 == 1 or d.q == 0


@given(dyadics, dyadics, st.integers(0, 8))
def test_fast_paths_match_fractions_and_stay_canonical(a, b, k):
    """== compares fields, * skips reduction when both numerators are odd,
    ** never reduces; each must agree with Fraction arithmetic."""
    same = Dyadic(a.p << k, a.q + k)
    for x, y in ((a, b), (a, same), (b, same)):
        assert (x == y) == (x.as_fraction() == y.as_fraction())
        assert (x != y) == (x.as_fraction() != y.as_fraction())
        product = x * y
        assert product.as_fraction() == x.as_fraction() * y.as_fraction()
        assert canonical(product)
    power = a**k
    assert power.as_fraction() == a.as_fraction() ** k
    assert canonical(power)


def test_zero_power_zero_is_one():
    assert Dyadic(0) ** 0 == Dyadic(1)


def test_int_mixing():
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
    assert 2 * Dyadic(3, 2) == Dyadic(3, 1)
    assert Dyadic(4) == 4


def test_str_and_parse_round_trip():
    """The printed form of a dyadic reads back as the same rational, through
    Fraction and, for a non-negative value, as a character exponent."""
    for d in (Dyadic(0), Dyadic(5), Dyadic(-3, 4), Dyadic(1, 1)):
        assert Fraction(str(d)) == d
        if d >= 0:
            assert Alpha.parse(str(d)).fraction == d
    assert str(Dyadic(1, 1)) == "1/2"
    assert str(Dyadic(3, 2)) == "3/4"
    assert str(Dyadic(5, 3)) == "5/8"
