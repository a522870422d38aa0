"""Measures and exact character values are dyadic rationals: Fractions whose
denominator is a power of two. Their printed form is what the reports show."""

from fractions import Fraction

from cubechar import Alpha, fixed_fraction, identity, odometer, transposition


def test_str_and_parse_round_trip():
    """The printed form of a dyadic reads back as the same rational, through
    Fraction and, for a non-negative value, as a character exponent."""
    measures = [fixed_fraction(p) for p in (identity(2), odometer(3), transposition(2, 0, 1))]
    for d in [Fraction(0), Fraction(5), Fraction(-3, 16), Fraction(1, 2), *measures]:
        assert Fraction(str(d)) == d
        if d >= 0:
            assert Alpha.parse(str(d)).fraction == d
    assert str(Fraction(1, 2)) == "1/2"
    assert str(Fraction(3, 4)) == "3/4"
    assert str(Fraction(5, 8)) == "5/8"
