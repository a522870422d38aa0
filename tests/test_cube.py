from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubechar import NiceSet, flip_perm, nice_intersect, nice_product, odometer

levels = st.integers(0, 6)
nice_sets = levels.flatmap(
    lambda k: st.builds(NiceSet, st.just(k), st.integers(0, (1 << (1 << k)) - 1))
)


def brute_members(a: NiceSet, level: int):
    """Oracle membership: lift by unpacking suffix bits by hand."""
    assert level >= a.level
    out = set()
    for i in range(1 << level):
        head = i & ((1 << a.level) - 1)
        if a.mask >> head & 1:
            out.add(i)
    return out


# -- word convention -----------------------------------------------------------


def test_word_convention_little_endian():
    # coordinate m is bit m-1 of the index: flipping it off the empty set adds 2^(m-1)
    for m in (1, 2, 3):
        assert flip_perm(NiceSet.empty(0), m).images == tuple(x ^ (1 << (m - 1)) for x in range(1 << m))
    # so adding one to the index is "add one, carry to the right"
    assert odometer(3).images == (1, 2, 3, 4, 5, 6, 7, 0)


# -- measure ----------------------------------------------------------------


def test_measure_examples():
    assert NiceSet.full(3).measure() == Fraction(1)
    assert NiceSet.empty(2).measure() == Fraction(0)
    assert NiceSet.from_indices(1, [0]).measure() == Fraction(1, 2)


@given(nice_sets, st.integers(0, 3))
def test_lift_preserves_measure(a, extra):
    lifted = a.lift(a.level + extra)
    assert lifted.measure() == a.measure()
    assert lifted == a  # denotational equality
    assert (lifted is a) == (extra == 0)


@given(nice_sets)
def test_canonical_is_minimal_and_equal(a):
    c = a.canonical()
    assert c == a
    assert (c is a) == (c.level == a.level)
    assert c.canonical() is c
    if c.level > 0:
        half = 1 << (c.level - 1)
        assert c.mask >> half != c.mask & ((1 << half) - 1)


def complement(a: NiceSet) -> NiceSet:
    return NiceSet(a.level, NiceSet.full(a.level).mask ^ a.mask)


@given(nice_sets, nice_sets)
def test_inclusion_exclusion(a, b):
    """mu(A /\\ B) + mu(A \\/ B) = mu(A) + mu(B), the union being the
    complement of the intersection of the complements."""
    union = 1 - nice_intersect(complement(a), complement(b)).measure()
    assert nice_intersect(a, b).measure() + union == a.measure() + b.measure()


# -- intersect / product ------------------------------------------------------


def test_intersect_examples():
    x1_zero = NiceSet.from_indices(1, [0])
    x1_one = NiceSet.from_indices(1, [1])
    assert nice_intersect(x1_zero, x1_one).size() == 0
    assert nice_intersect(x1_zero, x1_zero) == x1_zero

    x2_zero = NiceSet.from_indices(2, [0, 1])
    both = nice_intersect(x1_zero, x2_zero)
    # enumerate the four level-2 words by hand: need x1=0 and x2=0
    expected = {i for i in range(4) if i & 1 == 0 and i >> 1 & 1 == 0}
    assert set(both.members()) == expected
    assert both.measure() == Fraction(1, 4)


@given(nice_sets, nice_sets)
def test_intersect_against_oracle(a, b):
    level = max(a.level, b.level)
    got = nice_intersect(a, b)
    assert set(got.members()) == brute_members(a, level) & brute_members(b, level)


def test_product_examples():
    c = NiceSet.from_indices(1, [0])
    d = NiceSet.from_indices(1, [1])
    p = nice_product(c, d)
    assert p.level == 2
    assert set(p.members()) == {2}  # word 01: x1=0, x2=1
    assert p.measure() == Fraction(1, 4)

    assert nice_product(NiceSet.full(1), d).measure() == d.measure()

    d2 = NiceSet.from_indices(2, [0, 3])  # {00, 11}
    p2 = nice_product(c, d2)
    # oracle: enumerate level-3 words with x1=0 and (x2,x3) in {00,11}
    expected = {i for i in range(8) if i & 1 == 0 and (i >> 1) in (0, 3)}
    assert set(p2.members()) == expected
    assert p2.measure() == Fraction(1, 2) * Fraction(1, 2)  # 1/2 * 1/2


@given(nice_sets, nice_sets)
def test_product_measure_multiplies(c, d):
    if c.level + d.level <= 12:
        assert nice_product(c, d).measure() == c.measure() * d.measure()


def test_text_round_trip():
    a = NiceSet(2, 0b1010)
    assert NiceSet.from_text(a.text()) == a
    assert NiceSet.from_text("k=2:0xA") == a
    with pytest.raises(ValueError):
        NiceSet.from_text("2:1010")


def test_measure_is_fraction_compatible():
    assert NiceSet(3, 0b10110100).measure() == Fraction(4, 8)
