import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cubechar import (
    Alpha,
    CapExceededError,
    CubePermutation,
    CycleType,
    LevelMismatchError,
    NiceSet,
    PreconditionError,
    ProductFormPermutation,
    all_permutations,
    apply_to_nice,
    block_product,
    char_eval,
    conjugate,
    cycle_string,
    embed_head,
    fixed_fraction,
    flip_perm,
    from_cycles,
    identity,
    odometer,
    parse_permutation,
    random_permutation,
    rep_matrix,
    transposition,
)
from conftest import orbit_lengths, traced_peak


def perms(level):
    return st.permutations(list(range(1 << level))).map(lambda t: CubePermutation(level, t))


# -- basics -------------------------------------------------------------------


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        CubePermutation(1, (0, 0))
    with pytest.raises(ValueError):
        CubePermutation(1, (0,))
    for images in ((2, 0, 3, 3), (2, 0, 3, 4), (2, 0, 3, -1)):
        with pytest.raises(ValueError, match="not a bijection"):
            CubePermutation(2, images)


def test_unchecked_outputs_equal_checked_construction():
    p = CubePermutation(2, (2, 0, 3, 1))
    trusted = [p.compose(p), p.inverse(), conjugate(p, p), block_product(p, p)]
    trusted += [embed_head(p, level) for level in range(2, 6)] + [rep_matrix(p)]
    trusted += [identity(level) for level in range(7)]
    trusted += [q for level in range(3) for q in all_permutations(level)]
    for out in trusted:
        rebuilt = CubePermutation(out.level, out.images)
        assert out == rebuilt and hash(out) == hash(rebuilt)
        assert type(out.images) is tuple
    assert [q.images for q in all_permutations(2)] == list(itertools.permutations(range(4)))


def test_compose_identity_inverse():
    p = CubePermutation(2, (2, 0, 3, 1))
    assert p.compose(identity(2)) == p
    assert p.compose(p.inverse()) == identity(2)
    with pytest.raises(LevelMismatchError):
        p.compose(identity(3))


@given(perms(3), perms(3), perms(3))
def test_compose_associative(p, q, r):
    assert p.compose(q).compose(r) == p.compose(q.compose(r))


def test_odometer_structure():
    assert odometer(1) == transposition(1, 0, 1)
    assert odometer(2).images == (1, 2, 3, 0)
    for n in range(1, 7):
        assert orbit_lengths(odometer(n).images) == [1 << n]
    # full cycle: the 2^n-th power is the first to return to the identity
    od = odometer(3)
    power = od
    for k in range(1, 8):
        assert power != identity(3)
        power = od.compose(power)
    assert power == identity(3)


def test_odometer_square_cycle_type():
    assert odometer(2).compose(odometer(2)).cycle_type() == CycleType.from_lengths([2, 2])


# -- cycle data ---------------------------------------------------------------


def test_cycle_type_examples():
    assert identity(2).cycle_type() == CycleType.from_lengths([1, 1, 1, 1])
    assert odometer(3).cycle_type() == CycleType.from_lengths([8])


@given(perms(3))
def test_cycle_type_matches_orbit_scan(p):
    assert p.cycle_type() == CycleType.from_lengths(orbit_lengths(p.images))


@given(st.integers(0, 3).flatmap(perms))
def test_fixed_point_count_matches_enumerate_count(p):
    assert p.fixed_point_count() == sum(1 for i, v in enumerate(p.images) if v == i)


def test_fixed_set_examples():
    assert fixed_fraction(identity(3)) == Fraction(1)
    t = transposition(3, 0, 5)
    assert fixed_fraction(t) == Fraction(6, 8)
    assert [x for x in range(8) if t(x) == x] == [1, 2, 3, 4, 6, 7]
    assert fixed_fraction(odometer(4)) == Fraction(0)


def test_conjugacy_by_cycle_type_vs_brute_force(s22):
    # brute-force conjugator search over all of S(2^2) as the oracle
    sample = s22[::3]
    for p in sample:
        for q in sample:
            brute = any(conjugate(p, g) == q for g in s22)
            assert (p.cycle_type() == q.cycle_type()) == brute


# -- embeddings ---------------------------------------------------------------


def test_embed_head_examples():
    assert embed_head(identity(1), 3) == identity(3)
    p = CubePermutation(2, (1, 2, 3, 0))
    lifted = embed_head(p, 4)
    assert fixed_fraction(lifted) == fixed_fraction(p)
    assert lifted.cycle_type() == p.cycle_type().scaled(4)
    with pytest.raises(LevelMismatchError):
        embed_head(lifted, 2)


@given(perms(2), st.integers(2, 5))
def test_embed_head_is_homomorphism(p, target):
    q = CubePermutation(2, (3, 1, 0, 2))
    lhs = embed_head(p.compose(q), target)
    rhs = embed_head(p, target).compose(embed_head(q, target))
    assert lhs == rhs


@given(st.integers(0, 3).flatmap(perms), st.integers(0, 6))
def test_embed_head_matches_block_product_oracle(p, target):
    assume(target >= p.level)
    assert embed_head(p, target) == block_product(p, identity(target - p.level))


def test_embed_tail_examples():
    p = CubePermutation(2, (1, 2, 3, 0))
    assert block_product(identity(0), p) == p
    assert fixed_fraction(block_product(identity(2), p)) == fixed_fraction(p)


@given(perms(2), perms(2))
def test_head_and_tail_commute(p, q):
    n = m = 2
    head = embed_head(q, n + m)
    tail = block_product(identity(n), p)
    assert head.compose(tail) == tail.compose(head) == block_product(q, p)


@given(perms(2), perms(2))
def test_embed_tail_is_homomorphism(p, q):
    def tail(x):
        return block_product(identity(1), x)

    assert tail(p.compose(q)) == tail(p).compose(tail(q))


# -- block products -----------------------------------------------------------


def block_product_oracle(factors, z):
    """Split z into the factors' bit fields, apply each factor, reassemble."""
    image, shift = 0, 0
    for p in factors:
        field = (z >> shift) & ((1 << p.level) - 1)
        image |= p(field) << shift
        shift += p.level
    return image


@given(st.lists(st.integers(0, 3).flatmap(perms), max_size=4))
def test_block_product_matches_bit_field_oracle(factors):
    got = block_product(*factors)
    assert got.level == sum(p.level for p in factors)
    assert got.images == tuple(block_product_oracle(factors, z) for z in range(got.size))


def test_block_product_examples():
    p = CubePermutation(2, (1, 2, 3, 0))
    assert block_product() == identity(0)
    assert block_product(p) == p
    assert block_product(p, identity(3)) == embed_head(p, 5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: from_cycles(21, [(0, 1)]),
        lambda: random_permutation(21, random.Random(0)),
        lambda: transposition(21, 0, 1),
        lambda: block_product(identity(11), identity(10)),
        lambda: embed_head(identity(1), 21),
    ],
    ids=["from_cycles", "random_permutation", "transposition", "block_product", "embed_head"],
)
def test_level_cap_is_checked_before_allocation(make):
    _, peak = traced_peak(lambda: pytest.raises(CapExceededError, make))
    assert peak < 1 << 20


@pytest.mark.parametrize("seed", [0, 1, 20240817])
def test_random_permutation_matches_the_checked_constructor(seed):
    """The trusted shuffle gives, draw for draw, the table of the checked
    constructor on the same shuffle: same seeded sequence, same tables."""
    trusted, checked = random.Random(seed), random.Random(seed)
    for level in range(5):
        for _ in range(4):
            s = random_permutation(level, trusted)
            images = list(range(1 << level))
            checked.shuffle(images)
            assert s == CubePermutation(level, images)
            assert type(s.images) is tuple and s.level == level


# -- flips ---------------------------------------------------------------------


def test_flip_examples():
    assert flip_perm(NiceSet.full(2), 3) == identity(3)
    assert flip_perm(NiceSet.empty(1), 1) == transposition(1, 0, 1)
    f = flip_perm(NiceSet.from_indices(1, [0]), 2)
    assert f.cycle_type() == CycleType.from_lengths([2, 1, 1])
    with pytest.raises(PreconditionError):
        flip_perm(NiceSet(2, 0b0110), 2)


@given(st.integers(0, 2).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, (1 << (1 << k)) - 1))), st.integers(3, 5))
def test_flip_is_involution_with_fix_a(pair, m):
    level, mask = pair
    a = NiceSet(level, mask)
    f = flip_perm(a, m)
    assert f.compose(f) == identity(m)
    assert [x for x in range(f.size) if f(x) == x] == list(a.lift(m).members())
    assert fixed_fraction(f) == a.measure()


nice_sets = st.integers(0, 3).flatmap(
    lambda k: st.builds(NiceSet, st.just(k), st.integers(0, (1 << (1 << k)) - 1))
)


@given(nice_sets, st.integers(1, 6))
def test_flip_matches_checked_per_point_oracle(a, m):
    """The mask-bit table equals the checked table of per-point membership
    tests, and is an involution."""
    a_c = a.canonical()
    assume(m > a_c.level)
    lifted = a_c.lift(m)
    bit = 1 << (m - 1)
    oracle = CubePermutation(m, [x if lifted.mask >> x & 1 else x ^ bit for x in range(1 << m)])
    f = flip_perm(a, m)
    assert f == oracle
    assert f.compose(f) == identity(m)


def test_conjugating_flip_moves_the_set():
    a = NiceSet(2, 0b0011)
    for g in (CubePermutation(2, (2, 0, 3, 1)), CubePermutation(2, (1, 0, 3, 2))):
        for m in (3, 4):
            lhs = conjugate(flip_perm(a, m), embed_head(g, m))
            assert lhs == flip_perm(apply_to_nice(g, a), m)


def nice_sets(level):
    return st.integers(0, (1 << (1 << level)) - 1).map(lambda mask: NiceSet(level, mask))


@given(st.integers(0, 3).flatmap(perms), st.integers(0, 3).flatmap(nice_sets))
def test_apply_to_nice_matches_lifted_members_oracle(g, a):
    level = max(g.level, a.level)
    g_lifted = block_product(g, identity(level - g.level))
    oracle = NiceSet.from_indices(level, (g_lifted(i) for i in a.lift(level).members()))
    got = apply_to_nice(g, a)
    assert got.level == level and got.mask == oracle.mask


def test_conjugation_preserves_cycle_type(rng):
    for _ in range(25):
        s = random_permutation(3, rng)
        g = random_permutation(3, rng)
        assert conjugate(s, g).cycle_type() == s.cycle_type()
    assert conjugate(odometer(3), identity(3)) == odometer(3)


@given(st.integers(0, 6).flatmap(lambda level: st.tuples(perms(level), perms(level))))
def test_conjugate_matches_compose_with_inverse(pair):
    s, g = pair
    assert conjugate(s, g) == g.compose(s).compose(g.inverse())


# -- product form ----------------------------------------------------------------


def random_product_form(rng, head_level=2, tail_level=2):
    head = random_permutation(head_level, rng)
    tails = tuple(random_permutation(tail_level, rng) for _ in range(1 << head_level))
    return ProductFormPermutation(head, tail_level, tails)


@st.composite
def product_form_pairs(draw):
    """Two product forms sharing random head (0-2) and tail (0-3) levels."""
    head_level, tail_level = draw(st.integers(0, 2)), draw(st.integers(0, 3))

    def perm(level):
        return CubePermutation(level, draw(st.permutations(range(1 << level))))

    def form():
        tails = [perm(tail_level) for _ in range(1 << head_level)]
        return ProductFormPermutation(perm(head_level), tail_level, tails)

    return form(), form()


@given(product_form_pairs())
def test_product_form_matches_densification(pair):
    """Each of the five shared methods, fixed_fraction and char_eval agree on
    a product form and its dense table."""
    pf, other = pair
    dense = pf.densify()
    assert [pf.apply(z) for z in range(dense.size)] == [dense.apply(z) for z in range(dense.size)]
    assert pf.compose(other).densify() == dense.compose(other.densify())
    assert pf.inverse().densify() == dense.inverse()
    assert pf.cycle_type() == dense.cycle_type()
    assert pf.fixed_point_count() == dense.fixed_point_count()
    assert fixed_fraction(pf) == fixed_fraction(dense)
    for alpha in (Alpha(0), Alpha(2), Alpha.infinity()):
        assert char_eval(alpha, pf) == char_eval(alpha, dense)


def test_product_form_compose_inverse(rng):
    for _ in range(10):
        a = random_product_form(rng)
        b = random_product_form(rng)
        assert a.compose(b).densify() == a.densify().compose(b.densify())
        assert a.inverse().densify() == a.densify().inverse()


def test_product_form_levels_must_match(rng):
    a = random_product_form(rng, tail_level=1)
    b = random_product_form(rng, tail_level=2)
    with pytest.raises(LevelMismatchError):
        a.compose(b)


# -- notation ----------------------------------------------------------------------


def test_parse_table_and_cycles():
    p = parse_permutation("level=2: 1 0 2 3")
    assert p == transposition(2, 0, 1)
    assert parse_permutation("level=2: (0 1)") == p
    assert parse_permutation("identity(3)") == identity(3)
    assert parse_permutation("odometer(2)") == odometer(2)
    assert parse_permutation("e") == identity(1)


def test_cycle_string_round_trip(rng):
    for _ in range(20):
        p = random_permutation(3, rng)
        text = f"level=3: {cycle_string(p)}" if p != identity(3) else "identity(3)"
        assert parse_permutation(text) == p


def test_parse_rejects_garbage():
    for bad in (
        "level=2: 0 0 1 2",
        "level=2: (0)",
        "nope",
        "level=2: (0 1) junk",
        "level=2: (0 5)",
        "level=2: (1 -3)",
    ):
        with pytest.raises(ValueError):
            parse_permutation(bad)


def test_from_cycles_order_convention():
    # (0,1)(1,2) multiplies right-to-left: equals the 3-cycle (0,1,2)
    assert from_cycles(2, [(0, 1), (1, 2)]) == from_cycles(2, [(0, 1, 2)])


def test_sign():
    assert identity(2).sign() == 1
    assert transposition(2, 0, 3).sign() == -1
    assert odometer(2).sign() == -1  # 4-cycle is odd
