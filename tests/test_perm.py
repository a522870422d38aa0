import itertools
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cubechar import (
    CapExceededError,
    CubePermutation,
    CycleType,
    Dyadic,
    LevelMismatchError,
    NiceSet,
    PreconditionError,
    ProductFormPermutation,
    all_permutations,
    apply_to_nice,
    are_conjugate,
    block_product,
    compose,
    conjugate,
    cycle_string,
    cycle_type,
    embed_head,
    fixed_count,
    fixed_fraction,
    fixed_set,
    flip_perm,
    from_cycles,
    identity,
    odometer,
    parse_permutation,
    random_permutation,
    table_string,
    transposition,
    uniform_distance,
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
    trusted = [compose(p, p), p.inverse(), conjugate(p, p), block_product(p, p)]
    trusted += [identity(level) for level in range(7)]
    trusted += [q for level in range(3) for q in all_permutations(level)]
    for out in trusted:
        rebuilt = CubePermutation(out.level, out.images)
        assert out == rebuilt and hash(out) == hash(rebuilt)
        assert type(out.images) is tuple
    assert [q.images for q in all_permutations(2)] == list(itertools.permutations(range(4)))


def test_compose_identity_inverse():
    p = CubePermutation(2, (2, 0, 3, 1))
    assert compose(p, identity(2)) == p
    assert compose(p, p.inverse()) == identity(2)
    with pytest.raises(LevelMismatchError):
        compose(p, identity(3))


@given(perms(3), perms(3), perms(3))
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


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
        power = compose(od, power)
    assert power == identity(3)


def test_odometer_square_cycle_type():
    assert cycle_type(compose(odometer(2), odometer(2))) == CycleType.from_lengths([2, 2])


# -- cycle data ---------------------------------------------------------------


def test_cycle_type_examples():
    assert cycle_type(identity(2)) == CycleType.from_lengths([1, 1, 1, 1])
    assert cycle_type(odometer(3)) == CycleType.from_lengths([8])


@given(perms(3))
def test_cycle_type_matches_orbit_scan(p):
    assert sorted(cycle_type(p).lengths()) == orbit_lengths(p.images)


def test_fixed_set_examples():
    assert fixed_fraction(identity(3)) == Dyadic(1)
    t = transposition(3, 0, 5)
    assert fixed_fraction(t) == Dyadic(6, 3)
    assert fixed_set(t) == frozenset(range(8)) - {0, 5}
    assert fixed_fraction(odometer(4)) == Dyadic(0)


def test_conjugacy_by_cycle_type_vs_brute_force(s22):
    # brute-force conjugator search over all of S(2^2) as the oracle
    sample = s22[::3]
    for p in sample:
        for q in sample:
            brute = any(conjugate(p, g) == q for g in s22)
            assert are_conjugate(p, q) == brute


# -- embeddings ---------------------------------------------------------------


def test_embed_head_examples():
    assert embed_head(identity(1), 3) == identity(3)
    p = CubePermutation(2, (1, 2, 3, 0))
    lifted = embed_head(p, 4)
    assert fixed_fraction(lifted) == fixed_fraction(p)
    assert cycle_type(lifted) == cycle_type(p).scaled(4)
    with pytest.raises(LevelMismatchError):
        embed_head(lifted, 2)


@given(perms(2), st.integers(2, 5))
def test_embed_head_is_homomorphism(p, target):
    q = CubePermutation(2, (3, 1, 0, 2))
    lhs = embed_head(compose(p, q), target)
    rhs = compose(embed_head(p, target), embed_head(q, target))
    assert lhs == rhs


def test_embed_tail_examples():
    p = CubePermutation(2, (1, 2, 3, 0))
    assert block_product(identity(0), p) == p
    assert fixed_fraction(block_product(identity(2), p)) == fixed_fraction(p)


@given(perms(2), perms(2))
def test_head_and_tail_commute(p, q):
    n = m = 2
    head = embed_head(q, n + m)
    tail = block_product(identity(n), p)
    assert compose(head, tail) == compose(tail, head) == block_product(q, p)


@given(perms(2), perms(2))
def test_embed_tail_is_homomorphism(p, q):
    def tail(x):
        return block_product(identity(1), x)

    assert tail(compose(p, q)) == compose(tail(p), tail(q))


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


# -- flips ---------------------------------------------------------------------


def test_flip_examples():
    assert flip_perm(NiceSet.full(2), 3) == identity(3)
    assert flip_perm(NiceSet.empty(1), 1) == transposition(1, 0, 1)
    f = flip_perm(NiceSet.from_indices(1, [0]), 2)
    assert cycle_type(f) == CycleType.from_lengths([2, 1, 1])
    with pytest.raises(PreconditionError):
        flip_perm(NiceSet(2, 0b0110), 2)


@given(st.integers(0, 2).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, (1 << (1 << k)) - 1))), st.integers(3, 5))
def test_flip_is_involution_with_fix_a(pair, m):
    level, mask = pair
    a = NiceSet(level, mask)
    f = flip_perm(a, m)
    assert compose(f, f) == identity(m)
    assert fixed_set(f) == frozenset(a.lift(m).members())
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
    oracle = CubePermutation(m, [x if lifted.contains(x) else x ^ bit for x in range(1 << m)])
    f = flip_perm(a, m)
    assert f == oracle
    assert compose(f, f) == identity(m)


def test_conjugating_flip_moves_the_set():
    a = NiceSet(2, 0b0011)
    for g in (CubePermutation(2, (2, 0, 3, 1)), CubePermutation(2, (1, 0, 3, 2))):
        for m in (3, 4):
            lhs = conjugate(flip_perm(a, m), embed_head(g, m))
            assert lhs == flip_perm(apply_to_nice(g, a), m)


def test_conjugation_preserves_cycle_type(rng):
    for _ in range(25):
        s = random_permutation(3, rng)
        g = random_permutation(3, rng)
        assert cycle_type(conjugate(s, g)) == cycle_type(s)
    assert conjugate(odometer(3), identity(3)) == odometer(3)


# -- metric ---------------------------------------------------------------------


def test_uniform_distance():
    assert uniform_distance(odometer(2), odometer(2)) == Dyadic(0)
    assert uniform_distance(identity(4), transposition(4, 3, 7)) == Dyadic(2, 4)


def test_uniform_distance_triangle(rng):
    for _ in range(40):
        p, q, r = (random_permutation(3, rng) for _ in range(3))
        d = uniform_distance
        assert d(p, r).as_fraction() <= (d(p, q) + d(q, r)).as_fraction()


# -- product form ----------------------------------------------------------------


def random_product_form(rng, head_level=2, tail_level=2):
    head = random_permutation(head_level, rng)
    tails = tuple(random_permutation(tail_level, rng) for _ in range(1 << head_level))
    return ProductFormPermutation(head, tail_level, tails)


def test_product_form_matches_densification(rng):
    for _ in range(20):
        pf = random_product_form(rng)
        dense = pf.densify()
        assert [pf.apply(z) for z in range(1 << pf.level)] == list(dense.images)
        assert pf.fixed_point_count() == fixed_count(dense)
        assert pf.cycle_type() == cycle_type(dense)


def test_product_form_compose_inverse(rng):
    for _ in range(10):
        a = random_product_form(rng)
        b = random_product_form(rng)
        assert a.compose(b).densify() == compose(a.densify(), b.densify())
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
    assert parse_permutation(table_string(p)) == p


def test_cycle_string_round_trip(rng):
    for _ in range(20):
        p = random_permutation(3, rng)
        text = f"level=3: {cycle_string(p)}" if not p.is_identity() else "identity(3)"
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
