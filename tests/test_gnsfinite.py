from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubechar import (
    Alpha,
    CapExceededError,
    CubePermutation,
    CycleType,
    NiceSet,
    PreconditionError,
    block_product,
    char_power,
    embed_head,
    fixed_fraction,
    gnsfinite,
    identity,
    matrix_character,
    odometer,
    projection_bases,
    projection_identity_checks,
    random_permutation,
    rep_matrix,
    scan_is_constant,
    tensor_character,
    transposition,
    weighted_inner,
    xi_vector,
)
from cubechar.gnsfinite import TENSOR_DIM_CAP_BITS, _diagonal_form
from cubechar.verify import _PROJECTION_CATALOG
from conftest import traced_peak


def test_rep_is_identity_on_identity():
    r = rep_matrix(identity(2))
    assert r.images == tuple(range(16))


def test_rep_is_the_head_embedding(s22, rng):
    for s in s22 + [random_permutation(3, rng) for _ in range(10)]:
        assert rep_matrix(s) == embed_head(s, 2 * s.level)


@given(
    st.integers(0, 3).flatmap(
        lambda n: st.permutations(range(1 << n)).map(lambda t: CubePermutation(n, t))
    )
)
def test_rep_matrix_matches_block_product_oracle(s):
    assert rep_matrix(s) == block_product(s, identity(s.level))


def test_rep_homomorphism_exhaustive_level1():
    from cubechar import all_permutations

    group = list(all_permutations(1))
    for s in group:
        for t in group:
            assert rep_matrix(s.compose(t)) == rep_matrix(s).compose(rep_matrix(t))


def test_rep_homomorphism_random_level2(rng, s22):
    for _ in range(30):
        s = random_permutation(2, rng)
        t = random_permutation(2, rng)
        assert rep_matrix(s.compose(t)) == rep_matrix(s).compose(rep_matrix(t))
        assert rep_matrix(s).compose(rep_matrix(s.inverse())) == identity(4)


def test_rep_of_odometer_has_order_four():
    assert rep_matrix(odometer(2)).cycle_type() == CycleType.from_counts({4: 4})


@pytest.mark.parametrize(
    "make", [lambda: rep_matrix(identity(11)), lambda: xi_vector(11)], ids=["rep_matrix", "xi_vector"]
)
def test_rep_cap_is_checked_before_allocation(make):
    _, peak = traced_peak(lambda: pytest.raises(CapExceededError, make))
    assert peak < 1 << 20


def test_xi_is_a_unit_vector():
    for n in range(1, 5):
        xi = xi_vector(n)
        assert weighted_inner(xi, xi, n) == Fraction(1)


def test_matrix_character_examples(s22):
    assert matrix_character(identity(3)) == Fraction(1)
    assert matrix_character(odometer(3)) == Fraction(0)
    for s in s22:
        assert matrix_character(s) == fixed_fraction(s)


def test_matrix_character_random_level3(rng):
    for _ in range(50):
        s = random_permutation(3, rng)
        assert matrix_character(s) == fixed_fraction(s)


def test_level_inclusion_consistency(rng):
    # the level-(n+1) truncation restricted to level-n elements agrees
    for _ in range(20):
        s = random_permutation(2, rng)
        assert matrix_character(embed_head(s, 3)) == matrix_character(s)


# -- tensor powers ---------------------------------------------------------------


def test_tensor_examples():
    t1 = transposition(1, 0, 1)
    assert tensor_character(t1, 1) == matrix_character(t1)
    assert tensor_character(t1, 2) == Fraction(0)
    s = transposition(2, 1, 3)  # fixed fraction 1/2
    assert tensor_character(s, 3) == Fraction(1, 8)  # explicit at dimension 4096


def _diagonal_form_oracle(rep, xi):
    """The full sum over all 4^n basis points, zero terms included."""
    return Fraction(sum(v * xi[w] for v, w in zip(xi, rep.images)), 1 << rep.level // 2)


@given(
    st.integers(1, 2).flatmap(
        lambda n: st.permutations(range(1 << n)).map(lambda t: CubePermutation(n, t))
    ),
    st.integers(1, 3),
)
def test_diagonal_form_matches_full_sum(s, k):
    rep, xi = rep_matrix(s), xi_vector(s.level)
    assert _diagonal_form(rep, xi) == _diagonal_form_oracle(rep, xi)
    xi_k = [1]
    for _ in range(k):
        xi_k = [a * b for b in xi for a in xi_k]
    rep_k = block_product(*[rep] * k)
    assert _diagonal_form(rep_k, xi_k) == _diagonal_form_oracle(rep_k, xi_k)


def test_tensor_cap():
    """Past the explicit-build cap the tensor power is refused, not replaced
    by the product formula it is checked against."""
    assert tensor_character(odometer(3), 2) == Fraction(0)  # 4^6 = 2^12 basis points
    for level, k in ((4, 2), (2, 4), (8, 1)):
        with pytest.raises(CapExceededError, match="cap"):
            tensor_character(odometer(level), k)


def test_tensor_matches_power(rng):
    for _ in range(10):
        s = random_permutation(2, rng)
        for k in (1, 2, 3):
            assert tensor_character(s, k) == matrix_character(s) ** k


def test_tensor_cache_matches_power_and_stays_under_the_cap(s22, rng):
    """tensor_character reads xi^(x)k from its cache: the characters still
    equal the product formula, every cached key fits the cap, every value is
    the tuple of the explicit tensor power, and an over-cap k adds nothing."""
    for s in s22:
        for k in (1, 2, 3):
            assert tensor_character(s, k) == matrix_character(s) ** k
    for _ in range(10):
        s = random_permutation(3, rng)
        for k in (1, 2):
            assert tensor_character(s, k) == matrix_character(s) ** k
    cache = gnsfinite._XI_POWERS
    assert {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)} <= cache.keys()
    for (level, k), xi_k in cache.items():
        assert 2 * level * k <= TENSOR_DIM_CAP_BITS
        expected = [1]
        for _ in range(k):
            expected = [a * b for b in xi_vector(level) for a in expected]
        assert type(xi_k) is tuple and xi_k == tuple(expected)
    keys = set(cache)
    _, peak = traced_peak(lambda: pytest.raises(CapExceededError, tensor_character, odometer(3), 3))
    assert peak < 1 << 16
    assert set(cache) == keys


# -- stabilization ------------------------------------------------------------------


def test_stabilization_examples():
    e = identity(1)
    half = NiceSet.from_indices(1, [0])
    values = [char_power(Alpha(2), b) for b in gnsfinite.stabilization_bases(e, e, half, [2, 3, 4, 5])]
    assert scan_is_constant(values)
    assert values[0] == Fraction(1, 2) ** 2

    full = NiceSet.full(1)
    g = odometer(2)
    values = [char_power(Alpha(1), b) for b in gnsfinite.stabilization_bases(g, g, full, [3, 4, 5])]
    assert scan_is_constant(values)
    assert values[0] == Fraction(1)  # flip is the identity, g^-1 g = e


def test_stabilization_random(rng):
    a = NiceSet.from_indices(1, [1])
    for alpha in (Alpha(1), Alpha(2), Alpha(Fraction(3, 2))):
        for _ in range(10):
            g1 = random_permutation(2, rng)
            g2 = random_permutation(2, rng)
            values = [char_power(alpha, b) for b in gnsfinite.stabilization_bases(g1, g2, a, range(3, 7))]
            assert scan_is_constant(values)


def test_stabilization_preconditions():
    e = identity(2)
    with pytest.raises(PreconditionError):
        gnsfinite.stabilization_bases(e, e, NiceSet.full(1), [2])  # m not above level
    with pytest.raises(PreconditionError):
        gnsfinite.stabilization_bases(e, e, NiceSet.full(1), [])


# -- projection identities -------------------------------------------------------------


def test_projection_identities_examples():
    half = NiceSet.from_indices(1, [0])
    other = NiceSet.from_indices(1, [1])

    assert projection_identity_checks(Alpha(1), projection_bases(half, half, half, other)) == ()  # idempotent

    bases = projection_bases(half, other, half, other)
    assert projection_identity_checks(Alpha(1), bases) == ()
    assert str(char_power(Alpha(1), bases[0])) == "0"  # disjoint halves

    assert projection_identity_checks(Alpha(2), bases) == ()
    assert str(char_power(Alpha(2), bases[2])) == "1/16"  # (1/4)^2


def test_projection_identities_real_alpha():
    a = NiceSet(2, 0b0111)
    b = NiceSet(2, 0b1010)
    assert projection_identity_checks(Alpha(Fraction(3, 2)), projection_bases(a, b, a, b)) == ()


def test_projection_identities_name_each_failure():
    """A failing identity is named with the two values it compared."""
    half = NiceSet.from_indices(1, [0])
    composite, meet, product, c, d, small, large = projection_bases(half, half, half, half)
    wrong = (composite, Fraction(1), Fraction(1, 8), c, d, small, large)
    assert projection_identity_checks(Alpha(2), wrong) == (
        "intersection: 1/4 != 1",
        "product: 1/64 != 1/16",
    )
    wrong = (composite, meet, product, c, d, Fraction(1), Fraction(1, 2))
    assert projection_identity_checks(Alpha(2), wrong) == ("monotone: 1 > 1/4",)
    assert projection_identity_checks(Alpha(Fraction(3, 2)), wrong) == ()


@pytest.mark.parametrize("name, a, b", _PROJECTION_CATALOG, ids=[e[0] for e in _PROJECTION_CATALOG])
def test_shared_projection_bases_serve_every_exponent(name, a, b):
    """On each criterion-4 catalog entry, the reports from one shared
    `projection_bases` equal reports built fresh for each exponent."""
    shared = projection_bases(a, b, a, b)
    for alpha in (Alpha(0), Alpha(1), Alpha(2), Alpha(3), Alpha.infinity(), Alpha(Fraction(3, 2))):
        fresh = projection_identity_checks(alpha, projection_bases(a, b, a, b))
        assert projection_identity_checks(alpha, shared) == fresh
    assert shared == projection_bases(a, b, a, b)
