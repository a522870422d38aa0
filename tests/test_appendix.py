import pytest

from cubechar import (
    CapExceededError,
    CycleType,
    PreconditionError,
    construct_si,
    embed_head,
    from_cycles,
    identity,
    lemma_g1,
    minimal_level,
    mk_generators,
    odometer,
    random_permutation,
    transposition,
    verify_si_properties,
)
from cubechar.perm import compose_tables, invert_table, table_cycle_lengths
from conftest import traced_peak


# -- lemma pairs -------------------------------------------------------------


def _quotient_lengths(pair) -> list:
    """The sorted cycle lengths of the quotient g1 g2^-1."""
    return sorted(table_cycle_lengths(compose_tables(pair.g1, invert_table(pair.g2))))


def test_lemma_g1_k5():
    pair = lemma_g1(5, 8)
    assert sorted(table_cycle_lengths(pair.g1)) == [1, 1, 1, 5]
    assert sorted(table_cycle_lengths(pair.g2)) == [1, 1, 1, 5]
    assert _quotient_lengths(pair) == [4, 4]

    pair = lemma_g1(5, 6)
    assert _quotient_lengths(pair) == [1, 1, 2, 2]


def test_lemma_g1_k7_and_k9():
    for k in (7, 9):
        big = lemma_g1(k, 2 * k - 2)
        assert _quotient_lengths(big) == [k - 1, k - 1]
        small = lemma_g1(k, 2 * k - 4)
        assert _quotient_lengths(small) == [1, 1, k - 3, k - 3]


def test_lemma_g1_validation():
    with pytest.raises(PreconditionError):
        lemma_g1(4, 6)  # even k
    with pytest.raises(PreconditionError):
        lemma_g1(3, 4)  # too small
    with pytest.raises(PreconditionError):
        lemma_g1(5, 7)  # degree not in the menu


# -- generators on full cubes --------------------------------------------------


def test_mk_generators_even_k():
    gen = mk_generators(2, 2)
    assert gen.g1.cycle_type() == CycleType.from_lengths([2, 2])
    quotient = gen.g1.compose(gen.g2.inverse())
    assert quotient.cycle_type() == CycleType.from_lengths([2, 2])


def test_mk_generators_k3():
    gen = mk_generators(3, 2)
    assert gen.g1.cycle_type() == CycleType.from_lengths([3, 1])
    assert gen.g2.cycle_type() == CycleType.from_lengths([3, 1])
    quotient = gen.g1.compose(gen.g2.inverse())
    assert quotient.cycle_type() == CycleType.from_lengths([2, 2])


def test_mk_generators_k5_decomposition():
    gen = mk_generators(5, 5)
    assert gen.block_decomposition == (4, 1)  # 2^5 = 6*4 + 8*1
    lengths = set(table_cycle_lengths(gen.g1.images))
    assert lengths <= {1, 5}


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_mk_generators_invariants_at_minimal_level(k):
    gen = mk_generators(k, minimal_level(k))  # constructor validates eagerly
    for g in (gen.g1, gen.g2):
        assert all(k % c == 0 for c in table_cycle_lengths(g.images))


def test_mk_generators_level_checks():
    with pytest.raises(PreconditionError):
        mk_generators(5, 4)  # below M(5) = 5
    with pytest.raises(PreconditionError):
        mk_generators(2, 1)


def test_decomposition_exists_for_all_feasible_levels():
    for k in (5, 7, 9):
        for m in range(k, k + 3):
            mk_generators(k, m)  # would raise FalsificationError if the scan failed


# -- the s_a families ------------------------------------------------------------


def test_family_size_and_level():
    s = transposition(1, 0, 1)
    fam = construct_si(s, 1)
    assert len(fam) == 2
    assert fam.level == 1 + 2 * 1  # ord 2 everywhere moved, M(2) = 2
    fam = construct_si(s, 2)
    assert len(fam) == 4 and fam.level == 5


def test_family_matches_case_formula(rng):
    # pointwise: (x, y) -> (x, y) on Fix(s), else (s(x), g_a(y))
    s = odometer(2)
    fam = construct_si(s, 1)
    m = fam.tail_block_level
    gens = {1: fam.generators[4].g1, 2: fam.generators[4].g2}
    for label, member in zip([(1,), (2,)], fam):
        for z in range(1 << member.level):
            x, y = z & 3, z >> 2
            got = member.apply(z)
            expected = s.images[x] | (gens[label[0]].images[y] << 2)
            assert got == expected


def test_identity_head_is_vacuous():
    fam = construct_si(identity(2), 2)
    assert len(fam) == 4
    for member in fam:
        assert member.densify() == identity(2)
    report = verify_si_properties(identity(2), fam)
    assert report.ok


def test_r_zero_edge_case():
    s = odometer(2)
    fam = construct_si(s, 0)
    assert len(fam) == 1
    assert fam[0].densify() == s
    report = verify_si_properties(s, fam)
    assert report.ok


@pytest.mark.parametrize("r", [1, 2])
def test_families_verify_for_small_orders(rng, r):
    heads = [transposition(1, 0, 1), odometer(2), random_permutation(2, rng)]
    for s in heads:
        fam = construct_si(s, r)
        assert len(fam) == 1 << r
        report = verify_si_properties(s, fam)
        assert report.ok, report.to_json_dict()
        # product form agrees with dense tables at these levels
        for member in fam:
            dense = member.densify()
            assert dense.cycle_type() == member.cycle_type()
            assert member.fixed_point_count() == dense.fixed_point_count()


def test_family_conjugate_to_lifted_head():
    s = transposition(1, 0, 1)
    fam = construct_si(s, 1)
    lifted = embed_head(s, fam.level)
    for member in fam:
        assert member.cycle_type() == lifted.cycle_type()


def test_verifier_flags_tampered_families():
    s = odometer(2)
    fam = list(construct_si(s, 1))
    # swap in a member built from the wrong head: conjugacy must fail
    other = construct_si(transposition(2, 0, 1), 1)
    report = verify_si_properties(s, [fam[0], other[0]])
    assert not report.ok


def test_five_cycles_expose_the_fixed_point_gap():
    """Heads with 5-cycles route through 2k-4 = 6-point blocks whose quotient
    keeps two fixed points, so the quotient fixes extra points beyond
    Fix(s) x tail.  The verifier must report this honestly rather than
    declare the family valid: conjugacy and even-cycle properties hold, the
    fixed-set property does not."""
    s = from_cycles(3, [(0, 1, 2, 3, 4)])
    fam = construct_si(s, 1)
    assert fam.generators[5].block_decomposition == (4, 1)
    report = verify_si_properties(s, fam)
    assert not report.ok
    assert not report.conjugacy_failures
    assert not report.even_failures
    assert report.fix_failures


# -- work caps -----------------------------------------------------------------------


def test_construct_si_cap_edge():
    """2^r members, each with one 2^(m r)-entry tail table per distinct moved
    cycle length: 2^20 entries in all build, one table more raises first."""
    lengths_2346 = [(0, 1), (2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12, 13, 14)]
    fam = construct_si(from_cycles(4, lengths_2346), 6)  # 2^6 x 4 x 2^12 = 2^20
    assert len(fam) == 64 and fam.level == 4 + 2 * 6
    lengths_23468 = lengths_2346 + [tuple(range(15, 23))]
    _, peak = traced_peak(
        lambda: pytest.raises(CapExceededError, construct_si, from_cycles(5, lengths_23468), 6)
    )
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "cycles, level, r_ok",
    [([(0, 1)], 1, 6), ([(0, 1, 2, 3, 4)], 3, 3), ([tuple(range(9))], 4, 2)],
    ids=["transposition", "5-cycle", "9-cycle"],
)
def test_construct_si_cap_by_repeats(cycles, level, r_ok):
    head = from_cycles(level, cycles)
    assert len(construct_si(head, r_ok)) == 1 << r_ok
    _, peak = traced_peak(lambda: pytest.raises(CapExceededError, construct_si, head, r_ok + 1))
    assert peak < 1 << 20


def test_construct_si_cap_before_any_table():
    """The head (0 1) at r = 10 passes the level cap (tail level 20), but
    would build 1024 tables of 2^20 entries."""
    _, peak = traced_peak(
        lambda: pytest.raises(CapExceededError, construct_si, transposition(1, 0, 1), 10)
    )
    assert peak < 1 << 20


def test_verify_si_pair_cap_edge():
    """(family size)^2 x head points: 2^20 verify, and one doubling more raises
    before the first pair."""
    head = identity(10)
    assert verify_si_properties(head, construct_si(head, 5)).ok  # 32^2 x 2^10
    family = construct_si(head, 6)
    _, peak = traced_peak(
        lambda: pytest.raises(CapExceededError, verify_si_properties, head, family)
    )
    assert peak < 1 << 16


def test_verify_si_entry_cap_edge():
    """(family size)^2 x head points x 2^tail_level tail entries: (0 1) at
    level 2, r = 5 (2^22) verifies; at level 3 (2^23) it raises before the
    first pair, though the head-point cap passes it."""
    head = from_cycles(2, [(0, 1)])
    assert verify_si_properties(head, construct_si(head, 5)).ok
    head = from_cycles(3, [(0, 1)])
    family = construct_si(head, 5)
    _, peak = traced_peak(
        lambda: pytest.raises(CapExceededError, verify_si_properties, head, family)
    )
    assert peak < 1 << 16


def test_mk_generators_checks_the_level_cap_first():
    _, peak = traced_peak(lambda: pytest.raises(CapExceededError, mk_generators, 21, 21))
    assert peak < 1 << 20
