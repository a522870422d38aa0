"""Explicit combinatorial constructions: cycle pairs whose quotient has even
cycles, their assembly on full cubes, and the conjugate families s_a used to
force orthogonality.

All permutations here are 0-based.  Small non-cube degrees (the 2k-2 and
2k-4 blocks) are plain image tables; assembled generators are CubePermutations
and the s_a family is kept in product form so its level may exceed the dense
cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import caps
from .errors import FalsificationError, PreconditionError
from .perm import (
    CubePermutation,
    ProductFormPermutation,
    block_product,
    compose_tables,
    identity,
    invert_table,
    table_cycle_lengths,
    table_cycles,
    table_from_cycles,
)


def _odd_quotient_cycles(g1, g2) -> list:
    """The odd cycle lengths other than 1 of g1 g2^-1, for image tables."""
    return [c for c in table_cycle_lengths(compose_tables(g1, invert_table(g2))) if c != 1 and c % 2]


@dataclass(frozen=True)
class CyclePair:
    """Two degree-l permutations, each with cycles of length k or 1 only,
    whose quotient g1 g2^-1 has only even cycles and fixed points."""

    k: int
    degree: int
    g1: tuple
    g2: tuple

    def __post_init__(self):
        odd = _odd_quotient_cycles(self.g1, self.g2)
        for g, name in ((self.g1, "g1"), (self.g2, "g2")):
            bad = [c for c in table_cycle_lengths(g) if c not in (1, self.k)]
            if bad:
                raise FalsificationError(f"{name} has cycle lengths {bad}, not {{1, {self.k}}}")
        if odd:
            raise FalsificationError(f"quotient has odd cycle lengths {odd}")


def lemma_g1(k: int, degree: int) -> CyclePair:
    """The explicit k-cycle pairs on 2k-2 or 2k-4 points (k odd, k > 4).

    For degree 2k-2 the quotient is two (k-1)-cycles; for degree 2k-4 it is
    two (k-3)-cycles plus two fixed points.
    """
    if k <= 4 or k % 2 == 0:
        raise PreconditionError("k must be odd and greater than 4")
    if degree not in (2 * k - 2, 2 * k - 4):
        raise PreconditionError(f"degree must be {2 * k - 2} or {2 * k - 4}")
    g1 = table_from_cycles(degree, [tuple(range(k))])
    if degree == 2 * k - 2:
        # (2k-2, 2k-3, ..., k-1) in 1-based labels
        g2 = table_from_cycles(degree, [tuple(range(2 * k - 3, k - 3, -1))])
    else:
        # (2k-4,2k-5)(2k-5,2k-6)...(k+1,k) x (k-3,k-2)(k-2,k-1)(k-1,k), 1-based
        pairs = [(i, i - 1) for i in range(2 * k - 5, k - 1, -1)]
        pairs += [(k - 4, k - 3), (k - 3, k - 2), (k - 2, k - 1)]
        g2 = table_from_cycles(degree, pairs)
    return CyclePair(k, degree, g1, g2)


@dataclass(frozen=True)
class MkGenerators:
    """A pair g1, g2 in S(2^m) with cycle lengths dividing k and an
    even-or-fixed quotient."""

    k: int
    m: int
    g1: CubePermutation
    g2: CubePermutation
    block_decomposition: tuple | None = None  # (count_2k_minus_4, count_2k_minus_2)

    def __post_init__(self):
        for g, name in ((self.g1, "g1"), (self.g2, "g2")):
            bad = [c for c in table_cycle_lengths(g.images) if self.k % c]
            if bad:
                raise FalsificationError(f"{name} has cycle lengths {bad} not dividing {self.k}")
        bad = _odd_quotient_cycles(self.g1.images, self.g2.images)
        if bad:
            raise FalsificationError(f"g1 g2^-1 has odd cycle lengths {bad}")


def minimal_level(k: int) -> int:
    """Least m for which mk_generators(k, m) is defined."""
    if k == 1:
        return 0
    if k % 2 == 0 or k == 3:
        return 2
    return k


def _block_decomposition(k: int, m: int) -> tuple:
    """Non-negative (l, r) with (2k-4) l + (2k-2) r = 2^m, smallest r first."""
    size = 1 << m
    small, big = 2 * k - 4, 2 * k - 2
    r = 0
    while big * r <= size:
        rem = size - big * r
        if rem % small == 0:
            return rem // small, r
        r += 1
    raise FalsificationError(
        f"no decomposition 2^{m} = {small}*l + {big}*r with l, r >= 0"
    )


def mk_generators(k: int, m: int) -> MkGenerators:
    """Generators on the full level-m cube, by the case analysis on k.

    Even k: the two coordinate flips.  k = 3: the explicit 3-cycle pair on
    the first two coordinates.  Odd k > 4: the cube is split into blocks of
    sizes 2k-4 and 2k-2 carrying lemma_g1 pairs.
    """
    if k < 1:
        raise PreconditionError("k must be positive")
    if m < minimal_level(k):
        raise PreconditionError(f"level {m} below minimal level {minimal_level(k)} for k={k}")
    caps.LEVEL.check(m)
    size = 1 << m
    if k == 1:
        e = identity(m)
        return MkGenerators(k, m, e, e)
    if k % 2 == 0:
        g1 = CubePermutation(m, (x ^ 1 for x in range(size)))
        g2 = CubePermutation(m, (x ^ 2 for x in range(size)))
        return MkGenerators(k, m, g1, g2)
    if k == 3:
        # (1,2)(2,3) and (4,3)(3,2) on the first four points, 1-based
        g1 = table_from_cycles(size, [(0, 1), (1, 2)])
        g2 = table_from_cycles(size, [(3, 2), (2, 1)])
        return MkGenerators(k, m, CubePermutation(m, g1), CubePermutation(m, g2))
    l_count, r_count = _block_decomposition(k, m)
    tables = ([0] * size, [0] * size)
    offset = 0
    for block_size, count in ((2 * k - 4, l_count), (2 * k - 2, r_count)):
        if count == 0:
            continue
        pair = lemma_g1(k, block_size)
        for _ in range(count):
            for local, img in enumerate(pair.g1):
                tables[0][offset + local] = offset + img
            for local, img in enumerate(pair.g2):
                tables[1][offset + local] = offset + img
            offset += block_size
    return MkGenerators(
        k,
        m,
        CubePermutation(m, tables[0]),
        CubePermutation(m, tables[1]),
        block_decomposition=(l_count, r_count),
    )


class SiFamily(tuple):
    """The 2^r permutations s_a in product form, plus construction metadata."""

    def __new__(cls, members, head, tail_block_level, repeats, generators):
        self = super().__new__(cls, members)
        self.head = head
        self.tail_block_level = tail_block_level
        self.repeats = repeats
        self.generators = generators
        return self

    @property
    def level(self) -> int:
        return self.head.level + self.tail_block_level * self.repeats


def construct_si(s: CubePermutation, r: int) -> SiFamily:
    """For each a in {1,2}^r, the permutation acting as s on the head and as
    the a-indexed generator product on the tail fibers of moved points.

    Every member is conjugate to the head lifted to the full level; tail
    actions depend only on the cycle length of the moved head point.

    Each of the 2^r members builds one 2^(m r)-entry tail table per distinct
    moved cycle length; past the SI_TABLES cap on their entries in all
    (counting at least one table per member), CapExceededError is raised
    before anything is built.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    orders = {}
    for cyc in table_cycles(s.images):
        for x in cyc:
            orders[x] = len(cyc)
    moved_lengths = sorted({k for k in orders.values() if k > 1})
    m = max((minimal_level(k) for k in moved_lengths), default=0)
    tables = max(1, len(moved_lengths))
    caps.SI_TABLES.check(caps.log2_ceil(tables) + r * (m + 1))
    generators = {k: mk_generators(k, m) for k in moved_lengths}

    tail_level = m * r
    id_tail = identity(tail_level)

    members = []
    for a in product((1, 2), repeat=r):
        cache = {}
        for k in moved_lengths:
            gens = {1: generators[k].g1, 2: generators[k].g2}
            cache[k] = block_product(*(gens[c] for c in a))
        tails = tuple(
            cache[orders[x]] if orders[x] > 1 else id_tail for x in range(s.size)
        )
        members.append(ProductFormPermutation(s, tail_level, tails))
    return SiFamily(members, s, m, r, generators)


@dataclass(frozen=True)
class SiVerification:
    """Outcome of checking the claimed properties of an s_a family."""

    level: int
    family_size: int
    conjugacy_failures: tuple
    fix_failures: tuple
    even_failures: tuple
    strong_12_form: bool  # do all quotients have cycles of length 1 and 2 only

    @property
    def ok(self) -> bool:
        return not (self.conjugacy_failures or self.fix_failures or self.even_failures)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "family_size": self.family_size,
            "conjugate_to_head": not self.conjugacy_failures,
            "conjugacy_failures": list(self.conjugacy_failures),
            "fix_equals_head_fix": not self.fix_failures,
            "fix_failures": list(self.fix_failures),
            "quotients_even_or_fixed": not self.even_failures,
            "even_failures": list(self.even_failures),
            "quotients_are_1_2_only": self.strong_12_form,
            "ok": self.ok,
        }


def verify_si_properties(s: CubePermutation, family) -> SiVerification:
    """Check the three claimed properties of the family, pair by pair.

    (1) each member is conjugate to s lifted to the family level;
    (2) Fix(s_i) and every Fix(s_i s_j^-1) equal Fix(s) x (full tail);
    (3) every quotient s_i s_j^-1 has only even cycles and fixed points.

    Failures are collected, never raised: the report names the offending
    member or pair and the cycle data that breaks the property.  Past the
    SI_PAIRS cap on (family size)^2 x head points, or the SI_PAIR_ENTRIES cap
    on those times 2^tail_level tail entries, CapExceededError comes first.
    """
    family = list(family)
    if not family:
        raise ValueError("empty family")
    log2_points, tail_level = caps.log2_ceil(len(family) ** 2 * s.size), family[0].tail_level
    caps.SI_PAIRS.check(log2_points)
    caps.SI_PAIR_ENTRIES.check(log2_points + tail_level)
    expected_type = s.cycle_type().scaled(1 << tail_level)
    expected_counts = tuple((1 << tail_level) if s(x) == x else 0 for x in range(s.size))

    def broken_fibers(perm) -> list:
        """Head points whose fibre breaks Fix(perm) = Fix(s) x (full tail)."""
        counts = perm.fiber_fixed_counts()
        return [x for x in range(s.size) if counts[x] != expected_counts[x]]

    conj_failures = []
    fix_failures = []
    even_failures = []
    strong = True

    for i, member in enumerate(family):
        got = member.cycle_type()
        if got != expected_type:
            conj_failures.append((i, str(got), str(expected_type)))
        bad = broken_fibers(member)
        if bad:
            fix_failures.append((i, i, f"fibers {bad} break Fix(s_i) = Fix(s) x tail"))

    inverses = [member.inverse() for member in family]
    for i, member in enumerate(family):
        for j, inverse in enumerate(inverses):
            if i == j:
                continue
            quotient = member.compose(inverse)
            bad = broken_fibers(quotient)
            if bad:
                fix_failures.append(
                    (i, j, f"fibers {bad} break Fix(s_i s_j^-1) = Fix(s) x tail")
                )
            qtype = quotient.cycle_type()
            odd = [length for length, _ in qtype.counts if length != 1 and length % 2]
            if odd:
                even_failures.append((i, j, f"odd cycle lengths {odd}"))
            if any(length > 2 for length, _ in qtype.counts):
                strong = False

    return SiVerification(
        level=family[0].level,
        family_size=len(family),
        conjugacy_failures=tuple(conj_failures),
        fix_failures=tuple(fix_failures),
        even_failures=tuple(even_failures),
        strong_12_form=strong,
    )
