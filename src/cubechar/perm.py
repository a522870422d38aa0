"""Permutations of the level-n cube and the tower structure.

Composition order is function composition throughout: p.compose(q) applies
q first.  Products of cycles written left to right therefore apply right to
left, matching the usual convention (1,2)(2,3) = (1,2,3).

Permutations at different levels are never implicitly compatible; lift with
embed_head, or place them on disjoint blocks of coordinates with
block_product, before combining.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .cube import NiceSet, check_level_cap
from .errors import LevelMismatchError, PreconditionError

# ---------------------------------------------------------------------------
# plain image-table helpers, shared with the small non-cube permutations of
# the appendix module


def is_permutation_table(images) -> bool:
    n = len(images)
    seen = bytearray(n)
    for v in images:
        if not 0 <= v < n or seen[v]:
            return False
        seen[v] = 1
    return True


def compose_tables(p, q) -> tuple:
    """Image table of p after q (q applies first)."""
    if len(p) != len(q):
        raise LevelMismatchError("tables have different sizes")
    return tuple(map(p.__getitem__, q))


def invert_table(p) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def table_cycles(p) -> list:
    """Cycles of an image table, each a tuple starting at its least point."""
    seen = bytearray(len(p))
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = 1
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = 1
            nxt = p[nxt]
        cycles.append(tuple(cyc))
    return cycles


def table_cycle_lengths(p) -> list:
    seen = bytearray(len(p))
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 1
        seen[start] = 1
        nxt = p[start]
        while nxt != start:
            length += 1
            seen[nxt] = 1
            nxt = p[nxt]
        lengths.append(length)
    return lengths


def table_from_cycles(size: int, cycles) -> tuple:
    """Image table of a product of cycles over [0, size), rightmost applied
    first; each cycle needs at least two distinct points in [0, size)
    (ValueError), and is composed in place on its own points only."""
    images = list(range(size))
    for cyc in cycles:
        bad = [x for x in cyc if not 0 <= x < size]
        if bad:
            raise ValueError(f"cycle points {bad} outside [0, {size})")
        if len(cyc) < 2:
            raise ValueError("cycles need at least two points")
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"repeated point in cycle {tuple(cyc)}")
        moved = [images[x] for x in cyc]
        for x, v in zip(cyc, moved[1:] + moved[:1]):
            images[x] = v
    return tuple(images)


def permutation_sign(images) -> int:
    """(-1)**(n - number of cycles)."""
    return -1 if (len(images) - len(table_cycle_lengths(images))) % 2 else 1


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths, stored as (length, multiplicity) pairs."""

    counts: tuple

    @classmethod
    def from_lengths(cls, lengths) -> "CycleType":
        tally = {}
        for length in lengths:
            tally[length] = tally.get(length, 0) + 1
        return cls(tuple(sorted(tally.items())))

    @classmethod
    def from_counts(cls, tally: dict) -> "CycleType":
        items = tuple(sorted((k, v) for k, v in tally.items() if v))
        return cls(items)

    def scaled(self, factor: int) -> "CycleType":
        return CycleType(tuple((k, v * factor) for k, v in self.counts))

    def __str__(self):
        return " ".join(f"{k}^{v}" if v > 1 else str(k) for k, v in self.counts) or "-"


class CubePermutation:
    """A bijection of X_n stored as a dense image table."""

    __slots__ = ("level", "images")

    def __init__(self, level: int, images):
        check_level_cap(level)
        images = tuple(images)
        if len(images) != 1 << level:
            raise ValueError(f"expected {1 << level} images, got {len(images)}")
        if not is_permutation_table(images):
            raise ValueError("image table is not a bijection")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("CubePermutation is immutable")

    def apply(self, index: int) -> int:
        return self.images[index]

    __call__ = apply

    def __eq__(self, other):
        if not isinstance(other, CubePermutation):
            return NotImplemented
        return self.level == other.level and self.images == other.images

    def __hash__(self):
        return hash((self.level, self.images))

    def __repr__(self):
        return f"CubePermutation(level={self.level}, {cycle_string(self)})"

    @property
    def size(self) -> int:
        return 1 << self.level

    def compose(self, other: "CubePermutation") -> "CubePermutation":
        """self after other: (p.compose(q))(x) = p(q(x))."""
        if self.level != other.level:
            raise LevelMismatchError(f"levels {self.level} and {other.level}; lift explicitly first")
        return _trusted_permutation(self.level, compose_tables(self.images, other.images))

    def inverse(self) -> "CubePermutation":
        return _trusted_permutation(self.level, invert_table(self.images))

    def cycle_type(self) -> CycleType:
        return CycleType.from_lengths(table_cycle_lengths(self.images))

    def fixed_point_count(self) -> int:
        return sum(map(operator.eq, self.images, range(self.size)))

    def sign(self) -> int:
        return permutation_sign(self.images)


#: the slots' own setters, which bypass CubePermutation.__setattr__
_set_level = CubePermutation.level.__set__
_set_images = CubePermutation.images.__set__


def _trusted_permutation(level: int, images: tuple) -> CubePermutation:
    """A CubePermutation from a tuple that is a bijection of X_level by
    construction (a composite, inverse, block product or head embedding of
    permutations, the identity, a row of itertools.permutations, a flip, a
    shuffled range), so the constructor's cap and bijectivity checks are
    skipped; a caller that makes a new level checks the cap itself."""
    p = object.__new__(CubePermutation)
    _set_level(p, level)
    _set_images(p, images)
    return p


def identity(level: int) -> CubePermutation:
    check_level_cap(level)
    return _trusted_permutation(level, tuple(range(1 << level)))


def odometer(level: int) -> CubePermutation:
    """Add one with carry to the right, wrapping at the all-ones word."""
    if level < 1:
        raise ValueError("odometer needs level >= 1")
    size = 1 << level
    return CubePermutation(level, ((i + 1) % size for i in range(size)))


def transposition(level: int, a: int, b: int) -> CubePermutation:
    return from_cycles(level, [(a, b)])


def from_cycles(level: int, cycles) -> CubePermutation:
    check_level_cap(level)
    return CubePermutation(level, table_from_cycles(1 << level, cycles))


def random_permutation(level: int, rng) -> CubePermutation:
    check_level_cap(level)
    images = list(range(1 << level))
    rng.shuffle(images)
    return _trusted_permutation(level, tuple(images))


def all_permutations(level: int):
    """Iterate S(2^level) in lexicographic table order; only sane for level <= 2."""
    check_level_cap(level)
    for images in itertools.permutations(range(1 << level)):
        yield _trusted_permutation(level, images)


def conjugate(s: CubePermutation, g: CubePermutation) -> CubePermutation:
    """g s g^-1, which maps g(x) to g(s(x)): one pass over x fills the
    table at g(x), with no inverse of g."""
    if s.level != g.level:
        raise LevelMismatchError(f"levels {s.level} and {g.level}; lift explicitly first")
    gi = g.images
    out = [0] * s.size
    for gx, sx in zip(gi, s.images):
        out[gx] = gi[sx]
    return _trusted_permutation(s.level, tuple(out))


def fixed_fraction(p) -> Fraction:
    """mu(Fix(p)) for a CubePermutation or a ProductFormPermutation."""
    return Fraction(p.fixed_point_count(), 1 << p.level)


def block_product(*perms: CubePermutation) -> CubePermutation:
    """Act by perms[0] on the first perms[0].level coordinates, by perms[1]
    on the next perms[1].level, and so on; identity(0) for no factors.

    Image x of the product is the images of x's blocks, each shifted to its
    block's place and OR-ed together.  The first factor's table is the
    start; each later factor's shifted images are built once, before their
    products with the images built so far.
    """
    if not perms:
        return identity(0)
    check_level_cap(sum(p.level for p in perms))
    images, shift = perms[0].images, perms[0].level
    for p in perms[1:]:
        images = [v | h for h in [w << shift for w in p.images] for v in images]
        shift += p.level
    return _trusted_permutation(shift, tuple(images))


def embed_head(p: CubePermutation, target_level: int) -> CubePermutation:
    """Act by p on the first p.level coordinates, identity on the rest: p's
    table repeated on each block of p.size indices, shifted to its offset."""
    if target_level < p.level:
        raise LevelMismatchError("target level below source level")
    check_level_cap(target_level)
    images = p.images
    offsets = range(0, 1 << target_level, p.size)
    return _trusted_permutation(target_level, tuple([off + v for off in offsets for v in images]))


def flip_perm(a: NiceSet, m: int) -> CubePermutation:
    """The involution fixing A pointwise and toggling coordinate m off A.

    Requires m to exceed the canonical level k of A, so that membership in A
    never depends on the toggled coordinate: x is in A exactly when bit
    x mod 2^k of A's mask is set.  Toggling coordinate m keeps x mod 2^k, so
    the table is an involution, hence a bijection, by construction.
    """
    a = a.canonical()
    if m <= a.level:
        raise PreconditionError(f"coordinate {m} must exceed the set's level {a.level}")
    check_level_cap(m)
    bit, low = 1 << (m - 1), (1 << a.level) - 1
    toggle = [0 if a.mask >> w & 1 else bit for w in range(low + 1)]
    return _trusted_permutation(m, tuple(x ^ toggle[x & low] for x in range(1 << m)))


def apply_to_nice(g: CubePermutation, a: NiceSet) -> NiceSet:
    """The image set g(A), at the common level of g and A."""
    level = max(g.level, a.level)
    gl = embed_head(g, level) if g.level < level else g
    return NiceSet.from_indices(level, map(gl.images.__getitem__, a.lift(level).members()))


# ---------------------------------------------------------------------------
# structured product form for permutations at levels too large to densify


class ProductFormPermutation:
    """A permutation of X_(n+t) given by a head permutation and tail actions.

    Sends (x, y) with x in X_n, y in X_t to (head(x), tails[x](y)).  Has the
    five methods of CubePermutation (apply, compose, inverse, cycle_type,
    fixed_point_count), computed without materialising the 2^(n+t) table.
    """

    __slots__ = ("head", "tail_level", "tails")

    def __init__(self, head: CubePermutation, tail_level: int, tails):
        tails = tuple(tails)
        if len(tails) != head.size:
            raise ValueError("need one tail permutation per head point")
        for t in tails:
            if t.level != tail_level:
                raise LevelMismatchError("all tail actions must live at tail_level")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail_level", tail_level)
        object.__setattr__(self, "tails", tails)

    def __setattr__(self, name, value):
        raise AttributeError("ProductFormPermutation is immutable")

    @property
    def level(self) -> int:
        return self.head.level + self.tail_level

    def apply(self, z: int) -> int:
        n = self.head.level
        x = z & ((1 << n) - 1)
        return self.head(x) | (self.tails[x](z >> n) << n)

    __call__ = apply

    def compose(self, other: "ProductFormPermutation") -> "ProductFormPermutation":
        """self after other."""
        if (self.head.level, self.tail_level) != (other.head.level, other.tail_level):
            raise LevelMismatchError("product forms must share head and tail levels")
        head = self.head.compose(other.head)
        tails = tuple(
            self.tails[other.head(x)].compose(other.tails[x]) for x in range(other.head.size)
        )
        return ProductFormPermutation(head, self.tail_level, tails)

    def inverse(self) -> "ProductFormPermutation":
        hinv = self.head.inverse()
        tails = tuple(self.tails[hinv(x)].inverse() for x in range(self.head.size))
        return ProductFormPermutation(hinv, self.tail_level, tails)

    def fiber_fixed_counts(self) -> tuple:
        """For each head point x, the number of y with (x, y) fixed."""
        return tuple(
            self.tails[x].fixed_point_count() if self.head(x) == x else 0
            for x in range(self.head.size)
        )

    def fixed_point_count(self) -> int:
        return sum(self.fiber_fixed_counts())

    def cycle_type(self) -> CycleType:
        """Cycle type via per-head-cycle return maps; no densification.

        A head cycle (x0 .. x_{k-1}) with return map G = tails[x_{k-1}] o ...
        o tails[x0] contributes, for each G-cycle of length l, one cycle of
        length k*l.
        """
        tally = {}
        for cyc in table_cycles(self.head.images):
            k = len(cyc)
            ret = self.tails[cyc[0]]
            for x in cyc[1:]:
                ret = self.tails[x].compose(ret)
            for length, count in ret.cycle_type().counts:
                tally[k * length] = tally.get(k * length, 0) + count
        return CycleType.from_counts(tally)

    def densify(self) -> CubePermutation:
        check_level_cap(self.level)
        return CubePermutation(self.level, (self.apply(z) for z in range(1 << self.level)))

    def __repr__(self):
        return (
            f"ProductFormPermutation(head_level={self.head.level},"
            f" tail_level={self.tail_level})"
        )


# ---------------------------------------------------------------------------
# text notation

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_LITERAL_RE = re.compile(r"e|(identity|odometer)\((\d+)\)|level\s*=\s*(\d+)\s*:\s*(.*)", re.DOTALL)


def cycle_string(p: CubePermutation) -> str:
    """Product of nontrivial cycles over point indices, 'e' for the identity."""
    parts = [
        "(" + " ".join(str(x) for x in cyc) + ")"
        for cyc in table_cycles(p.images)
        if len(cyc) > 1
    ]
    return "".join(parts) if parts else "e"


def parse_permutation(text: str, check_level=None) -> CubePermutation:
    """Parse 'identity(n)', 'odometer(n)', 'level=n: i0 i1 ...' or
    'level=n: (a b)(c d)' notation ('e' is identity(1)).  `check_level`, when
    given, is called with the literal's level before its table is built."""
    text = text.strip()
    m = _LITERAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"cannot parse permutation {text!r}")
    maker, maker_level, table_level, body = m.groups()
    level = int(maker_level or table_level or 1)
    if check_level is not None:
        check_level(level)
    if body is None:
        return odometer(level) if maker == "odometer" else identity(level)
    body = body.strip()
    if body.startswith("("):
        rest = _CYCLE_RE.sub("", body).strip()
        if rest:
            raise ValueError(f"unexpected text {rest!r} in cycle notation")
        groups = _CYCLE_RE.findall(body)
        return from_cycles(level, [[int(t) for t in g.replace(",", " ").split()] for g in groups])
    images = [int(t) for t in body.split()]
    return CubePermutation(level, images)
