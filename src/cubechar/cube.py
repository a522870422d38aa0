"""The finite binary cube X_n, cylinder ("nice") sets and the fair-coin product measure.

Coordinate convention, used everywhere in this package: coordinate 1 is the
first sequence coordinate and the least significant bit of the integer index,
so the word (x1, ..., xn) has index sum(x_i * 2**(i-1)).  Under this
convention the odometer is "add one with carry to the right".
"""

from __future__ import annotations

from fractions import Fraction

from . import caps


class NiceSet:
    """A cylinder set C x X with C a subset of X_k, stored as a 2**k-bit mask.

    Bit i of ``mask`` is set iff the word with index i belongs to C.  Level 0
    is allowed and denotes the two trivial sets: the whole space (mask 1) and
    the empty set (mask 0).
    """

    __slots__ = ("level", "mask")

    def __init__(self, level: int, mask: int):
        if level < 0:
            raise ValueError("nice-set level must be non-negative")
        caps.LEVEL.check(level)
        if not 0 <= mask < 1 << (1 << level):
            raise ValueError(f"mask does not fit {1 << level} bits")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("NiceSet is immutable")

    # constructors -------------------------------------------------------

    @classmethod
    def full(cls, level: int = 0) -> "NiceSet":
        return cls(level, (1 << (1 << level)) - 1)

    @classmethod
    def empty(cls, level: int = 0) -> "NiceSet":
        return cls(level, 0)

    @classmethod
    def from_indices(cls, level: int, indices) -> "NiceSet":
        mask = 0
        for i in indices:
            if not 0 <= i < 1 << level:
                raise ValueError(f"index {i} out of range at level {level}")
            mask |= 1 << i
        return cls(level, mask)

    @classmethod
    def from_text(cls, text: str) -> "NiceSet":
        """Parse the 'k=LEVEL:MASK' notation (binary, or hex with 0x prefix)."""
        text = text.strip()
        if not text.startswith("k="):
            raise ValueError(f"bad nice-set literal {text!r}, expected 'k=LEVEL:MASK'")
        head, _, body = text[2:].partition(":")
        level = int(head)
        body = body.strip()
        mask = int(body, 16) if body.lower().startswith("0x") else int(body, 2)
        return cls(level, mask)

    def text(self) -> str:
        return f"k={self.level}:{self.mask:0{1 << self.level}b}"

    # structure ----------------------------------------------------------

    def size(self) -> int:
        """Number of level-k words in the mask."""
        return self.mask.bit_count()

    def members(self):
        return tuple(i for i in range(1 << self.level) if self.mask >> i & 1)

    def lift(self, level: int) -> "NiceSet":
        """Re-express at a higher level; each word gains every possible suffix."""
        if level < self.level:
            raise ValueError("can only lift to a higher level")
        if level == self.level:
            return self
        caps.LEVEL.check(level)
        mask = self.mask
        width = 1 << self.level
        for _ in range(level - self.level):
            mask |= mask << width
            width <<= 1
        return NiceSet(level, mask)

    def canonical(self) -> "NiceSet":
        """Lowest level at which the mask is a union of full fibers."""
        level, mask = self.level, self.mask
        while level > 0:
            half = 1 << (level - 1)
            low = mask & ((1 << half) - 1)
            if mask >> half != low:
                break
            level, mask = level - 1, low
        return self if level == self.level else NiceSet(level, mask)

    def measure(self) -> Fraction:
        return Fraction(self.size(), 1 << self.level)

    # equality is denotational: the same subset of X, at whatever level
    def __eq__(self, other):
        if not isinstance(other, NiceSet):
            return NotImplemented
        level = max(self.level, other.level)
        return self.lift(level).mask == other.lift(level).mask

    def __hash__(self):
        c = self.canonical()
        return hash((c.level, c.mask))

    def __repr__(self):
        return f"NiceSet({self.level}, {bin(self.mask)})"

    def __str__(self):
        return self.text()


def nice_intersect(a: NiceSet, b: NiceSet) -> NiceSet:
    level = max(a.level, b.level)
    return NiceSet(level, a.lift(level).mask & b.lift(level).mask)


def nice_product(c: NiceSet, d: NiceSet) -> NiceSet:
    """The concatenation set C x D x X at level c.level + d.level.

    The head factor constrains coordinates 1..n, the tail factor the next
    d.level coordinates, so measure(product) = measure(c) * measure(d).
    """
    level = c.level + d.level
    caps.LEVEL.check(level)
    width = 1 << c.level
    mask = 0
    for j in d.members():
        mask |= c.mask << (j * width)
    return NiceSet(level, mask)
