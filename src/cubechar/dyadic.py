"""Exact dyadic rationals p / 2**q with arbitrary-precision integer numerators."""

from __future__ import annotations

from fractions import Fraction


class Dyadic:
    """An exact rational whose denominator is a power of two.

    Values are kept canonical: either the numerator is odd or the exponent
    is zero.  Each value has exactly one canonical form, so two Dyadics are
    equal exactly when their fields are.  Closed under +, -, * and
    non-negative integer powers.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int = 0):
        if q < 0:
            raise ValueError("exponent must be non-negative")
        if p == 0:
            q = 0
        elif q:
            shift = min(q, (p & -p).bit_length() - 1)
            p >>= shift
            q -= shift
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def _canonical(cls, p: int, q: int) -> "Dyadic":
        """p / 2^q from fields already in canonical form, without reducing."""
        d = object.__new__(cls)
        object.__setattr__(d, "p", p)
        object.__setattr__(d, "q", q)
        return d

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, 1 << self.q)

    # arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.q >= o.q:
            return Dyadic(self.p + (o.p << (self.q - o.q)), self.q)
        return Dyadic((self.p << (o.q - self.q)) + o.p, o.q)

    __radd__ = __add__

    def __neg__(self):
        return Dyadic(-self.p, self.q)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.q and o.q:  # both numerators odd, so is their product
            return Dyadic._canonical(self.p * o.p, self.q + o.q)
        return Dyadic(self.p * o.p, self.q + o.q)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        # an odd numerator stays odd and a zero exponent stays zero
        return Dyadic._canonical(self.p**n, self.q * n)

    # comparisons --------------------------------------------------------

    def _cmp_key(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, Fraction):
                return self.as_fraction(), other
            return None
        return self.p << o.q, o.p << self.q

    def __eq__(self, other):
        if isinstance(other, Dyadic):  # canonical forms are unique
            return self.p == other.p and self.q == other.q
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] == key[1]

    def __lt__(self, other):
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] < key[1]

    def __le__(self, other):
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] <= key[1]

    def __gt__(self, other):
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] > key[1]

    def __ge__(self, other):
        key = self._cmp_key(other)
        if key is None:
            return NotImplemented
        return key[0] >= key[1]

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self):
        return self.p != 0

    def __repr__(self):
        return f"Dyadic({self.p}, {self.q})"

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        return f"{self.p}/{1 << self.q}"
