"""Finite truncations of the diagonal-measure representation.

Level n lives on the 4^n pairs (x, y) in X_n x X_n, every pair carrying
weight 2^-n; the unit vector xi is the indicator of the diagonal, and
<pi(s) xi, xi> recovers mu(Fix(s)) exactly.  Pair (x, y) gets basis index
x | (y << n).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

from .characters import Alpha, char_power
from .cube import NiceSet, check_level_cap, nice_intersect, nice_product
from .errors import CapExceededError, PreconditionError
from .perm import CubePermutation, block_product, embed_head, fixed_fraction, flip_perm

#: explicit tensor powers are built densely only up to this many basis points
TENSOR_DIM_CAP_BITS = 14

#: xi^(x)k as an immutable tuple, keyed by (level, k); `tensor_character`
#: stores a key only after its cap check, so every value has at most
#: 2^TENSOR_DIM_CAP_BITS entries and there are finitely many keys.
_XI_POWERS: dict = {}


def rep_matrix(s: CubePermutation) -> CubePermutation:
    """pi(s) on the level-2n cube X_n x X_n: moves (x, y) to (s(x), y)."""
    return embed_head(s, 2 * s.level)


def xi_vector(level: int):
    """Indicator of the diagonal, a unit vector for the 2^-n point weights."""
    check_level_cap(2 * level)
    vec = [0] * (1 << 2 * level)
    for x in range(1 << level):
        vec[x | (x << level)] = 1
    return vec


def weighted_inner(u, v, level: int) -> Fraction:
    """Inner product with every point weighted 2^-level (integer vectors)."""
    return Fraction(sum(a * b for a, b in zip(u, v)), 1 << level)


def matrix_character(s: CubePermutation) -> Fraction:
    """<pi(s) xi, xi> computed from the explicit matrix; equals mu(Fix(s))."""
    return _diagonal_form(rep_matrix(s), xi_vector(s.level))


def _diagonal_form(rep: CubePermutation, xi) -> Fraction:
    """<rep xi, xi> = sum_i xi[i] xi[rep(i)] for a table on X_m x X_m,
    every point weighted 2^-m.

    xi must be a 0/1 vector (xi_vector or a tensor power of it): the sum
    then runs over its support only, as the sum of xi[rep(i)] for xi[i] = 1.
    """
    return Fraction(sum(map(xi.__getitem__, compress(rep.images, xi))), 1 << rep.level // 2)


def tensor_character(s: CubePermutation, k: int) -> Fraction:
    """<pi^(x)k(s) xi^(x)k, xi^(x)k>, which equals matrix_character(s)^k.

    Built from the explicit k-fold tensor, whose dimension 4^(n k) must fit
    2^TENSOR_DIM_CAP_BITS; above it CapExceededError is raised before any
    table.  The table pi^(x)k(s) is built on every call; xi^(x)k depends only
    on (n, k) and is built once, then read from `_XI_POWERS`.  Criterion 2
    compares it with the product formula, and so does gns-check at the
    levels the cap admits (n <= 3).
    """
    if k < 1:
        raise ValueError("tensor power k must be positive")
    if 2 * s.level * k > TENSOR_DIM_CAP_BITS:
        raise CapExceededError(
            f"tensor power k={k} at level {s.level} has dimension 4^{s.level * k},"
            f" over the 2^{TENSOR_DIM_CAP_BITS} cap"
        )
    xi_k = _XI_POWERS.get((s.level, k))
    if xi_k is None:
        xi, xi_k = xi_vector(s.level), [1]
        for _ in range(k):
            xi_k = [a * b for b in xi for a in xi_k]
        xi_k = _XI_POWERS[s.level, k] = tuple(xi_k)
    return _diagonal_form(block_product(*[rep_matrix(s)] * k), xi_k)


def stabilization_bases(
    g1: CubePermutation,
    g2: CubePermutation,
    a: NiceSet,
    m_values,
) -> list:
    """mu(Fix(g1^-1 * flip(A, m) * g2)) for each m, each from its own
    composed table: chi_alpha of these elements is char_power(alpha, base),
    and all values must agree.

    The finite-level witness that the flip images converge weakly: the
    conjugacy class of the product is already independent of m here."""
    if g1.level != g2.level:
        raise PreconditionError("g1 and g2 must share a level")
    base_level = g1.level
    a_c = a.canonical()
    m_values = list(m_values)
    if not m_values:
        raise PreconditionError("need at least one coordinate to scan")
    for m in m_values:
        if m <= base_level or m <= a_c.level:
            raise PreconditionError(f"coordinate {m} must exceed both levels")
    bases = []
    g1_inverse = g1.inverse()
    for m in m_values:
        left = embed_head(g1_inverse, m)
        right = embed_head(g2, m)
        element = left.compose(flip_perm(a_c, m).compose(right))
        bases.append(fixed_fraction(element))
    return bases


def scan_is_constant(values) -> bool:
    return all(v == values[0] for v in values)


def projection_bases(a: NiceSet, b: NiceSet, c: NiceSet, d: NiceSet) -> tuple:
    """The exponent-free half of `projection_identity_checks`, as the tuple
    (composite, meet, product, mu(C), mu(D), small, large) of dyadic rationals:

      composite  mu(Fix(flip(A, m1) flip(B, m2))), from the composed table (m1 > m2);
      meet       mu(A /\\ B);
      product    mu(Fix(flip(CxDxX, m))), from the flip's table;
      small, large  the smaller and the larger of mu(A) and mu(B).
    """
    a_c, b_c = a.canonical(), b.canonical()
    m2 = max(a_c.level, b_c.level) + 1
    m1 = m2 + 1
    # flip(A, m1) * flip(B, m2): the rightmost factor applies first
    composite = flip_perm(a_c, m1).compose(embed_head(flip_perm(b_c, m2), m1))
    prod_set = nice_product(c, d)
    m = prod_set.canonical().level + 1
    small, large = sorted((a.measure(), b.measure()))
    return (
        fixed_fraction(composite),
        nice_intersect(a, b).measure(),
        fixed_fraction(flip_perm(prod_set, m)),
        c.measure(),
        d.measure(),
        small,
        large,
    )


def projection_identity_checks(alpha: Alpha, bases: tuple) -> tuple:
    """Verify, exactly at the character level, on the `projection_bases`
    of A, B, C, D:

    (i)   chi(flip(A, m1) flip(B, m2)) = mu(A /\\ B)^alpha     (m1 > m2)
    (ii)  chi(flip(CxDxX, m)) = mu(CxX)^alpha * mu(DxX)^alpha
    (iii) mu(A) <= mu(B) implies value(A) <= value(B)

    Returns the identities that fail, each named with the two values it
    compared (empty when all hold).  (iii) is checked for classified alpha
    only: otherwise the values are powers of the two sorted bases, and
    x^alpha is monotone for alpha > 0.  Only the exponent is applied here,
    so one set of bases serves every alpha.
    """
    composite, meet, product, c, d, small, large = bases
    failures = []
    got, want = char_power(alpha, composite), char_power(alpha, meet)
    if got != want:
        failures.append(f"intersection: {got} != {want}")
    got, want = char_power(alpha, product), char_power(alpha, c) * char_power(alpha, d)
    if got != want:
        failures.append(f"product: {got} != {want}")
    if alpha.is_classified:
        got, want = char_power(alpha, small), char_power(alpha, large)
        if got > want:
            failures.append(f"monotone: {got} > {want}")
    return tuple(failures)
