import dataclasses
import math
import operator
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubechar import (
    Alpha,
    BasePower,
    CapExceededError,
    CubePermutation,
    NiceSet,
    PreconditionError,
    block_product,
    char_eval,
    char_power,
    conjugate,
    embed_head,
    fixed_fraction,
    flip_perm,
    gram_matrix,
    identity,
    odometer,
    psd_check_exact,
    psd_witness,
    quadratic_form,
    random_permutation,
    transposition,
)
from cubechar import caps, characters
from cubechar.certreal import DEFAULT_PRECISION
from cubechar.characters import (
    _exponent_literal,
    gram_build,
    gram_verdict,
    multiplicativity_holds,
)
from conftest import traced_peak

ALPHAS = [Alpha(0), Alpha(1), Alpha(2), Alpha(3), Alpha.infinity(), Alpha(Fraction(3, 2))]


# -- Alpha ---------------------------------------------------------------------


def test_alpha_parse_and_channels():
    assert Alpha.parse("inf").is_infinity
    assert Alpha.parse("3").is_integer and Alpha.parse("3").fraction == 3
    assert Alpha.parse("2.0").is_integer
    a = Alpha.parse("1.5")
    assert not a.is_classified and a.fraction == Fraction(3, 2)
    assert str(Alpha.parse("3/2")) == "3/2"
    with pytest.raises(ValueError):
        Alpha.parse("-1")
    with pytest.raises(ValueError, match="alpha '1/0' has a zero denominator"):
        Alpha.parse("1/0")


@settings(max_examples=300)
@given(st.text(alphabet="0123456789_.eE+-/ ", max_size=12))
def test_exponent_literal_reads_as_fraction_reads_it(text):
    """Under the caps a literal has Fraction's value, or Fraction's error."""
    assume(not re.search(r"e[-+]?[\d_]{4}", text, re.IGNORECASE))  # 10^|e| stays small
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _exponent_literal(text)
    else:
        assert _exponent_literal(text) == expected


def test_zero_mantissa_is_zero_whatever_its_exponent():
    for text in ("0e99999999", "-0.000E-99999999", "0_0.0e9_999_999"):
        assert Alpha(text) == Alpha.parse(text) == Alpha(0)


# -- char_eval -----------------------------------------------------------------


def test_char_eval_identity_is_one_for_every_alpha():
    for alpha in ALPHAS:
        value = char_eval(alpha, identity(3))
        if isinstance(value, BasePower):
            assert value.base == Fraction(1)
        else:
            assert value == Fraction(1)


def test_char_eval_examples():
    assert char_eval(Alpha(0), odometer(3)) == Fraction(1)  # 0^0 = 1
    assert char_eval(Alpha(2), transposition(2, 0, 1)) == Fraction(1, 2) ** 2  # (1/2)^2
    assert char_eval(Alpha.infinity(), odometer(2)) == Fraction(0)
    assert char_eval(Alpha.infinity(), transposition(3, 0, 1)) == Fraction(0)


@pytest.mark.parametrize(
    "alpha, integer",
    [
        (Alpha(0), 0),
        (Alpha(3), 3),
        (Alpha(Fraction(4, 2)), 2),
        (Alpha.parse("2.0"), 2),
        (Alpha(Fraction(3, 2)), None),
        (Alpha.parse("0.3"), None),
        (Alpha.infinity(), None),
    ],
)
def test_alpha_integer_is_stored_at_construction(alpha, integer):
    assert alpha.is_integer == (integer is not None)
    assert alpha.is_classified == (integer is not None or alpha.is_infinity)
    if integer is not None:
        # the exact channel raises to the stored int power
        assert char_power(alpha, Fraction(1, 2)) == Fraction(1, 1 << integer)


@pytest.mark.parametrize("base", [Fraction(1, 2), Fraction(3, 8), Fraction(5, 8)])
def test_exact_power_cap_edge(base):
    """Powers up to the cap print in full; one step past it raises before the power."""
    bits_per_unit = max(base.numerator.bit_length(), base.denominator.bit_length() - 1)
    edge = caps.EXACT_POWER.limit // bits_per_unit
    value = char_power(Alpha(edge), base)
    assert str(value) == f"{base.numerator**edge}/{base.denominator**edge}"
    with pytest.raises(CapExceededError) as info:
        char_power(Alpha(edge + 1), base)
    assert (info.value.cap, info.value.value) == (caps.EXACT_POWER, (edge + 1) * bits_per_unit)


def test_exact_power_cap_is_the_digit_limit_in_bits():
    """2^B is the largest power of two of at most 4300 decimal digits (2^(B+1)
    is compared with 10^4300, since Python refuses to print it)."""
    assert len(str(2**caps.EXACT_POWER.limit)) <= 4300
    assert 2 ** (caps.EXACT_POWER.limit + 1) >= 10**4300


def test_exact_power_cap_spares_zero_and_one():
    huge = Alpha(10**11)
    assert char_power(huge, Fraction(0)) == Fraction(0)
    assert char_power(huge, Fraction(1)) == Fraction(1)
    with pytest.raises(CapExceededError):
        char_power(huge, Fraction(1, 2))


def test_real_channel_enclosure():
    v = char_eval(Alpha(Fraction(3, 2)), transposition(2, 0, 1))
    enc = v.enclosure(80)
    # (1/2)^(3/2) is the square root of 1/8: compare endpoint squares exactly
    assert enc.lo > 0
    assert enc.lo**2 <= Fraction(1, 8) <= enc.hi**2


def test_conjugation_and_lift_invariance(rng):
    for alpha in ALPHAS:
        for _ in range(15):
            s = random_permutation(3, rng)
            g = random_permutation(3, rng)
            assert char_eval(alpha, conjugate(s, g)) == char_eval(alpha, s)
            assert char_eval(alpha, embed_head(s, 5)) == char_eval(alpha, s)


def test_power_law():
    from cubechar import CubePermutation

    for images in ((1, 0, 2, 3), (1, 2, 3, 0), (0, 1, 2, 3)):
        s = CubePermutation(2, images)
        for a in (0, 1, 2):
            for k in (1, 2, 3):
                lhs = char_eval(Alpha(a), s) * char_eval(Alpha(k), s)
                assert lhs == char_eval(Alpha(a + k), s)


# -- laws ------------------------------------------------------------------------


def test_centrality(rng):
    """chi_alpha(g1 g2) == chi_alpha(g2 g1): the two products are conjugate."""
    for alpha in ALPHAS:
        for _ in range(10):
            g1 = random_permutation(3, rng)
            g2 = random_permutation(3, rng)
            assert char_eval(alpha, g1.compose(g2)) == char_eval(alpha, g2.compose(g1))
    # mixed levels, lifted to the larger one
    a, b = embed_head(odometer(2), 3), odometer(3)
    assert char_eval(Alpha(2), a.compose(b)) == char_eval(Alpha(2), b.compose(a))


def multiplicativity_bases(s1, s2):
    """The fixed fractions of the block product s1 x s2, of s1 and of s2."""
    return fixed_fraction(block_product(s1, s2)), fixed_fraction(s1), fixed_fraction(s2)


def test_multiplicativity_trivial_cases():
    t = transposition(1, 0, 1)
    assert multiplicativity_holds(Alpha(1), multiplicativity_bases(t, t))  # 0 = 0*0
    assert multiplicativity_holds(Alpha(2), multiplicativity_bases(identity(2), odometer(2)))


def test_multiplicativity_random(rng, s22):
    for _ in range(30):
        bases = multiplicativity_bases(random_permutation(2, rng), random_permutation(2, rng))
        for alpha in (Alpha(1), Alpha(2), Alpha(3), Alpha(Fraction(3, 2))):
            assert multiplicativity_holds(alpha, bases)


# -- fixproj ----------------------------------------------------------------------


def test_fixproj_examples():
    """chi_alpha(s * flip(A, m)) == mu(A)^alpha when A lies in Fix(s): the
    finite-level shadow of the projection identity pi(s) P^A = P^A."""
    half = NiceSet.from_indices(1, [0])
    flip = flip_perm(half, 3)
    for alpha in ALPHAS:
        assert char_eval(alpha, embed_head(identity(2), 3).compose(flip)) == char_power(alpha, half.measure())
    # empty set: everything is flipped, chi_1 = 0
    everything = embed_head(odometer(2), 3).compose(flip_perm(NiceSet.empty(0), 3))
    assert char_eval(Alpha(1), everything) == Fraction(0)
    # s transposes the two points with x1 = 1 (indices 1 and 3 at level 2)
    s = transposition(2, 1, 3)
    assert char_eval(Alpha(1), embed_head(s, 3).compose(flip)) == Fraction(1, 2)


def test_fixproj_precondition():
    """The identity needs A inside Fix(s), and flip(A, m) needs m above A's level."""
    half = NiceSet.from_indices(1, [0])
    s = transposition(2, 0, 1)  # moves the point 0 of the set
    assert char_eval(Alpha(1), embed_head(s, 3).compose(flip_perm(half, 3))) == Fraction(1, 4)
    assert half.measure() == Fraction(1, 2)
    with pytest.raises(PreconditionError):
        flip_perm(half, 1)


# -- PSD machinery ------------------------------------------------------------------


def _upper_rows(mat) -> list:
    """Row k of an int matrix from the diagonal on, as Python ints: what
    `psd_check_exact` hands to the elimination when the certificate
    declines its array."""
    return [row[k:] for k, row in enumerate(characters._int_array(mat).tolist())]


def _bareiss(mat) -> bool:
    """The exact elimination alone, on matrices the certificate would decide."""
    return characters._bareiss_psd(_upper_rows(mat))


def _certifies(mat) -> bool:
    """The certificate alone, on the array `psd_check_exact` hands it."""
    return characters._cholesky_certifies_pd(characters._int_array(mat))


def test_psd_small_matrices():
    F = Fraction
    small = [([[0]], True), ([[1, 1], [1, 1]], True), ([[1, 2], [2, 1]], False), ([[0, 1], [1, 0]], False)]
    for mat, ok in small:
        assert psd_check_exact(mat) == _bareiss(mat) == ok
        is_psd, w = psd_witness([[F(x) for x in row] for row in mat])
        assert is_psd == ok and (ok or quadratic_form(mat, w) < 0)
    assert psd_witness([[F(-1)]]) == (False, (F(1),))
    # the first pivot scales the row with a zero pivot-column entry (d=2 != prev=1),
    # the second keeps it (d == prev == 2); an indefinite matrix that reads as
    # PSD without that scaling; pivots after zero rows, with and without an
    # entry in the pivot column
    for mat, ok in [
        ([[2, 0, 1], [0, 1, 0], [1, 0, 1]], True),
        ([[3, 0, -2, 2], [0, 2, -2, 0], [-2, -2, 2, -1], [2, 0, -1, 2]], False),
        ([[0, 0, 0], [0, 1, 1], [0, 1, 1]], True),
        ([[0, 1], [1, 1]], False),
    ]:
        assert psd_check_exact(mat) == _bareiss(mat) == psd_witness(mat)[0] == ok


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 1.0], ids=repr)
def test_psd_check_refuses_non_integer_entries(entry):
    """Only ints are decided: a Fraction or float entry is not scaled or
    floored but refused, wherever it sits in the upper triangle."""
    with pytest.raises(TypeError):
        psd_check_exact([[entry]])
    with pytest.raises(TypeError):
        psd_check_exact([[4, entry], [entry, 4]])


ENTRY_KINDS = {
    "integer": st.integers(-4, 4),
    "dyadic": st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4, 8])),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=12),
}


def _lcm_scaled(mat) -> list:
    """The matrix as ints: every entry times the lcm of the denominators."""
    rows = [[Fraction(x) for x in row] for row in mat]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def _hadamard_gram(b, power):
    """(B B^T)^power entrywise: PSD by the Schur product theorem."""
    return [[sum(x * y for x, y in zip(bi, bj)) ** power for bj in b] for bi in b]


@st.composite
def symmetric_matrices(draw):
    """(matrix, known_psd), n <= 10.  "free" and "zero-diagonal" matrices are
    mostly indefinite; "gram" is a Hadamard power of a possibly rank-deficient
    B B^T.  "sparse-gram" draws B from 0 and +-1, so many rows have a zero entry
    in the pivot column, kept as they are beside unit pivots (d == prev) and
    scaled beside the others.  "late-pivot" puts zero rows of B first, so the
    first positive diagonal is not at index 0, and may then set the entry of
    a zero row in the column of the first row after them, which makes the
    matrix indefinite."""
    n = draw(st.integers(1, 10))
    entry = ENTRY_KINDS[draw(st.sampled_from(sorted(ENTRY_KINDS)))]
    shape = draw(st.sampled_from(["free", "zero-diagonal", "gram", "sparse-gram", "late-pivot"]))
    if shape in ("free", "zero-diagonal"):
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                mat[i][j] = mat[j][i] = 0 if i == j and shape == "zero-diagonal" else draw(entry)
        return mat, False
    k = draw(st.integers(1, n))
    power = draw(st.integers(1, 3))
    if shape == "sparse-gram":
        entry = st.sampled_from([0, 0, 1, -1])
    zeros = draw(st.integers(1, max(1, n - 1))) if shape == "late-pivot" else 0
    b = [[0] * k for _ in range(zeros)] + [[draw(entry) for _ in range(k)] for _ in range(n - zeros)]
    mat = _hadamard_gram(b, power)
    if shape == "late-pivot" and n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, zeros - 1))
        mat[i][zeros] = mat[zeros][i] = draw(entry.filter(bool))
        return mat, False
    return mat, True


@given(symmetric_matrices())
def test_psd_check_matches_rational_elimination(case):
    mat, known_psd = case
    ok, witness = psd_witness(mat)
    scaled = _lcm_scaled(mat)
    assert psd_check_exact(scaled) == _bareiss(scaled) == ok
    if known_psd:
        assert ok
    if not ok:
        assert quadratic_form(mat, witness) < 0


def _certify_shape(name):
    """The Gram shapes of the benchmark's certify workload: the alpha = inf
    matrix of 96 distinct elements, the alpha = 0 matrix of 96, and the
    alpha = 2 Hadamard square of the agreement counts of 64 level-4 tables
    (with its last diagonal entry zeroed, an indefinite variant)."""
    if name == "identity(96)":
        return [[int(i == j) for j in range(96)] for i in range(96)]
    if name == "all-ones(96)":
        return [[1] * 96 for _ in range(96)]
    rng = random.Random(64)
    tables = set()
    while len(tables) < 64:
        tables.add(tuple(rng.sample(range(16), 16)))
    tables = sorted(tables)
    mat = [[sum(map(operator.eq, s, t)) ** 2 for t in tables] for s in tables]
    if name == "alpha2-level4-broken":
        mat[-1][-1] = 0
    return mat


@pytest.mark.parametrize("name", ["identity(96)", "all-ones(96)", "alpha2-level4", "alpha2-level4-broken"])
def test_psd_check_at_certify_shapes(name):
    """The certificate decides the two positive definite shapes and leaves the
    singular all-ones matrix and the indefinite one to the elimination."""
    mat = _certify_shape(name)
    ok, witness = psd_witness(mat)
    assert psd_check_exact(mat) == ok
    assert _certifies(mat) == (name in ("identity(96)", "alpha2-level4"))
    assert ok == (name != "alpha2-level4-broken")
    if not ok:
        assert quadratic_form(mat, witness) < 0


_N = 1 << 52


def _rank1(v) -> list:
    return [[x * y for y in v] for x in v]


def _indefinite_by_one(v, w) -> list:
    """v v^T + w w^T - e_last e_last^T: a rank-2 PSD matrix minus one unit,
    indefinite, yet floating-point Cholesky runs to completion on it, also
    with each diagonal entry one ulp lower."""
    mat = [[a * b + c * d for b, d in zip(v, w)] for a, c in zip(v, w)]
    mat[-1][-1] -= 1
    return mat


CERTIFICATE_BOUNDARIES = {
    # (matrix, PSD, decided by the certificate)
    "lambda_min-1-near-2^52": ([[_N, _N - 1], [_N - 1, _N]], True, False),
    "indefinite-by-one-near-2^52": ([[_N, _N + 1], [_N + 1, _N]], False, False),
    "indefinite-float-cholesky-passes": (
        _indefinite_by_one([-1005714, -1031005, 879118], [979913, 1003571, 980529]),
        False,
        False,
    ),
    "rank-1-large": (_rank1([1 << 26, -(1 << 26) + 3, 12345, 1]), True, False),
    "rank-1-large-odd": (_rank1([3, 94906265, -7]), True, False),
    "well-conditioned-near-2^52": ([[_N, 1], [1, _N]], True, True),
    "diagonal-2^53": ([[1 << 53, 0], [0, 1 << 53]], True, True),
    "diagonal-above-2^53": ([[(1 << 53) + 1, 0], [0, 1]], True, False),
    "off-diagonal-below-minus-2^53": ([[1 << 54, -(1 << 53) - 1], [-(1 << 53) - 1, 1 << 54]], True, False),
    "entry-above-int64": ([[1 << 70, 1], [1, 1 << 70]], True, False),
    "upper-triangle-decides": ([[1, 2], [0, 1]], False, False),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_BOUNDARIES))
def test_psd_check_at_certificate_boundaries(name):
    """Each answer is the oracle's on the symmetric matrix of the upper
    triangle, whether the certificate decides it or declines it."""
    mat, ok, certified = CERTIFICATE_BOUNDARIES[name]
    symmetric = [[mat[min(i, j)][max(i, j)] for j in range(len(mat))] for i in range(len(mat))]
    assert psd_witness(symmetric)[0] == ok
    assert psd_check_exact(mat) == _bareiss(mat) == ok
    assert _certifies(mat) == certified


def test_psd_witness_refuses_a_non_symmetric_matrix():
    """The oracle eliminates with both triangles, so it refuses the matrix
    that `psd_check_exact` decides by its upper triangle alone."""
    mat = CERTIFICATE_BOUNDARIES["upper-triangle-decides"][0]
    assert psd_check_exact(mat) is False
    with pytest.raises(ValueError):
        psd_witness(mat)
    with pytest.raises(ValueError):
        psd_witness([[Fraction(1), Fraction(1, 2)], [Fraction(1, 3), Fraction(1)]])


def _as_array(mat, dtype):
    """The int matrix in `dtype`, or as Python ints in an object array where
    an entry does not fit it."""
    if dtype is not object:
        info = np.iinfo(dtype)
        if all(info.min <= x <= info.max for row in mat for x in row):
            return np.array(mat, dtype)
    return np.array(mat, dtype=object)


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices(), st.sampled_from([np.int64, np.int32, object]))
def test_psd_check_on_an_int_array_matches_the_nested_lists(case, dtype):
    """An integer array is decided as its nested lists are, and as the
    oracle decides the matrix."""
    mat, _ = case
    scaled = _lcm_scaled(mat)
    ok = psd_witness(mat)[0]
    assert psd_check_exact(_as_array(scaled, dtype)) == psd_check_exact(scaled) == ok


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices(), st.data())
def test_psd_check_decides_an_array_by_its_upper_triangle(case, data):
    """Any lower triangle, in an array or in nested lists, leaves the answer
    the oracle's on the symmetric matrix of the upper triangle."""
    mat, _ = case
    symmetric = _lcm_scaled(mat)
    n = len(symmetric)
    skewed = [row[:] for row in symmetric]
    for i in range(n):
        for j in range(i):
            skewed[i][j] = data.draw(st.integers(-(1 << 60), 1 << 60))
    ok = psd_witness(symmetric)[0]
    assert psd_check_exact(_as_array(skewed, np.int64)) == psd_check_exact(skewed) == ok


LARGE_ENTRIES = {
    # name: (matrix, PSD); each is past what a double holds exactly
    "int64-above-2^53": (np.array([[(1 << 53) + 1, 0], [0, 1]], np.int64), True),
    "int64-below-minus-2^53": (
        np.array([[1 << 54, -(1 << 53) - 1], [-(1 << 53) - 1, 1 << 54]], np.int64),
        True,
    ),
    "uint64-above-2^63": (np.array([[1 << 63, 1 << 62], [1 << 62, 1 << 63]], np.uint64), True),
    "nested-above-2^63": ([[1 << 63, (1 << 63) + 1], [(1 << 63) + 1, 1 << 63]], False),
    "object-above-int64": (np.array([[1 << 70, 1], [1, 1 << 70]], dtype=object), True),
    "nested-above-int64": ([[1 << 70, 1 << 70], [1 << 70, 1 << 70]], True),
}


@pytest.mark.parametrize("name", sorted(LARGE_ENTRIES))
def test_large_entries_go_to_the_elimination(name, monkeypatch):
    """Entries above 2^53 or beyond int64 are declined by the certificate
    and decided by the elimination on exact Python ints."""
    mat, ok = LARGE_ENTRIES[name]
    rows = []
    bareiss = characters._bareiss_psd

    def recorded(a):
        rows.append([row[:] for row in a])
        return bareiss(a)

    monkeypatch.setattr(characters, "_bareiss_psd", recorded)
    assert psd_check_exact(mat) == ok
    assert psd_witness([[int(x) for x in row] for row in mat])[0] == ok
    assert len(rows) == 1
    assert all(type(x) is int for row in rows[0] for x in row)
    assert rows[0] == [[int(x) for x in row[k:]] for k, row in enumerate(mat)]


@pytest.mark.parametrize(
    "mat",
    [
        np.array([[1.0]]),
        np.array([[4.0, 1.0], [1.0, 4.0]]),
        np.array([[Fraction(1, 2)]], dtype=object),
        np.array([[4, Fraction(2)], [Fraction(2), 4]], dtype=object),
        np.array([[4, 1.0], [1.0, 4]], dtype=object),
    ],
    ids=["float", "float-2x2", "fraction-object", "integral-fraction-object", "float-object"],
)
def test_psd_check_refuses_non_integer_arrays(mat):
    """A float array, or an object array holding a Fraction or a float, is
    refused as the same nested lists are."""
    with pytest.raises(TypeError):
        psd_check_exact(mat)
    with pytest.raises(TypeError):
        psd_check_exact(mat.tolist())


def _fraction_shift(n, trace, top):
    """The certificate's shift as two Fractions, rounded up to a float."""
    shift = Fraction((n + 1) * trace, (1 << 53) - 2 * (n + 1))
    shift += Fraction(4 * (2 * (n + 1) + top), 1 << 1074)
    return math.nextafter(float(shift), math.inf)


def test_cholesky_shift_is_the_fraction_formula():
    """One int over one int rounds to the same double as the Fraction sum,
    from tiny traces up to tr(A) near 2^53 n, the largest the certificate
    admits."""
    for n in (1, 2, 3, 7, 20, 96, 128):
        for trace in (n, 3 * n + 1, 1 << 20, (1 << 40) + 7, ((1 << 53) - 1) * n, (1 << 53) * n):
            for top in (1, max(1, trace // n), min(trace, 1 << 53)):
                assert characters._cholesky_shift(n, trace, top) == _fraction_shift(n, trace, top)


def test_cholesky_certificate_factors_a_matrix_below_the_shift(monkeypatch):
    """What the certificate hands to floating-point Cholesky is the symmetric
    matrix of the upper triangle, with every diagonal entry at or below
    a_ii - c for the exact shift c = gamma/(1 - gamma) tr(A) + 4(2(n+1) +
    max a_ii) eta of the proof, so A - Ã >= c I holds exactly."""
    import numpy as np

    seen = []
    cholesky = np.linalg.cholesky

    def recorded(m):
        seen.append(m.copy())
        return cholesky(m)

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    rng = random.Random(5)
    mats = [_certify_shape("alpha2-level4"), [[_N, 1], [1, _N]]]
    for n in range(1, 13):
        mat = _hadamard_gram([[rng.randint(-99, 99) for _ in range(n + 2)] for _ in range(n)], 1)
        mat[0][-1] += 1  # no longer symmetric: the upper triangle is the matrix
        mats.append(mat)
    for mat in mats:
        _certifies(mat)
    assert len(seen) == len(mats)
    for mat, m in zip(mats, seen):
        n = len(mat)
        diag = [mat[i][i] for i in range(n)]
        shift = Fraction((n + 1) * sum(diag), (1 << 53) - 2 * (n + 1))
        shift += Fraction(4 * (2 * (n + 1) + max(diag)), 1 << 1074)
        for i in range(n):
            assert Fraction(float(m[i, i])) <= diag[i] - shift
            for j in range(i):
                assert m[i, j] == mat[j][i]


cube_perms = st.integers(2, 4).flatmap(
    lambda level: st.permutations(range(1 << level)).map(lambda t: CubePermutation(level, t))
)


@settings(max_examples=40, deadline=None)
@given(st.lists(cube_perms, min_size=1, max_size=8), st.sampled_from(ALPHAS))
def test_gram_entries_match_compose_oracle(elements, alpha):
    report = gram_matrix(alpha, elements)
    level = max(g.level for g in elements)
    lifted = [embed_head(g, level) for g in elements]
    assert report.level == level
    for i, gi in enumerate(lifted):
        for j, gj in enumerate(lifted):
            value = char_power(alpha, fixed_fraction(gi.compose(gj.inverse())))
            if isinstance(value, BasePower):
                assert report.matrix[i][j] == repr(value.midpoint_float())
            else:
                assert report.matrix[i][j] == str(value)
    if alpha.is_classified:
        assert report.is_psd and report.method == "exact"


@settings(max_examples=25, deadline=None)
@given(
    st.lists(cube_perms, min_size=1, max_size=6),
    st.permutations(ALPHAS),
    st.permutations(["auto", "signs"]),
)
def test_one_gram_build_serves_every_exponent(elements, alphas, strategies):
    """Verdicts from one shared build, in any order of exponents and witness
    strategies, equal the verdicts of fresh gram_matrix reports: no exponent
    changes what the next one reads."""
    build = gram_build(elements)
    assert not build.counts.flags.writeable
    for alpha in alphas:
        for strategy in strategies:
            verdict = gram_verdict(alpha, build, strategy)
            report = gram_matrix(alpha, elements, strategy)
            assert (verdict.verdict, verdict.method, verdict.witness, verdict.witness_value) == (
                report.verdict,
                report.method,
                report.witness,
                report.witness_value,
            )
            assert verdict.is_psd == report.is_psd
    fresh = gram_build(elements)
    assert (build.level, build.lifted, build.bases) == (fresh.level, fresh.lifted, fresh.bases)
    assert (build.counts == fresh.counts).all()


mixed_perms = st.integers(0, 4).flatmap(
    lambda level: st.permutations(range(1 << level)).map(lambda t: CubePermutation(level, t))
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(mixed_perms, min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=32)
    ),
    st.sampled_from([1, 40, characters._GRAM_BLOCK_BYTES]),
)
def test_gram_build_counts_match_the_pairwise_count(elements, block_bytes):
    """The agreement counts equal the pairwise count on the lifted tables,
    for mixed levels, repeated elements and column blocks from one column
    wide to the whole table; the array is read-only and symmetric with
    2^level on its diagonal, and the bases are its distinct counts."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_GRAM_BLOCK_BYTES", block_bytes)
        build = gram_build(elements)
    level = max(g.level for g in elements)
    lifted = [embed_head(g, level) for g in elements]
    expected = [[sum(map(operator.eq, a.images, b.images)) for b in lifted] for a in lifted]
    counts = build.counts
    assert counts.tolist() == expected
    assert counts.dtype.kind == "u" and counts.shape == (len(elements),) * 2
    assert not counts.flags.writeable
    assert (counts == counts.T).all()
    assert (counts.diagonal() == 1 << level).all()
    distinct = sorted({c for row in expected for c in row})
    assert build.bases == tuple((c, Fraction(c, 1 << level)) for c in distinct)


def test_gram_build_at_the_level_20_work_edge():
    """Eight level-20 tables, n^2 x 2^level = 2^GRAM_WORK.limit: the counts
    take column blocks, so the build stays in the bound of the level-14
    edge."""
    elements = [identity(20), transposition(20, 0, 1)] * 4
    assert len(elements) ** 2 << 20 == 1 << caps.GRAM_WORK.limit
    build, peak = traced_peak(lambda: gram_build(elements))
    assert peak < 1 << 22
    assert build.counts[0, 1] == (1 << 20) - 2 and build.counts[1, 3] == 1 << 20
    assert [c for c, _ in build.bases] == [(1 << 20) - 2, 1 << 20]


def test_gram_single_identity():
    report = gram_matrix(Alpha(1), [identity(2)])
    assert report.is_psd and report.matrix == (("1",),)


def test_gram_two_elements():
    t = transposition(3, 0, 1)
    report = gram_matrix(Alpha(1), [identity(3), t])
    assert report.is_psd
    assert report.matrix[0][1] == "3/4"  # (2^3-2)/2^3


def test_gram_requires_elements():
    with pytest.raises(ValueError):
        gram_matrix(Alpha(1), [])


def test_gram_element_caps_edge():
    """GRAM_ELEMENTS.limit elements, and n^2 x 2^level = 2^GRAM_WORK.limit,
    each verify; one element more raises before any element is lifted."""
    at_count_edge = [identity(0)] * caps.GRAM_ELEMENTS.limit
    at_work_edge = [identity(14), transposition(14, 0, 1)] * 32
    assert len(at_work_edge) ** 2 << 14 == 1 << caps.GRAM_WORK.limit
    for elements, extra in ((at_count_edge, identity(0)), (at_work_edge, identity(13))):
        report, peak = traced_peak(lambda: gram_matrix(Alpha(1), elements))
        assert report.is_psd and peak < 1 << 22
        _, peak = traced_peak(
            lambda: pytest.raises(CapExceededError, gram_matrix, Alpha(1), elements + [extra])
        )
        assert peak < 1 << 16


def test_gram_exact_psd_on_s22(s22):
    for a in (1, 3):
        report = gram_matrix(Alpha(a), s22)
        assert report.is_psd and report.method == "exact"


@pytest.mark.parametrize("alpha", [Alpha(0), Alpha(2), Alpha.infinity()], ids=str)
def test_gram_classified_alpha_is_psd_by_theorem(monkeypatch, s22, alpha):
    """Schur's theorem makes these matrices PSD, so no exact check runs, and
    the verdict raises no base to alpha (only the rendering does)."""

    def refuse(*args):
        raise AssertionError("a classified Gram matrix was computed")

    monkeypatch.setattr(characters, "psd_check_exact", refuse)
    monkeypatch.setattr(characters, "_bareiss_psd", refuse)
    report = gram_matrix(alpha, s22)
    assert (report.verdict, report.method) == ("PSD", "exact")
    monkeypatch.setattr(characters, "char_power", refuse)
    verdict = gram_verdict(alpha, gram_build(s22))
    assert (verdict.verdict, verdict.method, verdict.witness) == ("PSD", "exact", None)


def test_gram_classified_verdict_has_no_unbounded_cost():
    """128 distinct level-4 elements at alpha = 100: entries past int64,
    which the exact elimination took minutes to decide."""
    rng = random.Random(4)
    chosen = {}
    while len(chosen) < 128:
        p = random_permutation(4, rng)
        chosen[p.images] = p
    started = time.perf_counter()
    report = gram_matrix(Alpha(100), list(chosen.values()))
    assert time.perf_counter() - started < 10
    assert (report.verdict, report.method) == ("PSD", "exact")


def test_gram_sign_witness_matches_obstruction(s22):
    from cubechar import c_alpha_real

    report = gram_matrix(Alpha(Fraction(3, 2)), s22, witness_strategy="signs")
    assert not report.is_psd
    assert report.witness is not None
    # one entry string per distinct agreement count (0, 1, 2 or 4 on S(2^2))
    assert len({id(x) for row in report.matrix for x in row}) == 4
    # v^T M v = (24 / 4^1.5) * C_{3/2}(4) = 3 * C_{3/2}(4)
    c = c_alpha_real(Fraction(3, 2), 4)
    lo = 3 * c.enclosure.lo
    hi = 3 * c.enclosure.hi
    quad_lo, quad_hi = (Fraction(x) for x in _interval_strings(report.witness_value))
    assert quad_lo <= hi and lo <= quad_hi  # the two enclosures overlap


@pytest.mark.parametrize("alpha", [Alpha(Fraction(3, 2)), Alpha(2), Alpha.infinity()])
def test_gram_precision_outside_the_bounds_is_refused(monkeypatch, s22, alpha):
    """A precision below 64 bits or above the cap is refused before any
    evaluation, at every exponent, as c_alpha_real refuses it."""
    monkeypatch.setattr(characters, "certify_sign", lambda *a, **k: pytest.fail("evaluated"))
    build = gram_build(s22)
    for low in (8, DEFAULT_PRECISION - 1):
        with pytest.raises(ValueError, match="precision must be at least"):
            gram_matrix(alpha, s22, witness_strategy="signs", precision=low)
        with pytest.raises(ValueError):
            gram_verdict(alpha, build, "signs", low)
    for high in (10**6, caps.PRECISION.limit + 1):
        with pytest.raises(CapExceededError) as info:
            gram_matrix(alpha, s22, witness_strategy="signs", precision=high)
        assert (info.value.cap, info.value.value) == (caps.PRECISION, high)
    monkeypatch.setattr(caps, "PRECISION", dataclasses.replace(caps.PRECISION, limit=128))
    with pytest.raises(CapExceededError):
        gram_verdict(alpha, build, "signs", 129)


def _witness_terms_by_fractions(candidate, build):
    """The weights of v^T M v as Fraction sums keyed by the dyadic base, in
    row-major order of their first nonzero product: the oracle for the int
    sums of `gram_verdict`."""
    base_of = dict(build.bases)
    n = len(build.counts)
    coeffs: dict = {}
    for i in range(n):
        for j in range(n):
            c = candidate[i] * candidate[j]
            if c:
                base = base_of[build.counts[i][j]]
                coeffs[base] = coeffs.get(base, Fraction(0)) + c
    return [(c, base.numerator, base.denominator) for base, c in coeffs.items()]


class _Captured(Exception):
    pass


witness_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(1 << 21), 1 << 21), st.integers(0, 20).map(lambda e: 1 << e)),
    st.builds(Fraction, st.integers(-(1 << 21), 1 << 21), st.integers(1, 1 << 20)),
)

#: e, (0 1 2) and (0 2 1) on level 2 agree pairwise on one point, so the
#: candidate t (2, 2, -1) gives the count 1 the total 2 t^2 (4 - 2 - 2) = 0.
_CANCELLING = [identity(2), CubePermutation(2, (1, 2, 0, 3)), CubePermutation(2, (2, 0, 1, 3))]


@st.composite
def witness_cases(draw):
    """(elements, candidate) with zero entries, mixed denominators up to
    2^20, and, for "cancel", a count whose total is exactly 0."""
    if draw(st.booleans()):
        elements = draw(st.lists(cube_perms, min_size=1, max_size=8))
        return elements, [draw(witness_entries) for _ in elements], False
    t = draw(witness_entries.filter(bool))
    extra = draw(st.lists(cube_perms, max_size=4))
    return _CANCELLING + extra, [2 * t, 2 * t, -t] + [Fraction(0)] * len(extra), True


@settings(max_examples=60, deadline=None)
@given(witness_cases())
def test_gram_witness_terms_match_the_fraction_sums(case):
    """The terms `gram_verdict` hands to `rung_enclosure` (and so to
    `power_sum`) for a float-path candidate have the oracle's keys, order
    and values, a zero total too."""
    elements, candidate, cancels = case
    build = gram_build(elements)
    captured = []

    def capture(terms, exponent, prec):
        captured.append(list(terms))
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "psd_check_float", lambda mat: (False, candidate))
        mp.setattr(characters, "rung_enclosure", capture)
        with pytest.raises(_Captured):
            gram_verdict(Alpha(Fraction(3, 2)), build, "auto")
    expected = _witness_terms_by_fractions(candidate, build)
    assert captured == [expected]
    assert all(type(c) is Fraction for c, _, _ in captured[0])
    if cancels:
        assert any(c == 0 for c, _, _ in captured[0])


def _interval_strings(text):
    inner = text.strip()[1:-1]
    return [part.strip() for part in inner.split(",")]


def test_gram_float_path_psd():
    report = gram_matrix(Alpha(Fraction(3, 2)), [identity(2), transposition(2, 0, 1)])
    assert report.is_psd
    assert report.method.startswith("float")
