"""The character family chi_alpha(s) = mu(Fix(s))^alpha and its certificates.

Two value channels, chosen by the exponent:

  * non-negative integer alpha, and the separate infinity case, evaluate to
    exact dyadic rationals (chi_inf is the indicator of the identity);
  * non-integer real alpha evaluates to a symbolic BasePower whose numeric
    enclosure is computed on demand -- equality tests on this channel compare
    the exact dyadic bases, which is equivalent for a fixed positive exponent.

Conventions: 0^0 = 1 (so chi_0 is identically 1), x^inf = 0 for x < 1 and
1^inf = 1.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import caps
from .certreal import DEFAULT_PRECISION, Enclosure, certify_sign, check_precision, power_sum, rung_enclosure
from .perm import cycle_string, embed_head, fixed_fraction

FLOAT_TOLERANCE_BITS = 40


def _exponent_literal(text: str) -> Fraction:
    """Fraction(text), refused (DIGITS) before 10^|e| is built when it would
    be refused anyway: for a run of more digits than the cap, or an exponent
    e past the cap plus the mantissa's digits.  A zero mantissa is 0
    whatever its exponent."""
    runs = re.findall(r"[\d_]+", text)
    caps.DIGITS.check(max((len(run) - run.count("_") for run in runs), default=0))
    m = re.search(r"e([-+]?[\d_]+)\s*\Z", text, re.IGNORECASE)
    if m is None:
        return Fraction(text)
    head, exponent = text[: m.start()], m.group(1)
    try:
        # the exponent's digits read as zeros: the same grammar, at 10^0
        mantissa = Fraction(head + "e" + re.sub(r"\d", "0", exponent))
    except ValueError:
        return Fraction(text)  # the same grammar error, raised for the literal as given
    if not mantissa:
        return mantissa
    caps.DIGITS.check(abs(int(exponent)) - len(re.findall(r"\d", head)))
    return Fraction(text)


class Alpha:
    """The character exponent: a non-negative rational or infinity.

    Integer and infinity exponents are the classified characters; non-integer
    rationals are candidates kept only to exhibit their positivity failure.
    An exponent of more digits than the DIGITS cap, above or below its
    fraction bar, is refused, and a text literal of one before it is built
    (`_exponent_literal`).
    """

    __slots__ = ("_value", "_integer")

    def __init__(self, value):
        integer = None
        if value is not None:
            value = _exponent_literal(value) if isinstance(value, str) else Fraction(value)
            caps.check_digits(value.numerator, value.denominator)
            if value < 0:
                raise ValueError("alpha must be non-negative")
            if value.denominator == 1:
                integer = value.numerator
        object.__setattr__(self, "_value", value)
        object.__setattr__(self, "_integer", integer)

    def __setattr__(self, name, value):
        raise AttributeError("Alpha is immutable")

    @classmethod
    def infinity(cls) -> "Alpha":
        return cls(None)

    @classmethod
    def parse(cls, text: str) -> "Alpha":
        text = text.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return cls.infinity()
        try:
            return cls(text)
        except ZeroDivisionError:
            raise ValueError(f"alpha {text!r} has a zero denominator") from None

    @property
    def is_infinity(self) -> bool:
        return self._value is None

    @property
    def is_integer(self) -> bool:
        return self._integer is not None

    @property
    def is_classified(self) -> bool:
        return self.is_infinity or self.is_integer

    @property
    def fraction(self) -> Fraction:
        if self.is_infinity:
            raise ValueError("infinite exponent has no rational value")
        return self._value

    def __eq__(self, other):
        if not isinstance(other, Alpha):
            return NotImplemented
        return self._value == other._value

    def __hash__(self):
        return hash(self._value)

    def __str__(self):
        return "inf" if self.is_infinity else str(self._value)

    def __repr__(self):
        return f"Alpha({self})"


@dataclass(frozen=True)
class BasePower:
    """The exact symbolic value base**exponent for a dyadic base in [0, 1]."""

    base: Fraction
    exponent: Fraction

    def __mul__(self, other):
        if not isinstance(other, BasePower) or other.exponent != self.exponent:
            return NotImplemented
        return BasePower(self.base * other.base, self.exponent)

    def enclosure(self, prec: int = DEFAULT_PRECISION) -> Enclosure:
        return power_sum([(1, self.base.numerator, self.base.denominator)], self.exponent, prec)

    def midpoint_float(self) -> float:
        if not self.base:
            return 0.0
        return math.exp(float(self.exponent) * math.log(float(self.base)))

    def __str__(self):
        return f"({self.base})^({self.exponent})"


def char_power(alpha: Alpha, base: Fraction):
    """base**alpha in the channel the exponent selects."""
    n = alpha._integer
    if n is not None:
        bits = n * max(base.numerator.bit_length(), base.denominator.bit_length() - 1)
        if base != 1:
            caps.EXACT_POWER.check(bits)
        return base**n
    if alpha.is_infinity:
        return Fraction(1) if base == 1 else Fraction(0)
    return BasePower(base, alpha.fraction)


def char_eval(alpha: Alpha, s):
    """chi_alpha(s) = mu(Fix(s))^alpha for a dense or product-form permutation."""
    return char_power(alpha, fixed_fraction(s))


def multiplicativity_holds(alpha: Alpha, bases: tuple) -> bool:
    """The multiplicativity law chi_alpha(s1 x s2) == chi_alpha(s1) *
    chi_alpha(s2), where s1 x s2 acts by s1 on the first s1.level
    coordinates and by s2 on the ones after, at one exponent.  `bases` holds
    the exponent-free half: the fixed fractions of the block product
    s1 x s2 (from its own table), of s1 and of s2."""
    product, first, second = bases
    return char_power(alpha, product) == char_power(alpha, first) * char_power(alpha, second)


# ---------------------------------------------------------------------------
# Gram matrices and positive-semidefiniteness certification


@dataclass(frozen=True)
class GramVerdict:
    """The PSD decision of a Gram matrix, without its entries or names."""

    verdict: str  # "PSD" | "not PSD"
    method: str
    witness: tuple | None = None
    witness_value: str | None = None

    @property
    def is_psd(self) -> bool:
        return self.verdict == "PSD"


@dataclass(frozen=True, kw_only=True)
class GramReport(GramVerdict):
    """A `GramVerdict` with the matrix it decides: its exponent, level,
    element names and entry strings."""

    alpha: str
    level: int
    elements: tuple
    matrix: tuple  # entries as strings

    def to_json_dict(self) -> dict:
        out = {
            "alpha": self.alpha,
            "level": self.level,
            "elements": list(self.elements),
            "matrix": [list(row) for row in self.matrix],
            "verdict": self.verdict,
            "method": self.method,
        }
        if self.witness is not None:
            out["witness"] = list(self.witness)
            out["witness_value"] = self.witness_value
        return out


def psd_check_exact(mat) -> bool:
    """Exact PSD decision for a symmetric matrix of ints: an integer numpy
    array, or nested lists of ints.

    Every entry is read through `operator.index` unless the array already
    has an integer dtype, so a Fraction or float entry raises TypeError.
    Two steps, on one array (`_int_array`); the answers are the
    elimination's.

      * A verified floating-point Cholesky certificate
        (`_cholesky_certifies_pd`): if Cholesky runs to completion on A
        with its diagonal lowered by c >= gamma_{n+1}/(1 - gamma_{n+1})
        tr(A) plus an underflow term, A is proven positive definite (Rump,
        "Verification of positive definiteness", BIT 46 (2006), on Higham's
        backward-error bound, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., Thm 10.3).  It is a proof, not a float guess,
        and it never answers "not PSD".
      * Every matrix it does not certify -- singular, indefinite, or too
        close to either -- becomes Python-int rows, row k from the diagonal
        on, and is decided exactly by the integer Bareiss elimination
        (`_bareiss_psd`).

    A non-symmetric matrix is decided as the symmetric matrix of its upper
    triangle; no value of the lower triangle decides anything.  Its oracle
    is `psd_witness`, which only the tests call and which refuses a
    non-symmetric matrix.
    """
    a = _int_array(mat)
    return _cholesky_certifies_pd(a) or _bareiss_psd([row[k:] for k, row in enumerate(a.tolist())])


def _int_array(values):
    """`values` as an array of exact ints: an integer array as it is;
    anything else (nested lists, an object array) is read entry by entry
    through `operator.index` and kept as int64 where every entry fits, as
    Python ints in an object array where one does not.  numpy alone would
    turn an int at or above 2^63 into a float."""
    import numpy as np

    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    a = np.array(values, dtype=object)
    a.flat = list(map(operator.index, a.flat))
    try:
        return a.astype(np.int64)
    except OverflowError:
        return a


def _cholesky_certifies_pd(a) -> bool:
    """True only if the symmetric matrix A whose upper triangle is that of
    the array `a` (of exact ints, as `_int_array` makes it) is proven
    positive definite.

    False sends A to the exact elimination.  It is returned for an empty
    matrix, for an object array (an entry beyond int64), for an entry of
    absolute value above 2^53 (its float could be inexact), for a diagonal
    entry <= 0, and whenever the check fails.  Otherwise A is exactly a
    float matrix.  With n its order, u = 2^-53 the unit roundoff, eta =
    2^-1074 the smallest subnormal and gamma = gamma_{n+1} = (n+1)u / (1 -
    (n+1)u), take

        c >= gamma/(1 - gamma) tr(A) + 4 (2(n+1) + max_i a_ii) eta,

    rounded up, and let Ã be A with each diagonal entry rounded down to
    nextafter(a_ii - c, -inf), so that A - Ã >= c I.  Suppose floating-point
    Cholesky runs to completion on Ã, in any order of the inner products.
    Then Ã + E = G^T G is positive semidefinite with |E| <= gamma/(1 - gamma)
    d d^T + 4 (2(n+1) + max ã_ii) eta I, where d_i = sqrt(ã_ii) (Higham, Thm
    10.3; the eta term, at least Rump's, allows for underflow).  Since
    ||d d^T||_2 = tr(Ã) < tr(A) and max ã_ii < max a_ii,
    lambda_min(Ã) >= -||E||_2 > -c, and so
    lambda_min(A) >= lambda_min(Ã) + c > 0.  A larger c only declines more
    matrices; it never changes an answer.  Nothing overflows: every partial
    sum is at most n 2^53 in absolute value.

    Only the upper triangle is factored, as the elimination reads it: the
    float copy of `a.T` goes to `numpy.linalg.cholesky`, which reads the
    lower triangle.  The 2^53 bound is checked on every entry, so a large
    lower-triangle entry only declines.
    """
    import numpy as np

    n = len(a)
    if not n or a.dtype == object:
        return False
    diag = a.diagonal().tolist()
    if min(diag) <= 0 or int(a.max()) > 1 << 53 or int(a.min()) < -(1 << 53):
        return False
    c = _cholesky_shift(n, sum(diag), max(diag))
    m = a.T.astype(np.float64)
    np.fill_diagonal(m, np.nextafter(m.diagonal() - c, -np.inf))
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _cholesky_shift(n: int, trace: int, top: int) -> float:
    """The shift c of `_cholesky_certifies_pd`, rounded up: the float above
    (n+1) tr(A) / (2^53 - 2(n+1)) + 4 (2(n+1) + max a_ii) 2^-1074, which is
    gamma/(1 - gamma) tr(A) plus the underflow term.  The sum is one int
    over one int, and int / int is correctly rounded, as float(Fraction) is.
    """
    den = (1 << 53) - 2 * (n + 1)
    num = ((n + 1) * trace << 1074) + 4 * (2 * (n + 1) + top) * den
    return math.nextafter(num / (den << 1074), math.inf)


def _bareiss_psd(a) -> bool:
    """Exact PSD decision on the upper-triangle rows `a` of a symmetric int
    matrix (row k from the diagonal on), which it consumes.

    Symmetric fraction-free (Bareiss) elimination over the integers.  The
    pivot is the first positive diagonal entry, eliminated in place: its
    row and column are dropped, with no swap, and the pivot row t reads its
    entries left of the diagonal from the pivot column of the earlier rows.
    Every other row updates its own upper part to (d*x - t_r*t_c) // prev;
    a row with t_r = 0 is kept as it is when d == prev and scaled to
    d*x // prev otherwise.  Each step divides exactly by the previous pivot,
    so the remaining block is the Schur complement times a positive minor: a
    negative diagonal entry, or an all-zero diagonal beside a nonzero entry,
    means not PSD.
    """
    prev = 1
    while a:
        diag = [row[0] for row in a]
        if min(diag) < 0:
            return False
        piv = next((k for k, x in enumerate(diag) if x > 0), None)
        if piv is None:
            return not any(map(any, a))
        d = diag[piv]
        t = [a[k].pop(piv - k) for k in range(piv)] + a.pop(piv)[1:]
        for k, (row, tk) in enumerate(zip(a, t)):
            if tk:
                a[k] = [(d * x - tk * y) // prev for x, y in zip(row, t[k:])]
            elif d != prev:
                a[k] = [d * x // prev for x in row]
        prev = d
    return True


def psd_witness(mat) -> tuple:
    """The oracle for `psd_check_exact`, with a witness on a failure.

    Symmetric elimination over the rationals with the same diagonal pivoting,
    carrying the change of basis.  Returns (True, None) or (False, witness)
    where the witness v satisfies v^T M v < 0 exactly.  It eliminates with
    both triangles, so a non-symmetric matrix raises ValueError.
    """
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("psd_witness needs a symmetric matrix")
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        neg = next((j for j in range(i, n) if a[j][j] < 0), None)
        if neg is not None:
            return False, tuple(basis[neg])
        piv = next((j for j in range(i, n) if a[j][j] > 0), None)
        if piv is None:
            # remaining diagonal is zero: any nonzero off-diagonal entry
            # yields an indefinite 2x2 block
            for r in range(i, n):
                for c in range(r + 1, n):
                    if a[r][c] != 0:
                        sgn = 1 if a[r][c] < 0 else -1
                        witness = tuple(basis[r][k] + sgn * basis[c][k] for k in range(n))
                        return False, witness
            return True, None
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            for row in a:
                row[i], row[piv] = row[piv], row[i]
            basis[i], basis[piv] = basis[piv], basis[i]
        d = a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / d
            if f:
                basis[r] = [basis[r][k] - f * basis[i][k] for k in range(n)]
                for c in range(i + 1, n):
                    a[r][c] -= f * a[i][c]
        # clear the pivot row and column only after every row is eliminated
        for r in range(i + 1, n):
            a[r][i] = a[i][r] = Fraction(0)
    return True, None


def quadratic_form(mat, v):
    """v^T M v over exact Fractions."""
    n = len(mat)
    return sum(Fraction(v[i]) * Fraction(mat[i][j]) * Fraction(v[j]) for i in range(n) for j in range(n))


def psd_check_float(mat) -> tuple:
    """(is_psd, witness_or_None) at relative tolerance 2^-FLOAT_TOLERANCE_BITS,
    for a symmetric matrix of floats (nested lists or an array)."""
    import numpy as np

    evals, evecs = np.linalg.eigh(mat)
    scale = max(1.0, float(abs(evals[-1])))
    if float(evals[0]) >= -(2.0**-FLOAT_TOLERANCE_BITS) * scale:
        return True, None
    return False, [float(x) for x in evecs[:, 0]]


def gram_matrix(
    alpha: Alpha,
    elements,
    witness_strategy: str = "auto",
    precision: int = DEFAULT_PRECISION,
) -> GramReport:
    """The matrix chi_alpha(g_i g_j^-1) with a PSD certificate.

    Its base mu(Fix(g_i g_j^-1)) is the share of points where g_i and g_j
    agree.  `gram_build` does everything that does not depend on alpha (one
    build serves any number of exponents) and `gram_verdict` decides the
    matrix without rendering it.  The report adds the rendering: each
    distinct agreement count is rendered once and every entry with that
    count shares its string, the exact value for a classified exponent, the
    repr of the midpoint float the verdict's float check read otherwise.
    Each lifted element is named by its cycle string.
    The GRAM_ELEMENTS and GRAM_WORK caps are checked first.
    """
    build = gram_build(elements)
    decision = gram_verdict(alpha, build, witness_strategy, precision)
    if alpha.is_classified:
        text_of = {c: str(char_power(alpha, b)) for c, b in build.bases}
    else:
        text_of = {c: repr(BasePower(b, alpha.fraction).midpoint_float()) for c, b in build.bases}
    return GramReport(
        **vars(decision),
        alpha=str(alpha),
        level=build.level,
        elements=tuple(cycle_string(g) for g in build.lifted),
        matrix=tuple(tuple(text_of[c] for c in row) for row in build.counts.tolist()),
    )


#: Bound on the bytes one column block of `gram_build` compares at a time:
#: n^2 per column for the comparison, 8n for the sliced tuple rows.
_GRAM_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True, eq=False)
class GramBuild:
    """The exponent-free half of a Gram matrix, shared by every exponent.

    `lifted` and `bases` are tuples and `counts` is a read-only array, so no
    exponent can change what the next one reads.
    """

    level: int
    lifted: tuple  # the elements, lifted to `level`
    counts: object  # n x n unsigned int array: points where lifted[i] and lifted[j] agree
    bases: tuple  # (count, Fraction(count, 2^level)) for each distinct count, ascending

    def by_count(self, values):
        """The n x n array whose (i, j) entry is values[k] for the k-th
        distinct count, bases[k][0] == counts[i, j]: one lookup in a table
        indexed by count."""
        import numpy as np

        lut = np.zeros((1 << self.level) + 1, values.dtype)
        lut[[c for c, _ in self.bases]] = values
        return lut[self.counts]


def check_gram_caps(n: int, level: int) -> None:
    """Refuse a Gram matrix of n elements past GRAM_ELEMENTS, or at `level`
    past GRAM_WORK: checked per element level before any table at that
    level is built, and with no 2^level formed."""
    caps.GRAM_ELEMENTS.check(n)
    caps.GRAM_WORK.check(caps.log2_ceil(n * n) + level)


def gram_build(elements) -> GramBuild:
    """Check the caps, lift the elements to a common level, and count the
    agreements of every pair with their dyadic bases.

    The counts are one broadcast comparison of the lifted tables per block
    of columns, in the smallest unsigned dtype that holds a point; each
    block is at most _GRAM_BLOCK_BYTES wide in the comparison, so the memory
    beyond the tables does not grow with the level.
    """
    elements = list(elements)
    if not elements:
        raise ValueError("empty element list")
    level = max(g.level for g in elements)
    n = len(elements)
    check_gram_caps(n, level)
    import numpy as np

    lifted = tuple(embed_head(g, level) if g.level < level else g for g in elements)
    size = 1 << level
    point = np.min_scalar_type(size - 1)
    counts = np.zeros((n, n), np.min_scalar_type(size))
    width = max(1, _GRAM_BLOCK_BYTES // (n * (n + 8)))
    for start in range(0, size, width):
        block = np.array([g.images[start : start + width] for g in lifted], point)
        counts += (block[:, None] == block).sum(axis=2, dtype=counts.dtype)
    counts.flags.writeable = False
    seen = np.zeros(size + 1, bool)
    seen[counts] = True
    distinct = np.flatnonzero(seen).tolist()
    return GramBuild(level, lifted, counts, tuple((c, Fraction(c, size)) for c in distinct))


def gram_verdict(
    alpha: Alpha,
    build: GramBuild,
    witness_strategy: str = "auto",
    precision: int = DEFAULT_PRECISION,
) -> GramVerdict:
    """The PSD decision of one build's matrix at alpha, with no entry or
    element rendered as text.

    A classified exponent gives a PSD matrix, decided by theorem with no
    arithmetic: with B[i, (x, z)] = [g_i(x) = z] on level L the agreement
    counts are B B^T, so for integer alpha the matrix is the Hadamard power
    (B B^T)^oalpha / 2^(L alpha), PSD by the Schur product theorem (alpha = 0
    gives all ones), and alpha = inf gives the all-ones blocks of
    "g_i = g_j".  Criterion 10 checks the theorem on its matrices with
    `psd_check_exact` (`gram_ints`).

    Otherwise the float check decides, at relative tolerance
    2^-FLOAT_TOLERANCE_BITS on the midpoint floats looked up by count
    (`GramBuild.by_count`), and a witness candidate v is certified by the
    sign of v^T M v = sum over the agreement counts c of
    w_c * (c/2^level)^alpha.  witness_strategy "signs" forces the
    permutation-sign vector as the candidate (the alternating-projection
    test vector).  Each weight w_c is summed in ints: v is scaled by the lcm
    D of its denominators, the products n_i n_j of the nonzero scaled
    entries are added under their count, and w_c is that total over D^2.
    The counts come in the order of their first nonzero product, row by
    row; a count whose total is 0 is kept (`power_sum` skips it).

    A precision below DEFAULT_PRECISION or above the PRECISION cap is
    refused first, at every exponent (`check_precision`).
    """
    check_precision(precision)
    if alpha.is_classified:
        return GramVerdict("PSD", "exact")

    # non-integer channel
    import numpy as np

    exponent = alpha.fraction
    mids = np.array([BasePower(b, exponent).midpoint_float() for _, b in build.bases])
    method = f"float(tol=2^-{FLOAT_TOLERANCE_BITS})"
    float_ok, w = psd_check_float(build.by_count(mids))
    if witness_strategy == "signs":
        candidate = [Fraction(g.sign()) for g in build.lifted]
    elif float_ok:
        return GramVerdict("PSD", method)
    else:
        candidate = [Fraction(x).limit_denominator(1 << 20) for x in w]

    scale = math.lcm(*(x.denominator for x in candidate))
    nums = [x.numerator * (scale // x.denominator) for x in candidate]
    totals: dict = {}
    for ni, row in zip(nums, build.counts.tolist()):
        if ni:
            for nj, c in zip(nums, row):
                if nj:
                    totals[c] = totals.get(c, 0) + ni * nj
    square = scale * scale
    base_of = dict(build.bases)
    terms = [(Fraction(t, square), base_of[c].numerator, base_of[c].denominator) for c, t in totals.items()]
    enc, sign = certify_sign(partial(rung_enclosure, terms, exponent), start_prec=precision)
    if sign == "negative":
        return GramVerdict(
            "not PSD",
            method + "+interval-certified",
            witness=tuple(str(c) for c in candidate),
            witness_value=str(enc),
        )
    # certification failed: report what the float check says, witness-free
    return GramVerdict("PSD" if float_ok else "not PSD", method)


def gram_ints(alpha: Alpha, build: GramBuild):
    """The n x n int array of one build's matrix at a classified alpha,
    scaled by the largest denominator: each distinct base is raised to alpha
    once, and the array is one lookup by count (`GramBuild.by_count`)."""
    values = [char_power(alpha, b) for _, b in build.bases]
    scale = max(v.denominator for v in values)
    return build.by_count(_int_array([v.numerator * (scale // v.denominator) for v in values]))
