"""The acceptance suite: every verification the package promises, runnable as
one deterministic batch.

Each criterion is a function returning a CriterionResult whose `details` are
fully determined by the seed, so rendering the suite twice with the same seed
produces byte-identical reports (that property is itself the last criterion).
Wall-clock times are measured for the runtime budgets but never rendered.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import appendix, characters, gnsfinite, obstruction
from .characters import (
    Alpha,
    char_power,
    gram_build,
    gram_ints,
    gram_verdict,
    multiplicativity_holds,
)
from .cube import NiceSet
from .errors import FalsificationError, InternalInconsistencyError
from .perm import (
    all_permutations,
    apply_to_nice,
    block_product,
    conjugate,
    embed_head,
    fixed_fraction,
    flip_perm,
    odometer,
    random_permutation,
    transposition,
)

DEFAULT_SEED = 42


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    limit_seconds: float | None
    elapsed_seconds: float
    details: tuple

    def to_json_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "details": list(self.details),
        }


def _result(number, name, limit, started, failures, notes=()):
    elapsed = time.perf_counter() - started
    details = tuple(failures) if failures else tuple(notes)
    return CriterionResult(number, name, not failures, limit, elapsed, details)


# --- criterion 1 -----------------------------------------------------------


def criterion_gns_identity(seed: int) -> CriterionResult:
    """matrix_character(s) = mu(Fix(s)) exactly, exhaustively at level 2 and
    on 200 seeded elements at level 3."""
    started = time.perf_counter()
    failures = []
    count = 0
    for s in all_permutations(2):
        if gnsfinite.matrix_character(s) != fixed_fraction(s):
            failures.append(f"level 2 mismatch at {s!r}")
        count += 1
    rng = random.Random(seed)
    for _ in range(200):
        s = random_permutation(3, rng)
        if gnsfinite.matrix_character(s) != fixed_fraction(s):
            failures.append(f"level 3 mismatch at {s!r}")
        count += 1
    return _result(1, "gns-identity", 1.0, started, failures, [f"{count} elements checked"])


# --- criterion 2 -----------------------------------------------------------


def criterion_tensor_powers(seed: int) -> CriterionResult:
    """tensor_character(s, k) = matrix_character(s)^k with explicit tensor
    builds, including the 16-dimensional k=2 case."""
    started = time.perf_counter()
    failures = []
    explicit16 = gnsfinite.tensor_character(transposition(1, 0, 1), 2)
    if explicit16 != 0:
        failures.append(f"16-dim tensor of the level-1 transposition gave {explicit16}")
    for s in all_permutations(2):
        base = gnsfinite.matrix_character(s)
        for k in (1, 2, 3):
            got = gnsfinite.tensor_character(s, k)
            if got != base**k:
                failures.append(f"tensor k={k} mismatch at {s!r}: {got} != {base**k}")
    return _result(2, "tensor-powers", 5.0, started, failures, ["24 elements x k in {1,2,3}"])


# --- criterion 3 -----------------------------------------------------------


def criterion_multiplicativity(seed: int) -> CriterionResult:
    """chi(s1 tail(s2)) = chi(s1) chi(s2) for all pairs from S(2^2) and
    alpha in {0, 1, 2, 3, inf}.  The fixed-point count of each element is
    read once; each pair builds its own block product and reads its count
    from that table.  The exponent law depends on nothing but the three bases, so
    it is checked once per distinct triple and the exponents it fails at
    are reported for every pair with that triple, pair by pair and exponent
    by exponent.  A base is a fixed-point count over 2^level, and the levels
    are fixed (2 for each element, 4 for each product), so a triple is keyed
    by its three counts, and its Fractions are built only when the key is
    new."""
    started = time.perf_counter()
    failures = []
    alphas = [Alpha(0), Alpha(1), Alpha(2), Alpha(3), Alpha.infinity()]
    elements = list(all_permutations(2))
    counts = [s.fixed_point_count() for s in elements]
    failing = {}  # counts of s1 x s2, s1 and s2 -> the alphas the law fails at
    for s1, first in zip(elements, counts):
        for s2, second in zip(elements, counts):
            product = block_product(s1, s2)
            key = (product.fixed_point_count(), first, second)
            failed = failing.get(key)
            if failed is None:
                bases = (fixed_fraction(product), fixed_fraction(s1), fixed_fraction(s2))
                failed = failing[key] = [a for a in alphas if not multiplicativity_holds(a, bases)]
            for alpha in failed:
                failures.append(f"alpha={alpha}: failed at {s1!r}, {s2!r}")
    return _result(
        3, "multiplicativity", 10.0, started, failures, ["576 pairs x 5 exponents"]
    )


# --- criterion 4 -----------------------------------------------------------

_PROJECTION_CATALOG = (
    ("full-vs-empty", NiceSet.full(1), NiceSet.empty(1)),
    ("disjoint-halves", NiceSet(1, 0b01), NiceSet(1, 0b10)),
    ("x1-vs-x2", NiceSet(1, 0b01), NiceSet(2, 0b0011)),
    ("idempotent-half", NiceSet(1, 0b01), NiceSet(1, 0b01)),
    ("quarter-vs-half", NiceSet(2, 0b0001), NiceSet(1, 0b01)),
    ("three-quarters-vs-half", NiceSet(2, 0b0111), NiceSet(2, 0b1010)),
    ("singleton-vs-x3", NiceSet(3, 1 << 5), NiceSet(3, 0x0F)),
    ("complementary-eighths", NiceSet(3, 0b10110100), NiceSet(3, 0b01001011)),
    ("overlapping-halves", NiceSet(3, 0b11001100), NiceSet(3, 0b01100110)),
    ("nested", NiceSet(3, 0b00001100), NiceSet(2, 0b0110)),
)


def criterion_projection_identities(seed: int) -> CriterionResult:
    """Stabilization scans constant on m in {4..8}; intersection and product
    identities exact on the fixed catalog for alpha in {1, 2, 3}.  The scan
    elements and the projection flips of each catalog entry are built once
    for all three exponents.
    g2 = g1 h for a seeded transposition h, so the scanned fixed set
    {x in Fix(h) : g1(x) in A} holds a point of every A of measure above
    1/4."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(seed + 4)
    g1 = random_permutation(3, rng)
    g2 = g1.compose(transposition(3, *rng.sample(range(8), 2)))
    scans = [
        gnsfinite.stabilization_bases(g1, g2, a, range(4, 9)) for _, a, _ in _PROJECTION_CATALOG
    ]
    projections = [gnsfinite.projection_bases(a, b, a, b) for _, a, b in _PROJECTION_CATALOG]
    for alpha_int in (1, 2, 3):
        alpha = Alpha(alpha_int)
        for (name, _, _), bases, projection in zip(_PROJECTION_CATALOG, scans, projections):
            values = [char_power(alpha, base) for base in bases]
            if not gnsfinite.scan_is_constant(values):
                shown = [str(v) for v in values]
                failures.append(f"alpha={alpha} {name}: scan not constant: {shown}")
            for failure in gnsfinite.projection_identity_checks(alpha, projection):
                failures.append(f"alpha={alpha} {name}: {failure}")
    return _result(
        4,
        "projection-identities",
        5.0,
        started,
        failures,
        [f"{len(_PROJECTION_CATALOG)} catalog pairs x 3 exponents"],
    )


# --- criterion 5 -----------------------------------------------------------


def criterion_conjugation_law(seed: int) -> CriterionResult:
    """g flip(A, m) g^-1 = flip(g(A), m) as exact tables for every
    g in S(2^2), A a subset of X_2, m in {3, 4}."""
    started = time.perf_counter()
    failures = []
    checked = 0
    levels = (3, 4)
    sets = [NiceSet(2, mask) for mask in range(16)]
    # each flip(A, m) once; g(A) is again a level-2 set, so its flip is listed
    flips = {(a.mask, m): flip_perm(a, m) for a in sets for m in levels}
    for g in all_permutations(2):
        lifts = {m: embed_head(g, m) for m in levels}
        for a in sets:
            image = apply_to_nice(g, a)
            for m in levels:
                left = conjugate(flips[a.mask, m], lifts[m])
                if left != flips[image.mask, m]:
                    failures.append(f"g={g!r} mask={a.mask:04b} m={m}")
                checked += 1
    return _result(5, "conjugation-law", 5.0, started, failures, [f"{checked} table equalities"])


# --- criterion 6 -----------------------------------------------------------


def criterion_derangement_sums(seed: int) -> CriterionResult:
    """Brute force equals (-1)^(k-1)(k-1) for k <= 9; the recurrence
    S_{k+1} = -k(S_k + S_{k-1}) holds for k <= 20."""
    started = time.perf_counter()
    failures = []
    for k in range(1, 10):
        brute = obstruction.signed_derangement_sum_bruteforce(k)
        closed = obstruction.signed_derangement_sum(k)
        if brute != closed:
            failures.append(f"k={k}: brute {brute} != closed {closed}")
    for k in range(2, 21):
        lhs = obstruction.signed_derangement_sum(k + 1)
        rhs = -k * (
            obstruction.signed_derangement_sum(k) + obstruction.signed_derangement_sum(k - 1)
        )
        if lhs != rhs:
            failures.append(f"recurrence fails at k={k}")
    return _result(6, "derangement-sums", 5.0, started, failures, ["k <= 9 brute, k <= 20 recurrence"])


# --- criterion 7 -----------------------------------------------------------


def criterion_stirling_obstruction(seed: int) -> CriterionResult:
    """Direct alternating sum equals m!(S(n,m) + S(n,m-1)), all values
    non-negative, for n, m <= 15.  Each S(n, m) is computed once and read
    again as the next m's S(n, m-1)."""
    started = time.perf_counter()
    failures = []
    for n in range(16):
        below = None  # S(n, m-1), when the previous m computed it
        for m in range(1, 16):
            try:
                value = obstruction.c_alpha_integer(n, m)
                here = obstruction.stirling2(n, m)
                if below is None:
                    below = obstruction.stirling2(n, m - 1)
                stirling = math.factorial(m) * (here + below)
            except (FalsificationError, InternalInconsistencyError) as exc:
                failures.append(f"C_{n}({m}): {exc}")
                below = None
                continue
            below = here
            if value != stirling:
                failures.append(f"C_{n}({m}): direct sum {value} != Stirling route {stirling}")
    return _result(7, "stirling-obstruction", 1.0, started, failures, ["n, m <= 15"])


# --- criterion 8 -----------------------------------------------------------


def criterion_alt_trace_oracle(seed: int) -> CriterionResult:
    """Literal enumeration over S(m) matches C_alpha(m)/(m! m^alpha) for
    m in {2..6}: exactly for alpha in {0,1,2,3}, within bounds for 1.5.
    S(m) is enumerated once per m for all five exponents."""
    started = time.perf_counter()
    failures = []
    for m in range(2, 7):
        dist = obstruction.signed_fixcount_distribution(m)
        for a in (0, 1, 2, 3):
            brute = obstruction.alt_trace_from_distribution(Fraction(a), dist)
            closed = obstruction.alt_trace_closed_form(Fraction(a), m)
            if brute != closed:
                failures.append(f"alpha={a} m={m}: {brute} != {closed}")
        brute = obstruction.alt_trace_from_distribution(Fraction(3, 2), dist)
        closed = obstruction.alt_trace_closed_form(Fraction(3, 2), m)
        if not brute.overlaps(closed):
            failures.append(f"alpha=3/2 m={m}: enclosures disjoint")
    return _result(8, "alt-trace-oracle", 30.0, started, failures, ["m in {2..6}"])


# --- criterion 9 -----------------------------------------------------------

_WITNESS_GRID = ("0.3", "0.5", "1.5", "2.5", "3.7", "5.25")


def criterion_noninteger_negativity(seed: int) -> CriterionResult:
    """Every non-integer alpha on the grid has its witness at
    m = floor(alpha) + 3, the first negative index, with a report for that
    same m and a certified C_alpha(m) < 0."""
    started = time.perf_counter()
    failures = []
    notes = []
    for text in _WITNESS_GRID:
        alpha = Fraction(text)
        try:
            m, report = obstruction.noninteger_witness(alpha)
        except FalsificationError as exc:
            failures.append(f"alpha={text}: {exc}")
            continue
        if report.m != m:
            failures.append(f"alpha={text}: witness m={m}, report m={report.m}")
        if m != math.floor(alpha) + 3 or report.sign != "negative":
            failures.append(f"alpha={text}: m={m} sign={report.sign}")
        notes.append(f"alpha={text}: m={m}")
    return _result(9, "noninteger-negativity", 10.0, started, failures, notes)


# --- criterion 10 ----------------------------------------------------------


def criterion_gram_psd(seed: int) -> CriterionResult:
    """Exact PSD for alpha in {0,1,2,3} on S(2^2) and on 20 seeded 20-element
    subsets of S(2^3); certified not-PSD via the sign vector at alpha = 3/2.
    Each element list is built once (`gram_build`) for all its exponents,
    and no matrix is rendered.  `gram_verdict` decides classified exponents
    by the Schur product theorem, so here the oracle `psd_check_exact`
    checks each classified matrix on its ints (`gram_ints`); a failed check
    is recorded as that matrix's failure."""
    started = time.perf_counter()
    failures = []
    s22 = gram_build(all_permutations(2))
    builds = [("on S(2^2)", s22)]
    rng = random.Random(seed + 10)
    for subset_index in range(20):
        chosen = {}
        while len(chosen) < 20:
            p = random_permutation(3, rng)
            chosen[p.images] = p
        builds.append((f"subset {subset_index}", gram_build(chosen.values())))
    alphas = [(a, Alpha(a)) for a in (0, 1, 2, 3)]
    for where, build in builds:
        for a, alpha in alphas:
            if not characters.psd_check_exact(gram_ints(alpha, build)):
                failures.append(f"alpha={a} {where}: alpha={a}: Gram matrix failed the PSD check")
    half = Fraction(3, 2)
    c_report = obstruction.c_alpha_real(half, 4)
    gram = gram_verdict(Alpha(half), s22, witness_strategy="signs")
    if c_report.sign == "negative":
        if gram.is_psd or gram.witness is None:
            failures.append(f"alpha=3/2: expected certified not-PSD, got {gram.verdict}")
    elif not gram.is_psd:
        failures.append("alpha=3/2: C_1.5(4) not negative yet gram rejected")
    return _result(
        10,
        "gram-psd",
        60.0,
        started,
        failures,
        ["4 exponents x (S(2^2) + 20 subsets), sign witness at 3/2"],
    )


# --- criterion 11 ----------------------------------------------------------


def criterion_appendix_constructions(seed: int) -> CriterionResult:
    """lemma_g1 invariants for k in {5,7,9}; mk_generators at minimal levels
    for k in {2..7}; construct_si families verified for three heads, r in {1,2}."""
    started = time.perf_counter()
    failures = []
    for k in (5, 7, 9):
        for degree in (2 * k - 2, 2 * k - 4):
            try:
                appendix.lemma_g1(k, degree)  # validates eagerly
            except FalsificationError as exc:
                failures.append(f"lemma k={k} degree={degree}: {exc}")
    for k in range(2, 8):
        try:
            appendix.mk_generators(k, appendix.minimal_level(k))
        except FalsificationError as exc:
            failures.append(f"mk_generators k={k}: {exc}")
    rng = random.Random(seed + 11)
    heads = [transposition(1, 0, 1), odometer(2), random_permutation(2, rng)]
    for head in heads:
        for r in (1, 2):
            family = appendix.construct_si(head, r)
            if len(family) != 1 << r:
                failures.append(f"head={head!r} r={r}: family size {len(family)}")
            report = appendix.verify_si_properties(head, family)
            if not report.ok:
                failures.append(f"head={head!r} r={r}: {report.to_json_dict()}")
            if family.level <= 10:  # cross-check the product form densely
                for index, member in enumerate(family):
                    dense = member.densify()
                    if dense.cycle_type() != member.cycle_type():
                        failures.append(f"head={head!r} r={r} member {index}: dense mismatch")
    return _result(
        11,
        "appendix-constructions",
        60.0,
        started,
        failures,
        ["3 lemma degrees x 2, mk k in 2..7, 3 heads x r in {1,2}"],
    )


# --- criterion 12 ----------------------------------------------------------


def criterion_determinism(seed: int, results) -> CriterionResult:
    """Rendering the full suite twice with one seed is byte-identical: the
    given results of criteria 1-11 against one fresh run."""
    started = time.perf_counter()
    first = render_text(results)
    second = render_text(run_criteria(seed))
    failures = [] if first == second else ["reports differ between runs"]
    return _result(12, "determinism", None, started, failures, ["two runs compared"])


_CRITERIA = (
    criterion_gns_identity,
    criterion_tensor_powers,
    criterion_multiplicativity,
    criterion_projection_identities,
    criterion_conjugation_law,
    criterion_derangement_sums,
    criterion_stirling_obstruction,
    criterion_alt_trace_oracle,
    criterion_noninteger_negativity,
    criterion_gram_psd,
    criterion_appendix_constructions,
)


def run_criteria(seed: int = DEFAULT_SEED) -> list:
    """Criteria 1-11 (everything except the determinism meta-check)."""
    return [fn(seed) for fn in _CRITERIA]


def run_all(seed: int = DEFAULT_SEED) -> list:
    results = run_criteria(seed)
    results.append(criterion_determinism(seed, results))
    return results


def render_text(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.number:2d} {r.name}")
        for detail in r.details:
            lines.append(f"      {detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"


def render_json_dict(results) -> dict:
    return {
        "criteria": [r.to_json_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
