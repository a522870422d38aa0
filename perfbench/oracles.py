"""Reference answers that do not come from the code under test.

numpy for permutation tables (cycle types and signs) and Gram-matrix entries,
sympy's Stirling numbers for C_n(m), plain (non-interval) mpmath at high
precision for real values and signs, and theory where theory decides the
answer.  Nothing here imports cubechar.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np


# --- permutation tables -------------------------------------------------------


def cycle_labels(table: np.ndarray) -> np.ndarray:
    """Least point of each point's cycle, by pointer doubling."""
    label = np.arange(table.size, dtype=np.int64)
    step = table.astype(np.int64)
    for _ in range(max(1, int(table.size).bit_length())):
        label = np.minimum(label, label[step])
        step = step[step]
    return label


def cycle_type_counts(table: np.ndarray) -> list:
    """Sorted [length, multiplicity] pairs of the cycle lengths."""
    lengths = np.bincount(cycle_labels(table))
    lengths = lengths[lengths > 0]
    return sorted([int(k), int(v)] for k, v in Counter(lengths.tolist()).items())


def parity_sign(table: np.ndarray) -> int:
    cycles = sum(v for _, v in cycle_type_counts(table))
    return -1 if (table.size - cycles) % 2 else 1


# --- Gram matrices ---------------------------------------------------------------


def agreement_counts(elements: np.ndarray) -> np.ndarray:
    """counts[i, j] = #{x : g_i(x) = g_j(x)} = |Fix(g_i g_j^-1)|."""
    return (elements[:, None, :] == elements[None, :, :]).sum(axis=2)


def classified_entry(count: int, size: int, alpha: str) -> str:
    """(count/size)^alpha for a non-negative integer alpha or 'inf', as a rational string."""
    if alpha == "inf":
        return "1" if count == size else "0"
    return str(Fraction(count, size) ** int(alpha))


def real_matrix(counts: np.ndarray, size: int, alpha: Fraction, dps: int = 40):
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha.numerator) / alpha.denominator
        return mpmath.matrix(
            [
                [(mpmath.mpf(int(c)) / size) ** a for c in row]
                for row in counts
            ]
        )


def min_eigenvalue(matrix, dps: int = 40):
    with mpmath.workdps(dps):
        return min(mpmath.eigsy(matrix, eigvals_only=True))


def quadratic_form(matrix, vector, dps: int = 40):
    with mpmath.workdps(dps):
        v = [mpmath.mpf(x.numerator) / x.denominator for x in map(Fraction, vector)]
        n = len(v)
        return mpmath.fsum(v[i] * matrix[i, j] * v[j] for i in range(n) for j in range(n))


# --- the alternating sums --------------------------------------------------------


def c_alpha(alpha: Fraction, m: int, bits: int):
    """sum_j binom(m,j) (-1)^(j+1) (j-1) (m-j)^alpha, 0^alpha = 0, in plain mpmath."""
    with mpmath.workprec(bits):
        a = mpmath.mpf(alpha.numerator) / alpha.denominator
        total = mpmath.mpf(0)
        for j in range(m):
            total += math.comb(m, j) * (-1) ** (j + 1) * (j - 1) * mpmath.mpf(m - j) ** a
        return total


def alt_trace(alpha: Fraction, m: int, bits: int):
    """C_alpha(m) / (m! m^alpha) for non-integer alpha."""
    with mpmath.workprec(bits):
        a = mpmath.mpf(alpha.numerator) / alpha.denominator
        return c_alpha(alpha, m, bits) / (math.factorial(m) * mpmath.mpf(m) ** a)


def c_integer(n: int, m: int) -> int:
    """m! (S(n, m) + S(n, m - 1)) from sympy's Stirling numbers."""
    from sympy.functions.combinatorial.numbers import stirling

    return math.factorial(m) * int(stirling(n, m, kind=2) + stirling(n, m - 1, kind=2))


def signed_derangement_sum(k: int) -> int:
    """Theory: the sign sum over derangements of S(k) is (-1)^(k-1) (k-1)."""
    return (-1) ** (k - 1) * (k - 1)


def sign_of(value) -> str:
    return "negative" if value < 0 else "positive" if value > 0 else "zero"


def within(value, lo: Fraction, hi: Fraction, bits: int) -> bool:
    """lo <= value <= hi, widened by the enclosure's own width."""
    with mpmath.workprec(bits):
        width = mpmath.mpf(hi.numerator) / hi.denominator - mpmath.mpf(lo.numerator) / lo.denominator
        low = mpmath.mpf(lo.numerator) / lo.denominator - width
        high = mpmath.mpf(hi.numerator) / hi.denominator + width
        return low <= value <= high
