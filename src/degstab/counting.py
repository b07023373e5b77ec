"""Exact counting formulas for functions without degree-drop hyperplanes.

Everything here is arbitrary-precision integer / rational arithmetic; no
floating point except in display helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Optional

from .errors import InvariantViolationError


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_2^n, [n k]_2."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    if num % den:
        raise InvariantViolationError(f"[{n} {k}]_2 = {num}/{den} is not an integer")
    return num // den


def hyperplane_histogram_entry(r: int, n: int, j: int) -> int:
    """Number of nonzero homogeneous degree-r functions on F_2^n whose
    degree-drop hyperplane normals span exactly a j-dimensional space
    (equivalently: with exactly 2**j - 1 degree-drop hyperplanes)."""
    if not 0 <= j <= r <= n:
        raise ValueError(f"need 0 <= j <= r <= n, got r={r}, n={n}, j={j}")
    total = 0
    for i in range(r - j + 1):
        term = (1 << (i * (i - 1) // 2)) * gaussian_binomial(n - j, i)
        term *= (1 << comb(n - j - i, r - j - i)) - 1
        total += -term if i & 1 else term
    return gaussian_binomial(n, j) * total


def k1_count(r: int, n: int) -> int:
    """|K_{1,r,n}|: nonzero homogeneous degree-r functions with no degree-drop
    hyperplane at all."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return hyperplane_histogram_entry(r, n, 0)


def dd_hyperplane_histogram(r: int, n: int) -> list[int]:
    """Entry j (j = 0..r) counts functions with exactly 2**j - 1 degree-drop
    hyperplanes. Entry 0 is k1_count; entry r-1 is always 0; the entries sum
    to 2**C(n,r) - 1."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    hist = [hyperplane_histogram_entry(r, n, j) for j in range(r + 1)]
    if sum(hist) != (1 << comb(n, r)) - 1:
        raise InvariantViolationError(
            f"histogram for r={r}, n={n} sums to {sum(hist)}, not 2**C(n,r) - 1"
        )
    if r >= 1 and hist[r - 1]:
        raise InvariantViolationError(
            f"histogram entry r-1 for r={r}, n={n} is {hist[r - 1]}, not 0"
        )
    return hist


@dataclass(frozen=True)
class ProbabilityReport:
    """Probability that a random nonzero homogeneous degree-r function has at
    least one degree-drop hyperplane, with the published bounds."""

    r: int
    n: int
    exact: Fraction
    lower: Optional[Fraction]  # valid for 3 <= r <= n-3
    upper: Optional[Fraction]
    approx: Fraction  # 2**-(C(n-1,r) - n)
    r2_closed_form: Optional[Fraction]  # only for r = 2


def dd_probability(r: int, n: int) -> ProbabilityReport:
    total = (1 << comb(n, r)) - 1
    exact = Fraction(total - k1_count(r, n), total)

    lower = upper = None
    if 3 <= r <= n - 3:
        first = Fraction(((1 << n) - 1) * ((1 << comb(n - 1, r - 1)) - 1), total)
        second = Fraction(
            2 * gaussian_binomial(n, 2) * ((1 << comb(n - 2, r - 2)) - 1), total
        )
        upper = first
        lower = first - second

    approx = Fraction(2) ** -(comb(n - 1, r) - n)

    r2 = None
    if r == 2:
        r2 = Fraction(((1 << n) - 1) * ((1 << (n - 1)) - 1), 3 * ((1 << comb(n, 2)) - 1))
        if r2 != exact:
            raise InvariantViolationError(f"quadratic closed form {r2} != exact {exact} at n={n}")
    return ProbabilityReport(r, n, exact, lower, upper, approx, r2)


def format_probability(x: Fraction, digits: int = 9) -> str:
    """Decimal display with the given number of significant digits."""
    return f"{float(x):.{digits}g}"


def degstab_bounds(r: int, n: int) -> tuple[int, int]:
    """Best published closed-form bounds on the maximum degree stability over
    nonzero functions of degree r on F_2^n (both ends inclusive).

    r = 1, n-1, n and r = 2 pin the value exactly.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if r == 1 or r >= n - 1:
        return (0, 0)
    lower = (n - r) // r  # direct sum of floor(n/r) monomials
    upper = n - r - 1
    if r == 2:
        upper = lower  # quadratics achieve the direct-sum bound exactly
    if r in (3, 4) and n >= 8:
        upper = min(upper, n - 6)
    if r % 2 == 1 and 5 <= r <= n - 2:
        upper = min(upper, n - r - 2)
    return (lower, upper)
