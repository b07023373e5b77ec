"""Closed forms for special families: quadratics, degrees n, n-1, n-2, and
symmetric functions."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import f2
from .anf import ANF, NEG_INF
from .bits import popcount_table, vars_to_mask
from .errors import InvariantViolationError, NotQuadraticError, NotSymmetricError


# -- quadratics ------------------------------------------------------------------


def quadratic_coefficient_matrix(f: ANF) -> f2.F2Matrix:
    """Symmetric zero-diagonal matrix B with B[i][j] = coefficient of x_i x_j.

    Requires deg(f) = 2; linear and constant terms are ignored (they do not
    change degree-drop behaviour)."""
    if f.degree() != 2:
        raise NotQuadraticError(f"need degree exactly 2, got {f.degree()}")
    n = f.n
    rows = [0] * n
    for m in f.monomials():
        if m.bit_count() != 2:
            continue
        lo = (m & -m).bit_length() - 1
        hi = m.bit_length() - 1
        rows[lo] |= 1 << hi
        rows[hi] |= 1 << lo
    return f2.F2Matrix(rows, n)


def quadratic_t(f: ANF) -> int:
    """Half the rank of the quadratic coefficient matrix; f is equivalent to
    x1x2 + x3x4 + ... + x_{2t-1}x_{2t} (plus affine terms)."""
    rank = quadratic_coefficient_matrix(f).rank()
    if rank % 2:
        raise InvariantViolationError(f"alternating matrix of odd rank {rank}")
    return rank // 2


def quadratic_deg_stab(f: ANF) -> int:
    """Degree stability of a quadratic is t - 1."""
    return quadratic_t(f) - 1


def canonical_quadratic(t: int, n: int) -> ANF:
    """x1x2 + x3x4 + ... with t summands on n variables."""
    if t < 1 or 2 * t > n:
        raise ValueError(f"need 1 <= t <= n/2, got t={t}, n={n}")
    return ANF.from_monomials(n, [vars_to_mask((2 * j + 1, 2 * j + 2)) for j in range(t)])


# -- degrees n, n-1, n-2 -----------------------------------------------------------


@dataclass(frozen=True)
class HighDegreeFacts:
    """What is known in closed form for degree r in {n-2, n-1, n}."""

    r: int
    n: int
    deg_stab: int
    k1_empty: bool  # no function of this degree avoids degree-drop hyperplanes
    dd_hyperplane_count: Optional[int]  # exact count when it is the same for all f
    note: str


def high_degree_facts(r: int, n: int) -> HighDegreeFacts:
    if r == n:
        return HighDegreeFacts(
            r, n, 0, True, (1 << n) - 1,
            "every hyperplane restriction loses the full-degree monomial",
        )
    if r == n - 1:
        return HighDegreeFacts(
            r, n, 0, True, (1 << (n - 1)) - 1,
            "every degree n-1 function has exactly 2^(n-1)-1 degree-drop hyperplanes",
        )
    if r == n - 2:
        if n % 2 == 1:
            return HighDegreeFacts(
                r, n, 0, True, None,
                "odd n: complements are quadratics, which always have fast points",
            )
        return HighDegreeFacts(
            r, n, 1, False, None,
            "even n: complements of full-rank quadratics avoid drop hyperplanes, "
            "but co-dimension 2 always drops",
        )
    raise ValueError(f"closed forms cover r in {{n-2, n-1, n}}, got r={r}, n={n}")


# -- symmetric functions --------------------------------------------------------------


def symmetric_from_weights(n: int, values: Sequence[int]) -> ANF:
    """Symmetric function with the given value on each Hamming weight 0..n."""
    if len(values) != n + 1:
        raise ValueError(f"need {n + 1} weight values")
    v = np.asarray(values, dtype=np.uint8) & 1
    return ANF.from_truth_table(v[popcount_table(n)])


def elementary_symmetric(n: int, r: int) -> ANF:
    """Sum of all degree-r monomials."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n")
    return ANF(n, (popcount_table(n) == r).astype(np.uint8))


def majority(n: int) -> ANF:
    """1 on points of Hamming weight > n/2 (ties at even n give 0).

    Its degree is 2**floor(log2 n)."""
    pc = popcount_table(n)
    return ANF.from_truth_table((pc > n / 2).astype(np.uint8))


@dataclass(frozen=True)
class SymmetricVerdict:
    """Degree-drop hyperplanes of a symmetric function of degree 2 <= r <= n-2."""

    n: int
    r: int
    count: int  # 0 or 1
    normal: Optional[int]  # the all-ones normal when count == 1


def symmetric_dd(n: int, r: int) -> SymmetricVerdict:
    """Even degree: no degree-drop hyperplane. Odd degree: exactly one, with
    the all-ones normal (x1 + ... + xn = const)."""
    if not 2 <= r <= n - 2:
        raise ValueError(f"the symmetric closed form needs 2 <= r <= n-2, got r={r}, n={n}")
    if r % 2 == 0:
        return SymmetricVerdict(n, r, 0, None)
    return SymmetricVerdict(n, r, 1, (1 << n) - 1)


class DropAmount(enum.Enum):
    NO_DROP = "no_drop"
    ONE = "drops_by_1"
    AT_LEAST_TWO = "drops_by_at_least_2"


def symmetric_drop_amount(f: ANF, omega: int, eps: int) -> DropAmount:
    """Exact drop over the affine hyperplane x_{i_1}+...+x_{i_omega} = eps.

    By symmetry only the weight omega of the normal matters. Covers symmetric
    f with 2 <= deg f <= n; the answer distinguishes a drop of exactly 1 from
    a drop of 2 or more.
    """
    if not f.is_symmetric():
        raise NotSymmetricError("drop amounts by normal weight need a symmetric function")
    n = f.n
    d = f.degree()
    if d is NEG_INF or d < 2:
        raise ValueError("drop analysis needs deg f >= 2")
    r = int(d)
    if not 1 <= omega <= n:
        raise ValueError(f"normal weight must be 1..{n}")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")

    if r <= n - 2:
        is_drop = r % 2 == 1 and omega == n
    elif r == n - 1:
        is_drop = omega % 2 == 0
    else:  # r == n
        is_drop = True
    if not is_drop:
        return DropAmount.NO_DROP

    has_rm1 = bool(f.homogeneous_part(r - 1))
    if has_rm1:
        return DropAmount.ONE if eps == 0 else DropAmount.AT_LEAST_TWO
    if r == n - 1 and omega < n and omega % 2 == 0:
        return DropAmount.ONE  # both halves drop by exactly one here
    if r == n and omega % 2 == 0:
        return DropAmount.ONE if eps == 0 else DropAmount.AT_LEAST_TWO
    return DropAmount.AT_LEAST_TWO if eps == 0 else DropAmount.ONE
