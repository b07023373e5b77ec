"""Constructions of functions without degree-drop spaces, and the sufficient
conditions that certify them.

The checkers work on the monomial support of a homogeneous function, so they
also accept a plain MonomialSet; that keeps the randomized construction usable
at variable counts far beyond the truth-table ceiling.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Union

from .anf import ANF, format_monomial_masks
from .bits import check_mask, mask_to_vars, vars_to_mask
from .errors import (
    DivisibilityError,
    InvariantViolationError,
    NotHomogeneousError,
    PreconditionViolatedError,
    TooManyMonomialsError,
    ZeroFunctionError,
)


@dataclass(frozen=True)
class MonomialSet:
    """Homogeneous degree-r function given by its monomial masks only."""

    n: int
    r: int
    masks: tuple[int, ...]
    core: tuple[int, ...] = ()
    extension: tuple[int, ...] = ()
    max_candidate_failures: int = field(default=0, compare=False)

    def __post_init__(self):
        for m in self.masks:
            if check_mask(self.n, m).bit_count() != self.r:
                raise ValueError(f"monomial mask {m:#x} does not have degree {self.r}")

    def to_anf(self) -> ANF:
        return ANF.from_monomials(self.n, self.masks)

    def to_text(self) -> str:
        return format_monomial_masks(self.n, self.masks)

    def __str__(self) -> str:
        return self.to_text()


FunctionLike = Union[ANF, MonomialSet]


def _support(f: FunctionLike) -> tuple[int, list[int]]:
    """(n, monomial masks); requires a nonzero homogeneous function."""
    if isinstance(f, MonomialSet):
        return f.n, sorted(f.masks)
    if not f:
        raise ZeroFunctionError("conditions are undefined for the zero function")
    if not f.is_homogeneous():
        raise NotHomogeneousError("conditions apply to homogeneous functions")
    return f.n, list(f.monomials())


# -- necessary conditions ------------------------------------------------------


def check_no_common_variable(f: FunctionLike) -> bool:
    """No variable occurs in every monomial (necessary for no degree-drop
    hyperplane: a shared variable gives the drop hyperplane x_i = 0)."""
    _, masks = _support(f)
    shared = masks[0]
    for m in masks[1:]:
        shared &= m
    return shared == 0


def check_avoidance(f: FunctionLike, k: int) -> bool:
    """Every set of k variables misses at least one monomial entirely
    (necessary for no codim-k degree-drop space)."""
    n, masks = _support(f)
    if k < 1 or k > n:
        raise ValueError(f"k={k} out of range for n={n}")
    for combo in itertools.combinations(range(n), k):
        sel = 0
        for c in combo:
            sel |= 1 << c
        if all(m & sel for m in masks):
            return False
    return True


# -- sufficient conditions -----------------------------------------------------


def check_pairwise_intersection(f: FunctionLike, bound: int) -> bool:
    """All pairs of distinct monomials share at most `bound` variables."""
    _, masks = _support(f)
    return all(
        (a & b).bit_count() <= bound
        for a, b in itertools.combinations(masks, 2)
    )


def check_low_overlap(f: FunctionLike, k: int = 1) -> bool:
    """Variable-avoidance plus pairwise intersections <= r-k-1: together they
    guarantee no degree-drop space of co-dimension k (hence none below)."""
    _, masks = _support(f)
    r = masks[0].bit_count()
    return check_avoidance(f, k) and check_pairwise_intersection(f, r - k - 1)


class WitnessResult(NamedTuple):
    ok: bool
    witness: dict[int, int]  # variable index -> witness monomial mask


def check_hyperplane_sufficient(f: FunctionLike) -> WitnessResult:
    """Per-variable witness condition ruling out all degree-drop hyperplanes.

    For every occurring variable x_i there must be a monomial m avoiding x_i
    such that no monomial of f equals x_i * m / x_t for t in m. Returns the
    witness monomial per variable on success.
    """
    n, masks = _support(f)
    support = set(masks)
    union = 0
    for m in masks:
        union |= m
    witness: dict[int, int] = {}
    for i in mask_to_vars(union):
        bit_i = 1 << (i - 1)
        found = None
        for m in masks:
            if m & bit_i:
                continue
            if all((m | bit_i) ^ (1 << (t - 1)) not in support for t in mask_to_vars(m)):
                found = m
                break
        if found is None:
            return WitnessResult(False, {})
        witness[i] = found
    return WitnessResult(True, witness)


def check_fastpoint_sufficient(f: FunctionLike) -> WitnessResult:
    """Dual witness condition ruling out all fast points.

    For every variable x_i there must be a monomial m containing x_i such
    that no monomial of f equals x_t * m / x_i for t outside m. All n
    variables must be covered: a variable outside every monomial makes its
    unit direction a fast point outright, so it can never be witnessed.
    """
    n, masks = _support(f)
    support = set(masks)
    witness: dict[int, int] = {}
    for i in range(1, n + 1):
        bit_i = 1 << (i - 1)
        found = None
        for m in masks:
            if not m & bit_i:
                continue
            base = m ^ bit_i
            if all(
                base | (1 << t) not in support
                for t in range(n)
                if not (m >> t) & 1
            ):
                found = m
                break
        if found is None:
            return WitnessResult(False, {})
        witness[i] = found
    return WitnessResult(True, witness)


def complement_membership(f: FunctionLike, k: int = 1) -> bool:
    """Sufficient condition for the complement to have no degree-drop space of
    co-dimension k: pairwise intersections <= r-k-1 and every k variables are
    covered jointly by some monomial. False means no guarantee, not a
    disproof."""
    n, masks = _support(f)
    r = masks[0].bit_count()
    if not check_pairwise_intersection(f, r - k - 1):
        return False
    for combo in itertools.combinations(range(n), k):
        sel = 0
        for c in combo:
            sel |= 1 << c
        if not any(m & sel == sel for m in masks):
            return False
    return True


# -- constructions --------------------------------------------------------------


def randomized_construction(n: int, r: int, seed: int = 0, extend_prob: float = 0.0) -> MonomialSet:
    """Randomized construction of a degree-r function on n variables with no
    degree-drop hyperplane, certified by the per-variable witness condition.

    Proven to terminate for n >= 10 with 3 <= r <= n-4, and for n = 9 with
    r in {4, 5}; other parameters raise PreconditionViolatedError. One core
    monomial is chosen per variable; with extend_prob > 0, further compatible
    monomials are appended with that probability each.
    """
    if not 0 <= extend_prob <= 1:  # also rejects NaN
        raise ValueError(f"extend_prob must lie in [0, 1], got {extend_prob}")
    ok = (n >= 10 and 3 <= r <= n - 4) or (n == 9 and r in (4, 5))
    if not ok:
        raise PreconditionViolatedError(
            f"construction is only proven for n>=10, 3<=r<=n-4 or n=9, r in {{4,5}}; "
            f"got n={n}, r={r}"
        )
    rng = random.Random(seed)
    fail_bound = (n - 1) * (n - 2)

    chosen: list[int] = []
    chosen_set: set[int] = set()
    forbidden: set[int] = set()
    max_failures = 0
    for i in range(1, n + 1):
        others = [v for v in range(1, n + 1) if v != i]
        bit_i = 1 << (i - 1)
        failed: set[int] = set()
        while True:
            m = vars_to_mask(rng.sample(others, r))
            if m in forbidden or m in failed:
                continue
            blockers = {(m | bit_i) ^ (1 << (t - 1)) for t in mask_to_vars(m)}
            if blockers & chosen_set:
                failed.add(m)
                stuck = sum(1 for c in forbidden | failed if not c & bit_i)
                max_failures = max(max_failures, stuck)
                if stuck > fail_bound:
                    raise InvariantViolationError(
                        f"{stuck} failed candidates for x{i} exceed the bound {fail_bound}"
                    )
                continue
            break
        if m not in chosen_set:
            chosen.append(m)
            chosen_set.add(m)
        forbidden |= blockers

    extension: list[int] = []
    if extend_prob > 0:
        for combo in itertools.combinations(range(1, n + 1), r):
            m = vars_to_mask(combo)
            if m in forbidden or m in chosen_set:
                continue
            if rng.random() < extend_prob:
                extension.append(m)

    result = MonomialSet(
        n,
        r,
        tuple(sorted(chosen_set | set(extension))),
        core=tuple(chosen),
        extension=tuple(extension),
        max_candidate_failures=max_failures,
    )
    if not check_hyperplane_sufficient(result).ok:
        raise InvariantViolationError("the construction fails its own certificate")
    return result


def circular_construction(n: int, r: int, k: int) -> ANF:
    """n/(k+1) degree-r monomials of consecutive variables on a cycle, stepped
    by k+1. Pairwise intersections are r-k-1 or less by construction; the
    variable-avoidance condition for co-dimension k is NOT guaranteed for
    small n and should be checked with check_avoidance."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if n % (k + 1) != 0:
        raise DivisibilityError(f"need (k+1) | n, got n={n}, k={k}")
    if not k + 1 <= r <= n - k - 1:
        raise ValueError(f"need k+1 <= r <= n-k-1, got r={r}, n={n}, k={k}")
    masks = []
    for j in range(n // (k + 1)):
        start = j * (k + 1)
        masks.append(vars_to_mask(((start + t) % n) + 1 for t in range(r)))
    ms = MonomialSet(n, r, tuple(sorted(set(masks))))
    if len(ms.masks) != n // (k + 1):
        raise InvariantViolationError(
            f"{len(ms.masks)} distinct monomials, expected n/(k+1) = {n // (k + 1)}"
        )
    if not check_pairwise_intersection(ms, r - k - 1):
        raise InvariantViolationError(
            f"two monomials share more than r-k-1 = {r - k - 1} variables"
        )
    return ms.to_anf()


def direct_sum(r: int, p: int, n: int) -> ANF:
    """x_1..x_r + x_{r+1}..x_{2r} + ... with p summands, on n variables."""
    if r < 1 or p < 1:
        raise ValueError("need r >= 1 and p >= 1")
    if p * r > n:
        raise TooManyMonomialsError(f"{p} disjoint degree-{r} monomials need {p*r} <= n variables")
    masks = [vars_to_mask(range(j * r + 1, j * r + r + 1)) for j in range(p)]
    return ANF.from_monomials(n, masks)
