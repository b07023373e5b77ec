"""Affine-invariant quantities attached to a homogeneous function.

R_k(f) is the kernel dimension of the linear map sending a homogeneous
degree-k polynomial g to the top-degree part of g*f. Its positivity is
necessary for a co-dimension-k degree-drop space to exist, and R_1 determines
the number of degree-drop hyperplanes exactly (2**R_1 - 1).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import degreedrop, f2
from .anf import ANF
from .bits import vars_to_mask
from .errors import NotHomogeneousError, ZeroFunctionError


class RkValue(NamedTuple):
    k: int
    dim: int


def _top_masks(f: ANF) -> tuple[int, list[int]]:
    if not f:
        raise ZeroFunctionError("R_k is undefined for the zero function")
    if not f.is_homogeneous():
        raise NotHomogeneousError("R_k requires a homogeneous function")
    return int(f.degree()), list(f.monomials())


def r_k(f: ANF, k: int) -> RkValue:
    """Kernel dimension of g -> top part of g*f on degree-k inputs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    r, monomials = _top_masks(f)
    n = f.n
    domain = [vars_to_mask(c) for c in itertools.combinations(range(1, n + 1), k)]
    codomain = {
        vars_to_mask(c): i
        for i, c in enumerate(itertools.combinations(range(1, n + 1), r + k))
    }
    # top part of x_m * f keeps exactly the products with disjoint monomials,
    # and those never collide, so no cancellation bookkeeping is needed
    rows = []
    for m in domain:
        row = 0
        for mu in monomials:
            if mu & m == 0:
                row |= 1 << codomain[mu | m]
        rows.append(row)
    rank = f2.rank_of_rows(rows, len(codomain)) if codomain else 0
    return RkValue(k, len(domain) - rank)


def r_values(f: ANF, k_max: int) -> list[int]:
    return [r_k(f, k).dim for k in range(1, k_max + 1)]


def fingerprint(f: ANF, k_max: int = 3) -> tuple[int, ...]:
    """Flat degree-drop profile tuple (count_1, count_2, new_2, ...)."""
    return degreedrop.profile(f, k_max).fingerprint()


def rank_mod_lower(f: ANF) -> int:
    """n minus the fast-point space dimension.

    Estimates the minimum number of variables needed to express the top part
    of f up to affine equivalence; exact when the estimate equals n (a
    function has no fast points iff no change of variables removes one).
    """
    return f.n - degreedrop.fast_points(f).dim
