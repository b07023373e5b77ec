"""Affine-invariant quantities attached to a homogeneous function.

R_k(f) is the kernel dimension of the linear map sending a homogeneous
degree-k polynomial g to the top-degree part of g*f. Its positivity is
necessary for a co-dimension-k degree-drop space to exist, and R_1 determines
the number of degree-drop hyperplanes exactly (2**R_1 - 1).

r_k ranks the transpose from the monomial masks alone, with one row per
degree-(r+k) monomial that some product x^m * x^mu reaches: it builds only
the reached monomials and needs no truth table.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import degreedrop, f2
from .anf import ANF
from .errors import EnumerationRangeError, NotHomogeneousError, ZeroFunctionError


class RkValue(NamedTuple):
    k: int
    dim: int


def r_k_of_masks(n: int, top: Sequence[int], k: int) -> int:
    """R_k of the homogeneous function with monomial masks `top`, for any n:
    C(n, k) minus the rank of the transposed map."""
    width = math.comb(n, k)
    top = degreedrop._checked_top(n, top)
    return width - f2.rank_of_rows(degreedrop._conditions(n, top, k), width)


def r_k(f: ANF, k: int) -> RkValue:
    """Kernel dimension of g -> top part of g*f on degree-k inputs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not f:
        raise ZeroFunctionError("R_k is undefined for the zero function")
    if not f.is_homogeneous():
        raise NotHomogeneousError("R_k requires a homogeneous function")
    return RkValue(k, r_k_of_masks(f.n, f.monomials(), k))


def r_values(f: ANF, k_max: int) -> list[int]:
    if k_max < 1:
        raise EnumerationRangeError(f"k_max must be >= 1, got {k_max}")
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
    if not f:
        raise ZeroFunctionError("fast points are undefined for the zero function")
    return f.n - len(degreedrop.fast_point_basis(f.n, f.top_part().monomials()))
