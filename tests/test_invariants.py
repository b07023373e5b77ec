"""Multiplication-kernel invariants R_k."""

import random
from itertools import combinations
from math import comb

import pytest

import oracles
from degstab import ANF, catalog, dd_hyperplane_normal_space, degreedrop, has_degree_drop_space, r_k, r_values
from degstab.errors import EnumerationRangeError, NotHomogeneousError, ZeroFunctionError
from degstab.invariants import fingerprint, r_k_of_masks, rank_mod_lower
from helpers import random_homogeneous


def _rk_oracle(f: ANF, k: int) -> int:
    """Kernel dimension computed by explicit polynomial multiplication."""
    n, r = f.n, int(f.degree())
    domain = [
        sum(1 << (v - 1) for v in c) for c in combinations(range(1, n + 1), k)
    ]
    kernel = 0
    for g_masks_bits in range(1 << len(domain)):
        g = ANF.from_monomials(
            n, [m for i, m in enumerate(domain) if g_masks_bits >> i & 1]
        )
        product = g * f
        if product.homogeneous_part(r + k) == ANF.zero(n):
            kernel += 1
    assert kernel.bit_count() == 1  # kernel of a linear map
    return kernel.bit_length() - 1


def test_rk_matches_explicit_multiplication():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(3, 5)
        r = rng.randint(1, n - 1)
        f = random_homogeneous(rng, n, r)
        for k in (1, 2):
            if comb(n, k) > 10:
                continue
            got = r_k(f, k)
            assert got.k == k
            assert got.dim == _rk_oracle(f, k)


def _rk_cases():
    """The 31 catalog cubics at n = 8, then random homogeneous functions
    with n <= 10."""
    cases = [rep.anf(8) for rep in catalog.load_catalog()]
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 10)
        cases.append(random_homogeneous(rng, n, rng.randint(1, n)))
    return cases


def test_rk_matches_the_dense_oracle():
    for f in _rk_cases():
        top = f.monomials()
        dims = [r_k(f, k).dim for k in (1, 2, 3)]
        assert dims == [oracles.dense_r_k(f.n, top, k) for k in (1, 2, 3)]
        assert r_values(f, 3) == dims
        assert dims[0] == len(degreedrop.hyperplane_normal_basis(f.n, top))
        assert r_k_of_masks(f.n, top, 2) == dims[1]


def test_r_values_rejects_an_empty_range():
    f = ANF.parse("123", 5)
    for k_max in (0, -1):
        with pytest.raises(EnumerationRangeError, match=f"got {k_max}"):
            r_values(f, k_max)


def test_r1_determines_hyperplane_count():
    rng = random.Random(2)
    for _ in range(80):
        n = rng.randint(2, 7)
        r = rng.randint(1, n)
        f = random_homogeneous(rng, n, r)
        count = dd_hyperplane_normal_space(f).count
        assert count == (1 << r_k(f, 1).dim) - 1


def test_rk_positive_when_drop_exists():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(3, 6)
        r = rng.randint(1, n - 1)
        f = random_homogeneous(rng, n, r)
        for k in (1, 2):
            if has_degree_drop_space(f, k):
                assert r_k(f, k).dim > 0


def test_rk_graceful_when_codomain_vanishes():
    # degree r with r + k > n: the map's target has no monomials, so the
    # kernel is the whole domain
    f = ANF.parse("1234", 5)
    assert r_k(f, 2).dim == comb(5, 2)
    assert r_values(f, 3) == [r_k(f, 1).dim, comb(5, 2), comb(5, 3)]


def test_r_values_prefix_consistency():
    rng = random.Random(4)
    f = random_homogeneous(rng, 6, 3)
    vals = r_values(f, 3)
    assert vals == [r_k(f, k).dim for k in (1, 2, 3)]


def test_rk_rejects_bad_input():
    with pytest.raises(NotHomogeneousError):
        r_k(ANF.parse("12+3", 4), 1)
    with pytest.raises(ZeroFunctionError):
        r_k(ANF.zero(4), 1)
    with pytest.raises(ValueError):
        r_k(ANF.parse("12", 4), 0)


def test_fingerprint_matches_profile():
    f = ANF.parse("123+456", 8)
    assert fingerprint(f, k_max=3) == (0, 49, 49, 3059, 168)


def test_rank_mod_lower():
    # 12+34 genuinely needs 4 variables; 123 in 5 variables needs 3
    assert rank_mod_lower(ANF.parse("12+34", 4)) == 4
    assert rank_mod_lower(ANF.parse("123", 5)) == 5 - 2
