"""Checkable conditions and constructions for drop-free functions."""

import random

import pytest

from degstab import ANF, deg_stab, dd_hyperplane_normal_space, fast_points, has_degree_drop_space
from degstab.construct import (
    MonomialSet,
    randomized_construction,
    check_no_common_variable,
    check_avoidance,
    check_fastpoint_sufficient,
    check_pairwise_intersection,
    check_low_overlap,
    check_hyperplane_sufficient,
    circular_construction,
    complement_membership,
    direct_sum,
)
from degstab.errors import (
    DivisibilityError,
    NotHomogeneousError,
    PreconditionViolatedError,
    TooManyMonomialsError,
    VariableIndexError,
)
from helpers import random_homogeneous, sparse_homogeneous


def test_c1_shared_variable():
    assert not check_no_common_variable(ANF.parse("123+124", 5))  # x1, x2 in every monomial
    assert check_no_common_variable(ANF.parse("123+456", 6))
    assert check_no_common_variable(ANF.parse("123+145+245", 5))


def test_ck_variable_avoidance():
    f = ANF.parse("123+456", 6)
    assert check_avoidance(f, 1)
    # picking x1 and x4 touches both monomials
    assert not check_avoidance(f, 2)


def test_conditions_are_necessary():
    # whenever the condition fails, a drop space of that codim must exist
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(3, 6)
        r = rng.randint(2, n - 1)
        f = sparse_homogeneous(rng, n, r, 5)
        for k in (1, 2):
            if k >= n:
                continue
            if not check_avoidance(f, k):
                assert has_degree_drop_space(f, k)


def test_pairwise_intersection():
    f = ANF.parse("123+145", 5)
    assert check_pairwise_intersection(f, 1)
    assert not check_pairwise_intersection(f, 0)


def test_low_overlap_is_sufficient():
    rng = random.Random(2)
    hits = 0
    for _ in range(600):
        n = rng.randint(4, 7)
        r = rng.randint(2, n - 2)
        f = sparse_homogeneous(rng, n, r, 4)
        for k in (1, 2):
            if r - k - 1 < 0:
                continue
            if check_low_overlap(f, k):
                hits += 1
                assert not has_degree_drop_space(f, k)
    assert hits > 20  # the sampler must actually exercise the condition


def test_hyperplane_condition_is_sufficient_and_witnessed():
    rng = random.Random(3)
    hits = 0
    for _ in range(300):
        n = rng.randint(4, 7)
        r = rng.randint(2, n - 2)
        f = sparse_homogeneous(rng, n, r, 5)
        res = check_hyperplane_sufficient(f)
        if not res.ok:
            continue
        hits += 1
        assert dd_hyperplane_normal_space(f).count == 0
        support = set(f.monomials())
        for i, m in res.witness.items():
            assert not m >> (i - 1) & 1  # witness avoids the variable
            assert m in support
    assert hits > 10


def test_fastpoint_condition_is_sufficient():
    rng = random.Random(4)
    hits = 0
    for _ in range(300):
        n = rng.randint(4, 7)
        r = rng.randint(2, n - 1)
        f = sparse_homogeneous(rng, n, r, 5)
        res = check_fastpoint_sufficient(f)
        if not res.ok:
            continue
        hits += 1
        assert fast_points(f).count == 0
        for i, m in res.witness.items():
            assert m >> (i - 1) & 1  # witness contains the variable
    assert hits > 10


def test_conditions_dual_under_complement():
    # no-drop-hyperplane witness for f is exactly the no-fast-point witness
    # for its complement
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(4, 7)
        r = rng.randint(2, n - 2)
        f = sparse_homogeneous(rng, n, r, 5)
        assert check_hyperplane_sufficient(f).ok == check_fastpoint_sufficient(f.complement()).ok


def test_complement_membership_is_sufficient():
    rng = random.Random(6)
    hits = 0
    for _ in range(600):
        n = rng.randint(4, 7)
        r = rng.randint(2, n - 1)
        f = sparse_homogeneous(rng, n, r, 4)
        if complement_membership(f, 1):
            hits += 1
            assert not has_degree_drop_space(f.complement(), 1)
    assert hits > 10


def test_conditions_reject_bad_input():
    with pytest.raises(NotHomogeneousError):
        check_no_common_variable(ANF.parse("12+3", 4))
    with pytest.raises(ValueError):
        check_avoidance(ANF.parse("12", 4), 0)


def test_monomial_set_validates():
    with pytest.raises(ValueError):
        MonomialSet(4, 2, (0b0111,))  # degree-3 mask in a degree-2 set
    with pytest.raises(VariableIndexError):
        MonomialSet(4, 2, (0b10001,))  # x5 in a 4-variable set
    ms = MonomialSet(4, 2, (0b0011, 0b1100))
    assert ms.to_anf() == ANF.parse("12+34", 4)
    assert str(ms) == "12+34"


def test_randomized_construction_is_deterministic_per_seed():
    a = randomized_construction(10, 3, seed=42)
    b = randomized_construction(10, 3, seed=42)
    assert a.masks == b.masks
    assert randomized_construction(10, 3, seed=43).masks != a.masks


def test_randomized_construction_certificate_and_scan():
    for seed in range(10):
        result = randomized_construction(10, 3, seed=seed)
        assert check_hyperplane_sufficient(result).ok
        assert len(result.core) <= 10
        f = result.to_anf()
        assert int(f.degree()) == 3
        assert dd_hyperplane_normal_space(f).count == 0
        assert result.max_candidate_failures <= 9 * 8


def test_randomized_construction_extension():
    base = randomized_construction(10, 4, seed=7)
    extended = randomized_construction(10, 4, seed=7, extend_prob=0.5)
    assert set(base.core) == set(extended.core)
    assert set(extended.extension).isdisjoint(base.core)
    assert check_hyperplane_sufficient(extended).ok
    assert dd_hyperplane_normal_space(extended.to_anf()).count == 0


def test_randomized_construction_rejects_unproven_parameters():
    for n, r in ((8, 3), (9, 3), (9, 6), (10, 2), (10, 7)):
        with pytest.raises(PreconditionViolatedError):
            randomized_construction(n, r)


def test_circular_construction_shape():
    f = circular_construction(9, 3, 2)
    assert f.monomials() == ANF.parse("123+456+789", 9).monomials()
    g = circular_construction(8, 3, 1)
    assert len(g.monomials()) == 4
    assert int(g.degree()) == 3


def test_circular_construction_stability():
    # 123+456+789 on nine variables survives every codim-2 restriction
    f = circular_construction(9, 3, 2)
    assert deg_stab(f) == 2


def test_circular_rejects_bad_parameters():
    with pytest.raises(DivisibilityError):
        circular_construction(8, 3, 2)
    with pytest.raises(ValueError):
        circular_construction(9, 8, 2)


def test_direct_sum_shape_and_stability():
    f = direct_sum(3, 2, 8)
    assert f == ANF.parse("123+456", 8)
    assert deg_stab(f) == 1
    g = direct_sum(2, 3, 6)
    assert deg_stab(g) == 2
    with pytest.raises(TooManyMonomialsError):
        direct_sum(3, 3, 8)
