"""Closed-form counting and probability results."""

from fractions import Fraction
from math import comb

import pytest

import oracles
from degstab import (
    dd_hyperplane_histogram,
    dd_probability,
    degstab_bounds,
    gaussian_binomial,
    k1_count,
)
from degstab.catalog import DEGSTAB_TABLE
from degstab.counting import format_probability
from degstab.special import high_degree_facts


def test_gaussian_binomial_small_values():
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(6, 2) == 651
    assert gaussian_binomial(6, 3) == 1395
    assert gaussian_binomial(8, 1) == 255
    assert gaussian_binomial(8, 2) == 10795
    assert gaussian_binomial(8, 3) == 97155


def test_gaussian_binomial_symmetry_and_edges():
    for n in range(0, 10):
        assert gaussian_binomial(n, 0) == 1
        assert gaussian_binomial(n, n) == 1
        for k in range(0, n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)
    assert gaussian_binomial(3, 5) == 0


def test_gaussian_binomial_counts_actual_subspaces():
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert gaussian_binomial(n, k) == len(oracles.all_codim_spaces(n, k))


def test_k1_count_published_values():
    assert k1_count(3, 7) == 34355647824
    assert k1_count(4, 7) == 34231364608


def test_histogram_shape_and_sum():
    for r, n in ((2, 5), (3, 6), (3, 7), (4, 7)):
        hist = dd_hyperplane_histogram(r, n)
        assert len(hist) == r + 1
        assert hist[0] == k1_count(r, n)
        assert hist[r - 1] == 0  # count 2**(r-1) - 1 never occurs
        assert sum(hist) == (1 << comb(n, r)) - 1


def test_histogram_published_values():
    assert dd_hyperplane_histogram(3, 7)[1:] == [4078732, 0, 11811]
    assert dd_hyperplane_histogram(4, 7)[1:] == [126046992, 2314956, 0, 11811]


def test_degree4_n8_with_drop_total():
    hist = dd_hyperplane_histogram(4, 8)
    assert sum(hist[1:]) == 8761037088127


def test_brute_force_tiny_cases():
    # r=2, n=4: check the whole histogram by scanning every function
    from itertools import combinations

    n, r = 4, 2
    layer = [sum(1 << (v - 1) for v in c) for c in combinations(range(1, n + 1), r)]
    tally = [0] * (r + 1)
    for bits in range(1, 1 << len(layer)):
        masks = [m for i, m in enumerate(layer) if bits >> i & 1]
        drops = sum(
            1 for a in range(1, 1 << n) if oracles.is_degree_drop(n, masks, [a])
        )
        assert (drops + 1).bit_count() == 1  # always 2**j - 1
        tally[(drops + 1).bit_length() - 1] += 1
    assert tally == dd_hyperplane_histogram(n=n, r=r)


def test_probability_report():
    rep = dd_probability(3, 7)
    assert 0 < rep.exact < 1
    assert rep.lower <= rep.exact <= rep.upper
    # the power-of-two estimate is only expected to get the magnitude right
    assert Fraction(1, 4) < rep.exact / rep.approx < 4
    assert format_probability(rep.exact) == "0.00011905047"


def test_probability_quadratic_closed_form():
    for n in range(3, 9):
        rep = dd_probability(2, n)
        assert rep.r2_closed_form is not None
        assert rep.exact == rep.r2_closed_form


def test_format_probability():
    assert format_probability(Fraction(1, 3)) == "0.333333333"
    assert format_probability(Fraction(1, 3), digits=3) == "0.333"
    assert format_probability(Fraction(0)) == "0"


def test_degstab_bounds():
    for r in range(1, 6):
        for n in range(r, 9):
            lo, hi = degstab_bounds(r, n)
            assert 0 <= lo <= hi <= n - r


def test_degstab_bounds_pin_the_high_degrees():
    for n in range(3, 13):
        for r in (n - 2, n - 1, n):
            v = high_degree_facts(r, n).deg_stab
            assert degstab_bounds(r, n) == (v, v), (r, n)


def test_degstab_table_lies_within_the_bounds():
    for n, row in DEGSTAB_TABLE.items():
        for r, value in enumerate(row, start=1):
            lo, hi = degstab_bounds(r, n)
            assert lo <= value <= hi, (r, n)
            assert lo < hi or value == lo, (r, n)


def test_k1_count_degenerate_ranges():
    # degree n functions always lose their top monomial on a hyperplane
    for n in range(1, 6):
        assert k1_count(n, n) == 0


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        k1_count(0, 5)
    with pytest.raises(ValueError):
        k1_count(6, 5)
    assert gaussian_binomial(3, 5) == 0  # out of range is zero, not an error
