"""Polynomial representation: parsing, transforms, degree, operations."""

import random
import tracemalloc

import numpy as np
import pytest

import oracles
from degstab import ANF, NEG_INF
from degstab.anf import MAX_VARS, format_monomial_masks, mobius_inplace
from degstab.bits import MAX_TABLE_VARS
from degstab.errors import (
    AnfSyntaxError,
    ArrayLayoutError,
    InvalidLengthError,
    NotHomogeneousError,
    VariableIndexError,
)
from helpers import random_homogeneous, random_nonconstant


def test_parse_digit_notation():
    f = ANF.parse("123+456", 7)
    assert f.monomials() == (0b0000111, 0b0111000)


def test_parse_xprod_notation():
    f = ANF.parse("x1*x2*x3 + x10", 10)
    assert f.monomials() == (0b0000000111, 0b1000000000)


def test_parse_constant_and_zero():
    assert ANF.parse("0", 4).monomials() == ()
    assert ANF.parse("1", 4).monomials() == (0,)
    assert ANF.parse("1+12+1", 4).monomials() == (0b0011,)


def test_parse_cancellation():
    assert ANF.parse("123+123", 5).monomials() == ()


def test_parse_rejects_garbage():
    with pytest.raises(AnfSyntaxError):
        ANF.parse("", 4)
    with pytest.raises(AnfSyntaxError):
        ANF.parse("12+", 4)
    with pytest.raises(AnfSyntaxError):
        ANF.parse("x1*y2", 4)
    with pytest.raises(AnfSyntaxError):
        ANF.parse("123", 12)  # digit notation needs n <= 9
    with pytest.raises(VariableIndexError):
        ANF.parse("15", 4)
    with pytest.raises(VariableIndexError):
        ANF.parse("x9", 4)


def test_variable_ceiling_checked_before_allocation():
    assert MAX_VARS == MAX_TABLE_VARS
    n = MAX_VARS + 1
    builders = [
        lambda: ANF(n),
        lambda: ANF.zero(n),
        lambda: ANF.one(n),
        lambda: ANF.from_monomials(n, [0b111]),
        lambda: ANF.parse("x1*x2*x3", n),
    ]
    for build in builders:
        tracemalloc.start()
        try:
            with pytest.raises(InvalidLengthError, match=f"{MAX_VARS} variables"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak  # a 2**25-byte table was never allocated


@pytest.mark.parametrize("build", [
    lambda: ANF.parse(8, "123"),  # arguments swapped
    lambda: ANF(8.0),
    lambda: ANF.zero("8"),
    lambda: ANF.one(None),
    lambda: ANF.from_monomials(4.5, [1]),
])
def test_non_int_variable_counts_are_named(build):
    # the range check compared n with ints and raised a bare TypeError
    with pytest.raises(InvalidLengthError, match=r"n must be an int, got (str|float|NoneType)"):
        build()


def test_text_round_trip_random():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 11)
        masks = {rng.randint(0, (1 << n) - 1) for _ in range(rng.randint(0, 10))}
        f = ANF.from_monomials(n, masks)
        assert ANF.parse(f.to_text(), n) == f


def test_format_monomial_masks_matches_to_text():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 12)
        masks = {rng.randint(1, (1 << n) - 1) for _ in range(5)}
        assert format_monomial_masks(n, masks) == ANF.from_monomials(n, masks).to_text()


def test_truth_table_matches_direct_evaluation():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 7)
        masks = {rng.randint(0, (1 << n) - 1) for _ in range(rng.randint(0, 8))}
        f = ANF.from_monomials(n, masks)
        assert list(f.truth_table()) == oracles.truth_table(n, masks)
        x = rng.randint(0, (1 << n) - 1)
        assert f.evaluate(x) == oracles.eval_monomials(masks, x)


def test_from_truth_table_inverts_coefficients():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 7)
        tt = [rng.randint(0, 1) for _ in range(1 << n)]
        f = ANF.from_truth_table(np.array(tt, dtype=np.uint8))
        assert set(f.monomials()) == oracles.coefficients(n, tt)
        assert list(f.truth_table()) == tt


def test_degree_and_zero_conventions():
    assert ANF.zero(5).degree() is NEG_INF
    assert ANF.one(5).degree() == 0
    assert ANF.parse("12+3", 5).degree() == 2
    assert not ANF.zero(3)
    assert ANF.one(3)


def test_weight_counts_ones():
    f = ANF.parse("12", 2)
    assert f.weight() == 1  # x1*x2 is 1 only at (1,1)
    assert ANF.one(4).weight() == 16


def test_vars_and_symmetry():
    assert ANF.parse("12+13", 5).vars() == (1, 2, 3)
    assert ANF.parse("12+13+23", 3).is_symmetric()
    assert not ANF.parse("12+13", 3).is_symmetric()


def test_homogeneous_parts():
    f = ANF.parse("123+45+1", 5)
    assert f.homogeneous_part(2) == ANF.parse("45", 5)
    assert f.top_part() == ANF.parse("123", 5)
    assert not f.is_homogeneous()
    assert f.top_part().is_homogeneous()


def test_addition_is_xor_of_coefficients():
    f = ANF.parse("12+3", 4)
    g = ANF.parse("12+4", 4)
    assert f + g == ANF.parse("3+4", 4)
    assert f + f == ANF.zero(4)


def test_multiplication_matches_pointwise_product():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 6)
        f = random_nonconstant(rng, n)
        g = random_nonconstant(rng, n)
        assert list((f * g).truth_table()) == [
            a & b for a, b in zip(f.truth_table(), g.truth_table())
        ]


def test_derivative_matches_oracle():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(2, 7)
        f = random_nonconstant(rng, n)
        a = rng.randint(1, (1 << n) - 1)
        expected = oracles.derivative_tt(list(f.truth_table()), a)
        assert list(f.derivative(a).truth_table()) == expected


def test_iterated_derivative_composes():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(3, 7)
        f = random_nonconstant(rng, n)
        a = rng.randint(1, (1 << n) - 1)
        b = rng.randint(1, (1 << n) - 1)
        if oracles.f2_rank([a, b]) != 2:
            continue
        assert f.iterated_derivative([a, b]) == f.derivative(a).derivative(b)


def test_derivative_drops_degree():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(2, 7)
        f = random_nonconstant(rng, n)
        a = rng.randint(1, (1 << n) - 1)
        d = f.derivative(a).degree()
        assert d is NEG_INF or d < f.degree()


def test_complement_involution_and_degree():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 8)
        r = rng.randint(1, n)
        f = random_homogeneous(rng, n, r)
        c = f.complement()
        assert c.degree() == n - r or (not c and r == n)
        if c:
            assert c.complement() == f


def test_complement_matches_the_oracle():
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(0, 10)
        f = random_homogeneous(rng, n, rng.randint(0, n))
        c = f.complement()
        assert set(c.monomials()) == oracles.complement_monomials(n, f.monomials())
        assert c.n == n and not c.coeffs.flags.writeable


def test_complement_rejects_mixed_degrees():
    with pytest.raises(NotHomogeneousError):
        ANF.parse("12+3", 4).complement()
    with pytest.raises(NotHomogeneousError):
        ANF.zero(4).complement()


def test_compose_affine_identity_and_inverse():
    rng = random.Random(10)
    from degstab.f2 import random_invertible

    for _ in range(50):
        n = rng.randint(2, 7)
        f = random_nonconstant(rng, n)
        m = random_invertible(n, rng=rng)
        shift = rng.randint(0, (1 << n) - 1)
        g = f.compose_affine(m, shift)
        assert g.degree() == f.degree()  # affine maps preserve degree
        back = g.compose_affine(m.inverse(), m.inverse().apply(shift))
        assert back == f


def test_compose_affine_matches_substitution():
    # replacing x1 by x1+x2 in x1*x3: row 0 reads coordinates 1 and 2
    f = ANF.parse("13", 3)
    g = f.compose_affine([0b011, 0b010, 0b100])
    assert g == ANF.parse("13+23", 3)


def test_compose_affine_rejects_singular():
    from degstab.errors import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        ANF.parse("12", 3).compose_affine([0b011, 0b011, 0b100])


def test_mobius_is_involution():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 8)
        tt = np.array([rng.randint(0, 1) for _ in range(1 << n)], dtype=np.uint8)
        f = ANF.from_truth_table(tt)
        assert np.array_equal(f.truth_table(), tt)
        assert ANF.from_truth_table(f.truth_table()) == f
    # a 2-D call transforms each row as the 1-D call does
    rows = np.array([[rng.randint(0, 1) for _ in range(64)] for _ in range(5)], dtype=np.uint8)
    expected = [mobius_inplace(row.copy()) for row in rows]
    assert np.array_equal(mobius_inplace(rows), expected)


def test_mobius_word_lanes_match_the_oracle():
    # stages below 3 run inside 2**min(m, 3)-byte words, the rest across
    # them, so every m from a single byte up to many words is its own case
    rng = np.random.default_rng(21)
    for m in range(11):
        for count in range(1, 6):
            tt = rng.integers(0, 2, (count, 1 << m), dtype=np.uint8)
            coeffs = mobius_inplace(tt.copy())
            for row, got in zip(tt, coeffs):
                expected = np.zeros(1 << m, dtype=np.uint8)
                expected[sorted(oracles.coefficients(m, row.tolist()))] = 1
                assert np.array_equal(got, expected), (m, count)
            assert np.array_equal(mobius_inplace(coeffs), tt), (m, count)
        row = tt[0].copy()  # a 1-D row takes the same path
        assert np.array_equal(mobius_inplace(mobius_inplace(row)), tt[0])


def test_mobius_rejects_other_layouts():
    rows = np.zeros((4, 16), dtype=np.uint8)
    others = (rows.astype(np.int64), rows.astype(bool), rows[:, ::2], rows.T,
              np.asfortranarray(rows[:, :4]))
    for bad in others:
        with pytest.raises(ArrayLayoutError):
            mobius_inplace(bad)
    with pytest.raises(InvalidLengthError):
        mobius_inplace(np.zeros((2, 12), dtype=np.uint8))
