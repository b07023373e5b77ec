"""Bit-packed GF(2) linear algebra."""

import math
import random

import pytest

import oracles
from degstab import F2Matrix
from degstab.errors import DimensionMismatchError, SingularMatrixError
from degstab.f2 import (
    kernel_basis_of_rows,
    random_invertible,
    rank_of_rows,
    rref_rows,
)


def test_rank_against_oracle():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 8)
        rows = [rng.randint(0, (1 << n) - 1) for _ in range(rng.randint(0, 8))]
        assert rank_of_rows(rows, n) == oracles.f2_rank(rows)


def test_rref_is_canonical():
    # equal row spans must produce identical RREF rows
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(2, 7)
        rows = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 4))]
        span = sorted(oracles.span_set(rows))
        k = oracles.f2_rank(rows)
        regenerated = rng.sample(span, min(len(span), k + 2))
        if oracles.f2_rank(regenerated) != k:
            continue
        a, ra, _ = rref_rows(rows, n)
        b, rb, _ = rref_rows(regenerated, n)
        assert ra == rb == k
        assert a[:ra] == b[:rb]


def test_rref_pivots_are_leading_columns():
    rows, rank, pivots = rref_rows([0b1100, 0b0110, 0b1010], 4)
    assert rank == 2
    assert len(pivots) == rank
    for row, p in zip(rows[:rank], pivots):
        assert row >> p & 1
        # pivot column is clear in every other row
        for other in rows[:rank]:
            if other != row:
                assert not other >> p & 1


def test_kernel_basis_annihilates_rows():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 8)
        rows = [rng.randint(0, (1 << n) - 1) for _ in range(rng.randint(0, 6))]
        basis = kernel_basis_of_rows(rows, n)
        assert len(basis) == n - rank_of_rows(rows, n)
        assert oracles.f2_rank(basis) == len(basis)
        for v in basis:
            for a in rows:
                assert (a & v).bit_count() % 2 == 0


def _low_rank_rows(rng, ncols, nrows, rank):
    """nrows rows of ncols bits drawn from the span of `rank` random rows,
    so duplicates and zero rows occur; a few zero rows are added outright."""
    gens = [rng.getrandbits(ncols) if ncols else 0 for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = 0
        for g in gens:
            if rng.random() < 0.5:
                row ^= g
        rows.append(row)
    rows += [0] * rng.randint(0, 2) + rows[: rng.randint(0, 3)]
    rng.shuffle(rows)
    return rows


def test_elimination_matches_the_gauss_jordan_oracle():
    # more rows than columns, fewer, duplicates and zero rows, up to 800 columns
    rng = random.Random(8)
    for ncols in (0, 1, 2, 3, 7, 12, 63, 64, 65, 130, 800):
        for nrows, rank in ((0, 0), (3, 3), (ncols + 5, ncols), (2 * ncols + 3, ncols // 2),
                            (40, 40), (60, 25)):
            rows = _low_rank_rows(rng, ncols, nrows, rank)
            want = oracles.gauss_jordan(rows, ncols)
            assert rref_rows(rows, ncols) == want
            assert rank_of_rows(iter(rows), ncols) == want[1]
            assert kernel_basis_of_rows(rows, ncols) == oracles.kernel_basis(rows, ncols)


def test_rows_wider_than_the_columns_are_rejected():
    # a bit at or above ncols would never be a pivot, and the elimination
    # would lose its row
    for rows, ncols in (([0b011, 0b100], 2), ([1, -1], 4), ([1], 0)):
        for fn in (rref_rows, rank_of_rows, kernel_basis_of_rows):
            with pytest.raises(DimensionMismatchError, match=f"in {ncols} columns"):
                fn(rows, ncols)
    with pytest.raises(DimensionMismatchError, match="row 0x4 does not fit in 2 columns"):
        rref_rows([0b011, 0b100], 2)


def test_matrix_apply_and_transpose():
    m = F2Matrix([0b011, 0b110, 0b100], 3)
    # row i gives output bit i as parity of the masked input
    assert m.apply(0b001) == 0b001
    assert m.apply(0b100) == 0b110
    assert m.apply(0b011) == 0b010
    t = m.transpose()
    for i in range(3):
        for j in range(3):
            assert m.entry(i, j) == t.entry(j, i)


def test_matmul_matches_composition():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = random_invertible(n, rng=rng)
        b = random_invertible(n, rng=rng)
        x = rng.randint(0, (1 << n) - 1)
        assert (a @ b).apply(x) == a.apply(b.apply(x))


def test_matmul_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        F2Matrix([1, 2], 2) @ F2Matrix([1, 2, 4], 3)


def test_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 7)
        m = random_invertible(n, rng=rng)
        assert m @ m.inverse() == F2Matrix.identity(n)
        assert m.inverse() @ m == F2Matrix.identity(n)


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError):
        F2Matrix([0b11, 0b11], 2).inverse()
    assert not F2Matrix([0b11, 0b11], 2).is_invertible()


def test_solve():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 7)
        m = random_invertible(n, rng=rng)
        b = rng.randint(0, (1 << n) - 1)
        x = m.solve(b)
        assert x is not None and m.apply(x) == b
    # unsolvable system
    assert F2Matrix([0b01, 0b01], 2).solve(0b10) is None


def _all_matrices(nrows, ncols):
    for bits in range(1 << (nrows * ncols)):
        yield F2Matrix([(bits >> (i * ncols)) & ((1 << ncols) - 1) for i in range(nrows)], ncols)


def test_solve_matches_brute_force():
    # every matrix up to 3 x 3 and every right-hand side, inconsistent ones included
    for nrows in range(4):
        for ncols in range(4):
            for m in _all_matrices(nrows, ncols):
                for b in range(1 << nrows):
                    solutions = [x for x in range(1 << ncols) if m.apply(x) == b]
                    x = m.solve(b)
                    assert (x is None) == (not solutions)
                    assert x is None or x in solutions


def test_inverse_matches_brute_force():
    # column j of M^-1 is the unique x with M x = e_j; singular M has none
    for n in range(4):
        for m in _all_matrices(n, n):
            cols = [[x for x in range(1 << n) if m.apply(x) == 1 << j] for j in range(n)]
            if all(len(c) == 1 for c in cols):
                rows = [sum(((c[0] >> i) & 1) << j for j, c in enumerate(cols)) for i in range(n)]
                assert m.inverse() == F2Matrix(rows, n)
                assert m.is_invertible()
            else:
                with pytest.raises(SingularMatrixError):
                    m.inverse()
                assert not m.is_invertible()
    with pytest.raises(SingularMatrixError):
        F2Matrix([0b01, 0b10], 3).inverse()  # not square


def test_from_entries_round_trip():
    entries = [[1, 0, 1], [0, 1, 1]]
    m = F2Matrix.from_entries(entries)
    assert [[m.entry(i, j) for j in range(3)] for i in range(2)] == entries
    with pytest.raises(DimensionMismatchError):
        F2Matrix.from_entries([[1, 0, 1], [0, 1]])


def test_invertible_matrix_census():
    # |GL(4, F_2)| = 20160, confirmed by scanning all 4x4 matrices
    total = sum(
        1
        for bits in range(1 << 16)
        if oracles.f2_rank([(bits >> (4 * i)) & 0xF for i in range(4)]) == 4
    )
    expected = 1
    for i in range(4):
        expected *= (1 << 4) - (1 << i)
    assert total == expected == 20160


def test_random_invertible_is_invertible_and_seeded():
    for seed in range(30):
        m = random_invertible(5, seed=seed)
        assert m.is_invertible()
        assert m == random_invertible(5, seed=seed)
