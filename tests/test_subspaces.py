"""Subspace representation, enumeration, and restriction."""

import random
import tracemalloc
from itertools import islice

import numpy as np
import pytest

import oracles
from degstab import ANF, count_codim, enumerate_codim, format_subspace, parse_subspace, restrict
from degstab.errors import (
    AnfSyntaxError,
    DegstabError,
    DimensionMismatchError,
    EnumerationRangeError,
    NotCanonicalError,
    VariableIndexError,
)
from degstab.subspaces import (
    AffineSubspace,
    LinearSubspace,
    _CACHE_LIMIT,
    _rank_table,
    codim_rank,
    codim_unrank,
    contains,
    indicator,
    iter_codim_chunks,
    materialized_codim,
)
from helpers import random_nonconstant


def test_from_forms_canonicalizes():
    a = LinearSubspace.from_forms(4, [0b0011, 0b0101])
    b = LinearSubspace.from_forms(4, [0b0110, 0b0011])
    assert a == b  # same row span, same representation
    assert a.codim == 2 and a.dim == 2


def test_points_solve_the_equations():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        forms = [rng.randint(1, (1 << n) - 1) for _ in range(k)]
        consts = rng.randint(0, (1 << k) - 1)
        try:
            space = AffineSubspace.from_equations(n, forms, consts)
        except ValueError:
            continue  # inconsistent draw
        pts = list(space.points())
        assert len(pts) == 1 << space.dim
        assert len(set(pts)) == len(pts)
        for x in pts:
            assert space.contains_point(int(x))


def test_offset_lies_in_the_space():
    space = AffineSubspace.from_equations(5, [0b00011, 0b01100], [1, 0])
    assert space.contains_point(space.offset())
    linear = space.underlying
    assert linear.offset() == 0
    assert linear.contains_point(0)


def test_linear_subspace_is_the_zero_constant_affine_subspace():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(1, 7)
        forms = [rng.randint(0, (1 << n) - 1) for _ in range(rng.randint(0, n))]
        lin = LinearSubspace.from_forms(n, forms)
        aff = AffineSubspace.from_equations(n, forms, 0)
        assert isinstance(lin, AffineSubspace)
        assert (lin.forms, lin.consts) == (aff.forms, aff.consts) == (aff.forms, 0)
        assert lin == aff.underlying == LinearSubspace(n, aff.forms)
        assert hash(lin) == hash(aff.underlying)
        assert np.array_equal(lin.points(), aff.points())
        assert all(lin.contains_point(x) == aff.contains_point(x) for x in range(1 << n))
        assert format_subspace(lin) == format_subspace(aff) == str(lin)
        f = random_nonconstant(rng, n)
        assert restrict(f, lin) == restrict(f, aff)
        assert indicator(lin) == indicator(aff)
        other = AffineSubspace.from_equations(
            n, [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(0, n))], 0
        )
        other = AffineSubspace(n, other.forms, rng.randint(0, (1 << other.codim) - 1))
        for outer in (other, aff, lin):
            assert contains(lin, outer) == contains(aff, outer)
            assert contains(outer, lin) == contains(outer, aff)
    assert repr(LinearSubspace.from_forms(4, [0b0110, 0b0011])) == "LinearSubspace(n=4, forms=(5, 6))"


def test_constructors_reject_non_canonical_forms():
    # offset, points and equality read the pivots off RREF forms, so a
    # constructor that took (3, 1) would put x1+x2=1; x1=1 at [1, 5]
    assert list(AffineSubspace.from_equations(3, (3, 1), 1).points()) == [2, 6]
    cases = [
        ((3, (3, 1), 1), "form 1 \\(0x1\\) does not pivot above"),
        ((3, (1, 3), 0), "form 1 \\(0x3\\) does not pivot above"),
        ((3, (3, 2), 0), "form 1 \\(0x2\\) pivots on a column an earlier form uses"),
        ((3, (1,), 6), "consts 0x6 has bits beyond its 1 forms"),
        ((3, (1,), -1), "consts -0x1"),
    ]
    for args, message in cases:
        with pytest.raises(NotCanonicalError, match=message):
            AffineSubspace(*args)
    for forms in ((3, 1), (3, 2)):
        with pytest.raises(NotCanonicalError):
            LinearSubspace(3, forms)
    for forms in ((0,), (8,), (1, -2)):
        with pytest.raises(VariableIndexError, match="not a nonzero mask of n=3 bits"):
            LinearSubspace(3, forms)
    assert str(AffineSubspace(3, (1, 6), 3)) == "x1=1; x2+x3=1"


def test_enumerate_codim_counts_and_uniqueness():
    for n in range(1, 7):
        for k in range(0, min(n, 3) + 1):
            spaces = list(enumerate_codim(n, k))
            assert len(spaces) == count_codim(n, k)
            assert len(set(spaces)) == len(spaces)


def test_enumerate_codim_matches_oracle_spans():
    for n in range(2, 6):
        for k in range(1, min(n, 3) + 1):
            engine = {oracles.span_set(v.forms) for v in enumerate_codim(n, k)}
            assert engine == set(oracles.all_codim_spaces(n, k))


def test_iter_codim_chunks_matches_enumeration():
    n, k = 6, 2
    flat_forms = []
    for forms in iter_codim_chunks(n, k):
        assert forms.shape == (len(forms), k)
        flat_forms.extend(map(tuple, forms.tolist()))
    spaces = list(enumerate_codim(n, k))
    assert flat_forms == [v.forms for v in spaces]


# every (n, k) with n <= 7: 0 <= k <= n, the smallest sizes included
ORDER_SIZES = [(n, k) for n in range(8) for k in range(n + 1)]


def _rows(forms):
    assert forms.dtype == np.int64
    return list(map(tuple, forms.tolist()))


def _oracle_forms(n, k):
    return list(oracles.iter_rref_forms(n, k))


def test_iter_codim_chunks_matches_the_order_oracle():
    # [7 3]_2 = [7 4]_2 = 11,811 spaces cross one chunk boundary
    crossed = []
    for n, k in ORDER_SIZES:
        got, sizes = [], []
        for forms in iter_codim_chunks(n, k):
            assert forms.shape == (len(forms), k)
            got += _rows(forms)
            sizes.append(len(forms))
        assert got == _oracle_forms(n, k), (n, k)
        assert set(sizes[:-1]) <= {8192} and 0 < sizes[-1] <= 8192, (n, k)
        if len(sizes) > 1:
            crossed.append((n, k, sizes))
    assert crossed == [(7, 3, [8192, 3619]), (7, 4, [8192, 3619])]


def test_materialized_codim_matches_the_order_oracle():
    for n, k in ORDER_SIZES:
        forms = materialized_codim(n, k)
        assert not forms.flags.writeable
        assert _rows(forms) == _oracle_forms(n, k), (n, k)


def test_enumerate_codim_matches_the_order_oracle():
    for n, k in ORDER_SIZES:
        spaces = list(enumerate_codim(n, k))
        got = [(v.forms, v.solution_basis()) for v in spaces]
        assert got == oracles.codim_forms_and_bases(n, k), (n, k)
        assert all(type(a) is int for v in spaces for a in v.forms)


def test_codim_rank_is_the_enumeration_index():
    for n, k in [*ORDER_SIZES, (9, 2), (9, 7), (10, 2)]:
        forms = _oracle_forms(n, k)
        ranks = codim_rank(n, np.array(forms, dtype=np.int64).reshape(len(forms), k))
        assert ranks.tolist() == list(range(count_codim(n, k))), (n, k)
    assert codim_rank(5, (0b00011, 0b01100)).shape == ()


def test_enumeration_rejects_bad_arguments_at_call_time():
    # no next(): the generators check their arguments when called
    for n, k in ((4, -1), (4, 5)):
        for call in (iter_codim_chunks, enumerate_codim, materialized_codim):
            with pytest.raises(EnumerationRangeError, match=r"0\.\.n=4"):
                call(n, k)
    with pytest.raises(EnumerationRangeError, match="n <= 32"):
        iter_codim_chunks(33, 1)
    assert issubclass(EnumerationRangeError, DegstabError)


def test_codim_rank_rejects_what_it_cannot_rank():
    # [24 12]_2 is about 2**144 and does not fit int64 ranks
    with pytest.raises(EnumerationRangeError, match=r"2\*\*63 - 1"):
        codim_rank(24, [1 << i for i in range(12)])
    with pytest.raises(EnumerationRangeError, match=r"0\.\.n=3"):
        codim_rank(3, (1, 2, 4, 8))
    with pytest.raises(EnumerationRangeError, match="RREF"):
        codim_rank(4, (0b0011, 0b0010))  # pivot column 1 set in row 0
    with pytest.raises(EnumerationRangeError, match="RREF"):
        codim_rank(4, (0b0011, 0b0011))  # one pivot twice
    with pytest.raises(VariableIndexError):
        codim_rank(4, (0b10000,))
    with pytest.raises(VariableIndexError):
        codim_rank(4, (0,))
    # forms (3, 4) rank 65; their float neighbours are not forms
    with pytest.raises(VariableIndexError, match="forms must be integers that fit int64"):
        codim_rank(5, [[3.7, 4.2]])


def test_codim_rank_checks_the_int64_limit_before_building_a_table():
    # [32 16]_2 is about 2**256; the rank raises before it reads a table
    _rank_table.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationRangeError, match=r"2\*\*63 - 1"):
            codim_rank(32, [1 << i for i in range(16)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_codim_unrank_inverts_the_enumeration():
    # every n <= 9 and every k whose [n k]_2 the cache holds
    for n in range(10):
        for k in range(n + 1):
            if count_codim(n, k) <= _CACHE_LIMIT:
                ranks = np.arange(count_codim(n, k))
                assert _rows(codim_unrank(n, k, ranks)) == _oracle_forms(n, k), (n, k)
    assert codim_unrank(5, 2, 7).shape == (2,)
    assert codim_unrank(5, 2, [[0, 1]]).shape == (1, 2, 2)


def test_codim_unrank_decodes_past_the_int64_rank_limit():
    # [n k]_2 exceeds 2**63 here; positions below 2**63 - 1 still decode,
    # the first ones, unranked or enumerated, to the oracle's first spaces
    for n, k in ((20, 4), (24, 12), (32, 16)):
        expected = list(islice(oracles.iter_rref_forms(n, k), 64))
        assert [oracles.codim_rank(n, rows) for rows in expected] == list(range(64))
        assert _rows(codim_unrank(n, k, range(64))) == expected, (n, k)
        assert _rows(next(iter_codim_chunks(n, k))[:64]) == expected, (n, k)
    last = 2**63 - 2
    assert oracles.codim_rank(20, codim_unrank(20, 4, last).tolist()) == last
    for bad in (-1, 2**63 - 1):
        with pytest.raises(EnumerationRangeError, match=r"0\.\."):
            codim_unrank(20, 4, [bad])
    with pytest.raises(EnumerationRangeError, match=r"0\.\.14"):
        codim_unrank(4, 1, [15])  # [4 1]_2 = 15
    with pytest.raises(EnumerationRangeError, match=r"0\.\.n=4"):
        codim_unrank(4, 5, [0])
    # not truncated to 0 and 1, not parsed, not a bare OverflowError
    for bad in ([0.9, 1.5], ["1"], [2**64], [-1, 2**63]):
        with pytest.raises(EnumerationRangeError, match="ranks must be integers that fit int64"):
            codim_unrank(5, 2, bad)


def test_codim_unrank_keeps_a_small_table():
    # the table has (k+1)(n+1)**2 entries; one row per pivot combination
    # would be C(32, 16) = 601,080,390 rows
    _rank_table.cache_clear()
    tracemalloc.start()
    try:
        codim_unrank(32, 16, range(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_materialized_cache_consistent():
    forms = materialized_codim(5, 2)
    assert forms.shape == (count_codim(5, 2), 2)
    again_forms = materialized_codim(5, 2)
    assert again_forms is forms  # cached object
    with pytest.raises(ValueError, match="cache limit"):
        materialized_codim(9, 3)  # 788,035 subspaces


def test_restriction_degree_matches_symbolic_oracle():
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(2, 6)
        f = random_nonconstant(rng, n)
        k = rng.randint(1, n - 1)
        while True:
            forms = [rng.randint(1, (1 << n) - 1) for _ in range(k)]
            if oracles.f2_rank(forms) == k:
                break
        consts = rng.randint(0, (1 << k) - 1)
        space = AffineSubspace.from_equations(n, forms, consts)
        got = restrict(f, space).degree()
        got = None if got == float("-inf") else int(got)
        assert got == oracles.restriction_degree(n, f.monomials(), forms, consts)


def test_restriction_variable_count():
    f = ANF.parse("123+45", 5)
    g = restrict(f, LinearSubspace.from_forms(5, [0b00001, 0b00110]))
    assert g.n == 3


def test_indicator_is_characteristic_function():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        forms = [rng.randint(1, (1 << n) - 1) for _ in range(k)]
        consts = rng.randint(0, (1 << k) - 1)
        try:
            space = AffineSubspace.from_equations(n, forms, consts)
        except ValueError:
            continue
        ind = indicator(space)
        assert ind.degree() == space.codim
        for x in range(1 << n):
            assert ind.evaluate(x) == int(space.contains_point(x))


def test_contains_is_subset_order():
    inner = parse_subspace("x1=0; x2=1", 4)
    outer = parse_subspace("x1=0", 4)
    assert contains(inner, outer)
    assert not contains(outer, inner)
    assert contains(inner, inner)
    disjoint = parse_subspace("x1=1", 4)
    assert not contains(inner, disjoint)


def test_mismatched_dimensions_are_rejected():
    space = parse_subspace("x1=0", 4)
    with pytest.raises(DimensionMismatchError, match="in 3 and 4 variables"):
        contains(parse_subspace("x1=0", 3), space)
    with pytest.raises(DimensionMismatchError, match="on 5 variables, subspace in 4"):
        restrict(ANF.parse("12", 5), space)


def test_format_parse_round_trip():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        forms = [rng.randint(1, (1 << n) - 1) for _ in range(k)]
        consts = rng.randint(0, (1 << k) - 1)
        try:
            space = AffineSubspace.from_equations(n, forms, consts)
        except ValueError:
            continue
        assert parse_subspace(format_subspace(space), n) == space


def test_format_full_space():
    full = AffineSubspace.from_equations(4, [], [])
    assert format_subspace(full) == "0=0"
    assert parse_subspace("0=0", 4) == full


def test_parse_subspace_rejects_garbage():
    with pytest.raises(AnfSyntaxError):
        parse_subspace("x1+x2", 4)  # missing right-hand side
    with pytest.raises(VariableIndexError):
        parse_subspace("x9=0", 4)
    with pytest.raises(ValueError):
        parse_subspace("x1+x1=1", 4)  # cancels to 0=1
    with pytest.raises(ValueError):
        AffineSubspace.from_equations(4, [0b0011, 0b0011], [0, 1])


def test_enumeration_order_is_deterministic():
    first = list(islice(enumerate_codim(8, 2), 5))
    second = list(islice(enumerate_codim(8, 2), 5))
    assert first == second
