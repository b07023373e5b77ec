"""Acceptance gate: one test per shipped guarantee.

Each test prints one ACCEPTANCE CRITERION line and enforces the stated
runtime budget where one is given.  The whole gate is expected to pass.
Criterion 2 checks the recorded reference table with its one documented
erratum applied: the f27 complement cell is recorded as 155, but the
recorded polynomial computes 99 (see catalog.KNOWN_ERRATA and the companion
test pinning the corrected value).  The other 19 cells are compared
literally, and the criterion fails if any cell other than the listed
erratum diverges, or if the erratum itself stops diverging.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import oracles
from degstab import catalog, counting, f2
from degstab.anf import ANF, NEG_INF
from degstab.catalog import (
    DEGSTAB_TABLE,
    DEG5_N8_CODIM2_COUNTS,
    RANK_WITHOUT_DROP_WITNESS,
    load_catalog,
    representative,
    reproduce_degstab_table,
    reproduce_table_deg3,
    reproduce_table_deg5,
)
from degstab.construct import randomized_construction, check_hyperplane_sufficient, direct_sum
from degstab.degreedrop import (
    check_dd_fast_duality,
    dd_hyperplane_normals,
    deg_stab,
    enumerate_degree_drop,
    has_degree_drop_space,
)
from degstab.invariants import r_k
from degstab.special import (
    canonical_quadratic,
    high_degree_facts,
    majority,
    quadratic_deg_stab,
    symmetric_dd,
    symmetric_from_weights,
)
from degstab.subspaces import count_codim
from helpers import random_degree, random_homogeneous


@contextmanager
def criterion(number, budget=None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None:
            assert elapsed < budget, (
                f"criterion {number} exceeded its {budget}s budget"
                f" ({elapsed:.1f}s)"
            )
    except BaseException:
        print(f"ACCEPTANCE CRITERION {number}: FAIL")
        raise
    print(f"ACCEPTANCE CRITERION {number}: PASS"
          f" ({time.monotonic() - start:.1f}s)")


def hyperplane_count(f):
    return sum(1 for _ in enumerate_degree_drop(f, 1))


def test_criterion_1_deg3_table():
    with criterion(1, budget=300):
        rows = reproduce_table_deg3()
        assert len(rows) == 31
        assert all(row.computed == row.expected for row in rows)
        by_id = {row.id: row.computed for row in rows}
        assert by_id["f2"] == (7, 875, 0, 17795, 0)
        assert by_id["f27"] == (0, 0, 0, 15, 15)


def test_criterion_2_deg5_table():
    with criterion(2, budget=120):
        rows = reproduce_table_deg5()
        computed = {row.id: row.computed for row in rows}
        assert len(computed) == 20
        assert all(pair[0] == 0 for pair in computed.values())
        assert computed["f13"] == (0, 547)
        assert computed["f20"] == (0, 127)
        for row in rows:
            assert row.expected == (0, DEG5_N8_CODIM2_COUNTS[row.id])
        recorded = {row.id: row.expected for row in rows}
        corrected = {
            rep_id: (0, catalog.KNOWN_ERRATA.get(("deg5_n8", rep_id), cell))
            for rep_id, (_, cell) in recorded.items()
        }
        diverging = {rep_id: (computed[rep_id], recorded[rep_id])
                     for rep_id in computed
                     if computed[rep_id] != recorded[rep_id]}
        errata = {rep_id for table, rep_id in catalog.KNOWN_ERRATA
                  if table == "deg5_n8"}
        message = "computed vs recorded cells: " + ", ".join(
            f"{rep_id} computed {got} recorded {want}"
            for rep_id, (got, want) in sorted(diverging.items())
        )
        assert computed == corrected, message
        assert set(diverging) == errata == {"f27"}, message
        assert computed["f27"] == (0, 99)


def test_criterion_2_companion_corrected_value():
    # the single divergent cell, recomputed by the shared-nothing oracle
    f27c = representative("f27").complement_anf(8)
    count = sum(1 for _ in oracles.degree_drop_spans(8, f27c.monomials(), 2))
    assert count == 99
    assert catalog.KNOWN_ERRATA[("deg5_n8", "f27")] == 99
    assert catalog.DEG5_N8_CODIM2_COUNTS["f27"] == 155


def test_criterion_3_counting_formulas():
    with criterion(3, budget=1):
        assert counting.k1_count(3, 7) == 34355647824
        assert counting.k1_count(4, 7) == 34231364608
        hist37 = counting.dd_hyperplane_histogram(3, 7)
        assert tuple(hist37[1:]) == (4078732, 0, 11811)
        assert hist37[0] == counting.k1_count(3, 7)
        hist47 = counting.dd_hyperplane_histogram(4, 7)
        assert tuple(hist47[1:]) == (126046992, 2314956, 0, 11811)
        total = 2 ** math.comb(8, 4) - 1
        assert total - counting.k1_count(4, 8) == 8761037088127


def test_criterion_4_formula_vs_brute_force():
    with criterion(4, budget=600):
        for n in range(1, 6):
            for r in range(1, n + 1):
                layer = [m for m in range(1 << n)
                         if bin(m).count("1") == r]
                brute = [0] * (r + 1)
                for bits in range(1, 1 << len(layer)):
                    monos = [layer[i] for i in range(len(layer))
                             if bits >> i & 1]
                    f = ANF.from_monomials(n, monos)
                    normals = dd_hyperplane_normals(f)
                    j = (len(normals) + 1).bit_length() - 1
                    assert len(normals) == (1 << j) - 1
                    brute[j] += 1
                assert brute == counting.dd_hyperplane_histogram(r, n), (r, n)
                assert brute[0] == counting.k1_count(r, n), (r, n)


def test_criterion_5_duality():
    with criterion(5, budget=300):
        rng = random.Random(501)
        for n in (5, 6, 7):
            for _ in range(1000):
                f = random_homogeneous(rng, n, rng.randint(1, n))
                report = check_dd_fast_duality(f, k_max=1)
                assert report.ok, (n, f.to_text())
        assert count_codim(6, 2) == 651
        for _ in range(100):
            f = random_homogeneous(rng, 6, rng.randint(1, 6))
            assert check_dd_fast_duality(f, k_max=2).ok, f.to_text()


def test_criterion_6_structural_invariants():
    with criterion(6):
        rng = random.Random(601)
        # normal set with 0 adjoined is a linear subspace
        for _ in range(10 ** 4):
            n = rng.randint(2, 8)
            f = random_degree(rng, n, rng.randint(1, n))
            normals = list(dd_hyperplane_normals(f))
            rank = f2.rank_of_rows(normals, n)
            assert len(normals) == (1 << rank) - 1

        # kernel dimension of multiplication at order 1 counts hyperplanes
        for rep in load_catalog():
            f = rep.anf(8)
            assert hyperplane_count(f) == (1 << r_k(f, 1).dim) - 1
        for _ in range(10 ** 3):
            n = rng.randint(2, 8)
            f = random_homogeneous(rng, n, rng.randint(1, n))
            assert hyperplane_count(f) == (1 << r_k(f, 1).dim) - 1

        # positivity is necessary for a drop at co-dimensions 1 and 2
        samples = []
        for _ in range(300):
            n = rng.randint(3, 8)
            f = random_homogeneous(rng, n, rng.randint(1, n - 1))
            samples.append(f)
        samples.extend(rep.anf(8) for rep in load_catalog())
        for f in samples:
            for k in (1, 2):
                if has_degree_drop_space(f, k):
                    assert r_k(f, k).dim > 0, (f.n, f.to_text(), k)

        # positive kernel dimension without any matching drop space
        witness = ANF.parse(RANK_WITHOUT_DROP_WITNESS, 8)
        assert r_k(witness, 2).dim == 2
        assert not has_degree_drop_space(witness, 1)
        assert not has_degree_drop_space(witness, 2)


def test_criterion_7_symmetric_closed_form():
    with criterion(7, budget=180):
        for n in range(4, 11):
            for bits in itertools.product((0, 1), repeat=n + 1):
                f = symmetric_from_weights(n, bits)
                d = f.degree()
                if d is NEG_INF or not 2 <= d <= n - 2:
                    continue
                verdict = symmetric_dd(n, int(d))
                normals = sorted(
                    s.forms[0] for s in enumerate_degree_drop(f, 1)
                )
                if int(d) % 2 == 0:
                    assert (verdict.count, normals) == (0, [])
                else:
                    assert verdict.count == 1
                    assert normals == [(1 << n) - 1] == [verdict.normal]

        # majority drops only when n or n-1 is a power of two
        expected = {4: 15, 5: 15, 6: 0, 7: 0, 8: 255, 9: 255, 10: 0}
        for n, count in expected.items():
            m = majority(n)
            assert m.degree() == 1 << (n.bit_length() - 1)
            assert hyperplane_count(m) == count


def test_criterion_8_constructor_soundness():
    with criterion(8, budget=600):
        for n, r in ((10, 3), (10, 5), (10, 6), (12, 4), (9, 4), (9, 5)):
            bound = (n - 1) * (n - 2)
            for seed in range(100):
                result = randomized_construction(n, r, seed=seed)
                assert check_hyperplane_sufficient(result).ok
                assert result.max_candidate_failures <= bound
                assert not has_degree_drop_space(result.to_anf(), 1)


def test_criterion_9_closed_forms_vs_enumeration():
    with criterion(9):
        # every nonzero quadratic top part through n = 6
        for n in range(2, 7):
            layer = [m for m in range(1 << n) if bin(m).count("1") == 2]
            for bits in range(1, 1 << len(layer)):
                monos = [layer[i] for i in range(len(layer)) if bits >> i & 1]
                f = ANF.from_monomials(n, monos)
                assert quadratic_deg_stab(f) == deg_stab(f)

        # disjoint sums keep degree up to co-dimension p - 1
        for r, p in ((2, 2), (2, 3), (3, 2)):
            for n in range(r * p, 9):
                assert deg_stab(direct_sum(r, p, n)) == p - 1

        # degrees n-1 and n-2
        rng = random.Random(901)
        for n in (5, 6, 7, 8):
            facts = high_degree_facts(n - 1, n)
            for _ in range(5):
                f = random_degree(rng, n, n - 1)
                assert hyperplane_count(f) == facts.dd_hyperplane_count
                assert deg_stab(f) == 0
            facts = high_degree_facts(n - 2, n)
            if n % 2 == 1:
                for _ in range(5):
                    f = random_degree(rng, n, n - 2)
                    assert hyperplane_count(f) > 0
                assert facts.deg_stab == 0
            else:
                # class-complete: every quadratic is equivalent to a
                # canonical rank-2t form, and complements respect that
                for t in range(1, n // 2 + 1):
                    g = canonical_quadratic(t, n).complement()
                    count = hyperplane_count(g)
                    assert (count == 0) == (t == n // 2)
                assert deg_stab(canonical_quadratic(n // 2, n).complement()) == 1
                assert facts.deg_stab == 1

        # the full summary table, including the scanned middle cells
        cells = reproduce_degstab_table()
        values = {(cell.n, cell.r): cell.value for cell in cells}
        for n, row in DEGSTAB_TABLE.items():
            for r, expected in enumerate(row, start=1):
                assert values[(n, r)] == expected

        # the co-dimension 2 row witness and the co-dimension 3 emptiness
        assert deg_stab(representative("f12").anf(7)) == 2
        for rep in load_catalog():
            fingerprint = catalog._profile(rep.id, 8, False, 3)
            assert fingerprint[3] > 0  # every class drops by co-dimension 3
