"""Bundled classification data for cubics in eight variables.

Up to invertible affine changes of variables combined with addition of
lower-degree terms, the nonzero Boolean functions of degree 3 in 8 variables
fall into exactly 31 equivalence classes.  This module ships one
representative per class, together with reference numbers recorded for them
(degree-drop space counts per co-dimension, class sizes for the
representatives that live in 7 or fewer variables), and routines that
recompute every reference number from scratch with the scan engine and fail
loudly on any divergence.

Degree-drop space counts per co-dimension are invariant under the
equivalence, as is the presence of fast points, which is what makes a single
representative per class sufficient.  Complementation (replacing each
monomial of a homogeneous function by its complementary monomial) turns the
31 cubic classes into the 31 quintic classes in 8 variables and, restricted
to the 11 representatives in at most 7 variables, the 11 quartic classes in
7 variables; the derived tables below are stated for those complements.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import NamedTuple

from . import counting, degreedrop
from .anf import ANF
from .errors import CatalogMismatchError, InvariantViolationError

CATALOG_FILE = "catalog.json"
CATALOG_SHA256 = "ca80c3c841be3f1cf1556b721bb16145e9baf622d352a421daf369f527d17aa8"

# Representatives whose profiles coincide; the 5-tuple of counts does not
# separate these class pairs.
COINCIDING_PROFILE_PAIRS = (("f17", "f28"), ("f19", "f30"), ("f23", "f32"))

# Ids whose classes keep degree 3 on every hyperplane.
HYPERPLANE_STABLE_DEG3_N7 = frozenset(
    {"f4", "f5", "f6", "f8", "f9", "f10", "f11", "f12"}
)
HYPERPLANE_STABLE_DEG3_N8 = frozenset(
    {f"f{i}" for i in range(2, 33)} - {"f2", "f3", "f7"}
)

# Ids whose classes keep degree 3 on every space of co-dimension up to 2.
CODIM2_STABLE_DEG3_N7 = frozenset({"f12"})
CODIM2_STABLE_DEG3_N8 = frozenset(
    {"f12", "f18", "f19", "f20", "f21", "f22", "f23", "f25", "f27", "f30",
     "f31", "f32"}
)

# Base ids whose complements keep their degree on every hyperplane.
HYPERPLANE_STABLE_DEG4_N7 = frozenset({"f7", "f8", "f9", "f10", "f11", "f12"})
HYPERPLANE_STABLE_DEG5_N8 = frozenset({f"f{i}" for i in range(13, 33)})

# Co-dimension 2 counts for the complements without degree-drop hyperplanes.
DEG4_N7_CODIM2_COUNTS = {
    "f7": 315, "f8": 147, "f9": 91, "f10": 91, "f11": 35, "f12": 91,
}
DEG5_N8_CODIM2_COUNTS = {
    "f13": 547, "f16": 491, "f14": 379, "f29": 379, "f15": 323,
    "f17": 267, "f24": 267, "f28": 267, "f31": 267,
    "f18": 211, "f19": 211, "f26": 211, "f30": 211,
    "f22": 183,
    "f21": 155, "f23": 155, "f25": 155, "f27": 155, "f32": 155,
    "f20": 127,
}

# Two cells of the recorded complement tables are inconsistent with the
# recorded polynomials they refer to: the complement of f27 in 8 variables
# has 99 degree-drop spaces of co-dimension 2 (not the recorded 155), and
# the complement of f12 in 7 variables has 63 (not the recorded 91).  Each
# corrected value is confirmed three ways: the scan engine, a from-scratch
# brute force over every co-dimension 2 subspace, and counting the
# 2-dimensional fast spaces of the base function, which the degree-drop /
# fast-space duality puts in bijection with these drop spaces.  The degree-3 rows of f27 and
# f12 themselves reproduce exactly, so the polynomials are not
# mistranscribed here.  The reproduction routines pin the corrected values;
# the recorded ones stay visible in their returned rows.  Every conclusion
# drawn from the recorded cells (emptiness of the co-dimension 2 stable
# sets, table of maximal stability orders) is unaffected, as both corrected
# counts are still positive.
KNOWN_ERRATA = {("deg5_n8", "f27"): 99, ("deg4_n7", "f12"): 63}

# Ids satisfying the pairwise-intersection sufficient condition at k=1.
PAIRWISE_CONDITION_DEG3_N8 = frozenset(
    {"f13", "f15", "f16", "f28", "f29", "f30", "f32"}
)

# Changes of variables after which the named sufficient conditions hold on
# the top part.  {target: sources} means the variable x_target is replaced
# by the sum of the source variables.  Every map below is verified by the
# tests.  For f22 the recorded reference maps (kept in RECORDED_F22_FIXES)
# fail to certify under substitution, its inverse, and their transposes,
# although certifying maps do exist; the f22 and f24 entries are the
# lexicographically first two-transvection maps that work.  f24 is listed
# here even though the recorded account names only the other three: its
# direct check fails (no witness monomial for x8, every candidate is
# blocked by 356 or 456) despite the function having no fast points at
# all, the condition being sufficient but not necessary.
MONOMIAL_CONDITION_FIX = {"f22": {1: (1, 3), 2: (2, 8)}}
FAST_POINT_CONDITION_FIX = {
    "f18": {8: (1, 8)},
    "f21": {3: (3, 4)},
    "f22": {1: (1, 3), 5: (5, 8)},
    "f24": {1: (1, 6), 8: (3, 8)},
}
RECORDED_F22_FIXES = {
    "monomial_condition": {1: (1, 3), 2: (2, 5, 7), 7: (5, 7)},
    "fast_point_condition": {1: (1, 3), 7: (5, 7)},
}

# Degree-4 function in 8 variables whose product-rank invariant is positive
# at order 2 even though no degree-drop space of co-dimension <= 2 exists.
RANK_WITHOUT_DROP_WITNESS = "3456+2357+1457+1267+1238+1358+1458+2468+1378+3478"

# The classes of quartics in 8 variables with degree-drop hyperplanes, given
# as explicit members; the hyperplane count is 2^d - 1 where d is the kernel
# dimension of the order-1 product-rank map.
DEG4_N8_HYPERPLANE_WITNESSES = (
    ("1234", 15, 4),
    ("1234+1256", 3, 2),
    ("1234+1256+1278", 3, 2),
)
DEG4_N8_SINGLE_HYPERPLANE_FACTORS = (
    "f4", "f5", "f6", "f8", "f9", "f10", "f11", "f12",
)
DEG4_N8_WITH_DROP_TOTAL = 8761037088127

# Probability that a uniformly random nonzero homogeneous cubic in 7
# variables loses degree on some space of co-dimension 2, printed to 9
# significant digits.
CODIM2_DROP_PROBABILITY_DEG3_N7 = "0.605765343"

# Maximal stability order per (number of variables, degree): entry r-1 of
# DEGSTAB_TABLE[n] is the largest k such that some degree-r function in n
# variables keeps its degree on every affine space of co-dimension k.
DEGSTAB_TABLE = {
    6: (0, 2, 1, 1, 0, 0),
    7: (0, 2, 2, 1, 0, 0, 0),
    8: (0, 3, 2, 2, 1, 1, 0, 0),
}


@dataclass(frozen=True)
class Representative:
    """One stored class representative plus its recorded reference numbers."""

    id: str
    anf_text: str
    n_native: int
    class_size: int | None
    expected_profile: tuple[int, int, int, int, int]

    def anf(self, n: int = 8) -> ANF:
        if n < self.n_native:
            raise ValueError(
                f"{self.id} needs at least {self.n_native} variables, got {n}"
            )
        return ANF.parse(self.anf_text, n)

    def complement_anf(self, n: int = 8) -> ANF:
        # Complement of the degree-3 representative viewed in n variables;
        # homogeneous of degree n - 3.
        return self.anf(n).complement()


@lru_cache(maxsize=1)
def load_catalog() -> tuple[Representative, ...]:
    """Load the bundled representatives, verifying the file checksum."""
    raw = resources.files(__package__).joinpath(CATALOG_FILE).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != CATALOG_SHA256:
        raise CatalogMismatchError([("sha256", digest, CATALOG_SHA256)])
    data = json.loads(raw)
    reps = []
    for entry in data["representatives"]:
        size = entry["class_size_n7"]
        reps.append(
            Representative(
                id=entry["id"],
                anf_text=entry["anf"],
                n_native=entry["n_native"],
                class_size=None if size is None else int(size),
                expected_profile=tuple(entry["expected"]),
            )
        )
    return tuple(reps)


def representative(rep_id: str) -> Representative:
    reps = {rep.id: rep for rep in load_catalog()}
    try:
        return reps[rep_id]
    except KeyError:
        raise KeyError(f"no representative named {rep_id!r}") from None


@lru_cache(maxsize=None)
def _profile(rep_id: str, n: int, complement: bool,
             k_max: int) -> tuple[int, ...]:
    rep = representative(rep_id)
    f = rep.complement_anf(n) if complement else rep.anf(n)
    return degreedrop.profile(f, k_max=k_max).fingerprint()


class TableRow(NamedTuple):
    id: str
    computed: tuple[int, ...]
    expected: tuple[int, ...]


def reproduce_table_deg3() -> list[TableRow]:
    """Recompute the degree-3 profile table in 8 variables.

    Returns one row per representative; raises CatalogMismatchError if any
    recomputed 5-tuple differs from the stored one or if the stored
    coinciding pairs fail to coincide."""
    rows = []
    bad = []
    for rep in load_catalog():
        got = _profile(rep.id, 8, False, 3)
        rows.append(TableRow(rep.id, got, rep.expected_profile))
        if got != rep.expected_profile:
            bad.append((rep.id, got, rep.expected_profile))
    for left, right in COINCIDING_PROFILE_PAIRS:
        a = _profile(left, 8, False, 3)
        b = _profile(right, 8, False, 3)
        if a != b:
            bad.append((f"{left}~{right}", a, b))
    if bad:
        raise CatalogMismatchError(bad)
    return rows


def reproduce_table_deg5() -> list[TableRow]:
    """Recompute the co-dimension 2 counts for the 20 quintic complements
    in 8 variables that have no degree-drop hyperplanes.

    Rows carry the recorded reference values; the known erratum is pinned to
    its recomputed value instead (see KNOWN_ERRATA) and stays visible in the
    returned rows."""
    ids = [rep.id for rep in load_catalog()
           if rep.id in HYPERPLANE_STABLE_DEG5_N8]
    rows = []
    bad = []
    for rep_id in ids:
        c1, c2, _ = _profile(rep_id, 8, True, 2)
        recorded = (0, DEG5_N8_CODIM2_COUNTS[rep_id])
        pinned = (0, KNOWN_ERRATA.get(("deg5_n8", rep_id), recorded[1]))
        rows.append(TableRow(rep_id, (c1, c2), recorded))
        if (c1, c2) != pinned:
            bad.append((rep_id, (c1, c2), pinned))
    if bad:
        raise CatalogMismatchError(bad)
    return rows


class KSetCheck(NamedTuple):
    ok: bool
    computed: object
    expected: object


def verify_k_sets() -> dict[str, KSetCheck]:
    """Recompute the stability sets recorded above and cross-check them.

    Covers: which cubic classes in 7 and 8 variables keep their degree at
    co-dimension 1 and 2, emptiness at co-dimension 3, the matching class
    size sums against the counting formula, the quartic and quintic
    complement tables, and the co-dimension 2 drop probability for cubics in
    7 variables.  Raises CatalogMismatchError on any failed check."""
    reps = load_catalog()
    all_ids = [rep.id for rep in reps]
    small_ids = [rep.id for rep in reps if rep.n_native <= 7]
    checks: dict[str, KSetCheck] = {}

    def add(name: str, computed: object, expected: object) -> None:
        checks[name] = KSetCheck(computed == expected, computed, expected)

    prof7 = {i: _profile(i, 7, False, 3) for i in small_ids}
    add(
        "hyperplane_stable_deg3_n7",
        frozenset(i for i, p in prof7.items() if p[0] == 0),
        HYPERPLANE_STABLE_DEG3_N7,
    )
    add(
        "hyperplane_stable_deg3_n7_size",
        sum(representative(i).class_size for i in HYPERPLANE_STABLE_DEG3_N7),
        counting.k1_count(3, 7),
    )
    add(
        "codim2_stable_deg3_n7",
        frozenset(i for i, p in prof7.items() if p[0] == 0 and p[1] == 0),
        CODIM2_STABLE_DEG3_N7,
    )
    add(
        "codim3_stable_deg3_n7_empty",
        all(p[3] > 0 for p in prof7.values()),
        True,
    )

    prof8 = {i: _profile(i, 8, False, 3) for i in all_ids}
    add(
        "hyperplane_stable_deg3_n8",
        frozenset(i for i, p in prof8.items() if p[0] == 0),
        HYPERPLANE_STABLE_DEG3_N8,
    )
    add(
        "codim2_stable_deg3_n8",
        frozenset(i for i, p in prof8.items() if p[0] == 0 and p[1] == 0),
        CODIM2_STABLE_DEG3_N8,
    )
    add(
        "codim3_stable_deg3_n8_empty",
        all(p[3] > 0 for p in prof8.values()),
        True,
    )

    cprof7 = {i: _profile(i, 7, True, 2) for i in small_ids}
    add(
        "hyperplane_stable_deg4_n7",
        frozenset(i for i, p in cprof7.items() if p[0] == 0),
        HYPERPLANE_STABLE_DEG4_N7,
    )
    add(
        "hyperplane_stable_deg4_n7_size",
        sum(representative(i).class_size for i in HYPERPLANE_STABLE_DEG4_N7),
        counting.k1_count(4, 7),
    )
    add(
        "codim2_stable_deg4_n7_empty",
        {i: cprof7[i][1] for i in sorted(HYPERPLANE_STABLE_DEG4_N7)},
        {i: KNOWN_ERRATA.get(("deg4_n7", i), DEG4_N7_CODIM2_COUNTS[i])
         for i in sorted(HYPERPLANE_STABLE_DEG4_N7)},
    )

    cprof8 = {i: _profile(i, 8, True, 2) for i in all_ids}
    add(
        "hyperplane_stable_deg5_n8",
        frozenset(i for i, p in cprof8.items() if p[0] == 0),
        HYPERPLANE_STABLE_DEG5_N8,
    )
    add(
        "codim2_stable_deg5_n8_empty",
        all(p[0] > 0 or p[1] > 0 for p in cprof8.values()),
        True,
    )

    total = 2 ** math.comb(7, 3) - 1
    stable = sum(
        representative(i).class_size for i in CODIM2_STABLE_DEG3_N7
    )
    add(
        "codim2_drop_probability_deg3_n7",
        counting.format_probability(1 - Fraction(stable, total)),
        CODIM2_DROP_PROBABILITY_DEG3_N7,
    )

    bad = [(name, c.computed, c.expected)
           for name, c in checks.items() if not c.ok]
    if bad:
        raise CatalogMismatchError(bad)
    return checks


class DegStabCell(NamedTuple):
    n: int
    r: int
    value: int
    method: str


def _max_stability(ids, n: int, complement: bool, k_max: int) -> int:
    best = 0
    for rep_id in ids:
        rep = representative(rep_id)
        stab = degreedrop.deg_stab(rep.complement_anf(n) if complement else rep.anf(n))
        if stab >= k_max:
            raise CatalogMismatchError(
                [(rep_id, stab, f"drop expected within co-dimension {k_max}")]
            )
        best = max(best, stab)
    return best


def reproduce_degstab_table() -> list[DegStabCell]:
    """Recompute every entry of DEGSTAB_TABLE from scratch.

    Entries with degree 1, 2, or at least n-2 follow from closed forms, read
    from counting.degstab_bounds: they are the cells it pins.  The
    middle entries are maxima of per-class stability orders over the scanned
    classification: degree 3 directly, degrees 4 and 5 via complements.  The
    (degree 4, 8 variables) entry combines an explicit witness with the
    bound deg_stab(r, n+1) <= deg_stab(r, n) + 1, and the (degree 3, 6
    variables) entry uses the fast-point embedding argument."""
    all_ids = [rep.id for rep in load_catalog()]
    small_ids = [rep.id for rep in load_catalog() if rep.n_native <= 7]
    cells = []
    bad = []
    for n, row in sorted(DEGSTAB_TABLE.items()):
        for r, expected in enumerate(row, start=1):
            lower, upper = counting.degstab_bounds(r, n)
            if lower == upper:
                value = lower
                kind = "degree 1" if r == 1 else "high degree" if r >= n - 2 else "quadratics"
                method = f"closed form ({kind})"
            elif (r, n) == (3, 7):
                value = _max_stability(small_ids, 7, False, 3)
                method = "scan of the 11 cubic classes in 7 variables"
            elif (r, n) == (3, 8):
                value = _max_stability(all_ids, 8, False, 3)
                method = "scan of the 31 cubic classes in 8 variables"
            elif (r, n) == (4, 7):
                value = _max_stability(small_ids, 7, True, 3)
                method = "scan of the 11 quartic classes in 7 variables"
            elif (r, n) == (5, 8):
                value = _max_stability(all_ids, 8, True, 3)
                method = "scan of the 31 quintic classes in 8 variables"
            elif (r, n) == (4, 8):
                value, method = _degstab_4_8()
            elif (r, n) == (3, 6):
                value, method = _degstab_3_6()
            else:  # pragma: no cover - table rows are fixed
                raise InvariantViolationError(f"no reproduction route for {(r, n)}")
            cells.append(DegStabCell(n, r, value, method))
            if value != expected:
                bad.append(((n, r), value, expected))
    if bad:
        raise CatalogMismatchError(bad)
    return cells


def _degstab_4_8() -> tuple[int, str]:
    # Lower bound: an explicit quartic in 8 variables stable at
    # co-dimension 2.  Upper bound: restricting to a hyperplane on which the
    # degree is kept eliminates one variable, so
    # deg_stab(4, 8) <= deg_stab(4, 7) + 1.
    witness = ANF.parse(RANK_WITHOUT_DROP_WITNESS, 8)
    lower = degreedrop.deg_stab(witness)
    small_ids = [rep.id for rep in load_catalog() if rep.n_native <= 7]
    upper = _max_stability(small_ids, 7, True, 3) + 1
    if lower != upper:
        raise CatalogMismatchError(
            [("deg_stab(4,8)", (lower, upper), "bounds must pin the value")]
        )
    return lower, "explicit witness + one-variable extension bound"


def _degstab_3_6() -> tuple[int, str]:
    # Lower bound: x1x2x3 + x4x5x6 keeps degree on every hyperplane of
    # F_2^6.  Upper bound: a 6-variable cubic stable at co-dimension 2
    # would, viewed in 7 variables, land in the unique 7-variable class
    # stable at co-dimension 2; members of that class have no fast points,
    # but any function not depending on x7 has the direction e7 as a fast
    # point.  Contradiction, so no such cubic exists.
    lower = degreedrop.deg_stab(representative("f4").anf(6))
    small_ids = [rep.id for rep in load_catalog() if rep.n_native <= 7]
    codim2_stable = [
        rep_id for rep_id in small_ids
        if degreedrop.deg_stab(representative(rep_id).anf(7)) == 2
    ]
    stable_reps_have_fast_points = any(
        degreedrop.fast_points(representative(rep_id).anf(7)).dim > 0
        for rep_id in codim2_stable
    )
    if lower != 1 or stable_reps_have_fast_points:
        raise CatalogMismatchError(
            [("deg_stab(3,6)", (lower, codim2_stable,
                                stable_reps_have_fast_points),
              "witness at 1 and fast-point-free classes above")]
        )
    return 1, "explicit witness + fast-point embedding argument"


def apply_variable_substitution(f: ANF, mapping: dict[int, tuple[int, ...]]
                                ) -> ANF:
    """Replace each x_target with the sum of the given source variables.

    Unlisted variables are kept as they are.  The substitution must be
    invertible as a linear change of variables.
    """
    rows = [1 << (i - 1) for i in range(1, f.n + 1)]
    for target, sources in mapping.items():
        mask = 0
        for src in sources:
            mask |= 1 << (src - 1)
        rows[target - 1] = mask
    return f.compose_affine(rows, 0)
