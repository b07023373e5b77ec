"""Seeded inputs, item runners and output checks for the degstab benchmark.

Every input is an affine image g(x) = f(Mx + a) of a function f whose counts
are known: M comes from f2.random_invertible and a is a random shift.  The
counts are affine invariant, so each output is checked against the value
recorded for f's class -- the catalog's own reference numbers, goldens.json
(written once by make_goldens.py), or identities from the paper (2^R_1 - 1
degree-drop hyperplanes, degree-drop / fast-point duality).

The item runners call degstab through module attributes (degreedrop.profile,
not an imported name), so the traced run's rebound wrappers see every call.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from degstab import catalog, construct, degreedrop, f2, invariants
from degstab.anf import ANF

WORKLOADS = ("catalog-n8", "hyper-n12", "stream-n9", "hyper-n12-t2")
GOLDENS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

# Quintic complements profiled by catalog-n8: fixed, because the `new` step's
# work follows each class's counts (f13 needs ~25% fewer parent RREFs than
# f27), and spans the recorded c2 values.  f27 carries the pinned erratum.
# Five, not more, so that a pass stays near 15 s and two fit in a run: on a
# busy host one pass's item latencies move by 15-20%, and the median over
# passes is what keeps item_tail_s steady.
CATALOG_COMPLEMENTS = ("f13", "f14", "f17", "f20", "f27")
# The catalog-n8 linear maps are drawn once from this fixed seed; the run seed
# picks only the shifts, which leave the work unchanged.  The map sets how
# many parent RREFs the `new` step does: under six random maps the most
# exceed the fewest by 47% for f3 and 42% for f7.  Those cubics sit around
# the tail rank, so fresh maps would spread item_tail_s by the inputs alone.
CATALOG_MAP_SEED = "catalog-n8:maps"
HYPER_PER_SOURCE = 8  # constructions, lifted catalog cubics, sparse forms
SPARSE_MONOMIALS = 12
# The deg_stab early exits at n=9 use linear maps drawn once from this fixed
# seed; the run seed only picks their shifts.  Under fresh random maps the
# first dropping chunk moves anywhere in 1..~40 of the 97 chunks, and the
# median item latency then spreads ~25% from seed to seed (see README.md).
# The maps are drawn class by class, round after round.  Draw 20 (f27) is not
# an early exit: it streams 86 of the 97 chunks, a second full scan that would
# take the pass from ~15 s to ~23 s.  It is drawn and left out, so the others
# keep their maps.  22 exits and the full scan make 23 items per pass (the
# tail rule needs 20) and keep a pass short enough that two fit in a run.
EXIT_MAP_SEED = "stream-n9:exit-maps"
EXITS = 22
NEAR_FULL_EXIT_DRAWS = frozenset({20})


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def load_goldens(path: str = GOLDENS_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _idnum(rep_id: str) -> int:
    return int(rep_id[1:])


def _image(f: ANF, rng: random.Random) -> ANF:
    return f.compose_affine(f2.random_invertible(f.n, rng=rng), rng.getrandbits(f.n))


def _pinned_deg5_codim2(rep_id: str) -> int:
    return catalog.KNOWN_ERRATA.get(("deg5_n8", rep_id), catalog.DEG5_N8_CODIM2_COUNTS[rep_id])


def _equals(expected) -> Callable[[object], bool]:
    return lambda out: out == expected


# -- catalog-n8 ----------------------------------------------------------------


def _fingerprint(g: ANF) -> tuple[int, ...]:
    return degreedrop.profile(g, 3).fingerprint()


def _catalog_n8(seed: int, goldens: dict) -> list[Item]:
    rng = random.Random(f"catalog-n8:{seed}")
    map_rng = random.Random(CATALOG_MAP_SEED)

    def image(f: ANF) -> ANF:
        return f.compose_affine(f2.random_invertible(8, rng=map_rng), rng.getrandbits(8))

    cubics, complements = [], []
    for rep in catalog.load_catalog():
        g = image(rep.anf(8))
        cubics.append(Item(f"profile:{rep.id}", partial(_fingerprint, g), _equals(rep.expected_profile)))
    for rep_id in CATALOG_COMPLEMENTS:
        g = image(catalog.representative(rep_id).complement_anf(8))
        golden = tuple(goldens["quintic_n8_profile"][rep_id])
        recorded = (0, _pinned_deg5_codim2(rep_id))

        def check(out, golden=golden, recorded=recorded):
            return out[:2] == recorded and out == golden

        complements.append(Item(f"complement:{rep_id}", partial(_fingerprint, g), check))
    # f2 goes first and pays the first-touch cache build.  A complement
    # follows every 4 cubics, so the cubics' median and tail sample the whole
    # pass, not just its first seconds.
    items = cubics[:1]
    for j, item in enumerate(complements):
        items += cubics[1 + 4 * j : 5 + 4 * j] + [item]
    return items + cubics[1 + 4 * len(complements) :]


# -- stream-n9 -----------------------------------------------------------------


def _stream_n9(seed: int, goldens: dict) -> list[Item]:
    rng = random.Random(f"stream-n9:{seed}")
    ids = sorted(catalog.CODIM2_STABLE_DEG3_N8, key=_idnum)
    full_id = rng.choice(ids)
    g = _image(catalog.representative(full_id).anf(9), rng)
    full = Item(
        f"count3:{full_id}",
        partial(lambda g: degreedrop.degree_drop_count(g, 3), g),
        _equals(goldens["cubic_n9_codim3_count"][full_id]),
    )
    exits = []
    map_rng = random.Random(EXIT_MAP_SEED)
    for draw, rep_id in enumerate(itertools.cycle(ids)):
        if len(exits) == EXITS:
            break
        m = f2.random_invertible(9, rng=map_rng)
        if draw in NEAR_FULL_EXIT_DRAWS:
            continue
        g = catalog.representative(rep_id).anf(9).compose_affine(m, rng.getrandbits(9))
        exits.append(
            Item(
                f"deg_stab:{rep_id}",
                partial(lambda g: degreedrop.deg_stab(g), g),
                _equals(goldens["cubic_n9_deg_stab"][rep_id]),
            )
        )
    # The full scan sits mid-pass, so the exits' median and tail sample both halves.
    half = len(exits) // 2
    return exits[:half] + [full] + exits[half:]


# -- hyper-n12 -----------------------------------------------------------------


def hyperplane_item(g: ANF, threads: int) -> tuple[int, int, bool, bool]:
    """(hyperplane count, R_1, duality ok, both routes give the same normals)."""
    space = degreedrop.dd_hyperplane_normal_space(g, threads)
    top = g.top_part()
    r1 = invariants.r_k(top, 1).dim
    report = degreedrop.check_dd_fast_duality(top, 1, threads)
    return space.count, r1, report.ok, space.normals == report.hyperplane_normals


def _hyper_ok(out) -> bool:
    count, r1, duality_ok, same_normals = out
    return count == 2**r1 - 1 and duality_ok and same_normals


def _constructed_item(construction_seed: int, m: f2.F2Matrix, shift: int, threads: int):
    ms = construct.randomized_construction(12, 4, construction_seed)
    return hyperplane_item(ms.to_anf().compose_affine(m, shift), threads)


def _hyper_n12(seed: int, goldens: dict, threads: int) -> list[Item]:
    # Same inputs for hyper-n12 and hyper-n12-t2: the seed stream ignores threads.
    rng = random.Random(f"hyper-n12:{seed}")
    ids = [rep.id for rep in catalog.load_catalog()]
    lifted = rng.sample(ids, HYPER_PER_SOURCE)
    constructed = []
    for _ in range(HYPER_PER_SOURCE):
        cseed = rng.getrandbits(32)
        constructed.append((cseed, f2.random_invertible(12, rng=rng), rng.getrandbits(12)))
    sparse = []
    for i in range(HYPER_PER_SOURCE):
        r = 3 if i % 2 == 0 else 4
        masks = [sum(1 << v for v in c) for c in itertools.combinations(range(12), r)]
        sparse.append((r, _image(ANF.from_monomials(12, rng.sample(masks, SPARSE_MONOMIALS)), rng)))

    items = []
    for i in range(HYPER_PER_SOURCE):
        cseed, m, shift = constructed[i]
        items.append(
            Item(
                f"construct:{cseed}",
                partial(_constructed_item, cseed, m, shift, threads),
                lambda out: _hyper_ok(out) and out[0] == 0,
            )
        )
        rep_id = lifted[i]
        g = _image(ANF.from_monomials(12, catalog.representative(rep_id).anf(8).monomials()), rng)
        golden = tuple(goldens["cubic_n12_hyperplanes"][rep_id])
        items.append(
            Item(
                f"lifted:{rep_id}",
                partial(hyperplane_item, g, threads),
                lambda out, golden=golden: _hyper_ok(out) and out[:2] == golden,
            )
        )
        r, g = sparse[i]
        items.append(Item(f"sparse{r}:{i}", partial(hyperplane_item, g, threads), _hyper_ok))
    return items


def build(workload: str, seed: int, goldens: dict) -> list[Item]:
    """The workload's items, in run order, with inputs generated from seed."""
    if workload == "catalog-n8":
        return _catalog_n8(seed, goldens)
    if workload == "stream-n9":
        return _stream_n9(seed, goldens)
    if workload == "hyper-n12":
        return _hyper_n12(seed, goldens, 1)
    if workload == "hyper-n12-t2":
        return _hyper_n12(seed, goldens, 2)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def self_check(goldens: dict) -> list[str]:
    """Disagreements between goldens.json and values recorded in the catalog.

    Covers every golden that has a recorded counterpart: the cubic profiles at
    n=8, the quintic complements' (c1, c2) with KNOWN_ERRATA pinned, the
    first-drop codimension of the lifted cubics (recorded for n=8 as the
    stable sets, and unchanged by one dummy variable), and 2^R_1 - 1 for the
    n=12 hyperplane counts.
    """
    bad = []
    for rep in catalog.load_catalog():
        got = tuple(goldens["cubic_n8_profile"][rep.id])
        if got != rep.expected_profile:
            bad.append(f"cubic_n8_profile {rep.id}: {got} != recorded {rep.expected_profile}")
        stab = goldens["cubic_n9_deg_stab"][rep.id]
        if rep.id not in catalog.HYPERPLANE_STABLE_DEG3_N8:
            want = 0
        elif rep.id in catalog.CODIM2_STABLE_DEG3_N8:
            want = 2
        else:
            want = 1
        if stab != want:
            bad.append(f"cubic_n9_deg_stab {rep.id}: {stab} != {want} from the n=8 stable sets")
        count, r1 = goldens["cubic_n12_hyperplanes"][rep.id]
        if count != 2**r1 - 1:
            bad.append(f"cubic_n12_hyperplanes {rep.id}: {count} != 2^{r1} - 1")
    for rep_id in catalog.HYPERPLANE_STABLE_DEG5_N8:
        got = tuple(goldens["quintic_n8_profile"][rep_id][:2])
        if got != (0, _pinned_deg5_codim2(rep_id)):
            bad.append(f"quintic_n8_profile {rep_id}: (c1, c2) = {got} != recorded (0, {_pinned_deg5_codim2(rep_id)})")
    for rep_id in catalog.CODIM2_STABLE_DEG3_N8:
        if rep_id not in goldens["cubic_n9_codim3_count"]:
            bad.append(f"cubic_n9_codim3_count {rep_id}: missing")
    return bad
