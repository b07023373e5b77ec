"""Per-stage times of the scan engine, and the rows each stream-n9 exit reduces.

Run from the repository root with the tree to measure first on PYTHONPATH:

    PYTHONPATH=src python3 tools/bench_scan.py --repeat 5 --seed 1

It prints one JSON object with seven keys:

  stages  for each (n, k) in STAGES, over a full degreedrop._drop_chunks(f, k)
          scan of a fixed function f of degree r, one sample per --repeat
          (the first fills the caches and is dropped); f is parsed from
          its text, or for a label in DENSE is a dense top part:
            scan_s        the whole scan: restriction rows, drop flags, chunks
            restrict_s    time inside the restriction step, and
            restrict_rows the rows it returned: degreedrop._substituted,
                          the one-pivot step (in older trees also the
                          substitution from f's ANF, under the same name,
                          and the truth-table gather, degreedrop._gathered),
                          counted by len(), so a row counts once whether it
                          carries C(m, r) weight-r coefficients or, in trees
                          before the slice step, all 2**m
            kernel_s      the normal kernel on each chunk's weight-r part
                          (whole ANF rows in trees whose scan yields them),
                          outside scan_s; it runs per chunk, as in the lift,
                          so no chunk outlives the next (keeping every chunk
                          made each substitution fault in fresh pages)
  exits   for each deg_stab item of perfbench's stream-n9 workload at --seed,
          the codim-(k-1) rows and chunks its existence scans reduce, summed
          over k, read by a tap on degreedrop._drop_chunks (rows counted
          by each chunk's drop flags, which every tree yields second)
  kernels seconds per call of the mask-level kernels, one sample per
          --repeat (after one warm-up pass), each the mean over the inputs:
            hyperplane_normal_basis, r_k_1 .. r_k_3, complement
                          on the top parts of the 24 functions of perfbench's
                          hyper-n12 workload at --seed, read by a tap on
                          degreedrop.dd_hyperplane_normal_space
            fast_point_basis  on their complements, as the duality check
                          calls it
            r_k_n20_k1, r_k_n20_k2  invariants.r_k on one random quartic at
                          n = 20 (each monomial kept with probability 1/2)
  analyze for N in ANALYZE_VARS, one sample per --repeat: the wall time
          (wall_s) and peak RSS in MB (peak_rss_mb, the child's ru_maxrss)
          of a fresh `python -m degstab analyze --n N --anf x1*...*xN
          --max-codim 1`, with this process's PYTHONPATH; run before the
          other keys (see main)
  new_step  profile's `new` step over the ten NEW_STEP_* functions, one
          sample per --repeat (after one warm-up pass): the seconds of a
          pass of degreedrop.profile(f, 3) over all ten (pass_s), of the
          degreedrop._child_count calls inside it (child_count_s), and of
          each NEW_STEP_CLOCKS name that the tree's degreedrop module
          holds: subspaces.codim_rank (codim_rank_s, in trees that rank the
          children through it), subspaces._rank (rank_s, the unchecked rank
          arithmetic), hyperplane_normal_basis (hyperplane_normal_basis_s,
          0 where profile does not read the normal span) and
          subspaces.codim_unrank (codim_unrank_s, in trees that decode a
          scan's drops by rank)
  spaces  for N in SPACE_VARS and each call in SPACE_CALLS, one sample per
          --repeat: wall_s and peak_rss_mb as for analyze, of a fresh
          interpreter that imports degstab, builds x1 and x1*...*xN, and
          makes the one call, call_s, the call's own time inside it, and
          the distinct values it returned; run before the other keys too
  enumerate  seconds of one full pass, one sample per --repeat (after one
          warm-up pass): of subspaces.iter_codim_chunks(n, k) for each
          (n, k) in ENUM_CHUNKS, its chunks dropped as they come, and of
          list(subspaces.enumerate_codim(n, k)) for each (n, k) in
          ENUM_SPACES, whose lists are small enough to hold

The stages call private scan functions that the tree's degreedrop module has
had since the substitution route (08695fa), passing m to the kernel where
its signature names it; new_step rebinds each of NEW_STEP_CLOCKS that the
module has (_child_count since subspaces were ranked, c01b6a0); the
kernels, spaces and enumerate keys call only public functions, and analyze
only the CLI; so one copy of this file measures those older trees too.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import random
import subprocess
import sys
import time
from collections import deque
from itertools import combinations

from degstab import degreedrop, invariants, subspaces
from degstab.anf import ANF
from degstab.catalog import representative
from degstab.subspaces import count_codim

# (n, k, function): the stream-n9 count, catalog-n8's profile steps, a
# codim-1 scan at the widest rows the benchmark reaches, two small scans
# (6, 2) and (7, 3), as criterion 9 and the exhaustive tests make, a
# codim-1 scan whose hyperplanes come in pieces of one parent's (16, 1),
# a codim-2 scan whose parent level is streamed and not held (11, 2), and
# dense top parts, whose parts are mostly nonzero: (12, 1) of a quartic
# and (12, 2) of a cubic
STAGES = (
    (9, 2, "123+456+789+147+258"),
    (8, 2, "123+456+178+238"),
    (8, 1, "123+456+178+238"),
    (12, 1, "x1*x2*x3*x4+x5*x6*x7*x8+x9*x10*x11*x12+x1*x5*x9*x12"),
    (6, 2, "123+456"),
    (7, 3, "123+456+147"),
    (16, 1, "x1*x2*x3*x4+x5*x6*x7*x8+x9*x10*x11*x12+x13*x14*x15*x16"),
    (11, 2, "x1*x2*x3+x4*x5*x6+x7*x8*x9+x10*x11*x1"),
    (12, 1, "dense quartic"),
    (12, 2, "dense cubic"),
)
# the dense stage functions, by label and degree r: each degree-r monomial
# on n variables kept with probability 1/2, drawn from a seed fixed by n, r
DENSE = {"dense quartic": 4, "dense cubic": 3}
# the restriction step; trees before the one-pivot step also gathered
RESTRICT = ("_substituted", "_gathered")
# the new_step functions at n = 8: catalog-n8's five quintic complements,
# and five of its cubics
NEW_STEP_COMPLEMENTS = ("f13", "f14", "f17", "f20", "f27")
NEW_STEP_CUBICS = ("f2", "f3", "f7", "f12", "f30")
# the calls new_step clocks inside a profile pass, where degreedrop has them
NEW_STEP_CLOCKS = ("_child_count", "codim_rank", "_rank", "hyperplane_normal_basis", "codim_unrank")
# variables of the single monomial that the analyze key reports on
ANALYZE_VARS = (16, 20, 22)
# the spaces key: variables, and the calls on x1 and on full = x1*...*xN,
# each of which has 2**(N-1) - 1 or 2**N - 1 points in its span
SPACE_VARS = (20, 22)
SPACE_CALLS = {
    "fast_points_x1": "degreedrop.fast_points(x1).count",
    "normal_space_full": "degreedrop.dd_hyperplane_normal_space(full).count",
    "duality_full": "degreedrop.check_dd_fast_duality(full).ok",
}
# the enumerate key: (n, k) of the full iter_codim_chunks passes, and of the
# enumerate_codim lists, 43,435 and 97,155 spaces; a LinearSubspace takes
# about 160 bytes, so the lists at (12, 2) and (10, 3) would hold 0.4 and
# 1 GB
ENUM_CHUNKS = ((9, 2), (12, 2), (10, 3))
ENUM_SPACES = ((9, 2), (8, 3))
SPACE_CHILD = """
import sys, time
from degstab import ANF, degreedrop
n = int(sys.argv[1])
x1, full = ANF.from_monomials(n, [1]), ANF.from_monomials(n, [(1 << n) - 1])
t0 = time.perf_counter()
value = {call}
print(time.perf_counter() - t0, value)
"""


def _timed(fn, key: str, into: dict):
    def wrapper(*args):
        t0 = time.perf_counter()
        rows = fn(*args)
        into[f"{key}_s"] += time.perf_counter() - t0
        into[f"{key}_rows"] += len(rows)
        return rows

    return wrapper


def _stage_function(n: int, text: str) -> ANF:
    if text not in DENSE:
        return ANF.parse(text, n)
    r = DENSE[text]
    rng = random.Random(f"bench_scan:dense{n},{r}")
    layer = [sum(1 << v for v in c) for c in combinations(range(n), r)]
    return ANF.from_monomials(n, [m for m in layer if rng.random() < 0.5])


def stage_times(n: int, k: int, text: str) -> dict[str, float]:
    f = _stage_function(n, text)
    r = int(f.degree())
    out = dict.fromkeys(("scan_s", "restrict_s", "kernel_s"), 0.0)
    out.update(restrict_rows=0)
    kernel = degreedrop._normal_kernel_dims
    # the scan's weight-r part and m, or in older trees whole ANF rows
    args = (n - k, r) if "m" in inspect.signature(kernel).parameters else (r,)
    saved = {name: getattr(degreedrop, name) for name in RESTRICT if hasattr(degreedrop, name)}
    for name, fn in saved.items():
        setattr(degreedrop, name, _timed(fn, "restrict", out))
    try:
        t0 = time.perf_counter()
        for _, _, rows in degreedrop._drop_chunks(f, k):
            t1 = time.perf_counter()
            kernel(rows, *args)
            out["kernel_s"] += time.perf_counter() - t1
        out["scan_s"] = time.perf_counter() - t0 - out["kernel_s"]
    finally:
        for name, fn in saved.items():
            setattr(degreedrop, name, fn)
    return out


def _clocked(fn, key: str, into: dict):
    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            into[key] += time.perf_counter() - t0

    return wrapper


def new_step_times(repeat: int) -> dict[str, list[float]]:
    funcs = [representative(c).complement_anf() for c in NEW_STEP_COMPLEMENTS]
    funcs += [representative(c).anf() for c in NEW_STEP_CUBICS]
    spent = {}
    clocks = {
        name: f"{name.lstrip('_')}_s"
        for name in NEW_STEP_CLOCKS
        if hasattr(degreedrop, name)
    }
    saved = {name: getattr(degreedrop, name) for name in clocks}
    for name, fn in saved.items():
        setattr(degreedrop, name, _clocked(fn, clocks[name], spent))
    samples = []
    try:
        for _ in range(repeat + 1):
            spent.update(dict.fromkeys(clocks.values(), 0.0))
            t0 = time.perf_counter()
            for f in funcs:
                degreedrop.profile(f, 3)
            samples.append({"pass_s": time.perf_counter() - t0, **spent})
    finally:
        for name, fn in saved.items():
            setattr(degreedrop, name, fn)
    return {key: [round(s[key], 5) for s in samples[1:]] for key in samples[0]}


def exit_scans(seed: int) -> list[dict]:
    seen = {"rows": 0, "chunks": 0}
    scan = degreedrop._drop_chunks

    def tap(*args, **kwargs):
        for value in scan(*args, **kwargs):
            seen["rows"] += len(value[1])
            seen["chunks"] += 1
            yield value

    degreedrop._drop_chunks = tap
    out = []
    try:
        for item in _workload("stream-n9", seed):
            if not item.name.startswith("deg_stab:"):
                continue
            seen.update(rows=0, chunks=0)
            value = item.run()
            if not item.check(value):
                raise SystemExit(f"{item.name} returned {value}, not its golden value")
            out.append({"item": item.name, "deg_stab": value, **seen})
    finally:
        degreedrop._drop_chunks = scan
    return out


def _workload(name: str, seed: int):
    sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
    import workloads

    return workloads.build(name, seed, workloads.load_goldens())


def _per_call(fn, inputs: list, repeat: int) -> list[float]:
    """Mean seconds per call of fn over the inputs, one sample per pass."""
    samples = []
    for _ in range(repeat + 1):
        t0 = time.perf_counter()
        for x in inputs:
            fn(x)
        samples.append(round((time.perf_counter() - t0) / len(inputs), 7))
    return samples[1:]


def enumerate_times(repeat: int) -> dict[str, list[float]]:
    out = {}
    for n, k in ENUM_CHUNKS:
        drain = lambda nk: deque(subspaces.iter_codim_chunks(*nk), maxlen=0)
        out[f"iter_codim_chunks_{n}_{k}"] = _per_call(drain, [(n, k)], repeat)
    for n, k in ENUM_SPACES:
        spaces = lambda nk: list(subspaces.enumerate_codim(*nk))
        out[f"enumerate_codim_{n}_{k}"] = _per_call(spaces, [(n, k)], repeat)
    return out


def kernel_times(seed: int, repeat: int) -> dict[str, list[float]]:
    seen = []
    space = degreedrop.dd_hyperplane_normal_space

    def tap(g, *args):
        seen.append(g)
        return space(g, *args)

    degreedrop.dd_hyperplane_normal_space = tap
    try:
        for item in _workload("hyper-n12", seed):
            item.run()
    finally:
        degreedrop.dd_hyperplane_normal_space = space
    tops = [g.top_part() for g in seen]
    masks = [(t.n, t.monomials()) for t in tops]
    comps = [(t.n, t.complement().monomials()) for t in tops]
    rng = random.Random("bench_scan:n20")
    layer = [sum(1 << v for v in c) for c in combinations(range(20), 4)]
    quartic = [ANF.from_monomials(20, [m for m in layer if rng.random() < 0.5])]
    out = {
        "hyperplane_normal_basis": _per_call(lambda a: degreedrop.hyperplane_normal_basis(*a), masks, repeat),
        "fast_point_basis": _per_call(lambda a: degreedrop.fast_point_basis(*a), comps, repeat),
    }
    for k in (1, 2, 3):
        out[f"r_k_{k}"] = _per_call(lambda t: invariants.r_k(t, k), tops, repeat)
    out["complement"] = _per_call(ANF.complement, tops, repeat)
    for k in (1, 2):
        out[f"r_k_n20_k{k}"] = _per_call(lambda f: invariants.r_k(f, k), quartic, repeat)
    return out


def _child(argv: list[str]) -> tuple[float, float, bytes]:
    """Wall seconds, peak RSS in MB (the child's ru_maxrss) and stdout of
    one run of argv; exits if the child fails."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = round(time.perf_counter() - t0, 4)
    if proc.returncode:
        raise SystemExit(f"{argv[1:]} exited {proc.returncode}")
    return wall, round(usage.ru_maxrss / 1024, 1), out


def analyze_runs(repeat: int) -> dict[str, dict[str, list[float]]]:
    out = {}
    for n in ANALYZE_VARS:
        anf = "*".join(f"x{i}" for i in range(1, n + 1))
        argv = [sys.executable, "-m", "degstab", "analyze", "--n", str(n), "--anf", anf, "--max-codim", "1"]
        runs = [_child(argv)[:2] for _ in range(repeat)]
        out[str(n)] = {"wall_s": [w for w, _ in runs], "peak_rss_mb": [m for _, m in runs]}
    return out


def space_runs(repeat: int) -> dict[str, dict[str, dict[str, list[float]]]]:
    out = {}
    for n in SPACE_VARS:
        for name, call in SPACE_CALLS.items():
            argv = [sys.executable, "-c", SPACE_CHILD.format(call=call), str(n)]
            runs = [_child(argv) for _ in range(repeat)]
            printed = [text.split() for _, _, text in runs]
            out.setdefault(str(n), {})[name] = {
                "value": sorted({value.decode() for _, value in printed}),
                "wall_s": [w for w, _, _ in runs],
                "call_s": [round(float(secs), 4) for secs, _ in printed],
                "peak_rss_mb": [m for _, m, _ in runs],
            }
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    # a child's ru_maxrss counts the RSS of the process it was forked from,
    # so the CLI runs start before the other keys grow this one past the
    # CLI's own import-time RSS
    analyze = analyze_runs(args.repeat)
    spaces = space_runs(args.repeat)
    stages = {}
    for n, k, text in STAGES:
        samples = [stage_times(n, k, text) for _ in range(args.repeat + 1)][1:]
        stages[f"{n},{k}" + (f" {text}" if text in DENSE else "")] = {
            "function": text,
            "rows": count_codim(n, k),
            **{key: [round(s[key], 5) for s in samples] for key in samples[0]},
        }
    print(json.dumps({
        "stages": stages,
        "exits": exit_scans(args.seed),
        "kernels": kernel_times(args.seed, args.repeat),
        "new_step": new_step_times(args.repeat),
        "enumerate": enumerate_times(args.repeat),
        "analyze": analyze,
        "spaces": spaces,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
