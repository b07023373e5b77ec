"""Per-stage times of the scan engine, and the rows each stream-n9 exit reduces.

Run from the repository root with the tree to measure first on PYTHONPATH:

    PYTHONPATH=src python3 tools/bench_scan.py --repeat 5 --seed 1

It prints one JSON object with two keys:

  stages  for each (n, k) in STAGES, the seconds that the truth-table gather,
          the batched Moebius transform and the normal kernel take over every
          _POINTS chunk of the codim-k restrictions of a fixed function of
          degree r, one sample per --repeat (the first fills the caches and
          is dropped); this is the codim-(k+1) count's whole scan
  exits   for each deg_stab item of perfbench's stream-n9 workload at --seed,
          the codim-(k-1) rows and chunks its existence scans reduce, summed
          over k, read by a tap on degreedrop._drop_chunks

It calls private scan functions that the tree's degreedrop module has had
since the lifted engine, so one copy of this file measures older trees too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from degstab import degreedrop
from degstab.anf import ANF, mobius_inplace
from degstab.bits import xor_points
from degstab.subspaces import materialized_codim

# (n, k, function): the stream-n9 count, a catalog-n8 profile step, and a
# codim-1 scan at the widest rows the benchmark reaches
STAGES = (
    (9, 2, "123+456+789+147+258"),
    (8, 2, "123+456+178+238"),
    (12, 1, "x1*x2*x3*x4+x5*x6*x7*x8+x9*x10*x11*x12+x1*x5*x9*x12"),
)


def stage_times(n: int, k: int, text: str) -> dict[str, float]:
    f = ANF.parse(text, n)
    r = int(f.degree())
    tt = f.truth_table()
    forms, bases = materialized_codim(n, k)
    step = max(1, degreedrop._POINTS >> (n - k))
    out = {"gather_s": 0.0, "moebius_s": 0.0, "kernel_s": 0.0}
    for s in range(0, len(forms), step):
        t0 = time.perf_counter()
        rows = tt[xor_points(bases[s : s + step])]
        t1 = time.perf_counter()
        mobius_inplace(rows)
        t2 = time.perf_counter()
        degreedrop._normal_kernel_dims(rows, r)
        t3 = time.perf_counter()
        out["gather_s"] += t1 - t0
        out["moebius_s"] += t2 - t1
        out["kernel_s"] += t3 - t2
    return out


def exit_scans(seed: int) -> list[dict]:
    sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
    import workloads

    seen = {"rows": 0, "chunks": 0}
    scan = degreedrop._drop_chunks

    def tap(*args, **kwargs):
        for value in scan(*args, **kwargs):
            seen["rows"] += len(value[0])
            seen["chunks"] += 1
            yield value

    degreedrop._drop_chunks = tap
    out = []
    try:
        for item in workloads.build("stream-n9", seed, workloads.load_goldens()):
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


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    stages = {}
    for n, k, text in STAGES:
        samples = [stage_times(n, k, text) for _ in range(args.repeat + 1)][1:]
        stages[f"{n},{k}"] = {
            "function": text,
            "rows": len(materialized_codim(n, k)[0]),
            **{key: [round(s[key], 5) for s in samples] for key in samples[0]},
        }
    print(json.dumps({"stages": stages, "exits": exit_scans(args.seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
