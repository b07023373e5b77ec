"""One benchmark pass in a fresh interpreter: set up, run the items, report.

run.py starts this with src on PYTHONPATH, so degstab's caches start cold as
they do for a command-line user.  It prints one JSON object on stdout:

  --mode setup   stop once the inputs are ready (a set-up time sample)
  --mode pass    run every item in order, one after the other
  --mode traced  the same with tracing.Tracer installed; --spans names the
                 file the spans are written to

Times are time.monotonic() readings, comparable with the parent's clock.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time

import numpy as np

from degstab import subspaces

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    ap.add_argument("--spans")
    args = ap.parse_args()

    items = workloads.build(args.workload, args.seed, workloads.load_goldens())
    result = {"ready": time.monotonic(), "python": platform.python_version(), "numpy": np.__version__}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    # Never call catalog.reproduce_*: its own cache would turn items into hits.
    cache_start = subspaces.materialized_codim.cache_info()
    result["cold_cache"] = cache_start.currsize == 0
    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    records = []
    for i, item in enumerate(items):
        c0 = time.process_time()
        t0 = time.monotonic()
        error = None
        try:
            out = tracer.run_item(i, item.run) if tracer else item.run()
            ok = bool(item.check(out))
        except Exception as exc:  # a failing item is counted and the pass goes on
            ok, error = False, f"{type(exc).__name__}: {exc}"
        t1 = time.monotonic()
        records.append([item.name, t0, t1, time.process_time() - c0, ok, error])

    cache_end = subspaces.materialized_codim.cache_info()
    result.update(
        items=records,
        wall_s=records[-1][2] - records[0][1],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        cache_hits=cache_end.hits - cache_start.hits,
        cache_misses=cache_end.misses - cache_start.misses,
    )
    if tracer is not None:
        layers = tracer.summary(result["wall_s"])
        layers["subspaces.cache_hits"] = result["cache_hits"]
        layers["subspaces.cache_misses"] = result["cache_misses"]
        result["layers"] = layers
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "parent", "item", "start", "duration_s", "calls"],
                       "items": [r[0] for r in records], "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
