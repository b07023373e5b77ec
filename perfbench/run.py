"""The degstab benchmark: seeded closed-loop workloads over the public API.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-n8 --seed 1 --seconds 36 --trace 0

One caller runs the workload's items in order, each after the previous one
finishes.  Each pass is a fresh interpreter with src on PYTHONPATH, so the
program's caches start cold.  Passes repeat while the next one is predicted
to end within --seconds (at least one runs).  Each time metric is taken per
pass and the median over passes is reported.

--trace 0 reports the end-to-end metrics; set-up time is the median over
several fresh interpreters.  --trace 1 runs one untraced and one traced pass
and reports the per-layer metrics (tracing.py).  Every item's output is
checked; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full record of the run, with its
environment, is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SRC = "src"
HARD_LIMIT_S = 170.0  # the whole run, set-up samples included
SETUP_SAMPLES = 5  # set-up times per run, counting the passes' own
TAIL_BEYOND = 10  # the tail percentile leaves at least this many items above it
MIN_ITEMS = 20  # items per pass for the tail to be reported
MALLOC_ARENA_MAX = "1"  # glibc setting for every worker; see _worker


class BenchError(Exception):
    pass


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json's order."""
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _worker(workload: str, seed: int, mode: str, deadline: float, spans: str | None = None):
    """Run worker.py in a fresh interpreter; returns (spawn time, its JSON)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # One glibc malloc arena.  By default each pool thread gets an arena of
    # its own, and one that starts before the last thread's arena is released
    # gets yet another.  Each arena keeps its freed kernel buffers resident,
    # so hyper-n12-t2's peak RSS read 106 or 154 MB by scheduling luck.  With
    # one arena it counts what the program holds; single-thread passes are
    # unaffected.
    env["MALLOC_ARENA_MAX"] = MALLOC_ARENA_MAX
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within the {HARD_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None  # benchmark checkouts are plain trees; src_sha256 names the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _item_stats(p: dict) -> tuple[float, float]:
    """One pass's median item latency and its tail: the item at rank
    n - 1 - TAIL_BEYOND of the pass's n sorted latencies.

    Taken per pass, the tail's percentile depends only on the workload's item
    count, not on how many passes fit in --seconds.
    """
    xs = sorted(it[2] - it[1] for it in p["items"])
    return statistics.median(xs), xs[len(xs) - 1 - TAIL_BEYOND]


def _passes(workload: str, seed: int, seconds: int, deadline: float) -> list[dict]:
    passes = []
    start = time.monotonic()
    while True:
        spawned, res = _worker(workload, seed, "pass", deadline)
        res["setup_s"] = res["ready"] - spawned
        passes.append(res)
        took = time.monotonic() - spawned
        if time.monotonic() - start + took > seconds:
            return passes


def _end_to_end(workload: str, seed: int, seconds: int, deadline: float, record: dict) -> dict:
    setups = []
    _worker(workload, seed, "setup", deadline)  # compiles bytecode; not a sample
    for _ in range(SETUP_SAMPLES - 1):
        spawned, res = _worker(workload, seed, "setup", deadline)
        setups.append(res["ready"] - spawned)
    passes = _passes(workload, seed, seconds, deadline)
    setups += [p["setup_s"] for p in passes]
    n = len(passes[0]["items"])
    if n < MIN_ITEMS:
        raise BenchError(f"{workload} has {n} items per pass; the tail needs {MIN_ITEMS}")
    stats = [_item_stats(p) for p in passes]
    record.update(passes=passes, setup_samples=setups, items_per_pass=n,
                  tail_percentile=100.0 * (n - 1 - TAIL_BEYOND) / (n - 1))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_s": statistics.median(s[0] for s in stats),
        "item_tail_s": statistics.median(s[1] for s in stats),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def _per_layer(workload: str, seed: int, deadline: float, record: dict) -> dict:
    _, plain = _worker(workload, seed, "pass", deadline)
    spans = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.json")
    _, traced = _worker(workload, seed, "traced", deadline, spans)
    layers = dict(traced["layers"])
    cpu = sum(it[3] for it in plain["items"])
    layers["proc.cpu_s"] = cpu
    layers["proc.cpu_per_wall"] = cpu / plain["wall_s"]
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    record.update(passes=[plain, traced], spans_file=os.path.relpath(spans))
    return {k: layers.get(k, 0) for k in _units("per_layer")}  # 0: layer never entered


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "degstab", "__init__.py")):
        print("perfbench: run from the repository root (no src/degstab here)", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": args.seed,
        "malloc_arena_max": MALLOC_ARENA_MAX,
        "loadavg_start": os.getloadavg(),
    }
    problems = workloads.self_check(workloads.load_goldens())
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            metrics = _per_layer(args.workload, args.seed, deadline, record)
            units = _units("per_layer")
        else:
            metrics = _end_to_end(args.workload, args.seed, args.seconds, deadline, record)
            units = _units("end_to_end")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not all(p["cold_cache"] for p in record["passes"]):
        problems.append("materialized_codim cache was not empty at the start of a pass")
    env.update(python=record["passes"][0]["python"], numpy=record["passes"][0]["numpy"],
               loadavg_end=os.getloadavg())
    items = [it for p in record["passes"] for it in p["items"]]
    failed = [it for it in items if not it[4]]
    for it in failed:
        problems.append(f"item {it[0]} failed" + (f": {it[5]}" if it[5] else ""))
    record.update(env=env, metrics=metrics, attempted=len(items), failed=len(failed),
                  failed_frac=len(failed) / len(items), problems=problems)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} passes={len(record['passes'])} "
          f"items={len(items)} record={os.path.relpath(path)}")
    print(f"# env {json.dumps(env)}")
    for name, value in metrics.items():
        note = ""
        if name == "item_tail_s":
            note = f"  (p{record['tail_percentile']:.1f} of {record['items_per_pass']} items, median over passes)"
        elif name in ("wall_s", "item_p50_s", "peak_rss_mb"):
            note = f"  (median over {len(record['passes'])} passes of {record['items_per_pass']} items)"
        elif name == "setup_s":
            note = f"  (median of {len(record['setup_samples'])})"
        print(f"{name:26s} {value:14.6g} {units[name]}{note}")
    if args.trace:
        from tracing import LAYER_SHARES  # importing installs nothing

        shares = {k: metrics[k] for k in LAYER_SHARES + ("degreedrop.new_s", "trace.other_s")}
        shares["f2.s outside profile"] = shares.pop("f2.s") - metrics["degreedrop.new_s"]
        print("# self-time shares of trace.wall_s: " + ", ".join(
            f"{k} {v / metrics['trace.wall_s']:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    print(f"{'failed_frac':26s} {record['failed_frac']:14.6g} ratio  ({len(failed)}/{len(items)})")
    for line in problems:
        print(f"# problem: {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
