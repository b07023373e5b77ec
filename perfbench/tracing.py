"""Span tracer for the benchmark's traced pass.

install() rebinds degstab's public functions, and the names other degstab
modules call them by, to wrappers that record spans; nothing under src/
changes and untraced passes never import this module.  A span is
[name, parent, item, start, duration, calls], kept in memory and written out
when the pass ends.  The hottest leaf calls (the f2 eliminations, ~10^5 per
quintic profile) are folded into one span per (parent, name) whose `calls`
field counts them.

Only the main thread records: degstab's thread pools run just the batched
kernel in their workers, and every wrapped call happens on the main thread.

A layer's self time is its spans' duration minus the time their child spans
cover.  The layers partition the traced wall time:

  subspaces.enum_s     iter_codim_chunks (per next()) and materialized_codim
  degreedrop.scan_s    profile, degree_drop_count, has_degree_drop_space,
                       deg_stab, dd_hyperplane_normals, dd_hyperplane_normal_space
  degreedrop.fastpoint_s  fast_points, check_dd_fast_duality
  f2.s                 rref_rows, rank_of_rows, kernel_basis_of_rows; the part
                       under profile is degreedrop.new_s (the `new` column)
  invariants.r_k_s, construct.s, anf.truth_table_s
  trace.other_s        the rest: item checks, glue and gaps between items
"""

from __future__ import annotations

import threading
import types
from collections import Counter
from time import perf_counter

from degstab import anf, construct, degreedrop, f2, invariants, subspaces
from degstab.anf import ANF

SCAN = (
    "profile",
    "degree_drop_count",
    "has_degree_drop_space",
    "deg_stab",
    "dd_hyperplane_normals",
    "dd_hyperplane_normal_space",
)
FASTPOINT = ("fast_points", "check_dd_fast_duality")
F2_LEAVES = ("rref_rows", "rank_of_rows", "kernel_basis_of_rows")
F2_USERS = (degreedrop, subspaces, invariants, anf)
# Self-time metrics that partition the traced wall time, with trace.other_s.
LAYER_SHARES = (
    "subspaces.enum_s",
    "degreedrop.scan_s",
    "degreedrop.fastpoint_s",
    "f2.s",
    "invariants.r_k_s",
    "construct.s",
    "anf.truth_table_s",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]
        self.item = -1
        self.counters: Counter = Counter()
        self._main = threading.get_ident()

    def span(self, name, fn, on_call=None):
        """Wrap fn so each call records a span and nests the calls it makes."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            rec = [name, stack[-1], self.item, perf_counter(), 0.0, 1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter() - rec[3]
                stack.pop()
            if on_call is not None:
                on_call(args, out)
            return out

        return wrapper

    def leaf(self, name, fn):
        """Wrap a call that makes no traced calls; one span per (parent, name)."""
        spans, stack = self.spans, self.stack
        by_parent: dict[int, list] = {}

        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec = by_parent.get(stack[-1])
                if rec is None:
                    rec = [name, stack[-1], self.item, t0, 0.0, 0]
                    by_parent[stack[-1]] = rec
                    spans.append(rec)
                rec[4] += dt
                rec[5] += 1

        return wrapper

    def generator(self, name, genfn, on_yield):
        """Wrap a generator function; each next() is one span."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            gen = genfn(*args, **kwargs)
            try:
                while True:
                    rec = [name, stack[-1], self.item, perf_counter(), 0.0, 1]
                    spans.append(rec)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec[4] = perf_counter() - rec[3]
                    on_yield(args, value)
                    yield value
            finally:
                gen.close()

        return wrapper

    def tap(self, genfn, on_yield):
        """Wrap a generator function to count what it yields; no span."""

        def wrapper(*args, **kwargs):
            gen = genfn(*args, **kwargs)
            try:
                for value in gen:
                    on_yield(args, value)
                    yield value
            finally:
                gen.close()

        return wrapper

    def install(self) -> None:
        count = self.counters
        cache = subspaces.materialized_codim

        def chunk_out(args, value):
            count["subspaces.rows"] += len(value[0])
            count["subspaces.chunks"] += 1

        def materialized(n, k):
            misses = cache.cache_info().misses
            out = cache(n, k)
            if cache.cache_info().misses != misses:
                count["subspaces.rows"] += len(out[0])
            return out

        def drop_chunk(args, value):
            f, k = args[0], args[1]
            m = f.n - k
            rows = len(value[1])
            count["degreedrop.restrictions"] += rows
            count["degreedrop.drops"] += int(value[1].sum())
            count["degreedrop.kernel_bytes"] += rows * (1 << m) * 5
            count["degreedrop.kernel_xors"] += rows * m * (1 << m) // 2

        def fastpoint_dirs(args, out):
            count["degreedrop.fastpoint_dirs"] += (1 << args[0].n) - 1

        for name in SCAN:
            setattr(degreedrop, name, self.span(f"degreedrop.{name}", getattr(degreedrop, name)))
        for name in FASTPOINT:
            fn = getattr(degreedrop, name)
            setattr(degreedrop, name, self.span(f"degreedrop.{name}", fn, fastpoint_dirs))
        # degreedrop imported these by name, so rebind them there.
        degreedrop.iter_codim_chunks = self.generator(
            "subspaces.iter_codim_chunks", subspaces.iter_codim_chunks, chunk_out
        )
        degreedrop.materialized_codim = self.span("subspaces.materialized_codim", materialized)
        degreedrop._drop_chunks = self.tap(degreedrop._drop_chunks, drop_chunk)

        proxy = types.SimpleNamespace(**{k: v for k, v in vars(f2).items() if not k.startswith("__")})
        for name in F2_LEAVES:
            setattr(proxy, name, self.leaf(f"f2.{name}", getattr(f2, name)))
        for mod in F2_USERS:
            mod.f2 = proxy

        invariants.r_k = self.span("invariants.r_k", invariants.r_k)
        construct.randomized_construction = self.span(
            "construct.randomized_construction", construct.randomized_construction
        )
        ANF.truth_table = self.span("anf.truth_table", ANF.truth_table)
        ANF.from_truth_table = classmethod(
            self.span("anf.from_truth_table", ANF.from_truth_table.__func__)
        )

    def run_item(self, index: int, fn):
        self.item = index
        return self.span("item", fn)()

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for the pass, whose items took wall_s."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                covered[rec[1]] += rec[4]
        out = Counter()

        def under_profile(i):
            while i >= 0:
                if spans[i][0] == "degreedrop.profile":
                    return True
                i = spans[i][1]
            return False

        for i, (name, parent, _item, _start, dur, calls) in enumerate(spans):
            if name == "item":
                continue
            self_s = dur - covered[i]
            layer, _, fn = name.partition(".")
            if layer == "subspaces":
                out["subspaces.enum_s"] += self_s
            elif layer == "degreedrop":
                out["degreedrop.fastpoint_s" if fn in FASTPOINT else "degreedrop.scan_s"] += self_s
            elif layer == "f2":
                out["f2.s"] += self_s
                out[{"rref_rows": "f2.rref_calls", "rank_of_rows": "f2.rank_calls",
                     "kernel_basis_of_rows": "f2.kernel_basis_calls"}[fn]] += calls
                if fn == "rref_rows":
                    out["f2.rref_s"] += self_s
                if under_profile(parent):
                    out["degreedrop.new_s"] += self_s
                    if fn == "rref_rows":
                        out["degreedrop.parent_rrefs"] += calls
            elif layer == "invariants":
                out["invariants.r_k_s"] += self_s
                out["invariants.r_k_calls"] += calls
            elif layer == "construct":
                out["construct.s"] += self_s
                out["construct.calls"] += calls
            elif layer == "anf":
                out["anf.truth_table_s"] += self_s
                out["anf.truth_table_calls"] += calls
        out.update(self.counters)
        attributed = sum(out[k] for k in LAYER_SHARES)
        out["trace.wall_s"] = wall_s
        out["trace.other_s"] = wall_s - attributed
        return dict(out)
