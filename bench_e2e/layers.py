"""Per-layer tracing: the benchmark's wrappers around each layer's functions.

Nothing under ``src/`` changes.  A traced run installs wrappers around
the public entry points of each layer (graph build, field build, tree
build, the hierarchical executor, flooding, greedy routing, error
metrics, the trial-tensor slice, store append and shard merge).  Each
wrapper opens a span through the repository's own profiler,
:mod:`repro.observability.profile`, whose capture the benchmark switches
on from outside; the engine's built-in ``build``/``run``/``window``/
``check`` spans land in the same table.

Spans are wall-clock (``perf_counter``) and every process keeps its own
table: forked hierarchical cells return theirs in their reply, pool
workers write theirs to a file per slice.  Service workers are fresh
interpreters started by the program, so their insides are not traced;
that workload's layers are read from the queue, the shards and the
records instead.

Span names carry no dots: the profiler joins nested names with dots, and
:func:`self_times` splits on them.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Iterable, Mapping

from repro.observability import profile

__all__ = [
    "Tracer",
    "install",
    "self_times",
    "span_metrics",
]

#: The tracer of this process, set by :func:`install`.  Pool workers
#: reach it through :func:`traced_trial_slice`, which the pool pickles by
#: reference.
_TRACER: "Tracer | None" = None
_ORIGINALS: dict = {}


class Tracer:
    """Span tables and counters of one process, dumped where asked."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.counters: dict[str, float] = {}
        self._last = None

    def bump(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @contextmanager
    def capture(self):
        """Trace the enclosed block from empty tables."""
        self.counters = {}
        with profile.capture() as profiler:
            self._last = profiler
            yield self

    def export(self) -> dict:
        """The last capture as plain data (spans plus counters)."""
        rows = [
            {"span": row["span"], "count": row["count"], "total": row["total"]}
            for row in self._last.hotpath_table()
        ]
        return {"spans": rows, "counters": dict(self.counters)}

    def dump(self, tag: str) -> None:
        """Write the last capture to a file the parent collects."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{tag}-{os.getpid()}-{len(os.listdir(self.out_dir))}.json"
        path.write_text(json.dumps(self.export()), encoding="utf-8")

    def collect(self) -> list[dict]:
        """Every dumped capture, removing the files."""
        out = []
        if self.out_dir.is_dir():
            for path in sorted(self.out_dir.glob("*.json")):
                out.append(json.loads(path.read_text(encoding="utf-8")))
                path.unlink()
        return out


def _spanned(name: str, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with profile.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _traced_hier_run(original):
    @wraps(original)
    def run(self, initial_values, epsilon, rng, *args, **kwargs):
        with profile.span("hier_run"):
            result = original(self, initial_values, epsilon, rng, *args, **kwargs)
        tracer = _TRACER
        stats = self.stats
        tracer.bump("near_ticks", sum(stats.near_ticks_by_depth.values()))
        tracer.bump("exchanges", sum(stats.exchanges_by_depth.values()))
        tracer.bump("cap_hits", stats.cap_hits)
        tracer.bump("hier_runs")
        before = float(initial_values.sum())
        after = float(result.values.sum())
        scale = float(abs(initial_values).sum()) or 1.0
        if abs(after - before) > 1e-9 * scale:
            tracer.bump("sum_violations")
        return result

    return run


def traced_trial_slice(config, cells, check_stride=1):
    """``execute_trial_slice`` under its own capture, dumped to a file."""
    tracer = _TRACER
    with tracer.capture():
        with profile.span("slice"):
            records = _ORIGINALS["execute_trial_slice"](config, cells, check_stride)
    tracer.dump("slice")
    return records


def install(out_dir: Path) -> Tracer:
    """Wrap every traced layer function; returns this process's tracer."""
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    from repro.engine import batching, executor, service, store, tensor
    from repro.gossip.hierarchical import rounds
    from repro.hierarchy.tree import HierarchyTree
    from repro.routing.greedy import GreedyRouter

    _TRACER = Tracer(out_dir)
    _ORIGINALS["execute_trial_slice"] = executor.execute_trial_slice
    executor.execute_trial_slice = traced_trial_slice
    executor.build_graph = _spanned("graph_build", executor.build_graph)
    executor.build_values = _spanned("field", executor.build_values)
    HierarchyTree.build = classmethod(
        _spanned("tree_build", HierarchyTree.build.__func__)
    )
    rounds.HierarchicalGossip.run = _traced_hier_run(rounds.HierarchicalGossip.run)
    rounds.flood = _spanned("flood", rounds.flood)
    GreedyRouter.route_to_position = _spanned(
        "greedy", GreedyRouter.route_to_position
    )
    for module in (rounds, batching, tensor):
        module.normalized_error = _spanned("error", module.normalized_error)
    rounds.deviation_norm = _spanned("error", rounds.deviation_norm)
    store.ResultStore.append = _spanned("store_append", store.ResultStore.append)
    service.merge_shards = _spanned("merge", service.merge_shards)
    return _TRACER


def self_times(rows: Iterable[Mapping]) -> dict[str, float]:
    """Self time per span path: its total minus its direct children's.

    The self times of one table sum to the totals of its root spans.

    >>> rows = [{"span": "run", "total": 3.0}, {"span": "run.check", "total": 1.0},
    ...         {"span": "run.check.error", "total": 0.25}]
    >>> self_times(rows)
    {'run': 2.0, 'run.check': 0.75, 'run.check.error': 0.25}
    """
    totals = {row["span"]: float(row["total"]) for row in rows}
    selfs = dict(totals)
    for path, total in totals.items():
        parent, _, _ = path.rpartition(".")
        if parent in selfs:
            selfs[parent] -= total
    return selfs


#: span leaf name -> (total-time metric, call-count metric or None)
_LEAF_METRICS = {
    "graph_build": ("graphs.build_s", "graphs.builds"),
    "field": ("workloads.field_s", None),
    "tree_build": ("hierarchy.tree_build_s", None),
    "flood": ("routing.flood_s", "routing.flood_calls"),
    "greedy": ("routing.greedy_s", "routing.greedy_routes"),
    "error": ("metrics.error_s", None),
    "slice": ("engine.tensor.slice_s", None),
    "store_append": ("engine.store.append_s", "engine.store.appends"),
    "merge": ("engine.store.merge_s", None),
}


def span_metrics(tables: Iterable[Mapping]) -> dict[str, float]:
    """Layer times and counts from exported captures (summed over them).

    Also returns ``_root_s``, the root spans' total, which the caller
    subtracts from the pass CPU to get ``observability.unattributed_s``.
    """
    out = {name: 0.0 for pair in _LEAF_METRICS.values() for name in pair if name}
    out.update(
        {
            "gossip.hierarchical.run_self_s": 0.0,
            "engine.tensor.window_s": 0.0,
            "engine.tensor.check_s": 0.0,
            "_root_s": 0.0,
        }
    )
    for table in tables:
        rows = table["spans"]
        selfs = self_times(rows)
        for row in rows:
            path = row["span"]
            parts = path.split(".")
            leaf = parts[-1]
            if len(parts) == 1:
                out["_root_s"] += float(row["total"])
            # A wrapped function nested in itself (an error check inside
            # another) is counted once, at its outermost span.
            if leaf in parts[:-1]:
                continue
            if leaf in _LEAF_METRICS:
                time_name, count_name = _LEAF_METRICS[leaf]
                out[time_name] += float(row["total"])
                if count_name:
                    out[count_name] += row["count"]
            elif leaf == "hier_run":
                out["gossip.hierarchical.run_self_s"] += selfs[path]
            elif leaf in ("window", "check") and "slice" in parts:
                out[f"engine.tensor.{leaf}_s"] += float(row["total"])
    return out
