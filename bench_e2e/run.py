"""The repository benchmark: one workload, driven from outside the program.

Run from the repository root::

    python3 bench_e2e/run.py --workload hier-ladder --seed 1 \\
        --seconds 25 --trace 0

Workloads are ``hier-ladder``, ``sweep-batched`` and ``service-fleet``
(see ``workloads.py`` and ``NOTES.md``).  ``--trace 0`` prints the
end-to-end metrics of an untraced run; ``--trace 1`` runs one untraced
pass, installs the layer wrappers, and prints the per-layer metrics of
traced passes.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when an output check fails or the program's source is
missing.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP thread pins, set before NumPy loads here or in any child.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_e2e_work"

#: Fresh-interpreter probes: one ``setup_s`` probe and one reference
#: probe before every pass, at least six of each in all, after one
#: untimed warm-up of each that fills the bytecode and page caches.
#: Spreading them over the run samples the host's slow and fast spells
#: alike.
PROBES_PER_PASS = 1
MIN_PROBES = 6

#: The reference probe: a fresh interpreter importing NumPy and
#: ``scipy.spatial`` and nothing of the program, so no change to the
#: program moves it.  Its CPU tracks the host's speed in the same spell
#: as the run (see NOTES.md).
REFERENCE_PROBE = ("-c", "import numpy, scipy.spatial")

#: The reference probe's CPU seconds on the machine the benchmark was
#: tuned on.  Divided times are reported as seconds on a host where the
#: reference takes this long.
REFERENCE_NOMINAL_S = 0.8

DEFAULT_SEED = 20070801  # the repository's default root seed


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quantile(samples: list, q: float) -> float:
    """The Harrell–Davis estimate of the ``q`` quantile.

    A Beta-weighted average of every order statistic.  A plain order
    statistic of a few distinct cells jumps from one cell to the next
    when the host's speed shifts their order; this estimate moves
    smoothly with them.

    >>> round(quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 6)
    3.0
    """
    if len(samples) < 2:
        return float(samples[0])
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(samples, prob=[q])[0])


def tail_quantile(min_count: int) -> float:
    """The quantile ``cell_cpu_s_tail`` reads, fixed per workload.

    ``min_count`` is the number of cell samples the workload's shortest
    run gives (its minimum number of passes).  The tail is the highest
    nearest-rank percentile with ≥10 of those samples beyond it; a run
    with more passes reads the same percentile, so a faster program
    does not move the tail by sampling more.  With 10 samples or fewer
    no percentile has ten beyond it, and the tail is p90.

    >>> round(tail_quantile(27), 4), tail_quantile(100), tail_quantile(1)
    (0.6296, 0.9, 0.9)
    """
    if min_count <= 10:
        return 0.9
    return (min_count - 10) / min_count


class SetupProber:
    """Times fresh interpreters from spawn until exit, in CPU seconds:
    set-up probes (ready for the first cell) and reference probes.

    The probes run under ``probe_host.py``, a child that lives until
    :meth:`close`, so that their memory never reaches this process's
    ``RUSAGE_CHILDREN`` before the peak RSS is read.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.probe_dir = workdir / "probe"
        self.setup_command = [
            sys.executable,
            str(BENCH_DIR / "setup_probe.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--workdir",
            str(self.probe_dir),
        ]
        self.reference_command = [sys.executable, *REFERENCE_PROBE]
        self.host = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe_host.py")],
            env=dict(
                os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)])
            ),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.setup: list[float] = []
        self.reference: list[float] = []
        self.probe(1)  # warm-up, not kept
        self.setup.clear()
        self.reference.clear()

    def _cpu(self, command: list) -> float:
        self.host.stdin.write(json.dumps(command) + "\n")
        self.host.stdin.flush()
        reply = self.host.stdout.readline()
        shutil.rmtree(self.probe_dir, ignore_errors=True)
        if not reply:
            raise RuntimeError(f"probe failed: {command}")
        return float(reply)

    def probe(self, count: int) -> None:
        for _ in range(count):
            self.setup.append(self._cpu(self.setup_command))
            self.reference.append(self._cpu(self.reference_command))

    def medians(self) -> tuple[float, float]:
        """``(set-up, reference)`` medians, topped up to :data:`MIN_PROBES`."""
        self.probe(MIN_PROBES - len(self.setup))
        return statistics.median(self.setup), statistics.median(self.reference)

    def close(self) -> None:
        """Stop the probe host and wait for it."""
        self.host.stdin.close()
        self.host.wait()
        self.host.stdout.close()


def check_pass(prep, result, reference) -> dict:
    """Oracle failures of every session of one pass, plus in-pass ones."""
    from oracle import check_session

    keys = [cell.key for cell in prep.grid]
    failures: dict = {}
    for index, (records, abandoned) in enumerate(result.sessions):
        for key, reasons in check_session(records, keys, abandoned, reference).items():
            failures.setdefault((index, key), []).extend(reasons)
    for key, reasons in result.failures.items():
        failures.setdefault((0, key), []).extend(reasons)
    return failures


def time_metrics(passes, setup_s: float, scale: float, tail_q: float) -> dict:
    """The time metrics, every measured time multiplied by ``scale``.

    Time charged to abandoned cells is a charge, not a measurement, and
    is never scaled.
    """
    from workloads import CELL_BUDGET_S

    cell_s = [s * scale for p in passes for s in p.cell_s]
    cell_s += [float(CELL_BUDGET_S)] * sum(p.charged_cells for p in passes)

    def charged(measured_with_charge) -> float:
        return statistics.median(
            (total - p.charged_s) * scale + p.charged_s
            for p, total in zip(passes, measured_with_charge)
        )

    return {
        "setup_s": setup_s * scale,
        "cpu_s": charged(p.cpu_s for p in passes),
        "cell_cpu_s_p50": quantile(cell_s, 0.5),
        "cell_cpu_s_tail": quantile(cell_s, tail_q),
        "oneshot_wall_s": charged(p.session_walls["oneshot"] for p in passes),
        "daemon_wall_s": charged(p.session_walls["daemon"] for p in passes),
    }


def end_to_end(
    passes,
    setup_s: float,
    reference_s: float,
    failed: int,
    attempted: int,
    min_passes: int,
    peak_rss_mb: float,
) -> dict:
    """Every end-to-end metric of an untraced run.

    Time metrics report their value divided by the reference probe
    (multiplied by ``REFERENCE_NOMINAL_S / reference_s``).  An ``info
    time`` line per time metric prints the raw value beside it, so that
    the division can be judged on the same runs (see NOTES.md).
    """
    scale = REFERENCE_NOMINAL_S / reference_s
    print(f"info reference probe {reference_s:.4f} CPU-s: divided times scaled by {scale:.4f}")
    first = passes[0]
    tail_q = tail_quantile(min_passes * (len(first.cell_s) + first.charged_cells))
    cell_count = sum(len(p.cell_s) + p.charged_cells for p in passes)
    print(f"info cell_cpu_s_tail is p{100 * tail_q:.1f} over {cell_count} cell samples")
    raw = time_metrics(passes, setup_s, 1.0, tail_q)
    divided = time_metrics(passes, setup_s, scale, tail_q)
    metrics = {}
    for name in raw:
        print(f"info time {name} raw {raw[name]!r} divided {divided[name]!r}")
        metrics[name] = (divided[name], "s")
    records = [r for p in passes for r in p.records]
    metrics.update(
        {
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
            "converged_frac": (
                sum(1 for r in records if r.converged) / attempted, "fraction"
            ),
            "tx_per_node_p50": (
                statistics.median(r.transmissions["total"] / r.n for r in records),
                "transmissions",
            ),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    )
    return metrics


def per_layer(prep, baseline, traced: list) -> dict:
    """Every per-layer metric, averaged per traced pass."""
    import layers
    from workloads import WORKERS

    count = len(traced)
    spans = layers.span_metrics(t for p in traced for t in p.tables)
    root_s = spans.pop("_root_s")
    out = {name: (value / count, "s" if name.endswith("_s") else "count")
           for name, value in spans.items()}
    records = [r for p in traced for r in p.records]
    counters: dict = {}
    for p in traced:
        for name, value in p.layer.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
    for category in ("near", "far", "activation"):
        out[f"gossip.hierarchical.{category}_tx"] = (
            sum(r.transmissions.get(category, 0) for r in records
                if r.algorithm == "hierarchical") / count,
            "count",
        )
    for name in ("near_ticks", "exchanges", "cap_hits"):
        out[f"gossip.hierarchical.{name}"] = (counters.get(name, 0.0) / count, "count")
    hits = sum((r.telemetry or {}).get("cache_hits", 0.0) for r in records)
    misses = sum((r.telemetry or {}).get("cache_misses", 0.0) for r in records)
    out["routing.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio"
    )
    out["routing.cache_misses"] = (misses / count, "count")
    out["engine.tensor.batched_frac"] = (
        sum(1 for r in records if (r.telemetry or {}).get("trial_batch"))
        / max(1, len(records)),
        "fraction",
    )
    out["engine.executor.cell_run_s"] = (
        sum(r.wall_clock or 0.0 for r in records) / count, "s"
    )
    pool_wall = sum(p.wall_s for p in traced) if prep.workload.mode == "pool" else 0.0
    out["engine.executor.pool_busy_frac"] = (
        spans["engine.tensor.slice_s"] / (WORKERS * pool_wall) if pool_wall else 0.0,
        "fraction",
    )
    out["engine.store.bytes"] = (
        sum(p.layer.get("store_bytes", 0) for p in traced) / count, "bytes"
    )
    sessions = [s for p in traced for s in p.layer.get("sessions", {}).values()]
    overheads = [o for s in sessions for o in s["overheads"]]
    shard_records = sum(s["shard_records"] for s in sessions)
    fleet_wall = sum(s["wall_s"] for s in sessions)
    out.update(
        {
            "engine.queue.claims": (sum(s["claims"] for s in sessions) / count, "count"),
            "engine.queue.reclaims": (sum(s["reclaims"] for s in sessions) / count, "count"),
            "engine.queue.duplicate_frac": (
                sum(s["duplicates"] for s in sessions) / shard_records
                if shard_records else 0.0,
                "fraction",
            ),
            "engine.queue.overhead_s_p50": (
                statistics.median(overheads) if overheads else 0.0, "s"
            ),
            "engine.service.first_claim_s": (
                statistics.mean(s["first_claim_s"] for s in sessions)
                if sessions else 0.0,
                "s",
            ),
            "engine.service.tail_s": (
                statistics.mean(s["tail_s"] for s in sessions) if sessions else 0.0,
                "s",
            ),
            "engine.service.fleet_utilization": (
                sum(s["busy_s"] for s in sessions) / (WORKERS * fleet_wall)
                if fleet_wall else 0.0,
                "fraction",
            ),
        }
    )
    measured = [p.cpu_s - p.charged_s for p in traced]
    out["observability.trace_overhead"] = (
        statistics.median(measured) / (baseline.cpu_s - baseline.charged_s), "ratio"
    )
    out["observability.unattributed_s"] = ((sum(measured) - root_s) / count, "s")
    return out


def print_table(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"metric {name:<{width}}  {value:>14.6g} {unit}")


def run(args: argparse.Namespace, workdir: Path) -> int:
    import numpy

    # The program's advisory warnings (trial-batch fallbacks, affine on
    # an uncentred field) are known and would only clutter the output.
    warnings.simplefilter("ignore")

    import workloads

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "workers": workloads.WORKERS,
        "cell_budget_s": workloads.CELL_BUDGET_S,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)
    prober = None if args.trace else SetupProber(args.workload, args.seed, workdir)
    try:
        return measure(args, workdir, prober)
    finally:
        if prober is not None:
            prober.close()


def measure(args: argparse.Namespace, workdir: Path, prober) -> int:
    """Set up, run passes for ``--seconds``, check them, print the metrics."""
    import layers
    import workloads

    prep = workloads.prepare(args.workload, args.seed, workdir / "run")
    passes, traced = [], []
    tracer = None
    start = time.perf_counter()
    while True:  # passes (with their setup probes) until --seconds is up
        if args.trace and passes:
            tracer = layers.install(workdir / "spans")
        if prober is not None:
            prober.probe(PROBES_PER_PASS)
        result = workloads.run_pass(prep, len(passes) + len(traced), tracer)
        (traced if tracer else passes).append(result)
        elapsed = time.perf_counter() - start
        # Stop at --seconds, or earlier when the next pass would overrun
        # it by more than half a pass, but not below the workload's
        # minimum number of passes.
        done = len(passes) + len(traced)
        if (
            elapsed + elapsed / done / 2 >= args.seconds
            and (traced or not args.trace)
            and done >= prep.workload.min_passes
        ):
            break

    # The peak RSS of this process and of the program's reaped children,
    # read before the harness reaps any child of its own: the reference
    # jobs below and, at the end of the run, the probe host.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(
        f"info peak RSS {max(own, kids):.1f} MB, set by "
        + ("this process" if own >= kids else "a program child")
        + f" (this process {own:.1f} MB, largest program child {kids:.1f} MB)"
    )
    if prep.workload.mode == "forked":
        # hier-ladder cells already run per-cell and serially: the first
        # pass is the reference every later pass must equal.
        reference = {r.key: r for r in passes[0].records}
    else:
        reference = workloads.reference_records(prep)
    failures: dict = {}
    attempted = failed = 0
    for result in passes + traced:
        found = check_pass(prep, result, reference)
        for (session, key), reasons in found.items():
            failures.setdefault(key, set()).update(reasons)
        attempted += len(result.sessions) * len(prep.grid)
        bad = {(i, k) for i, (_, abandoned) in enumerate(result.sessions) for k in abandoned}
        failed += len(bad | set(found))
    for key in sorted(prep.skip):
        print(f"info abandoned cell {key} over its {workloads.CELL_BUDGET_S} CPU-s budget")
    for key, reasons in sorted(failures.items()):
        print(f"error incorrect cell {key}: {'; '.join(sorted(reasons))}")
    if args.trace:
        metrics = per_layer(prep, passes[0], traced)
    else:
        metrics = end_to_end(
            passes,
            *prober.medians(),
            failed,
            attempted,
            prep.workload.min_passes,
            max(own, kids),
        )
    print_table(metrics)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if failures else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"bench_e2e: no program source at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench_e2e: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
