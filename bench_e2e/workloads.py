"""The three benchmark workloads and one timed pass over each.

Every workload is a fixed sweep grid on the gradient field at the
repository's default ε (0.25); its root seed is the benchmark's
``--seed``, except for ``hier-ladder`` (below).  A *pass* runs the whole
grid once through the workload's public entry point and returns what the
oracle and the metrics need.

* ``hier-ladder`` — ``hierarchical`` at n ∈ {256, 512, 1024} × 3 trials
  on the repository's default root seed, one
  :func:`~repro.engine.executor.execute_cell` at a time, each in a
  forked child under a :data:`CELL_BUDGET_S` CPU budget.  A cell over
  budget is abandoned, counted failed and charged the full budget in
  this pass and every later one, and not issued again.  The seed is
  fixed because some cells of this protocol never reach ε (the n=1024
  trial-0 cell of this seed is one): on seeded grids they come and go
  with the seed and make the ladder's cost bimodal.
* ``sweep-batched`` — five tick-driven protocols at n ∈ {256, 512} × 8
  trials, stride 16, through
  ``run_sweep_records(trial_batch=True, workers=2)`` into a fresh store.
* ``service-fleet`` — four routed protocols at n ∈ {128, 256} × 6 trials,
  stride 16: a one-shot ``run_distributed_sweep(workers=2)`` session,
  then a ``run_sweep_daemon(workers=2)`` session serving the same cells
  as two grids at different priorities, drain requested.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.engine.executor import CellRecord, execute_cell, expand_grid, run_sweep_records
from repro.engine.queue import LeaseQueue
from repro.engine.service import enqueue_grid, run_distributed_sweep, run_sweep_daemon
from repro.engine.store import ResultStore
from repro.experiments.config import ExperimentConfig

from forking import BudgetExceeded, ForkedJob, run_forked
import layers

__all__ = [
    "CELL_BUDGET_S",
    "WORKERS",
    "WORKLOADS",
    "PassResult",
    "Prepared",
    "Workload",
    "cpu_now",
    "prepare",
    "reference_records",
    "run_pass",
]

#: CPU seconds a hier-ladder cell may use before it is abandoned.  Cells
#: that finish take 0.1–3 s; the default seed's n=1024 trial-0 cell ran
#: over six CPU-minutes without finishing.
CELL_BUDGET_S = 10

#: Worker processes of the pooled and service workloads (the host's nproc).
WORKERS = 2


#: The repository's default root seed (``ExperimentConfig.root_seed``).
DEFAULT_ROOT_SEED = 20070801


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "forked" | "pool" | "service"
    algorithms: tuple[str, ...]
    sizes: tuple[int, ...]
    trials: int
    check_stride: int
    #: a root seed fixed for every run; ``None`` takes ``--seed``
    root_seed: "int | None" = None
    #: passes a run makes at least, whatever ``--seconds`` says
    min_passes: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hier-ladder",
            "forked",
            ("hierarchical",),
            (256, 512, 1024),
            3,
            1,
            root_seed=DEFAULT_ROOT_SEED,
            # 27 cell timings: a tail with ten beyond it above the median
            min_passes=3,
        ),
        Workload(
            "sweep-batched",
            "pool",
            ("randomized", "geographic", "path-averaging", "spatial", "affine"),
            (256, 512),
            8,
            16,
        ),
        Workload(
            "service-fleet",
            "service",
            ("randomized", "geographic", "path-averaging", "spatial"),
            (128, 256),
            6,
            16,
        ),
    )
}


@dataclass
class Prepared:
    """What set-up leaves for the passes: configs and a fresh work dir."""

    workload: Workload
    config: ExperimentConfig
    workdir: Path
    #: cells abandoned over budget in an earlier pass (hier-ladder)
    skip: set = field(default_factory=set)

    @property
    def grid(self) -> list:
        return expand_grid(self.config)


@dataclass
class PassResult:
    """One pass: its cost, its outputs, and its per-layer observations."""

    cpu_s: float
    wall_s: float
    #: every record the pass produced, duplicates kept, per session
    sessions: list  # list[tuple[list[CellRecord], set[key]]]: records, abandoned
    #: measured per-cell time samples: each finished cell's CPU
    #: (hier-ladder), the pass's CPU per cell (sweep-batched), the
    #: program's per-cell run time ``CellRecord.wall_clock`` (service-fleet)
    cell_s: list
    #: the share of ``cpu_s`` and of each session wall charged to
    #: abandoned cells (the budget each)
    charged_s: float = 0.0
    #: abandoned cells, each a further cell sample of exactly the budget
    charged_cells: int = 0
    session_walls: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)  # key -> [reason] found in-pass
    tables: list = field(default_factory=list)  # exported span captures
    layer: dict = field(default_factory=dict)  # layer figures read outside spans

    @property
    def records(self) -> list:
        return [r for records, _ in self.sessions for r in records]


def cpu_now() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def prepare(name: str, seed: int, workdir: Path) -> Prepared:
    """Set-up before the first cell: config and fresh store/queue dirs.

    This is what ``setup_s`` times, in a fresh interpreter, together
    with the imports above.
    """
    workload = WORKLOADS[name]
    config = ExperimentConfig(
        sizes=workload.sizes,
        trials=workload.trials,
        field="gradient",
        root_seed=seed if workload.root_seed is None else workload.root_seed,
        algorithms=workload.algorithms,
    )
    workdir.mkdir(parents=True, exist_ok=True)
    if workload.mode != "forked":
        ResultStore(workdir / "setup-store", config, workload.check_stride).open()
    if workload.mode == "service":
        (workdir / "setup-queue").mkdir(exist_ok=True)
    return Prepared(workload, config, workdir)


# -- forked cells -----------------------------------------------------------


def _cell_job(config: ExperimentConfig, cell, traced: bool) -> dict:
    """Forked child: one cell, plus its trace when traced."""
    tracer = layers._TRACER if traced else None
    out: dict = {"record": None}
    try:
        with tracer.capture() if tracer else nullcontext():
            out["record"] = execute_cell(config, cell).to_dict()
    except BudgetExceeded:
        pass  # no record: the cell is abandoned
    if tracer is not None:
        out["trace"] = tracer.export()
    return out


def _reference_job(config: ExperimentConfig, stride: int, cells) -> dict:
    return {
        "records": [execute_cell(config, cell, stride).to_dict() for cell in cells]
    }


def reference_records(prep: Prepared) -> dict:
    """Each cell's per-cell serial record, keyed by cell.

    Computed once per run, outside every timed region, by
    :func:`~repro.engine.executor.execute_cell` in two forked children
    that each run half the grid serially.
    """
    grid = prep.grid
    stride = prep.workload.check_stride
    jobs = [
        ForkedJob(_reference_job, (prep.config, stride, grid[i::WORKERS]), None)
        for i in range(WORKERS)
    ]
    out = {}
    for job in jobs:
        for payload in job.result().payload["records"]:
            record = CellRecord.from_dict(payload)
            out[record.key] = record
    return out


def _forked_pass(prep: Prepared, tracer) -> PassResult:
    start_cpu = cpu_now()
    start = time.perf_counter()
    records, abandoned, cell_s, tables = [], set(), [], []
    failures: dict = {}
    counters: dict = {}
    # Every abandoned cell costs exactly the budget in CPU and in wall
    # time, whether it ran out this pass or is skipped as abandoned
    # earlier: what a cell that ran out measured is taken out and the
    # budget charged in its place.
    overrun_cpu = overrun_wall = 0.0
    for cell in prep.grid:
        if cell.key in prep.skip:
            abandoned.add(cell.key)
            continue
        cell_start = time.perf_counter()
        result = run_forked(
            _cell_job, prep.config, cell, tracer is not None, cpu_budget=CELL_BUDGET_S
        )
        payload = result.payload or {}
        if payload.get("record") is None:
            prep.skip.add(cell.key)
            abandoned.add(cell.key)
            overrun_cpu += result.cpu_s
            overrun_wall += time.perf_counter() - cell_start
        else:
            records.append(CellRecord.from_dict(payload["record"]))
            cell_s.append(result.cpu_s)
        if "trace" in payload:
            tables.append(payload["trace"])
            cell_counters = payload["trace"]["counters"]
            if cell_counters.get("sum_violations"):
                failures.setdefault(cell.key, []).append("global sum not conserved")
            for name, value in cell_counters.items():
                counters[name] = counters.get(name, 0.0) + value
    wall = time.perf_counter() - start
    charged = float(CELL_BUDGET_S * len(abandoned))
    charged_wall = wall - overrun_wall + charged
    return PassResult(
        cpu_s=cpu_now() - start_cpu - overrun_cpu + charged,
        wall_s=wall,
        sessions=[(records, abandoned)],
        cell_s=cell_s,
        charged_s=charged,
        charged_cells=len(abandoned),
        session_walls={"oneshot": charged_wall, "daemon": charged_wall},
        failures=failures,
        tables=tables,
        layer={"counters": counters},
    )


# -- pooled sweep -----------------------------------------------------------


def _store_lines(path: Path) -> list:
    """Every record line of a ``cells.jsonl``, duplicates kept."""
    if not path.exists():
        return []
    return [
        CellRecord.from_dict(json.loads(line))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def _pool_pass(prep: Prepared, index: int, tracer) -> PassResult:
    stride = prep.workload.check_stride
    store = ResultStore(prep.workdir / f"store-{index}", prep.config, stride)
    start_cpu = cpu_now()
    start = time.perf_counter()
    with tracer.capture() if tracer else nullcontext():
        run_sweep_records(
            prep.config,
            workers=WORKERS,
            check_stride=stride,
            store=store,
            trial_batch=True,
        )
    wall = time.perf_counter() - start
    cpu = cpu_now() - start_cpu
    records = _store_lines(store.records_path)
    tables = [tracer.export(), *tracer.collect()] if tracer else []
    return PassResult(
        cpu_s=cpu,
        wall_s=wall,
        sessions=[(records, set())],
        # One kernel pass runs every trial of a slice, so a cell has no
        # time of its own: the pass's CPU per cell is the one sample.
        cell_s=[cpu / len(records)],
        session_walls={"oneshot": wall, "daemon": wall},
        tables=tables,
        layer={"store_bytes": store.records_path.stat().st_size},
    )


# -- service sessions -------------------------------------------------------


def _queue_figures(queue_dir: Path, records: list, started: float, ended: float) -> dict:
    """Queue and fleet figures of one session, read after it ended."""
    queue = LeaseQueue.open(queue_dir)
    done = queue.done_log()
    run_s = {r.key: r.wall_clock for r in records}
    busy = [m["completed_at"] - m["claimed_at"] for m in done]
    overheads = [
        m["completed_at"] - m["claimed_at"] - run_s[tuple(m["cell"])]
        for m in done
        if tuple(m["cell"]) in run_s
    ]
    shard_records = [
        record
        for path in sorted((queue_dir / "shards").glob("*/*/cells.jsonl"))
        for record in _store_lines(path)
    ]
    reclaims = queue.stats().reclamations
    return {
        "claims": len(done) + reclaims,
        "reclaims": reclaims,
        "shard_records": len(shard_records),
        "duplicates": len(shard_records) - len({r.key for r in shard_records}),
        "overheads": overheads,
        "first_claim_s": min(m["claimed_at"] for m in done) - started,
        "tail_s": ended - max(m["completed_at"] for m in done),
        "busy_s": sum(busy),
        "wall_s": ended - started,
    }


def _service_pass(prep: Prepared, index: int, tracer) -> PassResult:
    stride = prep.workload.check_stride
    config = prep.config
    root = prep.workdir / f"pass-{index}"
    half = len(config.algorithms) // 2
    high = replace(config, algorithms=config.algorithms[:half])
    low = replace(config, algorithms=config.algorithms[half:])
    start_cpu = cpu_now()
    with tracer.capture() if tracer else nullcontext():
        started = time.time()
        start = time.perf_counter()
        store = ResultStore(root / "oneshot-store", config, stride)
        run_distributed_sweep(
            config,
            store=store,
            queue_dir=root / "oneshot-queue",
            workers=WORKERS,
            check_stride=stride,
        )
        oneshot_wall = time.perf_counter() - start
        oneshot_span = (started, time.time())

        daemon_queue = root / "daemon-queue"
        admitted = []

        def _admit_then_drain(stats) -> None:
            # First poll: admit the second grid live, then ask for drain.
            if not admitted:
                admitted.append(
                    enqueue_grid(daemon_queue, low, check_stride=stride, priority=2)
                )
                LeaseQueue.open(daemon_queue).request_drain()

        started = time.time()
        start = time.perf_counter()
        run_sweep_daemon(
            root / "daemon-stores",
            queue_dir=daemon_queue,
            workers=WORKERS,
            initial_grids=[(high, stride, False, 0)],
            on_progress=_admit_then_drain,
        )
        daemon_wall = time.perf_counter() - start
        daemon_span = (started, time.time())
    cpu = cpu_now() - start_cpu
    oneshot = _store_lines(store.records_path)
    daemon = [
        record
        for path in sorted((root / "daemon-stores").glob("*/cells.jsonl"))
        for record in _store_lines(path)
    ]
    store_bytes = store.records_path.stat().st_size + sum(
        p.stat().st_size for p in (root / "daemon-stores").glob("*/cells.jsonl")
    )
    sessions = {
        "oneshot": _queue_figures(root / "oneshot-queue", oneshot, *oneshot_span),
        "daemon": _queue_figures(daemon_queue, daemon, *daemon_span),
    }
    return PassResult(
        cpu_s=cpu,
        wall_s=oneshot_wall + daemon_wall,
        sessions=[(oneshot, set()), (daemon, set())],
        cell_s=[r.wall_clock for r in oneshot + daemon],
        session_walls={"oneshot": oneshot_wall, "daemon": daemon_wall},
        tables=[tracer.export()] if tracer else [],
        layer={"store_bytes": store_bytes, "sessions": sessions},
    )


def run_pass(prep: Prepared, index: int, tracer=None) -> PassResult:
    """One timed pass over the workload's grid (traced when ``tracer``)."""
    mode = prep.workload.mode
    if mode == "forked":
        return _forked_pass(prep, tracer)
    if mode == "pool":
        return _pool_pass(prep, index, tracer)
    return _service_pass(prep, index, tracer)
