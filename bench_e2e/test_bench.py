"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest bench_e2e/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from repro.engine.executor import CellRecord  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from oracle import check_session  # noqa: E402
from workloads import WORKLOADS, PassResult, Prepared  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _record(algorithm="geographic", n=128, trial=0, **changes) -> CellRecord:
    record = CellRecord(
        algorithm=algorithm,
        n=n,
        trial=trial,
        epsilon=0.25,
        transmissions={"near": 40, "far": 60, "total": 100},
        ticks=50,
        converged=True,
        error=0.2,
        wall_clock=0.01,
        telemetry={"cache_hits": 3.0, "cache_misses": 1.0, "trial_batch": 1.0},
    )
    return replace(record, **changes)


GRID = [("geographic", 128, 0), ("geographic", 128, 1)]


def _clean():
    return [_record(trial=0), _record(trial=1)]


def _reference():
    return {r.key: r for r in _clean()}


class TestOracle:
    def test_clean_session_passes(self):
        assert check_session(_clean(), GRID, set(), _reference()) == {}

    def test_rejects_tampered_total(self):
        records = _clean()
        records[0] = replace(records[0], transmissions={"near": 40, "far": 60, "total": 101})
        failures = check_session(records, GRID, set(), None)
        assert list(failures) == [GRID[0]]
        assert "sum to 100" in failures[GRID[0]][0]

    def test_rejects_flipped_converged(self):
        records = _clean()
        records[1] = replace(records[1], converged=False)
        assert list(check_session(records, GRID, set(), None)) == [GRID[1]]

    def test_rejects_missing_cell(self):
        failures = check_session(_clean()[:1], GRID, set(), None)
        assert failures == {GRID[1]: ["cell missing: neither recorded nor abandoned"]}

    def test_abandoned_cell_is_not_missing(self):
        assert check_session(_clean()[:1], GRID, {GRID[1]}, None) == {}

    def test_rejects_duplicate_cell(self):
        records = _clean() + [_record(trial=1)]
        assert check_session(records, GRID, set(), None) == {
            GRID[1]: ["cell recorded more than once"]
        }

    def test_rejects_record_differing_from_reference(self):
        records = _clean()
        records[0] = replace(records[0], error=0.21)
        failures = check_session(records, GRID, set(), _reference())
        assert failures == {GRID[0]: ["differs from the per-cell serial record"]}

    def test_timing_differences_are_not_divergence(self):
        records = [replace(r, wall_clock=9.0, telemetry=None) for r in _clean()]
        assert check_session(records, GRID, set(), _reference()) == {}


def _pass(workload: str, cpu_s: float, tables=(), **layer) -> PassResult:
    records = _clean()
    return PassResult(
        cpu_s=cpu_s,
        wall_s=cpu_s / 2,
        sessions=[(records, set())],
        cell_s=[0.5] * 30,
        session_walls={"oneshot": 1.0, "daemon": 1.5},
        tables=list(tables),
        layer=layer,
    )


def _prep(workload: str) -> Prepared:
    return Prepared(WORKLOADS[workload], config=None, workdir=Path("."))


TABLE = {
    "spans": [
        {"span": "build", "count": 2, "total": 0.5},
        {"span": "build.graph_build", "count": 2, "total": 0.25},
        {"span": "run", "count": 2, "total": 1.5},
        {"span": "run.hier_run", "count": 2, "total": 1.25},
        {"span": "run.hier_run.flood", "count": 8, "total": 0.5},
    ],
    "counters": {"near_ticks": 10.0},
}


class TestMetricNames:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_end_to_end_names_match_the_spec(self, workload):
        passes = [_pass(workload, 2.0), _pass(workload, 3.0)]
        metrics = run.end_to_end(passes, 1.05, 0.8, 0, 4, 1, 70.0)
        assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(unit == units[name] for name, (_, unit) in metrics.items())

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_per_layer_names_match_the_spec(self, workload):
        baseline = _pass(workload, 2.0)
        traced = [_pass(workload, 2.5, [TABLE])]
        metrics = run.per_layer(_prep(workload), baseline, traced)
        assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert all(unit == units[name] for name, (_, unit) in metrics.items())

    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
        assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
        assert len(names) == len(set(names))


class TestAccounting:
    def test_self_times_sum_to_root_totals(self):
        selfs = layers.self_times(TABLE["spans"])
        assert sum(selfs.values()) == pytest.approx(0.5 + 1.5)
        assert selfs["run.hier_run"] == pytest.approx(0.75)

    def test_self_times_plus_unattributed_account_for_the_pass(self):
        traced = [_pass("hier-ladder", 2.5, [TABLE])]
        metrics = run.per_layer(_prep("hier-ladder"), _pass("hier-ladder", 2.0), traced)
        attributed = sum(layers.self_times(TABLE["spans"]).values())
        assert attributed + metrics["observability.unattributed_s"][0] == pytest.approx(2.5)

    def test_span_metrics_read_leaf_spans(self):
        spans = layers.span_metrics([TABLE])
        assert spans["graphs.builds"] == 2
        assert spans["routing.flood_calls"] == 8
        assert spans["routing.flood_s"] == pytest.approx(0.5)
        assert spans["gossip.hierarchical.run_self_s"] == pytest.approx(0.75)


def test_reference_scales_measured_times_but_not_charges():
    measured = _pass("hier-ladder", 12.0)
    measured.charged_s, measured.charged_cells = 10.0, 1
    measured.session_walls = {"oneshot": 11.0, "daemon": 11.0}
    metrics = run.time_metrics([measured], 1.0, 2.0, 0.9)
    assert metrics["cpu_s"] == pytest.approx(2.0 * 2 + 10.0)
    assert metrics["setup_s"] == pytest.approx(2.0)
    assert metrics["oneshot_wall_s"] == pytest.approx(1.0 * 2 + 10.0)
    assert metrics["cell_cpu_s_p50"] == pytest.approx(1.0)


def test_time_metrics_report_the_divided_value():
    passes = [_pass("sweep-batched", 2.0)]
    metrics = run.end_to_end(passes, 1.0, run.REFERENCE_NOMINAL_S / 2, 0, 2, 1, 70.0)
    divided = run.time_metrics(passes, 1.0, 2.0, 0.9)
    assert {name: metrics[name][0] for name in divided} == pytest.approx(divided)


def test_tail_quantile_is_fixed_by_the_shortest_run():
    # hier-ladder: three passes of nine cells give 27 samples.
    assert run.tail_quantile(27) == pytest.approx(17 / 27)
    assert run.tail_quantile(100) == pytest.approx(0.9)
    assert run.tail_quantile(10) == 0.9


@pytest.mark.parametrize("module", [layers, run, "spread"])
def test_doctests(module):
    import doctest
    import importlib

    if isinstance(module, str):
        module = importlib.import_module(module)
    assert doctest.testmod(module).failed == 0
