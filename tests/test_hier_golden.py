"""Pinned bit-identity goldens for the hierarchical round executor.

Each case runs :class:`~repro.gossip.hierarchical.rounds.HierarchicalGossip`
on a fixed graph, field and seed and hashes everything the run reports:
the final ``values`` bytes, transmissions by category, ``ticks``,
``converged``, ``error``, the convergence trace and the executor's
:class:`~repro.gossip.hierarchical.rounds.RoundStats`.  The digests were
computed with the straightforward executor (one scalar
``rng.integers`` call and one counter charge per `Near` tick, one
flood per activation, uncached greedy routes); every optimisation of
the executor must reproduce them exactly.

The cases cover each executor branch a speed-up could disturb:

* ``clamped`` — the default adaptive run, on a graph where some sensors
  take the D10 ancestor fallback and some have exactly one local
  partner;
* ``paper_expected`` / ``convex`` — the other `Far` coefficient paths;
* ``global_targets`` — ``sibling_targets=False``;
* ``non_adaptive`` — prescribed counts, no early stop;
* ``routing_voids`` — a sparse graph where greedy `Far` routes fail;
* ``stranded`` — a sensor with no neighbour at all, whose `Near` ticks
  are drawn but charge nothing, so its leaf hits the adaptive cap.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.geometry.points import random_points
from repro.gossip.hierarchical import (
    CoefficientMode,
    HierarchicalGossip,
    ProtocolParameters,
    RoundConfig,
)
from repro.graphs import RandomGeometricGraph
from repro.graphs.rgg import connectivity_radius
from repro.observability import profile


def _fallback_graph() -> RandomGeometricGraph:
    return RandomGeometricGraph.sample_connected(
        300, np.random.default_rng(13), radius_constant=1.2
    )


def _sparse_graph() -> RandomGeometricGraph:
    return RandomGeometricGraph.sample(
        300, np.random.default_rng(32), radius=connectivity_radius(300, 0.9)
    )


def _stranded_graph() -> RandomGeometricGraph:
    """A connected-ish graph plus one sensor with no neighbour in range."""
    radius = connectivity_radius(256, 1.5)
    points = random_points(256, np.random.default_rng(41))
    lonely = np.array([0.52, 0.47])
    far = np.hypot(*(points - lonely).T) > radius
    points = np.vstack([lonely, points[far]])
    return RandomGeometricGraph.build(points, radius)


def _run(graph, epsilon, seed, *, parameters=None, max_root_rounds=3, **config):
    algo = HierarchicalGossip(
        graph, parameters=parameters, config=RoundConfig(**config)
    )
    values = np.random.default_rng(seed).normal(size=graph.n)
    result = algo.run(
        values, epsilon, np.random.default_rng(seed + 1),
        max_root_rounds=max_root_rounds,
    )
    return algo, result


def _digest(algo, result) -> str:
    tx, err = result.trace.as_arrays()
    stats = algo.stats
    summary = {
        "transmissions": sorted(result.transmissions.items()),
        "ticks": result.ticks,
        "converged": result.converged,
        "error": float(result.error).hex(),
        "stats": {
            "exchanges": sorted(stats.exchanges_by_depth.items()),
            "near_ticks": sorted(stats.near_ticks_by_depth.items()),
            "rounds": sorted(stats.rounds_by_depth.items()),
            "skipped": sorted(stats.skipped_rounds_by_depth.items()),
            "routing_failures": stats.routing_failures,
            "cap_hits": stats.cap_hits,
        },
    }
    digest = hashlib.sha256()
    digest.update(result.values.tobytes())
    digest.update(tx.tobytes())
    digest.update(err.tobytes())
    digest.update(json.dumps(summary, sort_keys=True).encode())
    return digest.hexdigest()


CASES = {
    "clamped": lambda: _run(_fallback_graph(), 0.2, 3),
    "paper_expected": lambda: _run(
        _fallback_graph(), 0.3, 5, max_root_rounds=1,
        coefficient_mode=CoefficientMode.PAPER_EXPECTED,
    ),
    "convex": lambda: _run(
        _fallback_graph(), 0.3, 7, coefficient_mode=CoefficientMode.CONVEX
    ),
    "global_targets": lambda: _run(
        _fallback_graph(), 0.3, 9, sibling_targets=False
    ),
    "non_adaptive": lambda: _run(
        RandomGeometricGraph.sample_connected(
            128, np.random.default_rng(1), radius_constant=2.0
        ),
        0.3,
        11,
        parameters=ProtocolParameters.practical(128, 0.3, decay=0.3),
        max_root_rounds=1,
        adaptive=False,
    ),
    "routing_voids": lambda: _run(_sparse_graph(), 0.3, 13),
    "stranded": lambda: _run(_stranded_graph(), 0.25, 15),
}

GOLDEN = {
    "clamped": (
        "e937b2b792551a195b100cff4feb0a25"
        "ca31048862ed9e6f1c7e15577b658ef7"
    ),
    "paper_expected": (
        "653952d3d0e5b69629104f7c0102ed47"
        "eae3d0326da5f869e95003cdd0d445d3"
    ),
    "convex": (
        "2894a0d5ee85cffd1151b7f3448d2bf6"
        "72787ca4fce220d73a14d4bb71229e99"
    ),
    "global_targets": (
        "75a251673509256e36cdcec849eefe8b"
        "5e0e48e508d7ceac5cc4c9c6ee5d21c8"
    ),
    "non_adaptive": (
        "915c2d7641bedc4bf10efcacb7e04cdc"
        "eba96bcf59242f367632f949daceb020"
    ),
    "routing_voids": (
        "ad2341e633914fad4e4ee834827af623"
        "a95faed9c59c93cd14f56cc6ce9a8c56"
    ),
    "stranded": (
        "f8e0489adf24b09342ac826ef9cd815f"
        "fc45942aa730307faa1ccac363b94d86"
    ),
}


class TestCoverage:
    """The cases exercise the branches their names claim."""

    def test_fallback_graph_has_fallback_and_single_partner_sensors(self):
        algo = HierarchicalGossip(_fallback_graph())
        leaf_of = {
            int(member): index
            for index, leaf in enumerate(algo.tree.leaves())
            for member in leaf.members
        }
        local = algo._leaf_neighbors
        fallback = [
            sensor
            for sensor, partners in enumerate(local)
            if any(leaf_of[int(v)] != leaf_of[sensor] for v in partners)
        ]
        single = [sensor for sensor, partners in enumerate(local) if partners.size == 1]
        assert fallback and single

    def test_sparse_case_hits_routing_voids(self):
        algo, _ = CASES["routing_voids"]()
        assert algo.stats.routing_failures > 0

    def test_stranded_case_strands_a_sensor_and_hits_the_cap(self):
        algo, _ = CASES["stranded"]()
        assert algo._leaf_neighbors[0].size == 0
        leaf = next(leaf for leaf in algo.tree.leaves() if 0 in leaf.members)
        assert leaf.occupancy > 1
        assert algo.stats.cap_hits > 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_digest(name):
    algo, result = CASES[name]()
    assert _digest(algo, result) == GOLDEN[name]


def test_profiled_run_is_bit_identical_and_split_into_spans():
    with profile.capture() as profiler:
        with profile.span("run"):
            algo, result = CASES["clamped"]()
    assert _digest(algo, result) == GOLDEN["clamped"]
    counts = {row["span"]: row["count"] for row in profiler.hotpath_table()}
    stats = algo.stats
    assert counts["run.leaf"] == sum(
        count
        for depth, count in stats.rounds_by_depth.items()
        if depth == algo.tree.levels - 1
    )
    assert counts["run.far"] == sum(stats.exchanges_by_depth.values())
    assert counts["run.activation"] > 0
