"""Unit tests for repro.gossip.hierarchical.protocol (async state machine)."""

import numpy as np
import pytest

from repro.gossip.hierarchical import AsyncHierarchicalProtocol
from repro.graphs import RandomGeometricGraph
from repro.hierarchy import HierarchyTree


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(229)
    graph = RandomGeometricGraph.sample_connected(128, rng, radius_constant=2.5)
    tree = HierarchyTree.build(graph.positions, leaf_threshold=16.0)
    field = np.random.default_rng(233).normal(size=graph.n)
    return graph, tree, field


class TestInitialization:
    def test_rejects_bad_separation(self, setup):
        graph, tree, _ = setup
        with pytest.raises(ValueError):
            AsyncHierarchicalProtocol(graph, tree=tree, separation=0.5)

    def test_all_states_off_before_run(self, setup):
        graph, tree, _ = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        assert not any(s.local_on or s.global_on for s in proto.states)

    def test_root_switched_on_by_run(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        proto.run(field, epsilon=0.9, rng=np.random.default_rng(1), max_ticks=1)
        assert proto.states[tree.root.supernode].global_on

    def test_dynamics_layer_rejects_static_snapshots(self, setup):
        from repro.dynamics.overlay import DynamicGossip, DynamicSubstrate
        from repro.dynamics.schedule import FaultSpec

        graph, tree, _ = setup
        substrate = DynamicSubstrate(graph, FaultSpec(), seed=1)
        with pytest.raises(TypeError, match="supports_dynamics=False"):
            DynamicGossip(AsyncHierarchicalProtocol(substrate, tree=tree), substrate)

    def test_supernode_square_map_shallowest_wins(self, setup):
        graph, tree, _ = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        assert proto._square_of[tree.root.supernode] is tree.root


class TestExecution:
    def test_converges(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        result = proto.run(field, epsilon=0.3, rng=np.random.default_rng(5))
        assert result.converged
        assert result.error <= 0.3

    def test_sum_conserved(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        result = proto.run(field, epsilon=0.3, rng=np.random.default_rng(7))
        assert result.values.sum() == pytest.approx(field.sum(), abs=1e-9)

    def test_far_exchanges_happen(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        proto.run(field, epsilon=0.3, rng=np.random.default_rng(9))
        assert proto.far_exchanges > 0

    def test_transmission_categories(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        result = proto.run(field, epsilon=0.3, rng=np.random.default_rng(11))
        assert result.transmissions.get("near", 0) > 0
        assert result.transmissions.get("far", 0) > 0
        assert result.transmissions.get("activation", 0) > 0

    def test_busy_guard_defers_overlapping_exchanges(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree, separation=1.0)
        proto.run(field, epsilon=0.3, rng=np.random.default_rng(13))
        # With no rate separation at all, the guard must be doing real work.
        assert proto.busy_aborts > 0

    def test_rerun_reuses_instance(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        first = proto.run(field, epsilon=0.4, rng=np.random.default_rng(15))
        second = proto.run(field, epsilon=0.4, rng=np.random.default_rng(15))
        assert first.converged and second.converged
        assert first.total_transmissions == second.total_transmissions

    def test_time_budgets_monotone(self, setup):
        graph, tree, field = setup
        proto = AsyncHierarchicalProtocol(graph, tree=tree)
        proto.run(field, epsilon=0.4, rng=np.random.default_rng(17), max_ticks=10)
        budgets = proto._time_budgets
        assert all(b > 0 for b in budgets)
        assert budgets[0] > budgets[-1]
