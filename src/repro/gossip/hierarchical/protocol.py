"""The literal Section 4.2 protocol: per-node state machines.

Every sensor runs the paper's tick handler:

* Level 0 — ``if local.state(s) = on: Near(s)``.
* Level ≥ 1 — with ``(s) = □_{i₁…i_r}``:

  1. if ``global.state(s) = on``:
     (a) if ``counter(s) = 0``: ``Activate.square(s)``;
     (b) with probability ``1 / (separation · time_r)``: ``Far(s)`` and
         ``counter(s) ← 0``  (the paper's rate ``n^{-a}·time(·)^{-1}``);
  2. if ``local.state(s) = on``: ``Near(s)``;
  3. if ``counter(s) ≥ time_r``: ``Deactivate.square(s)``;
     else ``counter(s) ← counter(s) + 1``.

Interpretation decisions (documented in DESIGN.md):

* D1 — `Far` targets are sibling squares (same parent).
* D2 — `Far` updates both endpoints symmetrically from pre-exchange values.
* Switching a supernode's ``global.state`` on also resets its counter to 0
  (the paper resets counters remotely in `Far` step 5; without a reset on
  activation a re-activated square could never re-run `A`).
* Practical time budgets replace the paper's ``(… )^16`` latencies (D5):
  a Level-1 node keeps its leaf active for ``Θ(m·log(m/ε))`` of its own
  ticks (so the square's members jointly perform the quadratic
  ``Θ(m²·log(m/ε))`` `Near` updates), and an internal node's budget covers
  its children's exchange phase at the separated `Far` rate.
* D8 — busy handshake.  The paper prevents a `Far` exchange from touching
  a square that is mid-averaging *statistically*, by rate separation
  ``n^a`` — unsimulatable, and anything far smaller lets exchanges compound
  a supernode's unmixed deviation by the affine gain repeatedly, which
  diverges.  The practical executor adds the deterministic equivalent: a
  supernode initiates `Far` only when its own square is quiescent
  (``counter ≥ time_r``), and a busy target aborts the exchange (the
  routed round trip is still charged; one status bit rides the handshake).
  Set ``separation ≥ n`` and ``busy_guard=False`` for the paper's pure
  rate-separated behaviour.

The machine runs under the standard asynchronous driver
(:class:`~repro.gossip.base.AsynchronousGossip`), so
``AsyncHierarchicalProtocol(...).run(values, epsilon, rng)`` behaves like
any other gossip algorithm in the library.  It is the demonstration-grade
executor — O(n) state, every transmission charged — while
:class:`~repro.gossip.hierarchical.rounds.HierarchicalGossip` is the
workhorse for scaling experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.gossip.base import AsynchronousGossip, GossipRunResult
from repro.gossip.hierarchical.parameters import ProtocolParameters
from repro.gossip.hierarchical.rounds import CoefficientMode
from repro.graphs.rgg import RandomGeometricGraph
from repro.hierarchy.tree import HierarchyTree, SquareNode
from repro.routing.cache import CachedGreedyRouter
from repro.routing.cost import TransmissionCounter
from repro.routing.flooding import flood
from repro.routing.greedy import GreedyRouter

__all__ = ["NodeState", "AsyncHierarchicalProtocol"]


@dataclass
class NodeState:
    """The paper's per-sensor protocol state.

    ``square_active`` tracks whether the square this sensor represents is
    currently switched on; `Activate.square`/`Deactivate.square` are
    idempotent and transmit only on actual state transitions (a literal
    re-flood every tick after the counter expires would charge unbounded
    cost for no state change).
    """

    local_on: bool = False
    global_on: bool = False
    counter: int = 0
    square_active: bool = False


class AsyncHierarchicalProtocol(AsynchronousGossip):
    """Poisson-clock execution of the Section 4 protocol.

    Parameters
    ----------
    graph, tree:
        Substrate and hierarchy (tree defaults to the practical build).
    parameters:
        Schedules; defaults to ``ProtocolParameters.practical`` with the
        run's ε at :meth:`run` time.
    separation:
        The practical stand-in for the paper's ``n^a`` rate-separation
        factor between a square's `Far` rate and its subordinate latency.
        Simulated wall-clock grows like ``separation^depth`` — this
        executor is the faithful-but-expensive demonstrator; use
        :class:`~repro.gossip.hierarchical.rounds.HierarchicalGossip` for
        scaling studies.
    coefficient_mode:
        `Far` coefficient rule (see
        :class:`~repro.gossip.hierarchical.rounds.CoefficientMode`).
    """

    name = "hierarchical-affine-async"

    #: Leaf `Near` adjacency, leaf floods and greedy routes are all
    #: snapshots of the graph taken once (the flood ``reached`` lists and
    #: the route cache's next-hop columns are memoised), so a substrate
    #: whose adjacency changes under the run would be served stale
    #: answers — the dynamics layer rejects the protocol instead.
    supports_dynamics = False

    def __init__(
        self,
        graph: RandomGeometricGraph,
        tree: HierarchyTree | None = None,
        parameters: ProtocolParameters | None = None,
        separation: float = 2.0,
        coefficient_mode: CoefficientMode = CoefficientMode.CLAMPED,
        busy_guard: bool = True,
    ):
        super().__init__(graph.n)
        if separation < 1:
            raise ValueError(f"separation must be >= 1, got {separation}")
        self.busy_guard = busy_guard
        self.graph = graph
        self.tree = tree if tree is not None else HierarchyTree.build(graph.positions)
        self.parameters = parameters
        self.separation = separation
        self.coefficient_mode = coefficient_mode
        self.router = CachedGreedyRouter(GreedyRouter(graph))
        self._active_parameters = parameters
        self.states = [NodeState() for _ in range(graph.n)]
        # square represented by each supernode sensor (shallowest wins,
        # matching Level assignment).
        self._square_of: dict[int, SquareNode] = {}
        for square in self.tree.all_squares():
            if square.supernode >= 0 and square.supernode not in self._square_of:
                self._square_of[square.supernode] = square
        self._siblings: dict[int, list[SquareNode]] = {}
        for square in self.tree.all_squares():
            peers = [
                c for c in square.children if c.occupancy > 0 and c.supernode >= 0
            ]
            for child in peers:
                if child.supernode in self._square_of and (
                    self._square_of[child.supernode] is child
                ):
                    self._siblings[child.supernode] = peers
        self._leaf_neighbors = self._restrict_adjacency_to_leaves()
        #: supernode -> its leaf's flood ``reached`` list (static graph,
        #: so each leaf's BFS runs once; see :meth:`_flood_leaf`)
        self._flood_reached: dict[int, list[int]] = {}
        self._time_budgets: list[int] = []
        self._epsilons: list[float] = []
        self.far_exchanges = 0
        self.routing_failures = 0
        self.busy_aborts = 0

    # -- driver integration --------------------------------------------------

    def run(
        self,
        initial_values: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
        max_ticks: int | None = None,
        check_every: int | None = None,
        trace_thinning: float = 0.02,
    ) -> GossipRunResult:
        """Initialise states (root's ``global.state ← on``) and run."""
        parameters = self.parameters or ProtocolParameters.practical(
            self.graph.n, epsilon
        )
        self._time_budgets = self._practical_time_budgets(parameters)
        self._epsilons = [
            parameters.schedule.epsilon(d)
            for d in range(len(self.tree.factors) + 1)
        ]
        self._active_parameters = parameters
        for state in self.states:
            state.local_on = False
            state.global_on = False
            state.counter = 0
            state.square_active = False
        root = self.tree.root
        if root.supernode >= 0:
            self.states[root.supernode].global_on = True
        self.far_exchanges = 0
        self.routing_failures = 0
        self.busy_aborts = 0
        return super().run(
            initial_values,
            epsilon,
            rng,
            max_ticks=max_ticks,
            check_every=check_every,
            trace_thinning=trace_thinning,
        )

    def tick_budget(self, epsilon: float) -> int:
        # The root round lasts ~time_budget[0] root ticks ≈ n·budget ticks.
        budget = self._time_budgets[0] if self._time_budgets else 1_000
        return int(4 * self.n * budget) + 50_000

    # -- the paper's tick handler ---------------------------------------------

    def tick(
        self,
        node: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> None:
        state = self.states[node]
        square = self._square_of.get(node)
        if square is None:
            # Level 0 sensor.
            if state.local_on:
                self._near(node, values, counter, rng)
            return
        depth = square.depth
        time_budget = self._time_budgets[depth]
        if state.global_on:
            if state.counter == 0:
                self._activate_square(node, square, counter)
            if depth > 0 and rng.random() < 1.0 / (self.separation * time_budget):
                if self._far(node, square, values, counter, rng):
                    # Far step: counter ← 0 (re-run A on the own square).
                    state.counter = 0
        if state.local_on:
            self._near(node, values, counter, rng)
        if state.counter >= time_budget:
            self._deactivate_square(node, square, counter)
        else:
            state.counter += 1

    # -- subroutines -----------------------------------------------------------

    def _near(
        self,
        node: int,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> None:
        local = self._leaf_neighbors[node]
        if local.size == 0:
            return
        partner = int(local[rng.integers(local.size)])
        average = 0.5 * (values[node] + values[partner])
        values[node] = average
        values[partner] = average
        counter.charge(2, "near")

    def _far(
        self,
        node: int,
        square: SquareNode,
        values: np.ndarray,
        counter: TransmissionCounter,
        rng: np.random.Generator,
    ) -> bool:
        """`Far(s)`: affine exchange with a uniformly random sibling square.

        Returns True iff an exchange was actually applied (D8 can defer or
        abort it), so the caller resets counters only when averaging must
        rerun.
        """
        state = self.states[node]
        if self.busy_guard and state.counter < self._time_budgets[square.depth]:
            return False  # own square still averaging (D8): defer
        siblings = self._siblings.get(node, [])
        pool = [s for s in siblings if s is not square]
        if not pool:
            return False
        partner_square = pool[int(rng.integers(len(pool)))]
        partner = partner_square.supernode
        forward, backward = self.router.round_trip(
            node, partner, counter, category="far"
        )
        if not (forward.delivered and backward.delivered):
            self.routing_failures += 1
            return False
        if self.busy_guard and (
            self.states[partner].counter < self._time_budgets[partner_square.depth]
        ):
            self.busy_aborts += 1
            return False  # partner mid-averaging: abort (round trip paid)
        x_i, x_j = values[node], values[partner]
        if self.coefficient_mode is CoefficientMode.CONVEX:
            values[node] = values[partner] = 0.5 * (x_i + x_j)
        else:
            beta = self._coefficient(square, partner_square)
            values[node] = x_i + beta * (x_j - x_i)
            values[partner] = x_j + beta * (x_i - x_j)
        # Far step 5 + Section 3 steps 5-6: both squares re-run A.  The
        # counter resets alone would race step 3's increment (counter would
        # be 1, not 0, at the next tick and Activate.square would never
        # fire), so activation is triggered here explicitly.
        self.states[partner].counter = 0
        self._activate_square(partner, partner_square, counter)
        self._activate_square(node, square, counter)
        self.far_exchanges += 1
        return True

    def _coefficient(self, square_i: SquareNode, square_j: SquareNode) -> float:
        gain = self._active_parameters.affine_gain
        expected = gain * square_i.expected_count
        smaller = min(square_i.occupancy, square_j.occupancy)
        if self.coefficient_mode is CoefficientMode.PAPER_EXPECTED:
            return expected
        if self.coefficient_mode is CoefficientMode.CLAMPED:
            return min(expected, 0.48 * smaller)
        if self.coefficient_mode is CoefficientMode.ACTUAL_MIN:
            return gain * smaller
        raise AssertionError(f"unhandled coefficient mode {self.coefficient_mode}")

    def _activate_square(
        self, node: int, square: SquareNode, counter: TransmissionCounter
    ) -> None:
        """`Activate.square(s)` — flood `local.state ← on` inside a leaf,
        or route `global.state ← on` to child supernodes."""
        state = self.states[node]
        if state.square_active:
            return  # idempotent: nothing to transmit
        state.square_active = True
        if square.is_leaf:
            for member in self._flood_leaf(node, square, counter):
                self.states[member].local_on = True
        else:
            for child in square.children:
                if child.supernode >= 0 and child.occupancy > 0:
                    if child.supernode != node:
                        self.router.route_to_node(
                            node, child.supernode, counter, category="activation"
                        )
                    child_state = self.states[child.supernode]
                    if not child_state.global_on:
                        child_state.global_on = True
                        child_state.counter = 0  # see module docstring

    def _deactivate_square(
        self, node: int, square: SquareNode, counter: TransmissionCounter
    ) -> None:
        state = self.states[node]
        if not state.square_active:
            return  # idempotent: already off
        state.square_active = False
        if square.is_leaf:
            for member in self._flood_leaf(node, square, counter):
                self.states[member].local_on = False
        else:
            for child in square.children:
                if child.supernode >= 0 and child.occupancy > 0:
                    if child.supernode != node:
                        self.router.route_to_node(
                            node, child.supernode, counter, category="activation"
                        )
                    self.states[child.supernode].global_on = False

    def _flood_leaf(
        self, node: int, square: SquareNode, counter: TransmissionCounter
    ) -> list[int]:
        """Flood the leaf ``square`` from ``node``: charge it, return ``reached``.

        The flood is a BFS over the static graph restricted to the leaf's
        members, so it runs once per leaf and is replayed from the memo.
        """
        reached = self._flood_reached.get(node)
        if reached is None:
            reached = flood(self.graph.neighbors, node, square.members.tolist())
            self._flood_reached[node] = reached
        counter.charge(len(reached), "activation")
        return reached

    # -- setup helpers -----------------------------------------------------------

    def _practical_time_budgets(self, parameters: ProtocolParameters) -> list[int]:
        """Per-depth activity windows, counted in the owner's own ticks.

        Deepest supernodes keep their leaf active for
        ``near_multiplier · m̄ · log(m̄/ε)`` own-ticks (members jointly
        produce the quadratic `Near` work); each internal depth covers its
        children's exchange phase at the separated `Far` rate.
        """
        depths = len(self.tree.factors) + 1
        budgets = [0] * depths
        deepest = depths - 1
        mean_leaf = max(
            2.0,
            float(np.mean([leaf.occupancy for leaf in self.tree.leaves()])),
        )
        eps_leaf = parameters.schedule.epsilon(deepest)
        budgets[deepest] = int(
            math.ceil(
                parameters.near_multiplier
                * mean_leaf
                * max(1.0, math.log(mean_leaf / eps_leaf))
            )
        )
        for depth in range(deepest - 1, -1, -1):
            k = self.tree.factors[depth]
            eps = parameters.schedule.epsilon(depth)
            exchanges_needed = parameters.exchange_multiplier * max(
                1.0, math.log(k / eps)
            )
            budgets[depth] = int(
                math.ceil(
                    exchanges_needed * self.separation * budgets[depth + 1] * 2.0
                )
            )
        return budgets

    def _restrict_adjacency_to_leaves(self) -> list[np.ndarray]:
        """Per-sensor `Near` adjacency (leaf-local, ancestor fallback D10)."""
        return self.tree.local_adjacency(self.graph.neighbors, fallback=True)
