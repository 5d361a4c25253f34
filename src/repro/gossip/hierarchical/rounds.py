"""Round-based executor for the hierarchical affine protocol (Section 3).

A square's **round** is the unit of work:

1. *Activate*: the square's supernode switches its children on — a flood
   within leaf squares, greedy routes to child supernodes above leaves.
2. *Settle*: each child square runs its own round so its members share a
   common value (the overview's "Suppose that A has been run on each
   subsquare … independently").
3. *Exchange loop*: repeatedly, a uniformly random child supernode picks a
   uniformly random sibling, the pair exchanges values by greedy routing,
   both apply the **affine update** with coefficient ``(2/5)·E#``, and both
   involved child squares re-run their rounds.
4. *Deactivate*: mirror of activation.

Leaf rounds are plain `Near` gossip: each tick, a uniform member averages
with a uniform neighbour inside the leaf square.

Stopping (DESIGN.md, D5/D7): with ``adaptive=True`` (default) the exchange
and `Near` loops stop as soon as the square's internal deviation falls to
its depth's accuracy target ``ε_r · ‖x(0)‖`` (measured oracularly; costs
are still charged per transmission).  With ``adaptive=False`` loops run the
prescribed counts from :class:`~repro.gossip.hierarchical.parameters.
ProtocolParameters` — the paper's worst-case structure.

Execution is bit-identical to the literal reading above (one uniform draw
per choice, one counter charge per transmission, one BFS per flood, one
greedy walk per route), only faster:

* *Memoised floods.*  A leaf's activation or deactivation flood depends
  only on the static graph, its supernode and its members, so the BFS
  runs once per leaf per executor instance; every later activation and
  deactivation charges the cached ``len(reached)`` to ``"activation"``.
* *Cached routes.*  `Far` round trips and internal activations go
  through :class:`~repro.routing.cache.CachedGreedyRouter`, whose
  next-hop columns replay greedy paths and charges exactly.
* *Buffered `Near` draws.*  A leaf round runs its ticks in a plain-Python
  loop over Python floats, drawing its uniform member/partner indices
  through :class:`BufferedIntegers` — NumPy's own bounded-integer
  algorithm over pre-drawn blocks of the generator's 32-bit words,
  resynchronised once at the end of the round so the generator leaves
  the round exactly as the scalar ``rng.integers`` calls would.  The
  round's `Near` transmissions are charged in one call.

Profiler spans (:mod:`repro.observability.profile`) split a run into
``leaf`` (a leaf round: its `Near` ticks and activation floods), ``far``
(one `Far` round trip and update) and ``activation`` (an internal
square's routes to its children), so ``repro profile --algorithm
hierarchical`` shows where the time goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.gossip.base import GossipRunResult, check_state_shape
from repro.gossip.hierarchical.parameters import ProtocolParameters
from repro.graphs.rgg import RandomGeometricGraph
from repro.hierarchy.tree import HierarchyTree, SquareNode
from repro.metrics.error import deviation_norm, normalized_error
from repro.metrics.trace import ConvergenceTrace
from repro.observability import profile
from repro.routing.cache import CachedGreedyRouter
from repro.routing.cost import TransmissionCounter
from repro.routing.flooding import flood
from repro.routing.greedy import GreedyRouter

__all__ = [
    "BufferedIntegers",
    "CoefficientMode",
    "RoundConfig",
    "RoundStats",
    "HierarchicalGossip",
]

_WORD = 1 << 32
_LOW_BITS = _WORD - 1


class CoefficientMode(Enum):
    """How the `Far` affine coefficient is computed (DESIGN.md, D4).

    * ``PAPER_EXPECTED`` — the literal ``(2/5)·E#(□)``: correct whenever
      occupancy concentrates (the paper's ``(log n)^8`` leaves), but can
      push the induced sum-coefficient ``α = (2/5)·E#/#`` past 1 on
      under-occupied simulation-scale leaves and destabilise (E10).
    * ``CLAMPED`` — ``min((2/5)·E#, 0.48·min(#_i, #_j))``: identical to the
      paper when concentration holds, provably contracting always.
    * ``ACTUAL_MIN`` — ``(2/5)·min(#_i, #_j)``: fully local robust variant.
    * ``CONVEX`` — plain supernode averaging (coefficient ``1/2`` on the
      supernode *values*, no mass weighting): the E14 ablation showing why
      affine combinations are the paper's point.
    """

    PAPER_EXPECTED = "paper_expected"
    CLAMPED = "clamped"
    ACTUAL_MIN = "actual_min"
    CONVEX = "convex"


@dataclass(frozen=True)
class RoundConfig:
    """Executor knobs.

    Attributes
    ----------
    coefficient_mode:
        See :class:`CoefficientMode`.
    adaptive:
        Stop loops on measured accuracy (True) or run prescribed counts.
    sibling_targets:
        `Far` targets are siblings within the same parent (D1).  ``False``
        targets any same-depth square — the E14 ablation (it breaks the
        recursion's locality and inflates routing cost).
    hard_cap_factor:
        Adaptive loops abort after ``hard_cap_factor ×`` the prescribed
        count (guards pathological placements; aborts are reported).
    """

    coefficient_mode: CoefficientMode = CoefficientMode.CLAMPED
    adaptive: bool = True
    sibling_targets: bool = True
    hard_cap_factor: float = 10.0


@dataclass
class RoundStats:
    """Aggregate execution statistics, split by hierarchy depth."""

    exchanges_by_depth: dict[int, int] = field(default_factory=dict)
    near_ticks_by_depth: dict[int, int] = field(default_factory=dict)
    rounds_by_depth: dict[int, int] = field(default_factory=dict)
    skipped_rounds_by_depth: dict[int, int] = field(default_factory=dict)
    routing_failures: int = 0
    cap_hits: int = 0

    def _bump(self, table: dict[int, int], depth: int, amount: int = 1) -> None:
        table[depth] = table.get(depth, 0) + amount


class BufferedIntegers:
    """``int(rng.integers(k))`` for ``1 ≤ k < 2³²``, served from word blocks.

    For such bounds NumPy's ``Generator.integers(k)`` is Lemire's method
    over the bit generator's 32-bit stream: draw a word ``w`` and take
    ``m = w·k``; reject ``w`` and draw again while the low 32 bits of
    ``m`` are below ``(2³² − k) mod k``; return ``m >> 32``.  ``k = 1``
    returns 0 without drawing.  ``rng.integers(0, 2**32, size=B,
    dtype=np.uint32)`` draws the same words ``B`` at a time, so
    :meth:`draw` replays the scalar calls from blocks in plain Python.

    Blocks over-draw.  :meth:`resync` restores the generator's state as it
    was at construction and redraws exactly the words consumed, leaving
    ``rng`` where the scalar calls would have.  Nothing else may draw from
    ``rng`` between construction and :meth:`resync`.

    >>> rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    >>> draws = BufferedIntegers(rng)
    >>> bounds = (5, 1, 9, 2**31 + 1)
    >>> [draws.draw(k) for k in bounds] == [int(twin.integers(k)) for k in bounds]
    True
    >>> draws.resync()
    >>> rng.bit_generator.state == twin.bit_generator.state
    True
    """

    __slots__ = ("_rng", "_snapshot", "_block", "_words", "_pos", "_spent")

    #: Largest block drawn at once; blocks double up to it from ``block``.
    MAX_BLOCK = 1 << 16

    def __init__(self, rng: np.random.Generator, block: int = 256):
        self._rng = rng
        self._snapshot = rng.bit_generator.state
        self._block = max(1, block)
        self._words: list[int] = []
        self._pos = 0
        #: words consumed from blocks already exhausted
        self._spent = 0

    def draw(self, k: int) -> int:
        """The next ``int(rng.integers(k))`` of the scalar stream."""
        if k == 1:
            return 0
        words, pos = self._words, self._pos
        if pos == len(words):
            words, pos = self._refill(), 0
        m = words[pos] * k
        pos += 1
        low = m & _LOW_BITS
        if low < k:
            threshold = (_WORD - k) % k
            while low < threshold:
                if pos == len(words):
                    words, pos = self._refill(), 0
                m = words[pos] * k
                pos += 1
                low = m & _LOW_BITS
        self._pos = pos
        return m >> 32

    def resync(self) -> None:
        """Rewind ``rng`` and redraw exactly the words :meth:`draw` used."""
        used = self._spent + self._pos
        self._rng.bit_generator.state = self._snapshot
        if used:
            self._rng.integers(0, _WORD, size=used, dtype=np.uint32)

    def _refill(self) -> list[int]:
        self._spent += len(self._words)
        self._words = self._rng.integers(
            0, _WORD, size=self._block, dtype=np.uint32
        ).tolist()
        self._block = min(2 * self._block, self.MAX_BLOCK)
        return self._words


@dataclass(frozen=True)
class _LeafPlan:
    """What a leaf round needs of the static graph, computed once per leaf.

    ``touched`` lists the members (in order) and then every out-of-leaf
    D10 fallback partner; ``partners[i]`` holds member ``i``'s `Near`
    partners as positions in ``touched``.
    """

    flood_cost: int
    touched: np.ndarray
    partners: list[list[int]]


class HierarchicalGossip:
    """The paper's protocol, executed round by round.

    Parameters
    ----------
    graph:
        The geometric random graph.
    tree:
        A prebuilt hierarchy; defaults to
        :meth:`~repro.hierarchy.tree.HierarchyTree.build` with the
        practical leaf threshold.
    parameters:
        Accuracy/latency schedules; defaults to
        :meth:`ProtocolParameters.practical` at run time (using the run's
        ε).
    config:
        Executor behaviour (:class:`RoundConfig`).
    """

    name = "hierarchical-affine"

    #: The adaptive round structure (settle checks, exchange counts,
    #: `Far` retries) is an oracle over ONE field, and the affine `Far`
    #: coefficient can exceed 1 — an extrapolation the adaptive loop
    #: reins in for the field it measures.  Secondary columns of an
    #: (n, k) matrix would receive those β > 1 exchanges without their
    #: own settle checks and can *diverge* while the primary converges.
    #: The protocol therefore declares no multi-field support: the
    #: engine's per-column fallback runs each field through its own
    #: adaptive execution instead (`run_batched` +
    #: `MultiFieldFallbackWarning`), which is correct at the serial
    #: cost; this class's own ``run`` rejects matrix state outright.
    supports_multifield = False

    #: Tells the engine's fallback warning this is a design decision,
    #: not a missing audit — the warning must not advise flipping
    #: ``supports_multifield`` (doing so would let secondaries diverge).
    multifield_fallback_reason = (
        "its adaptive round structure is an oracle over one field"
    )

    def __init__(
        self,
        graph: RandomGeometricGraph,
        tree: HierarchyTree | None = None,
        parameters: ProtocolParameters | None = None,
        config: RoundConfig | None = None,
    ):
        self.graph = graph
        self.tree = tree if tree is not None else HierarchyTree.build(graph.positions)
        self.parameters = parameters
        self.config = config if config is not None else RoundConfig()
        self.router = CachedGreedyRouter(GreedyRouter(graph))
        self.stats = RoundStats()
        self._leaf_neighbors = self._restrict_adjacency_to_leaves()
        #: id(leaf) -> its :class:`_LeafPlan`, built on the leaf's first round
        self._leaf_plans: dict[int, _LeafPlan] = {}
        self._depth_squares: dict[int, list[SquareNode]] = {
            depth: self.tree.squares_at_depth(depth)
            for depth in range(len(self.tree.factors) + 1)
        }

    # -- public API ----------------------------------------------------------

    def run(
        self,
        initial_values: np.ndarray,
        epsilon: float,
        rng: np.random.Generator,
        max_root_rounds: int = 3,
        trace_thinning: float = 0.02,
    ) -> GossipRunResult:
        """Average to ``‖x(t)‖ ≤ ε‖x(0)‖``, counting every transmission.

        One root round normally suffices (its exchange loop is the
        top-level averaging); extra root rounds are retried if the target
        is missed (e.g. a stranded sensor inside a leaf).
        """
        initial_values = check_state_shape(initial_values, self.graph.n)
        if initial_values.ndim == 2:
            raise TypeError(
                f"{self.name!r} adapts its round structure to a single "
                "field (and its affine Far coefficient can exceed 1), so "
                "secondary columns of an (n, k) matrix would diverge "
                "unchecked; run matrix state through "
                "repro.engine.run_batched, whose per-column fallback "
                "executes each field adaptively on its own"
            )
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        parameters = self.parameters or ProtocolParameters.practical(
            self.graph.n, epsilon
        )
        values = initial_values.copy()
        counter = TransmissionCounter()
        trace = ConvergenceTrace(thinning=trace_thinning)
        self.stats = RoundStats()
        run_state = _RunState(
            values=values,
            counter=counter,
            rng=rng,
            parameters=parameters,
            scale=deviation_norm(initial_values),
            trace=trace,
            initial_values=initial_values,
        )
        error = normalized_error(values, initial_values)
        trace.force_record(0, 0, error)
        rounds = 0
        root_target = epsilon * run_state.scale
        while error > epsilon and rounds < max_root_rounds:
            self._round(self.tree.root, depth=0, target=root_target, state=run_state)
            error = normalized_error(values, initial_values)
            rounds += 1
        actions = sum(self.stats.near_ticks_by_depth.values()) + sum(
            self.stats.exchanges_by_depth.values()
        )
        trace.force_record(counter.total, actions, error)
        return GossipRunResult(
            algorithm=self.name,
            values=values,
            initial_values=initial_values,
            transmissions=counter.snapshot(),
            ticks=actions,
            converged=error <= epsilon,
            epsilon=epsilon,
            error=error,
            trace=trace,
        )

    # -- rounds ---------------------------------------------------------------

    def _round(
        self, node: SquareNode, depth: int, target: float, state: "_RunState"
    ) -> None:
        """Run one round of ``node``'s square to absolute accuracy ``target``.

        Targets propagate structurally: a square with ``k`` occupied
        children demands ``target / (2·√k)`` of each child, so the k
        residuals combine (in ℓ₂) to at most half the square's own budget
        — the adaptive analogue of the paper's ε_r schedule, sized so that
        the outer loop can actually reach its target instead of grinding
        against the children's collective noise floor.
        """
        if node.occupancy <= 1:
            return  # nothing to average
        if self.config.adaptive:
            if self._square_deviation(node, state) <= target:
                self.stats._bump(self.stats.skipped_rounds_by_depth, depth)
                return  # already internally consistent at this accuracy
        self.stats._bump(self.stats.rounds_by_depth, depth)
        if node.is_leaf:
            self._leaf_round(node, depth, target, state)
        else:
            self._internal_round(node, depth, target, state)

    def _leaf_round(
        self, node: SquareNode, depth: int, target: float, state: "_RunState"
    ) -> None:
        """`Near` gossip among the leaf's members until the target accuracy.

        Each tick a uniform member averages with a uniform neighbour
        inside the leaf (paper Section 4.2; D10 fallback partners may lie
        outside it); a stranded member's tick is drawn and counted but
        transmits nothing.  The ticks run over Python floats of the
        touched sensors, written back to ``state.values`` at the end.
        """
        with profile.span("leaf"):
            plan = self._leaf_plan(node)
            counter = state.counter
            counter.charge(plan.flood_cost, "activation")  # Activate.square
            adaptive = self.config.adaptive
            size = node.occupancy
            prescribed = state.parameters.near_ticks(size, depth)
            cap = int(math.ceil(prescribed * self.config.hard_cap_factor))
            limit = cap if adaptive else prescribed
            check_period = max(1, size)
            partners = plan.partners
            touched = plan.touched
            local = state.values[touched].tolist()
            draws = BufferedIntegers(state.rng, block=4 * check_period)
            draw = draws.draw
            ticks = charged = 0
            while ticks < limit:
                for _ in range(check_period):
                    sensor = draw(size)
                    near = partners[sensor]
                    if near:
                        partner = near[draw(len(near))]
                        average = 0.5 * (local[sensor] + local[partner])
                        local[sensor] = average
                        local[partner] = average
                        charged += 2
                ticks += check_period
                if adaptive:
                    if self._deviation(np.array(local[:size])) <= target:
                        break
                elif ticks >= prescribed:
                    break
            else:
                if adaptive:
                    self.stats.cap_hits += 1
            draws.resync()
            state.values[touched] = local
            self.stats._bump(self.stats.near_ticks_by_depth, depth, ticks)
            if charged:
                counter.charge(charged, "near")
            counter.charge(plan.flood_cost, "activation")  # Deactivate.square

    def _internal_round(
        self, node: SquareNode, depth: int, target: float, state: "_RunState"
    ) -> None:
        """Exchange loop over the child squares (Section 3's round)."""
        children = [c for c in node.children if c.occupancy > 0 and c.supernode >= 0]
        child_target = target / (2.0 * math.sqrt(max(1, len(children))))
        if len(children) < 2:
            # Degenerate: all mass in one child; just settle it.
            for child in children:
                self._round(child, depth + 1, child_target, state)
            return
        self._activate_internal(node, children, state)
        for child in children:
            self._round(child, depth + 1, child_target, state)
        prescribed = state.parameters.exchange_count(len(children), depth)
        cap = int(math.ceil(prescribed * self.config.hard_cap_factor))
        limit = cap if self.config.adaptive else prescribed
        exchanges = 0
        while exchanges < limit:
            initiator = children[int(state.rng.integers(len(children)))]
            partner = self._pick_partner(initiator, children, depth, state)
            if partner is not None:
                self._far_exchange(initiator, partner, state)
                self._round(initiator, depth + 1, child_target, state)
                self._round(partner, depth + 1, child_target, state)
            exchanges += 1
            if depth == 0 and state.trace is not None:
                state.trace.record(
                    state.counter.total,
                    exchanges,
                    normalized_error(state.values, state.initial_values),
                )
            if self.config.adaptive and exchanges >= max(4, prescribed // 4):
                if self._square_deviation(node, state) <= target:
                    break
        else:
            if self.config.adaptive:
                self.stats.cap_hits += 1
        self.stats._bump(self.stats.exchanges_by_depth, depth, exchanges)
        self._deactivate_internal(node, children, state)

    # -- protocol actions ------------------------------------------------------

    def _pick_partner(
        self,
        initiator: SquareNode,
        siblings: list[SquareNode],
        depth: int,
        state: "_RunState",
    ) -> SquareNode | None:
        """Uniform random exchange target for ``initiator`` (D1)."""
        if self.config.sibling_targets:
            pool = siblings
        else:
            pool = [
                square
                for square in self._depth_squares[depth + 1]
                if square.occupancy > 0 and square.supernode >= 0
            ]
        if len(pool) < 2:
            return None
        while True:
            candidate = pool[int(state.rng.integers(len(pool)))]
            if candidate is not initiator:
                return candidate

    def _far_exchange(
        self, square_i: SquareNode, square_j: SquareNode, state: "_RunState"
    ) -> None:
        """The affine exchange of Section 4.2's `Far` (decisions D2/D4)."""
        with profile.span("far"):
            s_i, s_j = square_i.supernode, square_j.supernode
            forward, backward = self.router.round_trip(
                s_i, s_j, state.counter, category="far"
            )
            if not (forward.delivered and backward.delivered):
                self.stats.routing_failures += 1
                return
            x_i, x_j = state.values[s_i], state.values[s_j]
            if self.config.coefficient_mode is CoefficientMode.CONVEX:
                average = 0.5 * (x_i + x_j)
                state.values[s_i] = average
                state.values[s_j] = average
                return
            beta = self._coefficient(square_i, square_j, state)
            # Both sides computed from pre-exchange values (multi-field rows
            # are views, so neither row may be written before both updates
            # are built); the same β on both sides conserves the global sum
            # exactly.
            new_i = x_i + beta * (x_j - x_i)
            new_j = x_j + beta * (x_i - x_j)
            state.values[s_i] = new_i
            state.values[s_j] = new_j

    def _coefficient(
        self, square_i: SquareNode, square_j: SquareNode, state: "_RunState"
    ) -> float:
        gain = state.parameters.affine_gain
        expected = gain * square_i.expected_count
        smaller = min(square_i.occupancy, square_j.occupancy)
        mode = self.config.coefficient_mode
        if mode is CoefficientMode.PAPER_EXPECTED:
            return expected
        if mode is CoefficientMode.CLAMPED:
            return min(expected, 0.48 * smaller)
        if mode is CoefficientMode.ACTUAL_MIN:
            return gain * smaller
        raise AssertionError(f"unhandled coefficient mode {mode}")

    # -- activation / deactivation ---------------------------------------------

    def _leaf_plan(self, node: SquareNode) -> _LeafPlan:
        """The leaf's memoised flood cost and `Near` partner layout.

        A leaf's activation and deactivation floods are the same BFS over
        the static graph every time, so it runs once per leaf (charging
        nothing) and each flood then charges ``len(reached)``.
        """
        plan = self._leaf_plans.get(id(node))
        if plan is None:
            members = node.members.tolist()
            reached = flood(self.graph.neighbors, node.supernode, members)
            slot = {sensor: index for index, sensor in enumerate(members)}
            touched = list(members)
            partners = []
            for sensor in members:
                near = []
                for neighbour in self._leaf_neighbors[sensor].tolist():
                    if neighbour not in slot:
                        slot[neighbour] = len(touched)
                        touched.append(neighbour)
                    near.append(slot[neighbour])
                partners.append(near)
            plan = _LeafPlan(
                flood_cost=len(reached),
                touched=np.array(touched, dtype=np.int64),
                partners=partners,
            )
            self._leaf_plans[id(node)] = plan
        return plan

    def _activate_internal(
        self, node: SquareNode, children: list[SquareNode], state: "_RunState"
    ) -> None:
        """Greedy-route an on-switch to each child supernode (Section 4.2)."""
        with profile.span("activation"):
            for child in children:
                if child.supernode != node.supernode:
                    self.router.route_to_node(
                        node.supernode,
                        child.supernode,
                        state.counter,
                        category="activation",
                    )

    def _deactivate_internal(
        self, node: SquareNode, children: list[SquareNode], state: "_RunState"
    ) -> None:
        self._activate_internal(node, children, state)

    # -- helpers ----------------------------------------------------------------

    def _square_deviation(self, node: SquareNode, state: "_RunState") -> float:
        """ℓ₂ deviation of the square's members about their own mean.

        Always scalar state: ``run`` rejects (n, k) matrices up front
        (this executor runs multi-field state per column, via the
        engine's fallback), so no matrix branch exists here.
        """
        return self._deviation(state.values[node.members])

    @staticmethod
    def _deviation(values: np.ndarray) -> float:
        """``np.linalg.norm(values - values.mean())`` without the dispatch.

        The same IEEE operations (``sum / size``, then the square root of
        a dot product), so the result is bit-identical.
        """
        centred = values - values.sum() / values.size
        return math.sqrt(centred.dot(centred))

    def _restrict_adjacency_to_leaves(self) -> list[np.ndarray]:
        """Per-sensor `Near` adjacency (leaf-local, ancestor fallback D10)."""
        return self.tree.local_adjacency(self.graph.neighbors, fallback=True)


@dataclass
class _RunState:
    """Mutable state threaded through one run's recursion."""

    values: np.ndarray
    counter: TransmissionCounter
    rng: np.random.Generator
    parameters: ProtocolParameters
    scale: float
    trace: ConvergenceTrace | None
    initial_values: np.ndarray
