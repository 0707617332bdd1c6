"""Pluggable lower-bound & pruning policies: the bound-strength layer.

Bound strength is the dominant lever on search-tree size, yet the paper
hard-wires a single pruning test into every engine: *prune when the
budget is negative or* ``|E'| > budget**2`` (Fig. 1 line 5 / Fig. 4
line 12 — the Buss-kernel argument: after the high-degree rule every
alive degree is at most the budget ``b``, so ``b`` vertices cover at
most ``b**2`` edges).  This module makes the bound a policy, mirroring
:mod:`repro.core.frontier`: a :class:`BoundPolicy` owns the prune test
and an *admissible* lower bound on the extra cover the remaining graph
still needs, and :class:`~repro.core.nodestep.NodeStep` composes it with
the formulation's budget — so every engine (sequential, the three
simulated-GPU programs, the real ``distributed`` team)
sweeps bound strength through one registry, exactly as they sweep
frontier policies.

Registered policies (:data:`BOUNDS`):

* ``greedy`` — **the default, today's behaviour bit for bit**: the Buss
  prune above.  Its :meth:`~BoundPolicy.lower_bound` is the greedy
  bound ``ceil(|E'| / Δ')`` that :func:`repro.core.frontier.greedy_bound_key`
  already orders the best-first frontier by.
* ``degree`` — degree prefix bound: the smallest ``t`` such that the
  ``t`` largest alive degrees sum to at least ``|E'|`` (a cover of size
  ``t`` covers at most that many edges); strictly at least as strong as
  ``ceil(|E'| / Δ')``.
* ``matching`` — greedy maximal matching of the alive subgraph: every
  matching edge needs one distinct cover vertex, so ``|M|`` is a lower
  bound.  Construction stops early once the bound already prunes.
* ``konig`` — exact-on-bipartite: Hopcroft–Karp maximum matching of the
  alive subgraph, which by König's theorem *is* the remaining optimum
  when that subgraph is bipartite (the machinery from
  :mod:`repro.core.matching`); an odd cycle falls back to the maximal
  matching bound.
* ``combined`` — the max of a configured member list drawn from greedy,
  degree and matching (default: all three, in that order), evaluated in
  order, stopping once the node prunes.

Where the work runs: ``degree``, ``matching``, ``combined`` and the
``konig`` odd-cycle fallback evaluate through the traversal's kernel
backend (:meth:`repro.core.kernel_backends.KernelBackend.lower_bound`),
which :func:`make_bound` receives already resolved.  ``native`` makes
one C call per evaluation — the whole ``combined`` member list included
— of about 5 µs on a 90-vertex graph (O(n + Δ) for ``degree`` by
counting over degrees, one alive-adjacency walk for ``matching``).
``scalar`` and ``numpy`` run the interpreted reference: a NumPy sort
for ``degree`` (about 3× the native cost there) and a per-vertex Python
loop for ``matching`` (about 100×).  Both return the same value for
every state and cap, so the search tree never depends on the
backend.  ``greedy`` reads two carried counters and never calls a
kernel; the Hopcroft–Karp part of ``konig`` stays interpreted.

Admissibility contract: ``lower_bound(state)`` must never exceed the
true minimum number of *additional* vertices any cover of the remaining
graph needs (property-tested against :mod:`repro.core.brute` in
``tests/test_bounds.py``).  The prune test may be strictly stronger
than ``lower_bound > budget`` when it exploits budget-conditional
structure — ``greedy`` does (the Buss test is valid only because the
high-degree rule already capped alive degrees at the budget), which is
why the two methods are separate.

Incremental interface: policies consume the cross-node state the branch
step already maintains — the stale-high ``max_deg_hint`` replaces the
``deg.max()`` seed scan for the Δ-based bounds (stale-high only
*loosens* a lower bound, never breaks admissibility), and the expensive
matching-based bounds take an optional ``cap`` so they stop growing the
matching the moment the node is pruned — the bound recomputes only what
the current budget makes it examine, not the whole graph per node.

Charge accounting (documented in :mod:`repro.sim.costmodel`): the
default ``greedy`` prune reads two counters the state already carries
and charges **nothing** — keeping sim makespans and Table I charge
streams bit-identical to the pre-bound-layer engines.  Every other
policy reports its work through :meth:`BoundPolicy.cost_units`, charged
to the new ``lower_bound`` activity kind.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, Workspace, alive_vertices
from .kernel_backends import (
    LOWER_BOUND_MEMBERS,
    KernelBackend,
    greedy_lower_bound,
    resolve_kernels,
)

__all__ = [
    "BoundPolicy",
    "GreedyBound",
    "DegreeBound",
    "MatchingBound",
    "KonigBound",
    "CombinedBound",
    "BOUNDS",
    "DEFAULT_BOUND",
    "make_bound",
]

#: The policy every engine uses unless told otherwise — the paper's rule.
DEFAULT_BOUND = "greedy"


class BoundPolicy:
    """One pruning policy, bound to one graph/workspace at construction.

    Subclasses implement :meth:`lower_bound` (admissible, ``cap``-aware)
    and may override :meth:`prune` when they can prune harder than
    ``lower_bound > budget`` (see ``greedy``).  ``charged`` is False for
    policies whose prune is free under the cost model (the default
    bound), True for everything else — :class:`~repro.core.nodestep.NodeStep`
    only emits ``lower_bound`` charges for charged policies, which is
    what keeps the default engines' charge streams untouched.
    ``kernels`` is the traversal's kernel backend (a name, an instance or
    ``None`` for the process default), resolved for this graph once.
    """

    #: registry identifier; also what travels through CLI/spec/wire.
    name: str = "abstract"
    #: whether NodeStep meters this policy through the cost model.
    charged: bool = True

    def __init__(
        self,
        graph: CSRGraph,
        ws: Optional[Workspace] = None,
        kernels: Union[KernelBackend, str, None] = None,
    ) -> None:
        self.graph = graph
        self.ws = ws
        self.kernels = resolve_kernels(kernels).for_graph(graph.n, graph.m)

    def _kernel_bound(self, state: VCState, members: Tuple[str, ...],
                      cap: Optional[int]) -> int:
        """The ``members`` lower bound through the kernel backend."""
        ws = self.ws
        if ws is None:  # built on first evaluation, reused after
            ws = self.ws = Workspace.for_graph(self.graph)
        return self.kernels.lower_bound(self.graph, state, members, cap, ws)

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        """Admissible lower bound on the *extra* cover ``G'`` still needs.

        With ``cap``, the policy may return any value ``> cap`` as soon
        as it has proven the bound exceeds ``cap`` (the caller only asks
        "does this prune?"), letting expensive bounds stop early.
        """
        raise NotImplementedError

    def prune(self, state: VCState, budget: int) -> bool:
        """True when no cover within ``budget`` extra vertices can exist.

        Every policy *composes with* the default Buss test (reading two
        counters the state already carries, it is free) before paying
        for its own bound: a "stronger" policy must never prune less
        than the default, so its search tree is always a subtree of the
        default's (asserted in ``tests/test_bounds.py``).
        """
        if budget < 0 or state.edge_count > budget * budget:
            return True
        return self.lower_bound(state, cap=budget) > budget

    def cost_units(self, state: VCState) -> float:
        """Work units one evaluation charges (degree entries examined)."""
        return float(self.graph.n)

    def frontier_key(self, item: object) -> int:
        """Best-first priority ``|S| + lower_bound`` for a frontier item.

        Accepts bare states or ``(state, ...)`` tuples, like
        :func:`repro.core.frontier.greedy_bound_key`.
        """
        state = item[0] if isinstance(item, tuple) else item
        return state.cover_size + self.lower_bound(state)


class GreedyBound(BoundPolicy):
    """The paper's hard-wired rule, now as the default policy.

    ``prune`` is the Fig. 1 line 5 test verbatim — ``budget < 0 or
    |E'| > budget**2`` — evaluated from the two counters every state
    already maintains, so it charges nothing (``charged = False``) and
    the default engines stay bit-identical to the pre-layer code.  The
    Buss test is *budget-conditional* (it relies on the high-degree rule
    having removed every vertex of degree above the budget), so it is
    deliberately not derived from :meth:`lower_bound`.
    """

    name = "greedy"
    charged = False

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        return greedy_lower_bound(state)

    def prune(self, state: VCState, budget: int) -> bool:
        return budget < 0 or state.edge_count > budget * budget

    def cost_units(self, state: VCState) -> float:
        return 0.0


class DegreeBound(BoundPolicy):
    """Degree prefix bound (cheap, Δ-array based).

    Any cover of size ``t`` covers at most the sum of its members'
    degrees ≤ the sum of the ``t`` largest alive degrees, so the
    smallest ``t`` whose descending-degree prefix sum reaches ``|E'|``
    is admissible — at least as strong as ``ceil(|E'| / Δ')`` and never
    weaker than one extra vertex of it.  ``cost_units`` prices the
    degree-array scan.
    """

    name = "degree"

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        return self._kernel_bound(state, ("degree",), cap)


class MatchingBound(BoundPolicy):
    """Maximal-matching lower bound: ``|M|`` vertices are unavoidable.

    Each edge of a matching must be covered by a distinct vertex, so any
    maximal matching of the alive subgraph lower-bounds the remaining
    cover.  Strictly stronger than the Δ-based bounds on graphs with
    wide matchings (bipartite-heavy instances in particular), at the
    cost of one adjacency walk per evaluation — truncated by ``cap`` to
    exactly the work the current budget makes necessary.
    """

    name = "matching"

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        return self._kernel_bound(state, ("matching",), cap)

    def cost_units(self, state: VCState) -> float:
        # one alive-adjacency walk: every alive half-edge may be examined
        return float(2 * state.edge_count + self.graph.n)


class KonigBound(BoundPolicy):
    """Exact-on-bipartite bound via Hopcroft–Karp / König's theorem.

    When the alive subgraph is bipartite, its maximum matching *equals*
    the remaining minimum vertex cover (König), so the bound is exact —
    the strongest admissible bound possible.  An odd cycle makes the
    2-colouring fail, in which case the policy falls back to the greedy
    maximal matching (still admissible).  The most expensive registered
    policy (``O(E' sqrt(V))``); intended for bipartite-heavy workloads
    where its pruning pays for itself.
    """

    name = "konig"

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        if state.edge_count <= 0:
            return 0
        from .matching import bipartition, hopcroft_karp

        alive = alive_vertices(state.deg)
        sub = self.graph.subgraph(alive)
        parts = bipartition(sub)
        if parts is None:
            return self._kernel_bound(state, ("matching",), cap)
        left, right = parts
        match = hopcroft_karp(sub, left, right)
        return sum(1 for u in left if int(u) in match)

    def cost_units(self, state: VCState) -> float:
        # Hopcroft-Karp phases: E' * sqrt(alive) half-edge scans, plus the
        # subgraph extraction's touch of every alive adjacency row.
        edges = float(2 * state.edge_count)
        return edges * max(1.0, float(state.n_alive()) ** 0.5) + float(self.graph.n)


class CombinedBound(BoundPolicy):
    """Max of a configured member set, evaluated cheapest-first.

    ``lower_bound`` is the max over the members (admissible because each
    member is), evaluated in member order and stopping as soon as the
    node is pruned, so the expensive tail (matching) only runs on nodes
    the cheap bounds could not prune.  The inherited ``prune`` asks
    exactly that, after the free Buss pre-test.  Members are kernel
    bounds (:data:`~repro.core.kernel_backends.LOWER_BOUND_MEMBERS`), so
    one evaluation is one kernel call.
    """

    name = "combined"

    #: default member order: cheapest first (evaluation order matters).
    DEFAULT_MEMBERS: Tuple[str, ...] = ("greedy", "degree", "matching")

    def __init__(
        self,
        graph: CSRGraph,
        ws: Optional[Workspace] = None,
        members: Optional[Sequence[str]] = None,
        kernels: Union[KernelBackend, str, None] = None,
    ) -> None:
        super().__init__(graph, ws, kernels)
        names = tuple(members) if members is not None else self.DEFAULT_MEMBERS
        if not names:
            raise ValueError("combined bound needs at least one member")
        for name in names:
            if name not in LOWER_BOUND_MEMBERS:
                raise ValueError(f"unknown combined member {name!r}; choose "
                                 f"from: {', '.join(LOWER_BOUND_MEMBERS)}")
        self._names = names
        # member policies price the evaluation (cost_units)
        self.members = tuple(make_bound(name, graph, ws, self.kernels)
                             for name in names)

    def lower_bound(self, state: VCState, cap: Optional[int] = None) -> int:
        return self._kernel_bound(state, self._names, cap)

    def cost_units(self, state: VCState) -> float:
        return sum(member.cost_units(state) for member in self.members)


#: Named bound factories for the CLI, the spec axis and the engines.
BOUNDS: Dict[str, Callable[..., BoundPolicy]] = {
    "greedy": GreedyBound,
    "degree": DegreeBound,
    "matching": MatchingBound,
    "konig": KonigBound,
    "combined": CombinedBound,
}


def make_bound(
    name: str,
    graph: CSRGraph,
    ws: Optional[Workspace] = None,
    kernels: Union[KernelBackend, str, None] = None,
) -> BoundPolicy:
    """Instantiate a registered bound policy for one traversal.

    ``kernels`` is the traversal's kernel backend (already resolved by
    the caller, or a name / ``None`` for the process default); the
    kernel-evaluated bounds run through it.
    """
    try:
        factory = BOUNDS[name]
    except KeyError:
        raise ValueError(
            f"unknown bound {name!r}; choose from {sorted(BOUNDS)}"
        ) from None
    return factory(graph, ws, kernels=kernels)
