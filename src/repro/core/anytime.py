"""Anytime solve orchestration: deadline-bounded runs that resume exactly.

This is the entry point the fault-tolerance layer promises: every engine
can be interrupted — by a wall-clock ``deadline`` or a ``node_budget`` —
and instead of a half-useless timeout flag returns a structured
:class:`~repro.core.outcome.SolveOutcome` carrying

* the best cover found so far (MVC always has one: the greedy incumbent),
* an admissible lower bound on the uninterrupted optimum, computed from
  the surviving frontier by the active bound policy,
* a :class:`~repro.core.outcome.Checkpoint` — the pending tree nodes
  through the :class:`~repro.graph.degree_array.VCState` wire codec —
  from which :func:`resume_from` provably reaches the same optimum as the
  uninterrupted run (the explored region was only ever pruned against
  incumbents the checkpoint carries, so incumbent + pending sub-trees
  dominate the whole tree).

The engines themselves stay oblivious to checkpoint *format*: each one
reports its unexplored remainder (``pending_states``) and accepts
``roots``/``initial_best`` seeds; this module is the only place that
serializes.  A checkpoint taken on one engine can resume on another —
the frontier is just a set of sub-tree roots, which is exactly the
self-contained-node property the paper's GPU scheme is built on.
"""

from __future__ import annotations

import os
import time
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, Workspace, fresh_state
from .bounds import make_bound
from .formulation import BestBound, FoundFlag, MVCFormulation, PVCFormulation
from .frontier import LifoFrontier, make_frontier
from .greedy import greedy_cover
from .outcome import Checkpoint, SolveOutcome, classify_status, frontier_lower_bound
from .sequential import branch_and_reduce
from .solver import ENGINES, solve_mvc, solve_pvc

__all__ = ["solve_anytime", "resume_from", "solve_to_completion"]

#: ``(state, depth)`` pairs — how the sequential frontier tracks nodes.
_Item = Tuple[VCState, int]


def solve_anytime(
    graph: CSRGraph,
    k: Optional[int] = None,
    *,
    engine: str = "sequential",
    frontier: Optional[str] = None,
    bound: str = "greedy",
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
    cache: Any = None,
    **opts: Any,
) -> SolveOutcome:
    """Solve MVC (``k=None``) or PVC on any engine, interruptibly.

    ``frontier`` (a policy name) applies to the sequential engine only,
    matching :func:`repro.core.solver.solve_mvc`.  ``bound`` must be a
    registered bound-policy *name* — the checkpoint records it so a
    resume prunes with the same admissible bound.  A ``kernels=`` opt (a
    ``KERNELS`` registry name) selects the reduction backend; it is *not*
    recorded in checkpoints because every backend reaches bit-identical
    fixpoints — resume with any backend and the optimum is unchanged.

    ``cache=`` (same spelling as :func:`repro.core.solver.solve_mvc`,
    default ``REPRO_CACHE``) adds the escalation tiers on top of plain
    certificate hits: a cached ``budget_exhausted``/deadline-tripped
    entry resumes via :func:`resume_from` instead of restarting (under
    the checkpoint's recorded bound), and any stored incumbent on the
    instance warm-starts ``initial_best`` even when the config hash
    differs.  Interrupted outcomes are recorded back as checkpoints, so
    a repeat request with a larger budget picks up where this one left
    off.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if not isinstance(bound, str):
        raise TypeError("solve_anytime takes a bound-policy name, not an instance "
                        "(the checkpoint must record it by name)")
    if cache is None:
        cache = os.environ.get("REPRO_CACHE") or None
    if cache is not None and cache is not False:
        from ..cache import cached_solve_anytime, resolve_cache

        solve_cache = resolve_cache(cache)
        if solve_cache is not None:
            def solve_fn(initial_best=None):
                return _solve(graph, k, engine=engine, frontier=frontier,
                              bound=bound, node_budget=node_budget,
                              deadline=deadline, roots=None,
                              initial_best=initial_best, prior_nodes=0,
                              opts=opts)

            def resume_fn(checkpoint):
                return resume_from(checkpoint, graph, engine=engine,
                                   node_budget=node_budget, deadline=deadline,
                                   **opts)

            return cached_solve_anytime(
                solve_cache, graph, k, solve_fn, resume_fn,
                node_budget=node_budget, deadline=deadline)
    return _solve(graph, k, engine=engine, frontier=frontier, bound=bound,
                  node_budget=node_budget, deadline=deadline,
                  roots=None, initial_best=None, prior_nodes=0, opts=opts)


def resume_from(
    checkpoint: Checkpoint,
    graph: CSRGraph,
    *,
    engine: Optional[str] = None,
    node_budget: Optional[int] = None,
    deadline: Optional[float] = None,
    **opts: Any,
) -> SolveOutcome:
    """Continue an interrupted solve from its checkpoint.

    Defaults (engine, frontier policy, bound, ``k``) come from the
    checkpoint; ``engine`` may be overridden — the frontier is engine-
    agnostic sub-tree roots.  Budgets are *not* inherited: pass fresh
    ones or let the resumed leg run to completion.
    """
    checkpoint.validate_graph(graph)
    engine = checkpoint.engine if engine is None else engine
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    k = checkpoint.k if checkpoint.formulation == "pvc" else None
    roots = checkpoint.states()
    initial_best: Optional[Tuple[int, np.ndarray]] = None
    if (checkpoint.formulation == "mvc" and checkpoint.best_size is not None
            and checkpoint.best_cover is not None):
        initial_best = (checkpoint.best_size, checkpoint.best_cover)
    if not roots:
        # Nothing pending: the checkpoint's incumbent is the answer.
        return _solve(graph, k, engine=engine, frontier=checkpoint.frontier,
                      bound=checkpoint.bound, node_budget=node_budget,
                      deadline=deadline, roots=None, initial_best=initial_best,
                      prior_nodes=checkpoint.nodes_visited, opts=opts)
    frontier = checkpoint.frontier if engine == "sequential" else None
    return _solve(graph, k, engine=engine, frontier=frontier,
                  bound=checkpoint.bound, node_budget=node_budget,
                  deadline=deadline, roots=roots, initial_best=initial_best,
                  prior_nodes=checkpoint.nodes_visited, opts=opts)


def solve_to_completion(
    graph: CSRGraph,
    k: Optional[int] = None,
    *,
    engine: str = "sequential",
    node_budget: Optional[int] = None,
    max_legs: int = 1000,
    **opts: Any,
) -> SolveOutcome:
    """Chain interrupted legs until the claim is proven.

    Each leg gets the same per-leg ``node_budget``; wall-clock deadlines
    are deliberately not accepted here (a too-small deadline would make
    no progress per leg).  Raises if ``max_legs`` legs don't finish.
    """
    outcome = solve_anytime(graph, k, engine=engine, node_budget=node_budget, **opts)
    # The checkpoint records frontier/bound; resume legs take them from it.
    # ``cache`` is a solve_anytime-level knob, not a resume option.
    resume_opts = {key: value for key, value in opts.items()
                   if key not in ("frontier", "bound", "cache")}
    legs = 1
    while not outcome.complete and outcome.resumable:
        if legs >= max_legs:
            raise RuntimeError(f"solve_to_completion did not converge in {max_legs} legs")
        outcome = resume_from(outcome.checkpoint, graph, engine=engine,
                              node_budget=node_budget, **resume_opts)
        legs += 1
    return outcome


# ---------------------------------------------------------------------- #
# the one implementation behind the three entry points
# ---------------------------------------------------------------------- #
def _solve(
    graph: CSRGraph,
    k: Optional[int],
    *,
    engine: str,
    frontier: Optional[str],
    bound: str,
    node_budget: Optional[int],
    deadline: Optional[float],
    roots: Optional[List[_Item]],
    initial_best: Optional[Tuple[int, np.ndarray]],
    prior_nodes: int,
    opts: dict,
) -> SolveOutcome:
    formulation = "mvc" if k is None else "pvc"
    if k is not None and k < 0:
        raise ValueError("k must be non-negative")

    if graph.m == 0:
        cover = np.empty(0, dtype=np.int32)
        return SolveOutcome(
            status="optimal", formulation=formulation, engine=engine,
            optimum=0, cover=cover, lower_bound=0, nodes=prior_nodes, k=k,
        )

    if engine == "sequential":
        (optimum, cover, has_cover, interrupted, deadline_tripped, nodes,
         pending_items, extra, wall) = _run_sequential(
            graph, k, frontier=frontier, bound=bound, node_budget=node_budget,
            deadline=deadline, roots=roots, initial_best=initial_best, opts=opts)
    else:
        (optimum, cover, has_cover, interrupted, deadline_tripped, nodes,
         pending_items, extra, wall) = _run_engine(
            graph, k, engine=engine, frontier=frontier, bound=bound,
            node_budget=node_budget, deadline=deadline, roots=roots,
            initial_best=initial_best, opts=opts)

    nodes += prior_nodes
    pending_states = [state for state, _ in pending_items]

    if formulation == "mvc":
        if interrupted:
            lower = frontier_lower_bound(graph, pending_states, bound, optimum,
                                         opts.get("kernels"))
        else:
            lower = optimum
    else:
        lower = frontier_lower_bound(graph, pending_states, bound, None,
                                     opts.get("kernels"))
        if not interrupted and not has_cover and lower is None:
            lower = None if k is None else k + 1  # exhausted: no <= k cover exists

    trigger = None
    if interrupted:
        trigger = "deadline" if deadline_tripped else "node_budget"
    status = classify_status(
        interrupted=interrupted, trigger=trigger, formulation=formulation,
        has_cover=has_cover, optimum=optimum, lower_bound=lower, k=k,
    )

    checkpoint = None
    if interrupted and pending_items:
        checkpoint = Checkpoint(
            formulation=formulation,
            engine=engine,
            bound=bound,
            frontier=frontier,
            k=k,
            n=graph.n,
            m=graph.m,
            best_size=optimum,
            best_cover=cover,
            nodes_visited=nodes,
            items=[(state.to_wire(), depth) for state, depth in pending_items],
        )

    return SolveOutcome(
        status=status,
        formulation=formulation,
        engine=engine,
        optimum=optimum if (formulation == "mvc" or has_cover) else None,
        cover=cover,
        lower_bound=lower,
        nodes=nodes,
        checkpoint=checkpoint,
        wall_seconds=wall,
        k=k,
        extra=extra,
    )


def _run_sequential(
    graph: CSRGraph,
    k: Optional[int],
    *,
    frontier: Optional[str],
    bound: str,
    node_budget: Optional[int],
    deadline: Optional[float],
    roots: Optional[List[_Item]],
    initial_best: Optional[Tuple[int, np.ndarray]],
    opts: dict,
):
    """The in-process path: run the Fig. 1 loop on a frontier we own."""
    ws = Workspace.for_graph(graph)
    bound_obj = make_bound(bound, graph, ws, opts.get("kernels"))
    frontier_obj = (LifoFrontier() if frontier is None
                    else make_frontier(frontier, bound=bound_obj))
    if k is None:
        # `kernels` rides in opts (forwarded verbatim to branch_and_reduce);
        # use the same backend for the greedy incumbent pass.
        greedy = greedy_cover(graph, ws, kernels=opts.get("kernels"))
        best = BestBound(size=greedy.size, cover=greedy.cover)
        if initial_best is not None and initial_best[0] < best.size:
            best = BestBound(size=int(initial_best[0]),
                             cover=np.asarray(initial_best[1], dtype=np.int32))
        form = MVCFormulation(best)
    else:
        flag = FoundFlag()
        form = PVCFormulation(k=k, flag=flag)

    items: List[_Item] = ([(fresh_state(graph), 0)] if roots is None else list(roots))
    root = items[0][0]
    for item in items[1:]:
        frontier_obj.push(item)

    start = time.perf_counter()
    stats = branch_and_reduce(
        graph, form, ws=ws, node_budget=node_budget, deadline=deadline,
        frontier=frontier_obj, bound=bound_obj, root=root, **opts,
    )
    wall = time.perf_counter() - start
    interrupted = bool(stats.extra.get("timed_out"))
    deadline_tripped = bool(stats.extra.get("deadline_tripped"))
    pending_items: List[_Item] = frontier_obj.drain() if interrupted else []
    extra = {}
    if stats.extra.get("faults_recovered"):
        extra["faults_recovered"] = int(stats.extra["faults_recovered"])
    if k is None:
        return (best.size, best.cover, True, interrupted, deadline_tripped,
                stats.nodes_visited, pending_items, extra, wall)
    return (flag.size, flag.cover, flag.found, interrupted, deadline_tripped,
            stats.nodes_visited, pending_items, extra, wall)


def _run_engine(
    graph: CSRGraph,
    k: Optional[int],
    *,
    engine: str,
    frontier: Optional[str],
    bound: str,
    node_budget: Optional[int],
    deadline: Optional[float],
    roots: Optional[List[_Item]],
    initial_best: Optional[Tuple[int, np.ndarray]],
    opts: dict,
):
    """Everything else goes through the solve facade's engine dispatch."""
    call_opts = dict(opts)
    call_opts["bound"] = bound
    call_opts["node_budget"] = node_budget
    call_opts["deadline"] = deadline
    # The anytime envelope owns caching at its own level; an env-armed
    # facade must not consult the store again for this inner leg.
    call_opts["cache"] = False
    if frontier is not None:
        call_opts["frontier"] = frontier  # facade raises: fixed disciplines
    if roots is not None:
        call_opts["roots"] = [state for state, _ in roots]
    if k is None:
        if initial_best is not None:
            call_opts["initial_best"] = initial_best
        result = solve_mvc(graph, engine=engine, **call_opts)
    else:
        result = solve_pvc(graph, k, engine=engine, **call_opts)
    interrupted = bool(result.timed_out)
    deadline_tripped = bool(getattr(result, "deadline_tripped", False))
    pending_items: List[_Item] = [(state, 0) for state in
                                  (result.pending_states if interrupted else [])]
    extra = {}
    for key in ("faults_recovered", "workers_lost"):
        value = getattr(result, key, 0)
        if value:
            extra[key] = int(value)
    comms = getattr(result, "comms", None)
    if comms:
        # Flatten the totals so the outcome stays a scalar dict; the full
        # per-worker breakdown lives on the engine result's ``comms``.
        for key, value in comms.get("totals", {}).items():
            extra[f"comms_{key}"] = float(value)
    if k is None:
        return (result.optimum, result.cover, result.cover is not None,
                interrupted, deadline_tripped, result.nodes_visited,
                pending_items, extra, getattr(result, "wall_seconds", 0.0))
    has_cover = bool(result.feasible)
    return (result.optimum, result.cover, has_cover, interrupted,
            deadline_tripped, result.nodes_visited, pending_items, extra,
            getattr(result, "wall_seconds", 0.0))
