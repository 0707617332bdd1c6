"""Anytime solve outcomes: structured results and resumable checkpoints.

ROADMAP item 2 (the solve service) needs interrupted solves to return
something useful: the best cover so far, an admissible lower bound on
the optimum, and a serialized frontier from which the search resumes to
the exact optimum.  This module defines the two artifacts:

* :class:`SolveOutcome` — the structured result every anytime entry
  point returns (``repro.core.anytime``).  ``status`` encodes the claim
  strength:

  - ``optimal`` — the answer is proven: the traversal completed, or the
    lower bound closed the gap on an interrupted MVC solve, or an
    interrupted PVC solve's bound exceeds ``k`` (no ``<= k`` cover can
    exist) or a ``<= k`` cover was found (PVC stops at its first cover,
    so a found cover is definitive).
  - ``feasible`` — the wall-clock deadline tripped with a certified
    cover in hand (MVC always has one: the greedy incumbent); the gap
    is open and ``checkpoint`` resumes the search.
  - ``bound_only`` — the deadline tripped with no cover within the
    formulation's constraint (an undetermined PVC); the lower bound and
    checkpoint still stand.
  - ``budget_exhausted`` — the ``node_budget`` (not the deadline)
    tripped; same payload as the two cases above, distinguished so a
    service can tell "out of time" from "hit the per-request node cap".

* :class:`Checkpoint` — the serialized frontier: every pending tree node
  through the :class:`~repro.graph.degree_array.VCState` wire codec (the
  one cross-boundary representation, Section IV-B), plus the incumbent
  and enough identity (``n``, ``m``, formulation, ``k``) to refuse a
  resume against the wrong graph.  ``resume_from(checkpoint)`` on any
  engine provably reaches the uninterrupted optimum: the explored region
  was pruned only against incumbents the checkpoint carries, so the
  pending subtrees plus the incumbent dominate the whole tree.

The lower bound is the B&B invariant: every cover the *remaining* search
could still produce costs at least ``min over pending nodes of
|S| + bound.lower_bound(state)``; for MVC — where pruning is exhaustive
against the incumbent — the minimum of that and the incumbent size
lower-bounds the global optimum (property-tested against the brute-force
oracle).  For an undetermined PVC it bounds any ``<= k`` cover the
search could still find; a bound exceeding ``k`` is an infeasibility
proof.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, WirePayload
from .bounds import BoundPolicy, make_bound
from .kernel_backends import KernelBackend

__all__ = [
    "STATUSES",
    "Checkpoint",
    "SolveOutcome",
    "frontier_lower_bound",
    "classify_status",
]

#: Legal ``SolveOutcome.status`` values, strongest claim first.
STATUSES = ("optimal", "feasible", "bound_only", "budget_exhausted")

#: Serialization format tag (bump on layout change).
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    """A serialized search frontier: everything a resume needs.

    ``items`` are ``(wire_payload, depth)`` pairs — each pending tree
    node through the :class:`VCState` codec, carrying every cross-node
    field (degree array, ``|S|``, ``|E|``, dirty hint, max-degree hint).
    ``depth`` is the node's ancestry depth where the interrupted engine
    tracked it (the sequential solver does; the parallel engines record
    0 — depth only feeds traversal statistics, never correctness).
    """

    formulation: str                      # "mvc" | "pvc"
    engine: str
    bound: str
    frontier: Optional[str]
    k: Optional[int]
    n: int
    m: int
    best_size: Optional[int]
    best_cover: Optional[np.ndarray]
    nodes_visited: int
    items: List[Tuple[WirePayload, int]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # content
    # ------------------------------------------------------------------ #
    def states(self) -> List[Tuple[VCState, int]]:
        """Materialize the pending nodes (fresh buffers)."""
        return [(VCState.from_wire(payload), depth) for payload, depth in self.items]

    def validate_graph(self, graph: CSRGraph) -> None:
        """Refuse to resume against a graph this frontier does not describe."""
        if graph.n != self.n or graph.m != self.m:
            raise ValueError(
                f"checkpoint was taken on a graph with n={self.n}, m={self.m}; "
                f"resume target has n={graph.n}, m={graph.m}"
            )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        return {
            "version": CHECKPOINT_VERSION,
            "formulation": self.formulation,
            "engine": self.engine,
            "bound": self.bound,
            "frontier": self.frontier,
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "best_size": self.best_size,
            "best_cover": None if self.best_cover is None
            else np.asarray(self.best_cover, dtype=np.int32).tobytes(),
            "nodes_visited": self.nodes_visited,
            "items": list(self.items),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Checkpoint":
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {payload.get('version')!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        cover_bytes = payload["best_cover"]
        return cls(
            formulation=str(payload["formulation"]),
            engine=str(payload["engine"]),
            bound=str(payload["bound"]),
            frontier=payload["frontier"],  # type: ignore[arg-type]
            k=payload["k"],  # type: ignore[arg-type]
            n=int(payload["n"]),  # type: ignore[arg-type]
            m=int(payload["m"]),  # type: ignore[arg-type]
            best_size=payload["best_size"],  # type: ignore[arg-type]
            best_cover=None if cover_bytes is None
            else np.frombuffer(cover_bytes, dtype=np.int32).copy(),  # type: ignore[arg-type]
            nodes_visited=int(payload["nodes_visited"]),  # type: ignore[arg-type]
            items=list(payload["items"]),  # type: ignore[arg-type]
        )

    def to_bytes(self) -> bytes:
        return pickle.dumps(self.to_payload(), protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        payload = pickle.loads(blob)
        if not isinstance(payload, dict):
            raise ValueError("checkpoint blob does not decode to a payload dict")
        return cls.from_payload(payload)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_bytes(self.to_bytes())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Checkpoint":
        return cls.from_bytes(Path(path).read_bytes())


@dataclass
class SolveOutcome:
    """The structured result of an anytime solve (see module docstring)."""

    status: str
    formulation: str
    engine: str
    optimum: Optional[int]
    cover: Optional[np.ndarray]
    lower_bound: Optional[int]
    nodes: int
    checkpoint: Optional[Checkpoint] = None
    wall_seconds: float = 0.0
    k: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.status == "optimal"

    @property
    def resumable(self) -> bool:
        return self.checkpoint is not None and bool(self.checkpoint.items)


def frontier_lower_bound(
    graph: CSRGraph,
    pending: Sequence[VCState],
    bound: Union[BoundPolicy, str],
    incumbent: Optional[int],
    kernels: Union[KernelBackend, str, None] = None,
) -> Optional[int]:
    """Admissible lower bound on the best cover this search can produce.

    ``min(incumbent, min over pending of |S| + lower_bound(state))`` —
    the B&B invariant: every leaf still reachable lies below a pending
    node, and the bound policy's ``lower_bound`` is admissible for the
    remaining subgraph.  With an empty frontier the incumbent *is* the
    answer; with neither, nothing can be claimed (returns ``None``).
    A bound given by name evaluates through ``kernels`` (the search's
    kernel backend; ``None`` for the process default).
    """
    if isinstance(bound, str):
        bound = make_bound(bound, graph, kernels=kernels)
    candidates: List[int] = [] if incumbent is None else [int(incumbent)]
    for state in pending:
        candidates.append(state.cover_size + int(bound.lower_bound(state)))
    return min(candidates) if candidates else None


def classify_status(
    *,
    interrupted: bool,
    trigger: Optional[str],
    formulation: str,
    has_cover: bool,
    optimum: Optional[int],
    lower_bound: Optional[int],
    k: Optional[int] = None,
) -> str:
    """Map one solve's facts onto the four-status ladder (module docstring).

    ``trigger`` names what stopped an interrupted run: ``"deadline"`` or
    ``"node_budget"``.
    """
    if not interrupted:
        return "optimal"
    if formulation == "mvc":
        if (
            lower_bound is not None and optimum is not None
            and lower_bound >= optimum
        ):
            return "optimal"  # the bound closed the gap mid-flight
    else:
        if has_cover:
            return "optimal"  # PVC: any found cover answers the query
        if lower_bound is not None and k is not None and lower_bound > k:
            return "optimal"  # proven infeasible without finishing
    if trigger == "node_budget":
        return "budget_exhausted"
    return "feasible" if has_cover else "bound_only"
