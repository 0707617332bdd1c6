"""Search-state generator shared by the bound-kernel equivalence tests."""

from __future__ import annotations

import numpy as np

from repro.core.formulation import FoundFlag, PVCFormulation
from repro.core.kernel_backends import make_kernels
from repro.graph.csr import CSRGraph
from repro.graph.degree_array import Workspace, fresh_state


def search_states(graph: CSRGraph, seed: int, steps: int = 12) -> list:
    """States a search reaches: random cascades and random branch steps.

    Follows one random root-to-leaf walk under a PVC budget drawn from the
    seed (so the high-degree rule fires on some walks and budgets go
    negative on others), collecting every child before and after its
    cascade — fresh children still carry a stale-high degree hint.
    """
    rng = np.random.default_rng(seed)
    backend = make_kernels("scalar")
    ws = Workspace.for_graph(graph)
    formulation = PVCFormulation(k=int(rng.integers(0, graph.n + 1)),
                                 flag=FoundFlag())
    state = fresh_state(graph)
    states = [state.copy()]
    for _ in range(steps):
        backend.cascade(graph, state, formulation, ws)
        states.append(state.copy())
        alive = np.flatnonzero(state.deg > 0)
        if alive.size == 0:
            break
        deferred, continued = backend.expand_children(
            graph, state, int(rng.choice(alive)), ws)
        states += [deferred.copy(), continued.copy()]
        state = deferred if rng.random() < 0.5 else continued
    return states
