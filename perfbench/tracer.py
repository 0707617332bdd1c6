"""Outside-in tracer: spans recorded around calls into each layer's public API.

Nothing inside the program is instrumented.  The traced run passes
wrapping implementations through the facade's own extension points --
a :class:`KernelBackend` as ``kernels=``, a :class:`BoundPolicy` as
``bound=``, a :class:`Frontier` as ``frontier=``, a :class:`CacheStore`
under a :class:`SolveCache` as ``cache=`` -- and swaps
``repro.cache.canonical_form`` for a timed wrapper while a traced pass
runs.  Every wrapper delegates to the implementation the untraced run
uses, so answers and node counts must not change (``run.py`` checks).

A span is ``(name, start, end, parent, request)``.  Spans live in
parallel in-memory lists and are written once, at the end of the run.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

import repro.cache as repro_cache
from repro.cache.store import CacheStore
from repro.core.bounds import BoundPolicy, make_bound
from repro.core.frontier import Frontier, LifoFrontier
from repro.core.kernel_backends import KernelBackend


class Tracer:
    """Spans in parallel lists, plus counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack = [-1]

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over every span."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = parents >= 0
        child_s = np.bincount(parents[child], weights=dur[child],
                              minlength=dur.size)
        self_s = dur - child_s
        out: Dict[str, Dict[str, float]] = {}
        names = np.asarray(self.names, dtype=object)
        for name in sorted(set(self.names)):
            sel = names == name
            out[name] = {"calls": float(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(self_s[sel].sum())}
        return out

    def write(self, path: Path) -> None:
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.asarray(table),
            name_id=np.asarray([ids[n] for n in self.names], dtype=np.int32),
            start=np.asarray(self.starts), end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
            request=np.asarray(self.requests, dtype=np.int64))


# The per-node wrappers below call open/close directly: a generator-based
# context manager per call would multiply the tracing overhead.


class TracedKernels(KernelBackend):
    """Times the three kernel call families of the backend it wraps."""

    def __init__(self, inner: KernelBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def reduce(self, graph, state, formulation, ws, counters, hint):
        i = self.tracer.open("kernels.reduce")
        try:
            self.inner.reduce(graph, state, formulation, ws, counters, hint)
        finally:
            self.tracer.close(i)

    def expand_children(self, graph, state, vmax, ws):
        i = self.tracer.open("kernels.expand")
        try:
            return self.inner.expand_children(graph, state, vmax, ws)
        finally:
            self.tracer.close(i)

    def greedy_cover(self, graph, ws=None):
        i = self.tracer.open("kernels.greedy")
        try:
            return self.inner.greedy_cover(graph, ws)
        finally:
            self.tracer.close(i)

    def uses_adjacency(self, graph):
        return self.inner.uses_adjacency(graph)

    def resolved_name(self, n, m):
        return self.inner.resolved_name(n, m)


class TracedBound(BoundPolicy):
    """Times ``prune`` and counts evaluations and prunes of the wrapped bound."""

    def __init__(self, inner: BoundPolicy, tracer: Tracer) -> None:
        super().__init__(inner.graph, inner.ws)
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.charged = inner.charged

    def prune(self, state, budget):
        i = self.tracer.open("bounds.prune")
        try:
            pruned = self.inner.prune(state, budget)
        finally:
            self.tracer.close(i)
        self.tracer.counts["bounds.pruned"] += bool(pruned)
        return pruned

    def lower_bound(self, state, cap=None):
        return self.inner.lower_bound(state, cap)

    def cost_units(self, state):
        return self.inner.cost_units(state)

    def frontier_key(self, item):
        return self.inner.frontier_key(item)


class TracedFrontier(Frontier):
    """Times ``push``/``pop`` and tracks the population high-water mark."""

    __slots__ = ("inner", "tracer")

    def __init__(self, inner: Frontier, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def push(self, item):
        tracer = self.tracer
        i = tracer.open("frontier.push")
        try:
            self.inner.push(item)
        finally:
            tracer.close(i)
        population = len(self.inner)
        if population > tracer.counts["frontier.max_len"]:
            tracer.counts["frontier.max_len"] = population

    def pop(self):
        i = self.tracer.open("frontier.pop")
        try:
            return self.inner.pop()
        finally:
            self.tracer.close(i)

    def __len__(self):
        return len(self.inner)


class TracedStore(CacheStore):
    """A :class:`CacheStore` whose index reads, artifact loads and writes are timed."""

    def __init__(self, root, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer

    def _timed(self, name: str, method, *args, **kwargs):
        with self.tracer.span(name):
            return method(*args, **kwargs)

    def lookup_exact(self, *args, **kwargs):
        return self._timed("cache.lookup", super().lookup_exact, *args, **kwargs)

    def lookup_key(self, *args, **kwargs):
        return self._timed("cache.lookup", super().lookup_key, *args, **kwargs)

    def entries_for_graph(self, *args, **kwargs):
        return self._timed("cache.lookup", super().entries_for_graph, *args, **kwargs)

    def touch(self, *args, **kwargs):
        return self._timed("cache.lookup", super().touch, *args, **kwargs)

    def load_artifact(self, *args, **kwargs):
        return self._timed("cache.load", super().load_artifact, *args, **kwargs)

    def put(self, *args, **kwargs):
        return self._timed("cache.put", super().put, *args, **kwargs)


@contextlib.contextmanager
def traced_canonical_form(tracer: Tracer) -> Iterator[None]:
    """Time the cache layer's calls to ``canonical_form`` (its key function)."""
    original = repro_cache.canonical_form

    def canonical_form(graph, *args, **kwargs):
        with tracer.span("cache.key"):
            return original(graph, *args, **kwargs)

    repro_cache.canonical_form = canonical_form
    try:
        yield
    finally:
        repro_cache.canonical_form = original


def traced_options(workload: str, options: Dict[str, Any], graph,
                   tracer: Optional[Tracer], kernels: KernelBackend) -> Dict[str, Any]:
    """The facade options of one request, with this workload's layers wrapped.

    ``mvc-seq`` keeps the default greedy bound unwrapped so NodeStep's
    ``type(bound) is GreedyBound`` fast path runs as shipped; only
    ``pvc-bound`` wraps its (non-default) bound.  ``mvc-dist`` runs its
    layers in worker processes, which the benchmark does not reach into:
    the engine's own ``comms`` totals stand in for spans there.
    """
    if tracer is None or workload == "mvc-dist":
        return dict(options)
    opts = dict(options)
    opts["kernels"] = kernels
    opts["frontier"] = TracedFrontier(LifoFrontier(), tracer)
    if "bound" in opts:
        opts["bound"] = TracedBound(make_bound(opts["bound"], graph), tracer)
    return opts
