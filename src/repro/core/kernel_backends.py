"""Pluggable kernel backends: the ``KERNELS`` dispatch registry.

The reduction cascade, the branch-step expansion, and the greedy bound —
the three call families ``BENCH_micro.json`` tracks — plus the
non-default bound policies' lower bounds (:meth:`KernelBackend.lower_bound`)
run through one dispatch object.  The first three historically chose
between a pure-Python scalar path and the vectorized dirty-worklist
kernels through mutable module-level cutoff globals in
:mod:`repro.core.kernels` (``scalar_path_ok`` consulted ad hoc by
``branching.py``, ``greedy.py`` and ``reductions.py``).  This module
lifts that choice behind one dispatch object, mirroring the other three
orthogonal registries (ENGINES × FRONTIERS × BOUNDS):

* ``numpy``  — the vectorized dirty-worklist kernels, unconditionally;
* ``scalar`` — the pure-Python cascade, promoted from a cutoff-gated
  special case to a first-class backend (always scalar, any size);
* ``native`` — the scalar cascade and branch step compiled to C
  (:mod:`repro.core.native`: built once per machine with the local C
  compiler, cached, loaded through :mod:`ctypes`).  Registered always,
  *available* only when the build loads; without it, selecting
  ``native`` raises the registry's one-line error;
* ``auto``   — per-size-band dispatch.  Uncalibrated it picks ``native``
  whenever the compiled kernels load, and otherwise reproduces the
  legacy cutoff behaviour exactly (reading the live
  ``kernels.SCALAR_KERNEL_MAX_N/M`` globals, so ``set_scalar_cutoffs``
  and tests monkeypatching the globals keep working); calibrated
  (CALIBRATION.json v2, ``repro bench calibrate``) it consults a
  measured per-band winner table.

Equivalence contract: every registered backend reaches the **bit-identical
fixpoint** of :func:`repro.core.reductions.apply_reductions_reference` —
same ``deg`` array, ``cover_size``, ``edge_count``, reduction counters and
dirty-hint consumption — so sim charge streams and the Table I numbers
are frozen whatever backend a run selects (property-tested in
``tests/test_kernel_backends.py``).  Likewise every backend's
``lower_bound`` returns exactly the interpreted reference's value (the
``scalar``/``numpy`` implementation below), cap truncation included, so
prune decisions and node counts never depend on the backend
(``tests/test_bounds.py``).

Charged (cost-model) runs are backend-independent by construction: the
shared :meth:`KernelBackend.cascade` entry routes any charged call to the
vectorized kernels with a full rescan, exactly as before — the charge
stream is the paper's work meter and must not depend on state provenance
or backend choice.

Adding a backend (mirroring the frontier/bound how-tos):

1. subclass :class:`KernelBackend`, implement ``reduce`` /
   ``expand_children`` / ``greedy_cover`` (and ``uses_adjacency`` if the
   implementation walks cached adjacency tuples; override ``lower_bound``
   only with a faster exact port of the interpreted reference);
2. register a zero-argument factory in :data:`KERNELS`;
3. add the backend to the equivalence matrix in
   ``tests/test_kernel_backends.py`` — the property tests are the
   admission gate, not a convention.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, Workspace
from .formulation import Formulation
from .stats import ChargeFn, ReductionCounters, null_charge
from . import kernels as _kernels
from . import native as _native
from .kernels import _apply_reductions_scalar, _apply_reductions_vectorized

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "ScalarBackend",
    "NativeBackend",
    "AutoBackend",
    "KERNELS",
    "DEFAULT_KERNELS",
    "make_kernels",
    "resolve_kernels",
    "get_default_kernels",
    "set_default_kernels",
    "native_available",
    "LOWER_BOUND_MEMBERS",
    "greedy_lower_bound",
]


# --------------------------------------------------------------------- #
# lower bounds: the interpreted reference (scalar / numpy backends)
# --------------------------------------------------------------------- #

def greedy_lower_bound(state: VCState) -> int:
    """``ceil(|E'| / Δ')`` using the carried stale-high degree hint.

    The same quantity (and the same hint discipline) as
    :func:`repro.core.frontier.greedy_bound_key`: a too-large Δ' only
    loosens the bound, so the stale-high ``max_deg_hint`` is sound.
    """
    edges = state.edge_count
    if edges <= 0:
        return 0
    max_deg = state.max_deg_hint
    if max_deg <= 0:
        max_deg = int(state.deg.max())
        if max_deg <= 0:  # pragma: no cover - edge_count > 0 implies a degree
            max_deg = 1
    return -(-edges // max_deg)


def degree_lower_bound(state: VCState) -> int:
    """Smallest ``t`` whose ``t`` largest alive degrees sum to ``|E'|``."""
    edges = state.edge_count
    if edges <= 0:
        return 0
    deg = state.deg
    alive = deg[deg > 0]
    if alive.size == 0:  # pragma: no cover - edge_count > 0 implies degrees
        return 0
    order = np.sort(alive)[::-1]
    prefix = np.cumsum(order)
    return int(np.searchsorted(prefix, edges)) + 1


def maximal_matching_size(
    graph: CSRGraph,
    state: VCState,
    cap: Optional[int] = None,
) -> int:
    """Greedy maximal matching of the alive subgraph, early-exiting at ``cap``.

    Scans alive vertices in id order and matches each with its first
    alive unmatched neighbour — deterministic, O(|E'|), and a valid
    lower bound at any prefix (each matching edge pins one distinct
    cover vertex), which is what makes the ``cap`` early exit sound.
    """
    if state.edge_count <= 0:
        return 0
    deg = state.deg
    matched = np.zeros(graph.n, dtype=bool)
    size = 0
    neighbors = graph.neighbors
    for v in np.flatnonzero(deg > 0):
        v = int(v)
        if matched[v]:
            continue
        nbrs = neighbors(v)
        live = nbrs[(deg[nbrs] >= 0) & ~matched[nbrs]]
        if live.size:
            matched[v] = True
            matched[int(live[0])] = True
            size += 1
            if cap is not None and size > cap:
                return size
    return size


#: Member name -> reference evaluation ``(graph, state, cap) -> int``; the
#: names :meth:`KernelBackend.lower_bound` accepts, in the order the
#: ``combined`` policy evaluates them by default (cheapest first).
_LOWER_BOUNDS: Dict[str, Callable[[CSRGraph, VCState, Optional[int]], int]] = {
    "greedy": lambda graph, state, cap: greedy_lower_bound(state),
    "degree": lambda graph, state, cap: degree_lower_bound(state),
    "matching": maximal_matching_size,
}
LOWER_BOUND_MEMBERS: Tuple[str, ...] = tuple(_LOWER_BOUNDS)


class KernelBackend:
    """One implementation of the solver's three kernel call families.

    The shared :meth:`cascade` entry owns the cross-backend contract —
    dirty-hint consumption and the charged-run escape hatch — so a
    backend only implements the uncharged hot paths: :meth:`reduce`,
    :meth:`expand_children` and :meth:`greedy_cover`.
    """

    #: Registry name; set by subclasses.
    name: str = "?"

    # ------------------------------------------------------------------ #
    # shared entry: hint consumption + charged-run routing
    # ------------------------------------------------------------------ #
    def cascade(
        self,
        graph: CSRGraph,
        state: VCState,
        formulation: Formulation,
        ws: Optional[Workspace] = None,
        charge: ChargeFn = null_charge,
        counters: Optional[ReductionCounters] = None,
    ) -> None:
        """Run the reduction cascade to its fixpoint (Fig. 1's ``reduce``).

        The state's ``dirty`` hint (populated by ``expand_children`` with
        the branch step's touched vertices) seeds the cascade's worklists;
        it is consumed here — cleared before the cascade runs — so it can
        never go stale on a reduced state.  Charged runs always take the
        vectorized path with a full rescan: the work stream must not
        depend on state provenance or on the backend a run selected.
        """
        hint = state.dirty
        if hint is not None:
            state.dirty = None
        if charge is not null_charge:
            if ws is None or ws.n != state.deg.size:
                ws = Workspace(state.deg.size)
            _apply_reductions_vectorized(
                graph, state, formulation, ws, charge, counters, None
            )
            return
        self.reduce(graph, state, formulation, ws, counters, hint)

    # ------------------------------------------------------------------ #
    # backend-specific hot paths
    # ------------------------------------------------------------------ #
    def reduce(
        self,
        graph: CSRGraph,
        state: VCState,
        formulation: Formulation,
        ws: Optional[Workspace],
        counters: Optional[ReductionCounters],
        hint,
    ) -> None:
        """Uncharged cascade body; ``hint`` is the consumed dirty set."""
        raise NotImplementedError

    def expand_children(
        self, graph: CSRGraph, state: VCState, vmax: int, ws: Workspace
    ) -> Tuple[VCState, VCState]:
        """Uncharged branch step (deferred, continued) — Fig. 4 order."""
        raise NotImplementedError

    def greedy_cover(self, graph: CSRGraph, ws: Optional[Workspace] = None):
        """The greedy upper-bound pass (paper Section II-B)."""
        raise NotImplementedError

    def lower_bound(
        self,
        graph: CSRGraph,
        state: VCState,
        members: Tuple[str, ...],
        cap: Optional[int],
        ws: Optional[Workspace],
    ) -> int:
        """Max of the ``members`` lower bounds (:data:`LOWER_BOUND_MEMBERS`).

        Members are evaluated in order, stopping as soon as the running
        max exceeds ``cap`` (``None``: no cap); ``matching`` also stops
        growing its matching there.  This interpreted body is the
        ``scalar``/``numpy`` implementation and the reference every other
        backend must match value for value.
        """
        best = 0
        for name in members:
            best = max(best, _LOWER_BOUNDS[name](graph, state, cap))
            if cap is not None and best > cap:
                break
        return best

    def uses_adjacency(self, graph: CSRGraph) -> bool:
        """Whether this backend walks cached adjacency tuples on ``graph``.

        The CPU engines' prewarm consults this to decide which graph
        caches to build before forking workers.
        """
        raise NotImplementedError

    def resolved_name(self, n: int, m: int) -> str:
        """The backend that would actually run a size-(n, m) cascade.

        Identity for concrete backends; ``auto`` reports its band pick
        (``auto:scalar``).  Recorded as per-case provenance by
        ``repro bench``.
        """
        return self.name

    def for_graph(self, n: int, m: int) -> "KernelBackend":
        """The backend to bind for a whole traversal of a size-(n, m) graph.

        The backend itself for concrete backends and wrappers; ``auto``
        returns its band pick, so a traversal resolves the dispatch once
        instead of once per call.
        """
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name}>"


class NumpyBackend(KernelBackend):
    """Today's vectorized dirty-worklist kernels, unconditionally."""

    name = "numpy"

    def reduce(self, graph, state, formulation, ws, counters, hint):
        if ws is None or ws.n != state.deg.size:
            ws = Workspace(state.deg.size)
        _apply_reductions_vectorized(
            graph, state, formulation, ws, null_charge, counters, hint
        )

    def expand_children(self, graph, state, vmax, ws):
        from .branching import _expand_children_general

        return _expand_children_general(graph, state, vmax, ws, null_charge)

    def greedy_cover(self, graph, ws=None):
        from .greedy import _greedy_cover_vectorized

        if ws is None or ws.n != graph.n:
            ws = Workspace.for_graph(graph)
        return _greedy_cover_vectorized(graph, ws)

    def uses_adjacency(self, graph):
        return False


class ScalarBackend(KernelBackend):
    """Today's pure-Python cascade, first-class (any graph size)."""

    name = "scalar"

    def reduce(self, graph, state, formulation, ws, counters, hint):
        _apply_reductions_scalar(graph, state, formulation, counters, hint)

    def expand_children(self, graph, state, vmax, ws):
        from .branching import _expand_children_scalar

        return _expand_children_scalar(graph, state, vmax, ws)

    def greedy_cover(self, graph, ws=None):
        from .greedy import _greedy_cover_scalar

        return _greedy_cover_scalar(graph)

    def uses_adjacency(self, graph):
        return True


# --------------------------------------------------------------------- #
# native: compiled C cascade and branch step (gcc + ctypes)
# --------------------------------------------------------------------- #

def native_available() -> bool:
    """True when the compiled kernels built (or were cached) and loaded."""
    return _native.load() is not None


class NativeBackend(KernelBackend):
    """The scalar cascade and branch step compiled to C (``core/native``).

    Same loops as the ``scalar`` backend, so the same fixpoint, counters,
    sweeps and children, bit for bit.  One C call per node phase: the
    cascade runs to its fixpoint in :c:func:`vc_cascade`, the branch step
    builds both children in :c:func:`vc_expand`, and a non-default bound's
    whole member list is one :c:func:`vc_lower_bound` call per prune.
    Scratch buffers live on the :class:`Workspace` (one per worker).  The
    greedy pass (once per solve) stays interpreted: scalar below the size
    cutoff, numpy above.
    """

    name = "native"

    def __init__(self) -> None:
        lib = _native.load()
        if lib is None:
            raise ValueError(_native_unavailable())
        self._cascade = lib.vc_cascade
        self._expand = lib.vc_expand
        self._lower_bound = lib.vc_lower_bound
        self._member_codes: Dict[Tuple[str, ...], int] = {}

    @staticmethod
    def _scratch(graph: CSRGraph, ws: Workspace) -> "_native.Scratch":
        sc = ws.native
        if sc is None:
            sc = ws.native = _native.Scratch(ws.n)
        sc.bind(graph)
        return sc

    def reduce(self, graph, state, formulation, ws, counters, hint):
        deg = state.deg
        if ws is None or ws.n != deg.size:
            ws = Workspace(deg.size)
        sc = ws.native
        if sc is None or sc.graph is not graph:
            sc = self._scratch(graph, ws)
        if hint is not None and type(hint) is not np.ndarray:
            hint = np.asarray(hint, dtype=np.int64)
        rc = self._cascade(sc.indptr, sc.indices, deg, sc.n, hint,
                           state.max_deg_hint,
                           formulation.budget(state.cover_size),
                           sc.buf_ptr, sc.out_ptr)
        if rc:
            _native.fail(rc)
        c1, c2, ch, sweeps, deleted, max_deg = sc.out.tolist()
        state.cover_size += c1 + c2 + ch
        state.edge_count -= deleted
        state.max_deg_hint = max_deg
        if counters is not None:
            counters.degree_one += c1
            counters.degree_two_triangle += c2
            counters.high_degree += ch
            counters.sweeps += sweeps

    def expand_children(self, graph, state, vmax, ws):
        sc = ws.native
        if sc is None or sc.graph is not graph:
            sc = self._scratch(graph, ws)
        buf = ws.borrow_deg()
        rc = self._expand(sc.indptr, sc.indices, state.deg, buf, sc.n, vmax,
                          sc.def_ptr, sc.cont_ptr, sc.out_ptr)
        if rc:
            ws.release_deg(buf)
            _native.fail(rc)
        live, deleted, td, tc, _, _ = sc.out.tolist()
        deferred = VCState(buf, state.cover_size + live,
                           state.edge_count - deleted,
                           sc.touched_def[:td].copy(), state.max_deg_hint)
        state.edge_count -= live
        state.cover_size += 1
        state.dirty = sc.touched_cont[:tc].copy()
        return deferred, state

    def lower_bound(self, graph, state, members, cap, ws):
        code = self._member_codes.get(members)
        if code is None:
            code = self._member_codes[members] = _pack_members(members)
        deg = state.deg
        if ws is None or ws.n != deg.size:
            ws = Workspace(deg.size)
        sc = ws.native
        if sc is None or sc.graph is not graph:
            sc = self._scratch(graph, ws)
        lb = self._lower_bound(sc.indptr, sc.indices, deg, sc.n,
                               state.edge_count, state.max_deg_hint,
                               _NO_CAP if cap is None else min(cap, _NO_CAP),
                               code, sc.bound_ptr or sc.bound_scratch())
        if lb < 0:
            _native.fail(lb)
        return lb

    def _greedy_backend(self, graph: CSRGraph) -> KernelBackend:
        return make_kernels(
            "scalar" if _kernels.scalar_path_ok(graph.n, graph.m) else "numpy")

    def greedy_cover(self, graph, ws=None):
        return self._greedy_backend(graph).greedy_cover(graph, ws)

    def uses_adjacency(self, graph):
        return self._greedy_backend(graph).uses_adjacency(graph)


#: ``vc_lower_bound``'s "no cap" (INT64_MAX: no bound ever exceeds it).
_NO_CAP = (1 << 63) - 1


def _pack_members(members: Tuple[str, ...]) -> int:
    """``vc_lower_bound``'s member word: codes 1-3 (LOWER_BOUND_MEMBERS
    order), two bits each, first member lowest.  A repeated member is
    dropped: its second evaluation cannot change the max or the stop."""
    code = 0
    for i, name in enumerate(dict.fromkeys(members)):
        if name not in _LOWER_BOUNDS:
            raise ValueError(f"unknown lower-bound member {name!r}; choose "
                             f"from: {', '.join(LOWER_BOUND_MEMBERS)}")
        code |= (LOWER_BOUND_MEMBERS.index(name) + 1) << (2 * i)
    return code


def _native_unavailable() -> str:
    return ("kernels 'native' is unavailable (the C kernels could not be "
            "built or loaded); choose from: "
            + ", ".join(sorted(n for n in KERNELS if n != "native")))


class AutoBackend(KernelBackend):
    """Per-size-band dispatch between the concrete backends.

    Uncalibrated, :meth:`pick` reproduces the legacy cutoff rule by
    reading the live ``kernels.SCALAR_KERNEL_MAX_N/M`` globals at call
    time — ``set_scalar_cutoffs`` (and tests monkeypatching the globals)
    therefore still steer every consumer, now through one dispatcher.
    A CALIBRATION.json v2 artifact installs a measured band table via
    :meth:`install_calibration`: ascending ``(max_n, backend)`` pairs, an
    edge cap above which the interpreter-family backends are never picked
    (their loops walk full adjacency rows), and a default for graphs
    beyond the last band.
    """

    name = "auto"

    def __init__(self) -> None:
        self._bands: Optional[Tuple[Tuple[int, str], ...]] = None
        self._max_m: int = 0
        self._default: str = "numpy"

    # -- calibration ---------------------------------------------------- #
    def install_calibration(
        self,
        bands: Sequence[Tuple[int, str]],
        max_m: int,
        default: str = "numpy",
    ) -> None:
        """Install a measured per-band winner table (CALIBRATION v2)."""
        for _, name in tuple(bands) + ((0, default),):
            if name not in KERNELS:
                raise ValueError(
                    f"unknown kernels {name!r} in calibration bands; "
                    f"choose from: {', '.join(sorted(KERNELS))}"
                )
            if name == "auto":
                raise ValueError("calibration bands cannot nest the 'auto' backend")
            make_kernels(name)  # an unavailable backend fails here, not mid-solve
        self._bands = tuple(sorted((int(mn), str(b)) for mn, b in bands))
        self._max_m = int(max_m)
        self._default = str(default)

    def clear_calibration(self) -> None:
        """Back to the uncalibrated legacy cutoff rule."""
        self._bands = None
        self._max_m = 0
        self._default = "numpy"

    @property
    def calibrated(self) -> bool:
        return self._bands is not None

    # -- dispatch -------------------------------------------------------- #
    def pick(self, n: int, m: int) -> str:
        """The concrete backend name for a size-(n, m) graph."""
        if self._bands is None:
            if native_available():
                return "native"
            if (
                n <= _kernels.SCALAR_KERNEL_MAX_N
                and m <= _kernels.SCALAR_KERNEL_MAX_M
            ):
                return "scalar"
            return "numpy"
        if m > self._max_m:
            return "numpy"
        for max_n, backend in self._bands:
            if n <= max_n:
                return backend
        return self._default

    def _picked(self, n: int, m: int) -> KernelBackend:
        return make_kernels(self.pick(n, m))

    def resolved_name(self, n: int, m: int) -> str:
        return f"auto:{self.pick(n, m)}"

    def for_graph(self, n: int, m: int) -> KernelBackend:
        return self._picked(n, m)

    def reduce(self, graph, state, formulation, ws, counters, hint):
        self._picked(state.deg.size, graph.m).reduce(
            graph, state, formulation, ws, counters, hint
        )

    def expand_children(self, graph, state, vmax, ws):
        return self._picked(graph.n, graph.m).expand_children(graph, state, vmax, ws)

    def greedy_cover(self, graph, ws=None):
        return self._picked(graph.n, graph.m).greedy_cover(graph, ws)

    def lower_bound(self, graph, state, members, cap, ws):
        return self._picked(graph.n, graph.m).lower_bound(
            graph, state, members, cap, ws)

    def uses_adjacency(self, graph):
        return self._picked(graph.n, graph.m).uses_adjacency(graph)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

#: Backend name -> zero-argument factory, mirroring BOUNDS / FRONTIERS.
KERNELS: Dict[str, Callable[[], KernelBackend]] = {
    "numpy": NumpyBackend,
    "scalar": ScalarBackend,
    "native": NativeBackend,
    "auto": AutoBackend,
}

#: The registry's default selection when a caller passes ``None``.
DEFAULT_KERNELS = "auto"

_INSTANCES: Dict[str, KernelBackend] = {}
_default_name: str = DEFAULT_KERNELS


def make_kernels(name: str) -> KernelBackend:
    """The (cached, process-wide) backend instance for ``name``.

    Backends are stateless apart from ``auto``'s installed calibration,
    so one instance per name is shared by every consumer — which is what
    makes a calibration install or a ``set_scalar_cutoffs`` call visible
    everywhere at once.
    """
    if name not in KERNELS:
        raise ValueError(
            f"unknown kernels {name!r}; choose from: {', '.join(sorted(KERNELS))}"
        )
    if name == "native" and not native_available():
        raise ValueError(_native_unavailable())
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = _INSTANCES[name] = KERNELS[name]()
    return inst


def resolve_kernels(
    kernels: Union[KernelBackend, str, None] = None,
) -> KernelBackend:
    """Normalize a backend selection: instance, registry name, or None."""
    if kernels is None:
        return make_kernels(_default_name)
    if isinstance(kernels, KernelBackend):
        return kernels
    return make_kernels(kernels)


def get_default_kernels() -> str:
    """The registry name resolved when a caller passes ``None``."""
    return _default_name


def set_default_kernels(name: Optional[str]) -> str:
    """Install the process-wide default backend name; return it.

    ``None`` resets to the shipped default (``auto``).  Validated against
    the registry with the same one-line error as every other axis.
    """
    global _default_name
    if name is None:
        name = DEFAULT_KERNELS
    make_kernels(name)  # validates + warms the instance cache
    _default_name = name
    return _default_name
