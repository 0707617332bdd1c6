"""Property tests for the KERNELS dispatch registry.

Admission gate for kernel backends: every registered backend must reach
the **bit-identical fixpoint** of ``apply_reductions_reference`` — same
degree array, cover size, edge count and reduction counters — across the
random / p_hat / structured suites, seeded dirty-hint cascades and
budget-limited early exits.  Plus: the compiled ``native`` backend's
children, loader and no-compiler fallback, the calibrated ``auto`` band
dispatch, CALIBRATION v2 artifact hygiene,
the stale-binding regression (cutoff/backend switches after import must
steer branching), and the one-line registry errors surfaced by the CLI
and the experiment spec.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel_backends as kb
import repro.core.kernels as kernels_mod
import repro.core.native as native_mod
from repro.core import branching
from repro.core.branching import expand_children, max_degree_pivot
from repro.core.formulation import BestBound, FoundFlag, MVCFormulation, PVCFormulation
from repro.core.greedy import greedy_cover
from repro.core.kernel_backends import (
    KERNELS,
    AutoBackend,
    make_kernels,
    native_available,
    resolve_kernels,
    set_default_kernels,
)
from repro.core.reductions import apply_reductions_reference
from repro.core.sequential import branch_and_reduce, solve_mvc_sequential
from repro.core.stats import ReductionCounters
from repro.graph.degree_array import VCState, Workspace, fresh_state
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import (
    disjoint_union,
    grid_graph,
    path_graph,
    petersen,
    star_graph,
)
from search_states import search_states

#: Concrete backends every equivalence test must admit.  ``native`` is
#: skipped, not dropped, where no C compiler can build it.
CONCRETE = ("numpy", "scalar", "native")


def _backend(name):
    """Registry instance; skips the test where ``native`` cannot load."""
    if name == "native" and not native_available():
        pytest.skip("native kernels unavailable (no working C compiler)")
    return make_kernels(name)


@pytest.fixture
def no_native(monkeypatch):
    """The machine without a C compiler: the loader returns None."""
    monkeypatch.setattr(native_mod, "load", lambda: None)


def _suite():
    """Random / p_hat / structured instances for the equivalence matrix."""
    return [
        gnp(48, 0.12, seed=7),
        gnp(70, 0.05, seed=23),
        phat_complement(40, 2, seed=11),
        phat_complement(36, 3, seed=4),
        disjoint_union(path_graph(5), petersen(), star_graph(6)),
        grid_graph(5, 6),
    ]


def _cascade_tuple(graph, runner, best=None, k=None, state=None):
    """Run ``runner`` to fixpoint; return the comparable tuple."""
    st = state if state is not None else fresh_state(graph)
    counters = ReductionCounters()
    if k is None:
        form = MVCFormulation(BestBound(size=best if best is not None else graph.n + 1))
    else:
        form = PVCFormulation(k=k, flag=FoundFlag())
    runner(graph, st, form, Workspace.for_graph(graph), counters)
    return (
        st.deg.tobytes(),
        st.cover_size,
        st.edge_count,
        counters.degree_one,
        counters.degree_two_triangle,
        counters.high_degree,
        counters.sweeps,
        st.dirty,
    )


def _reference(graph, state, form, ws, counters):
    apply_reductions_reference(graph, state, form, ws, counters=counters)


def _via(backend):
    def run(graph, state, form, ws, counters):
        backend.cascade(graph, state, form, ws, counters=counters)

    return run


# --------------------------------------------------------------------- #
# registry plumbing
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_unknown_name_one_liner(self):
        with pytest.raises(ValueError) as exc:
            make_kernels("cuda")
        msg = str(exc.value)
        assert msg == (
            "unknown kernels 'cuda'; choose from: "
            + ", ".join(sorted(KERNELS))
        )
        assert "\n" not in msg

    def test_instances_are_cached_singletons(self):
        for name in KERNELS:
            if name != "native" or native_available():
                assert _backend(name) is _backend(name)

    def test_resolve_accepts_name_instance_and_none(self):
        scalar = _backend("scalar")
        assert resolve_kernels("scalar") is scalar
        assert resolve_kernels(scalar) is scalar
        assert resolve_kernels(None) is _backend(kb.get_default_kernels())

    def test_default_is_auto_and_settable(self):
        assert kb.DEFAULT_KERNELS == "auto"
        before = kb.get_default_kernels()
        try:
            assert set_default_kernels("scalar") == "scalar"
            assert resolve_kernels(None) is _backend("scalar")
            with pytest.raises(ValueError, match="unknown kernels"):
                set_default_kernels("gpu")
            assert set_default_kernels(None) == "auto"
        finally:
            set_default_kernels(before)

    def test_resolved_name_identity_for_concrete(self):
        for name in CONCRETE:
            if name != "native" or native_available():
                assert _backend(name).resolved_name(10, 20) == name
                assert _backend(name).for_graph(10, 20) is _backend(name)


# --------------------------------------------------------------------- #
# the equivalence matrix: backend x suite x budget
# --------------------------------------------------------------------- #
class TestEquivalenceMatrix:
    @pytest.mark.parametrize("name", CONCRETE + ("auto",))
    def test_full_rescan_fixpoints(self, name):
        backend = _backend(name)
        for g in _suite():
            for best in (None, max(3, g.n // 3)):
                ref = _cascade_tuple(g, _reference, best=best)
                got = _cascade_tuple(g, _via(backend), best=best)
                assert got == ref, (name, g.n, best)

    @pytest.mark.parametrize("name", CONCRETE + ("auto",))
    def test_pvc_budget_early_exit(self, name):
        """Doomed budgets cut the cascade short; the early exit must be
        the same early exit (counters and sweeps included)."""
        backend = _backend(name)
        for g in (gnp(50, 0.3, seed=3), star_graph(7), phat_complement(40, 3, seed=2)):
            for k in (1, 3, g.n // 4):
                ref = _cascade_tuple(g, _reference, k=k)
                got = _cascade_tuple(g, _via(backend), k=k)
                assert got == ref, (name, g.n, k)

    @pytest.mark.parametrize("name", CONCRETE + ("auto",))
    def test_seeded_dirty_hint_cascades(self, name):
        """A branch-step child arrives with a dirty hint; every backend
        must consume it and still land on the reference fixpoint."""
        backend = _backend(name)
        for g in (gnp(60, 0.08, seed=13), phat_complement(40, 2, seed=11)):
            ws = Workspace.for_graph(g)
            parent = fresh_state(g)
            form = MVCFormulation(BestBound(size=g.n + 1))
            backend.cascade(g, parent, form, ws)
            assert parent.edge_count > 0
            child, _ = expand_children(g, parent.copy(), max_degree_pivot(parent), ws)
            assert child.dirty is not None

            def clone():
                return VCState(child.deg.copy(), child.cover_size,
                               child.edge_count, child.dirty, child.max_deg_hint)

            ref = _cascade_tuple(g, _reference, state=clone())
            got = _cascade_tuple(g, _via(backend), state=clone())
            assert got == ref, (name, g.n)
            assert got[-1] is None  # the hint was consumed, not left stale

    @pytest.mark.parametrize("name", CONCRETE + ("auto",))
    def test_greedy_cover_identical(self, name):
        for g in _suite():
            ref = greedy_cover(g, kernels="numpy")
            got = greedy_cover(g, kernels=_backend(name))
            assert got.size == ref.size
            assert got.cover.tolist() == ref.cover.tolist()

    @pytest.mark.parametrize("name", CONCRETE + ("auto",))
    def test_whole_search_identical(self, name):
        """End to end through branch_and_reduce: same optimum, same tree."""
        backend = _backend(name)
        for g in (phat_complement(40, 2, seed=11), gnp(40, 0.15, seed=5)):
            ref_best = BestBound(size=g.n + 1)
            ref = branch_and_reduce(g, MVCFormulation(ref_best), kernels="numpy")
            got_best = BestBound(size=g.n + 1)
            got = branch_and_reduce(g, MVCFormulation(got_best), kernels=backend)
            assert got_best.size == ref_best.size
            assert got.nodes_visited == ref.nodes_visited

    @pytest.mark.parametrize("name", CONCRETE)
    def test_node_budget_early_exit_identical(self, name):
        """A depth/node-limited search truncates at the same node for
        every backend (the tree walk is bit-identical, so the budget
        fires at the same point)."""
        g = phat_complement(44, 3, seed=9)
        ref_best = BestBound(size=g.n + 1)
        ref = branch_and_reduce(g, MVCFormulation(ref_best),
                                node_budget=50, kernels="numpy")
        assert ref.extra.get("timed_out")
        got_best = BestBound(size=g.n + 1)
        got = branch_and_reduce(g, MVCFormulation(got_best),
                                node_budget=50, kernels=_backend(name))
        assert got.nodes_visited == ref.nodes_visited
        assert got_best.size == ref_best.size

    def test_solver_facade_accepts_backend_names(self):
        g = phat_complement(36, 2, seed=3)
        sizes = {
            name: solve_mvc_sequential(g, kernels=_backend(name)).optimum
            for name in CONCRETE + ("auto",)
        }
        assert len(set(sizes.values())) == 1


# --------------------------------------------------------------------- #
# native: compiled C kernels, loader and no-compiler fallback
# --------------------------------------------------------------------- #
class TestNativeBackend:
    def test_no_compiler_falls_back(self, no_native, capsys):
        """Without the compiled kernels ``auto`` resolves exactly as the
        interpreted cutoff rule and an explicit ``native`` is refused with
        the registry's one-line error."""
        auto = _backend("auto")
        assert not native_available()
        assert auto.pick(10, 10) == "scalar"
        assert auto.pick(10 ** 5, 10 ** 6) == "numpy"
        assert auto.for_graph(10, 10) is _backend("scalar")
        with pytest.raises(ValueError) as exc:
            make_kernels("native")
        msg = str(exc.value)
        assert msg == ("kernels 'native' is unavailable (the C kernels could "
                       "not be built or loaded); choose from: auto, numpy, scalar")
        with pytest.raises(ValueError, match="unavailable"):
            resolve_kernels("native")
        from repro.cli import main

        rc = main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                   "--kernels", "native"])
        assert rc == 2
        out = capsys.readouterr()
        line = (out.err or out.out).strip()
        assert "kernels 'native' is unavailable" in line and "\n" not in line

    def test_registry_instance_matches_environment(self):
        auto = _backend("auto")
        assert auto.pick(10, 10) == ("native" if native_available() else "scalar")
        backend = _backend("native")
        assert isinstance(backend, kb.NativeBackend)
        assert auto.for_graph(10 ** 5, 10 ** 6) is backend

    @pytest.mark.parametrize("seed", range(3))
    def test_expand_children_identical_to_scalar(self, seed):
        """Both children equal the scalar branch step's: degree bytes,
        cover size, edge count, and the touched hints as sets."""
        native = _backend("native")
        scalar = _backend("scalar")
        form = MVCFormulation(BestBound(size=10 ** 6))
        graphs = _suite() + [gnp(120, 0.5, seed=seed), star_graph(60)]
        for g in graphs:
            ws_n, ws_s = Workspace.for_graph(g), Workspace.for_graph(g)
            parent = fresh_state(g)
            scalar.cascade(g, parent, form, ws_s)
            if parent.edge_count == 0:
                continue
            rng = np.random.default_rng(seed)
            alive = np.flatnonzero(parent.deg > 0)
            pivots = {max_degree_pivot(parent), int(rng.choice(alive))}
            for vmax in sorted(pivots):
                a_def, a_cont = native.expand_children(g, parent.copy(), vmax, ws_n)
                b_def, b_cont = scalar.expand_children(g, parent.copy(), vmax, ws_s)
                for a, b in ((a_def, b_def), (a_cont, b_cont)):
                    assert a.deg.tobytes() == b.deg.tobytes(), (g.n, vmax)
                    assert (a.cover_size, a.edge_count, a.max_deg_hint) == \
                        (b.cover_size, b.edge_count, b.max_deg_hint)
                    assert set(np.asarray(a.dirty).tolist()) == \
                        set(np.asarray(b.dirty).tolist())
                    assert a.dirty.dtype == np.int64
                    a.validate(g)

    def test_hint_longer_than_n_scans_instead(self):
        """A duplicate-heavy hint longer than n takes the full-scan path;
        the fixpoint and counters still equal the scalar cascade's."""
        native = _backend("native")
        g = gnp(60, 0.3, seed=2)
        ws = Workspace.for_graph(g)
        parent = fresh_state(g)
        native.cascade(g, parent, MVCFormulation(BestBound(size=g.n + 1)), ws)
        child, _ = native.expand_children(g, parent.copy(), max_degree_pivot(parent), ws)
        long_hint = np.tile(np.arange(g.n, dtype=np.int64), 3)

        def run(backend, hint):
            st = VCState(child.deg.copy(), child.cover_size, child.edge_count,
                         hint, child.max_deg_hint)
            return _cascade_tuple(g, _via(backend), best=g.n // 2, state=st)

        want = run(_backend("scalar"), long_hint.tolist())
        assert run(native, long_hint) == want
        assert run(native, None) == want

    def test_rejects_foreign_degree_arrays(self):
        native = _backend("native")
        g = gnp(30, 0.2, seed=1)
        form = MVCFormulation(BestBound(size=g.n + 1))
        bad = VCState(fresh_state(g).deg.astype(np.int64), 0, g.m)
        with pytest.raises(ValueError, match="int32"):
            native.cascade(g, bad, form, Workspace.for_graph(g))
        ok = fresh_state(g)
        with pytest.raises(ValueError, match="int64"):
            native.reduce(g, ok, form, Workspace.for_graph(g), None,
                          np.arange(3, dtype=np.int32))

    def test_rejects_foreign_bound_degree_arrays(self):
        native = _backend("native")
        g = gnp(30, 0.2, seed=1)
        ws = Workspace.for_graph(g)
        wide = VCState(fresh_state(g).deg.astype(np.int64), 0, g.m)
        with pytest.raises(ValueError, match="int32"):
            native.lower_bound(g, wide, ("degree",), None, ws)
        corrupt = fresh_state(g)
        corrupt.deg[3] = g.n + 1
        with pytest.raises(ValueError, match="above n"):
            native.lower_bound(g, corrupt, ("degree",), None, ws)
        # the counts are zero again: the next evaluation is exact
        ok = fresh_state(g)
        assert native.lower_bound(g, ok, ("degree",), None, ws) == \
            _backend("scalar").lower_bound(g, ok, ("degree",), None, ws)

    def test_bound_scratch_allocated_only_by_bound_evaluations(self):
        from repro.core.bounds import make_bound

        _backend("native")
        g = gnp(40, 0.15, seed=3)
        ws = Workspace.for_graph(g)
        branch_and_reduce(g, MVCFormulation(BestBound(size=g.n + 1)), ws=ws,
                          kernels="native")
        assert ws.native is not None and ws.native.bound_buf is None
        bound = make_bound("combined", g, ws, "native")
        bound.lower_bound(fresh_state(g))
        assert ws.native.bound_buf is not None

    def test_distributed_solve_matches_sequential(self):
        from repro.core.solver import solve_mvc

        _backend("native")
        g = gnp(70, 0.1, seed=4)
        seq = solve_mvc(g, kernels="scalar")
        par = solve_mvc(g, engine="distributed", n_workers=3, kernels="native")
        assert par.optimum == seq.optimum
        assert len(par.cover) == par.optimum

    def test_concurrent_compiles_both_load(self, tmp_path):
        """Two cold processes compiling the same hash at once both load,
        and the cache ends with one complete build and no temp files."""
        _backend("native")
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
        src = str(Path(kb.__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = ("from repro.core import native; "
                "print(native.load() is not None)")
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [p.communicate(timeout=120)[0].strip() for p in procs]
        assert outs == ["True", "True"]
        cached = sorted(os.listdir(tmp_path / "repro"))
        assert len(cached) == 1 and cached[0].endswith(".so"), cached
        assert (tmp_path / "repro").stat().st_mode & 0o777 == 0o700

    def test_build_failures_return_none(self, tmp_path, monkeypatch):
        shared = tmp_path / "shared"
        shared.mkdir(mode=0o777)
        shared.chmod(0o777)  # writable by others: never load from here
        assert native_mod.build(shared) is None
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))  # no compiler
        assert native_mod.build(tmp_path / "nocc") is None
        assert os.listdir(tmp_path / "nocc") == []


# --------------------------------------------------------------------- #
# lower_bound: the compiled bounds equal the interpreted reference
# --------------------------------------------------------------------- #
class TestLowerBoundEquivalence:
    """``lower_bound``: every backend returns the interpreted reference's
    value, cap truncation included, on states a search reaches."""

    MEMBER_LISTS = (("degree",), ("matching",), ("greedy",),
                    ("greedy", "degree", "matching"),
                    ("matching", "greedy"), ("degree", "matching", "degree"))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 60), p=st.floats(0.03, 0.6),
           seed=st.integers(0, 10 ** 6), data=st.data())
    def test_native_matches_scalar_on_search_states(self, n, p, seed, data):
        native, scalar = _backend("native"), _backend("scalar")
        g = gnp(n, p, seed=seed)
        ws = Workspace.for_graph(g)
        for state in search_states(g, seed):
            for members in self.MEMBER_LISTS:
                caps = [None] + data.draw(
                    st.lists(st.integers(-2, n), max_size=3))
                for cap in caps:
                    want = scalar.lower_bound(g, state, members, cap, None)
                    got = native.lower_bound(g, state, members, cap, ws)
                    assert got == want, (members, cap)

    @pytest.mark.parametrize("name", CONCRETE + ("auto",))
    def test_every_backend_matches_the_reference(self, name):
        backend = _backend(name)
        reference = kb.KernelBackend.lower_bound
        for g in _suite():
            ws = Workspace.for_graph(g)
            for state in search_states(g, seed=g.n):
                for cap in (None, 0, 3):
                    members = ("greedy", "degree", "matching")
                    assert backend.lower_bound(g, state, members, cap, ws) == \
                        reference(backend, g, state, members, cap, ws)

    def test_unknown_member_is_refused(self):
        native = _backend("native")
        g = gnp(10, 0.3, seed=0)
        with pytest.raises(ValueError, match="unknown lower-bound member"):
            native.lower_bound(g, fresh_state(g), ("konig",), None, None)


# --------------------------------------------------------------------- #
# auto: uncalibrated legacy cutoffs, calibrated band tables
# --------------------------------------------------------------------- #
class TestAutoDispatch:
    def test_uncalibrated_reads_live_globals(self, monkeypatch, no_native):
        auto = _backend("auto")
        assert not auto.calibrated
        assert auto.pick(10, 10) == "scalar"
        monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_N", 0)
        assert auto.pick(10, 10) == "numpy"
        monkeypatch.undo()
        monkeypatch.setattr(native_mod, "load", lambda: None)  # undone above
        monkeypatch.setattr(kernels_mod, "SCALAR_KERNEL_MAX_M", 5)
        assert auto.pick(10, 10) == "numpy"

    def test_calibrated_band_table(self):
        auto = _backend("auto")
        try:
            auto.install_calibration(
                [(64, "scalar"), (512, "numpy")], max_m=1000, default="numpy")
            assert auto.calibrated
            assert auto.pick(32, 10) == "scalar"
            assert auto.pick(128, 10) == "numpy"
            assert auto.pick(32, 2000) == "numpy"   # m-cap overrides bands
            assert auto.pick(9999, 10) == "numpy"   # beyond the ladder
            assert auto.resolved_name(32, 10) == "auto:scalar"
            # calibrated tables ignore the legacy globals entirely
            saved = kernels_mod.SCALAR_KERNEL_MAX_N
            try:
                kernels_mod.set_scalar_cutoffs(0)
                assert auto.pick(32, 10) == "scalar"
            finally:
                kernels_mod.set_scalar_cutoffs(saved)
        finally:
            auto.clear_calibration()
        assert not auto.calibrated

    def test_install_rejects_bad_names(self):
        auto = AutoBackend()
        with pytest.raises(ValueError, match="unknown kernels"):
            auto.install_calibration([(64, "cuda")], max_m=10)
        with pytest.raises(ValueError, match="cannot nest"):
            auto.install_calibration([(64, "auto")], max_m=10)
        with pytest.raises(ValueError, match="unknown kernels"):
            auto.install_calibration([(64, "scalar")], max_m=10, default="gpu")


# --------------------------------------------------------------------- #
# stale-binding regression: switches after import steer branching
# --------------------------------------------------------------------- #
class TestStaleBindingRegression:
    def _spy_paths(self, monkeypatch):
        calls = []
        real_scalar = branching._expand_children_scalar
        real_general = branching._expand_children_general

        def spy_scalar(*a, **k):
            calls.append("scalar")
            return real_scalar(*a, **k)

        def spy_general(*a, **k):
            calls.append("general")
            return real_general(*a, **k)

        monkeypatch.setattr(branching, "_expand_children_scalar", spy_scalar)
        monkeypatch.setattr(branching, "_expand_children_general", spy_general)
        return calls

    def _branch_once(self, g):
        ws = Workspace.for_graph(g)
        parent = fresh_state(g)
        form = MVCFormulation(BestBound(size=g.n + 1))
        make_kernels("numpy").cascade(g, parent, form, ws)
        expand_children(g, parent.copy(), max_degree_pivot(parent), ws)

    def test_cutoff_switch_after_import_flips_the_path(self, monkeypatch, no_native):
        """The historical hazard: branching binding a cutoff at import
        time, so set_scalar_cutoffs() after import changed nothing.  The
        dispatcher reads the live globals at call time."""
        g = gnp(40, 0.15, seed=5)
        calls = self._spy_paths(monkeypatch)
        saved = (kernels_mod.SCALAR_KERNEL_MAX_N, kernels_mod.SCALAR_KERNEL_MAX_M)
        try:
            kernels_mod.set_scalar_cutoffs(4096, 1 << 20)
            self._branch_once(g)
            assert calls[-1] == "scalar"
            kernels_mod.set_scalar_cutoffs(0, 0)  # the switch, post-import
            self._branch_once(g)
            assert calls[-1] == "general"
        finally:
            kernels_mod.set_scalar_cutoffs(*saved)

    def test_backend_switch_after_import_flips_the_path(self, monkeypatch, no_native):
        """Installing a calibration (or forcing a backend) after import
        must steer the very next branch step."""
        g = gnp(40, 0.15, seed=5)
        calls = self._spy_paths(monkeypatch)
        auto = _backend("auto")
        saved = (kernels_mod.SCALAR_KERNEL_MAX_N, kernels_mod.SCALAR_KERNEL_MAX_M)
        try:
            kernels_mod.set_scalar_cutoffs(4096, 1 << 20)
            self._branch_once(g)
            assert calls[-1] == "scalar"
            # a calibrated band table overrides the (scalar-favouring) globals
            auto.install_calibration([(1, "scalar")], max_m=1 << 20, default="numpy")
            self._branch_once(g)
            assert calls[-1] == "general"
        finally:
            auto.clear_calibration()
            kernels_mod.set_scalar_cutoffs(*saved)


# --------------------------------------------------------------------- #
# CALIBRATION v2 artifact hygiene
# --------------------------------------------------------------------- #
class TestCalibrationV2:
    def _payload(self):
        from repro.analysis.microbench import calibrate_kernels

        return calibrate_kernels(repeats=1, n_ladder=(24, 48),
                                 m_ladder=(96,), apply=False)

    def test_validate_calibration_accepts_real_payload(self):
        from repro.analysis.microbench import validate_calibration

        validate_calibration(self._payload())  # must not raise

    def test_validate_calibration_rejects_drift(self):
        from repro.analysis.microbench import validate_calibration

        good = self._payload()
        bad_variants = []
        b = dict(good); b["schema_version"] = 1; bad_variants.append(b)
        b = dict(good); b["kind"] = "nope"; bad_variants.append(b)
        b = dict(good); b["bands"] = []; bad_variants.append(b)
        b = dict(good); b["bands"] = [{"max_n": 64, "backend": "auto"}]; bad_variants.append(b)
        b = dict(good)
        b["bands"] = [{"max_n": 64, "backend": "scalar"},
                      {"max_n": 32, "backend": "numpy"}]  # not increasing
        bad_variants.append(b)
        b = dict(good); b["default_backend"] = "gpu"; bad_variants.append(b)
        b = dict(good); b["backends_measured"] = ["scalar", "gpu"]; bad_variants.append(b)
        b = dict(good); b.pop("samples"); bad_variants.append(b)
        for bad in bad_variants:
            with pytest.raises(ValueError):
                validate_calibration(bad)

    def test_v1_artifact_refused_loudly(self, tmp_path):
        from repro.analysis.microbench import load_kernel_calibration

        v1 = {
            "kind": "repro-vc-scalar-calibration",
            "schema_version": 1,
            "quick": False,
            "scalar_kernel_max_n": 2048,
            "scalar_kernel_max_m": 65536,
        }
        path = tmp_path / "CALIBRATION.json"
        path.write_text(json.dumps(v1))
        with pytest.raises(ValueError, match="schema-v1"):
            load_kernel_calibration(str(path))
        with pytest.raises(ValueError, match="regenerate"):
            load_kernel_calibration(str(path))

    def test_roundtrip_installs_and_clears_band_table(self, tmp_path):
        from repro.analysis.microbench import load_kernel_calibration, write_artifact

        auto = _backend("auto")
        payload = self._payload()
        path = tmp_path / "CALIBRATION.json"
        write_artifact(payload, str(path))
        saved = (kernels_mod.SCALAR_KERNEL_MAX_N, kernels_mod.SCALAR_KERNEL_MAX_M,
                 kernels_mod.BRANCH_BATCH_MIN_LIVE)
        try:
            load_kernel_calibration(str(path))
            assert auto.calibrated
            assert auto.pick(1, 1) in CONCRETE
        finally:
            kernels_mod.set_scalar_cutoffs(saved[0], saved[1])
            kernels_mod.set_branch_batch_cutoff(saved[2])
            auto.clear_calibration()

    def test_bench_provenance_records_backends(self):
        from repro.analysis.microbench import run_microbench

        payload = run_microbench(repeats=1, target_s=1e-3, kernels="scalar")
        prov = payload["provenance"]["kernel_backends"]
        assert prov  # at least the cascade/solver/greedy cases are stamped
        assert all(v == "scalar" for v in prov.values())
        payload = run_microbench(repeats=1, target_s=1e-3)  # default: auto
        prov = payload["provenance"]["kernel_backends"]
        assert all(v.startswith("auto:") for v in prov.values())


# --------------------------------------------------------------------- #
# one-line errors at the user surfaces: CLI and experiment specs
# --------------------------------------------------------------------- #
class TestUserSurfaces:
    def test_solve_rejects_unknown_kernels_one_liner(self, capsys):
        from repro.cli import main

        rc = main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                   "--kernels", "cuda"])
        assert rc == 2
        out = capsys.readouterr()
        msg = (out.err or out.out).strip()
        assert "unknown kernels 'cuda'" in msg
        assert "choose from:" in msg
        assert "\n" not in msg

    def test_bench_rejects_unknown_kernels_one_liner(self, capsys, tmp_path):
        from repro.cli import main

        rc = main(["bench", "--repeats", "1", "--out",
                   str(tmp_path / "b.json"), "--kernels", "cuda"])
        assert rc == 2
        out = capsys.readouterr()
        msg = (out.err or out.out).strip()
        assert "unknown kernels 'cuda'" in msg and "choose from:" in msg

    def test_solve_accepts_explicit_backend(self, capsys):
        from repro.cli import main

        assert main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                     "--engine", "sequential", "--kernels", "scalar"]) == 0
        assert "minimum vertex cover size" in capsys.readouterr().out

    def test_spec_validates_kernels_axis(self):
        from repro.experiment.spec import ExperimentSpec, InstanceRef

        def spec(**kw):
            return ExperimentSpec(name="t", scale="tiny",
                                  instances=[InstanceRef(suite="p_hat_300_1")],
                                  engines=("sequential",), **kw)

        spec(kernels="scalar").validate()
        with pytest.raises(ValueError, match="unknown kernels 'cuda'"):
            spec(kernels="cuda").validate()

    def test_spec_kernels_roundtrips_and_stays_fingerprint_neutral(self):
        from repro.experiment.spec import ExperimentSpec, InstanceRef

        base = dict(name="t", scale="tiny",
                    instances=[InstanceRef(suite="p_hat_300_1")],
                    engines=("sequential",))
        with_kernels = ExperimentSpec(kernels="scalar", **base)
        without = ExperimentSpec(**base)
        # round-trip preserves the knob; None is omitted from the dict
        assert ExperimentSpec.from_dict(with_kernels.to_dict()).kernels == "scalar"
        assert "kernels" not in without.to_dict()
        # bit-identical backends: the knob must not invalidate cached cells
        assert with_kernels.cell_config() == without.cell_config()
