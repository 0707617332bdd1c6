"""Self-tests of the benchmark: tiny workloads, checker, oracle, tracer, schema.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(HERE), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from repro import CSRGraph, solve_mvc, solve_pvc  # noqa: E402
from repro.cache import SolveCache  # noqa: E402
from repro.core.kernel_backends import resolve_kernels  # noqa: E402
from repro.graph.generators import (  # noqa: E402
    complete_bipartite, complete_graph, cycle_graph, gnp, petersen)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_prints_a_valid_result(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert np.isfinite(entry["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def _session_members(sid: int) -> list:
    members = []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members.append(int(entry.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_distributed_run_leaves_no_process_behind(trace):
    # The engine's shared-memory plane starts a resource tracker; the run
    # must stop it (and every worker) before it exits.
    with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", "mvc-dist",
             "--seed", "2", "--seconds", "0", "--trace", str(trace), "--tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True) as proc:
        _, stderr = proc.communicate(timeout=170)
    assert proc.returncode == 0, stderr
    assert _session_members(proc.pid) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "mvc-seq", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# --------------------------------------------------------------------- #
# inputs and answers
# --------------------------------------------------------------------- #
def test_same_seed_same_inputs_other_seed_other_labels():
    def build(seed):
        book = oracle.AnswerBook(ROOT / ".perfbench_cache" / "answers.json")
        return workloads.build("cache-stream", seed, book.optimum, tiny=True,
                               clock=lambda: 0.0)

    a, b, c = build(5), build(5), build(6)
    assert a.instances == b.instances
    assert [r["csr_sha256"] for r in a.instances] != [r["csr_sha256"] for r in c.instances]
    assert sorted(r.optimum for r in a.requests if r.cache == "miss") == \
        sorted(r.optimum for r in c.requests if r.cache == "miss")


@pytest.mark.parametrize("graph, expected", [
    (cycle_graph(7), 4), (complete_graph(5), 4), (petersen(), 6),
    (complete_bipartite(3, 4), 3), (CSRGraph.empty(4), 0),
])
def test_milp_oracle_matches_known_optima(graph, expected):
    assert oracle.milp_optimum(graph.n, *workloads.edge_arrays(graph)) == expected


def test_stored_answers_match_the_oracle_on_tiny_rungs():
    for rung in {r for ladder in workloads.TINY_LADDERS.values() for r in ladder}:
        graph = workloads.build_rung(rung)
        row = json.loads(oracle.STORED_ANSWERS.read_text())[workloads.rung_id(rung)]
        assert row["csr_sha256"] == workloads.csr_checksum(graph)
        assert row["optimum"] == oracle.milp_optimum(graph.n, *workloads.edge_arrays(graph))


def _request(graph):
    opt = oracle.milp_optimum(graph.n, *workloads.edge_arrays(graph))
    return workloads.Request("t", graph, opt, edges=workloads.edge_arrays(graph))


def test_checker_accepts_the_solver_and_rejects_corrupted_covers():
    graph = gnp(40, 0.12, seed=7)
    req = _request(graph)
    good = solve_mvc(graph)
    assert oracle.check_answer(req, good) is None
    cover = np.asarray(good.cover)

    def bad(c, optimum=req.optimum):
        return oracle.check_answer(
            req, SimpleNamespace(optimum=optimum, cover=np.asarray(c), timed_out=False))

    assert "misses an edge" in bad(np.append(cover[1:], np.setdiff1d(
        np.arange(graph.n), cover)[0]))
    assert bad(cover[1:], optimum=req.optimum - 1) is not None
    assert "repeats" in bad(np.append(cover[1:], cover[2]))
    assert "outside" in bad(np.append(cover[1:], graph.n))
    assert bad(cover, optimum=req.optimum + 1) is not None
    assert oracle.check_answer(req, SimpleNamespace(
        optimum=req.optimum, cover=None, timed_out=False)) == "no cover returned"


def test_checker_rejects_wrong_pvc_decisions():
    graph = gnp(40, 0.12, seed=7)
    yes = _request(graph)
    yes.k = yes.optimum
    no = _request(graph)
    no.k = no.optimum - 1
    assert oracle.check_answer(yes, solve_pvc(graph, yes.k)) is None
    assert oracle.check_answer(no, solve_pvc(graph, no.k)) is None
    cover = np.asarray(solve_mvc(graph).cover)
    flipped = SimpleNamespace(feasible=True, cover=cover, timed_out=False)
    assert "decision" in oracle.check_answer(no, flipped)
    denied = SimpleNamespace(feasible=False, cover=None, timed_out=False)
    assert "decision" in oracle.check_answer(yes, denied)
    oversized = SimpleNamespace(feasible=True, timed_out=False,
                                cover=np.append(cover, np.setdiff1d(
                                    np.arange(graph.n), cover)[0]))
    assert "expected <=" in oracle.check_answer(yes, oversized)


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #
def test_self_time_is_duration_minus_children():
    t = tr.Tracer()
    outer = t.open("outer")
    inner = t.open("inner")
    t.close(inner)
    t.close(outer)
    t.starts[:] = [0.0, 1.0]
    t.ends[:] = [10.0, 4.0]
    s = t.summary()
    assert s["outer"] == {"calls": 1.0, "total_s": 10.0, "self_s": 7.0}
    assert s["inner"] == {"calls": 1.0, "total_s": 3.0, "self_s": 3.0}
    assert t.parents == [-1, outer]


def test_wrappers_are_transparent(tmp_path):
    graph = gnp(60, 0.1, seed=3)
    t = tr.Tracer()
    kernels = tr.TracedKernels(resolve_kernels(None), t)

    plain = solve_mvc(graph)
    opts = tr.traced_options("mvc-seq", {}, graph, t, kernels)
    assert "bound" not in opts  # NodeStep's GreedyBound fast path stays as shipped
    traced = solve_mvc(graph, **opts)
    assert traced.optimum == plain.optimum
    assert np.array_equal(traced.cover, plain.cover)
    assert traced.stats.nodes_visited == plain.stats.nodes_visited
    assert t.counts["frontier.max_len"] > 0

    k = plain.optimum - 1
    opts = {"bound": "combined"}
    plain_pvc = solve_pvc(graph, k, **opts)
    traced_pvc = solve_pvc(graph, k, **tr.traced_options("pvc-bound", opts, graph, t, kernels))
    assert traced_pvc.feasible is plain_pvc.feasible is False
    assert traced_pvc.stats.nodes_visited == plain_pvc.stats.nodes_visited

    cache = SolveCache(tmp_path / "traced")
    cache.store = tr.TracedStore(tmp_path / "traced", t)
    original = tr.repro_cache.canonical_form
    with tr.traced_canonical_form(t):
        first = solve_mvc(graph, cache=cache)
        again = solve_mvc(graph, cache=cache)
    assert tr.repro_cache.canonical_form is original
    assert first.optimum == again.optimum == plain.optimum
    assert cache.session["hits_exact"] == 1 and cache.session["misses"] == 1

    s = t.summary()
    for name in ("kernels.reduce", "kernels.expand", "kernels.greedy", "bounds.prune",
                 "frontier.push", "frontier.pop", "cache.key", "cache.lookup",
                 "cache.put"):
        assert s[name]["calls"] > 0, name


# --------------------------------------------------------------------- #
# BENCHMARK.json
# --------------------------------------------------------------------- #
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_well_formed():
    b = BENCHMARK
    assert set(b) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert b["command"] == ["python3", "perfbench/run.py"]
    assert b["paths"] == ["perfbench"]
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    assert [w["name"] for w in b["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert len(w["why"]) <= 200
        names.append(w["name"])
    assert [m["name"] for m in b["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in b["per_layer"]] == list(run.PER_LAYER)
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["unit"] == run.END_TO_END[m["name"]]
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["unit"] == run.PER_LAYER[m["name"]]
        assert m["better"] in ("lower", "higher")
    for m in b["end_to_end"] + b["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
