#!/usr/bin/env python3
"""End-to-end solve benchmark: one closed-loop client over the solve facade.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mvc-seq --seed 1 --seconds 20 --trace 0

One client, one request in flight: the next request is sent only after
the previous answer has been checked against the HiGHS oracle
(``oracle.py``).  A run replays its workload's request stream in whole
*passes* until ``--seconds`` have elapsed (at least three passes), so
every run measures the same request mix.  ``cache-stream`` starts every
pass on a fresh, empty store.  A request's latency is its median over
the run's passes; ``solve_s.p50``/``.p90`` rank those by nearest rank.

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` spends half of ``--seconds`` on untraced passes, then
replays as many passes traced (spans from ``tracer.py``).  It prints the
per-layer metrics of the traced passes -- per pass, where a metric is a
count or a time -- and ``trace.overhead_frac``, the traced pass time
over the untraced one minus one.  It also checks that tracing changed no
answer and, on the sequential workloads, no node count.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  Spans and a
provenance manifest go to ``.perfbench_out/<workload>/`` in the checkout.

Class latencies (``pvc_yes_s.p50``, ``pvc_no_s.p50``, ``hit_s.p50``,
``miss_s.p50``) cover the requests of that class; a workload without
such requests (e.g. no PVC queries on ``mvc-seq``) reports its overall
``solve_s.p50`` under that name, so every workload prints every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
ANSWER_CACHE = ROOT / ".perfbench_cache" / "answers.json"

MIN_PASSES = 3
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_s.p50": "s",
    "solve_s.p90": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "pvc_yes_s.p50": "s",
    "pvc_no_s.p50": "s",
    "hit_s.p50": "s",
    "miss_s.p50": "s",
}

# Which end-to-end metric each layer should move, and where:
#   graph.*     -> setup_s, every workload.
#   kernels.*   -> solves_per_s, solve_s.* on mvc-seq; miss_s.p50 on
#                  cache-stream; little on pvc-bound; nothing in hit_s.p50.
#   bounds.*    -> pvc_no_s.p50, solve_s.* on pvc-bound (the only workload
#                  that wraps its bound; mvc-seq keeps the greedy fast path).
#   frontier.*  -> peak_rss_mb, solve_s.* on mvc-seq; pvc_yes_s.p50 on pvc-bound.
#   search.*    -> solves_per_s on mvc-seq (nodes repeat exactly there).
#   net.*       -> solve_s.p50, solves_per_s on mvc-dist; nothing elsewhere.
#   cache.*     -> hit_s.p50, miss_s.p50 on cache-stream; nothing elsewhere.
# Layers a workload does not reach report 0.
PER_LAYER = {
    "graph.build_s": "s",
    "kernels.reduce.calls": "count",
    "kernels.reduce.self_s": "s",
    "kernels.expand.calls": "count",
    "kernels.expand.self_s": "s",
    "kernels.greedy.self_s": "s",
    "bounds.evals": "count",
    "bounds.self_s": "s",
    "bounds.prune_ratio": "frac",
    "frontier.pushes": "count",
    "frontier.max_len": "count",
    "frontier.self_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.loop_self_s": "s",
    "net.fixed_overhead_s": "s",
    "net.messages": "count",
    "net.wire_bytes": "B",
    "net.leases": "count",
    "net.subtrees_per_lease": "count",
    "net.idle_s": "s",
    "net.worker_imbalance": "ratio",
    "net.nodes": "count",
    "cache.key_s": "s",
    "cache.lookup_s": "s",
    "cache.load_s": "s",
    "cache.put_s": "s",
    "cache.hit_ratio": "frac",
    "cache.store_bytes": "B",
    "trace.overhead_frac": "frac",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("mvc-seq", "pvc-bound", "mvc-dist", "cache-stream"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny ladders (self-tests): same streams, sub-second passes")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the ready timestamp and exit "
                         "(how setup_s is sampled)")
    return ap.parse_args(argv)


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #
def setup(args):
    """Generate inputs, look up oracle answers, warm the solve path."""
    import oracle
    import workloads

    book = oracle.AnswerBook(ANSWER_CACHE)
    wl = workloads.build(args.workload, args.seed, book.optimum, tiny=args.tiny,
                         clock=time.perf_counter)
    _warm_up(wl)
    return wl, book.oracle_s


def _warm_up(wl) -> None:
    """One small solve through the workload's solve path (lazy imports).

    ``mvc-dist`` warms up sequentially: its engine spawns workers per
    solve, so a distributed warm-up would be a request, not set-up.
    """
    from repro import solve_mvc
    from repro.cache import SolveCache
    from repro.graph.generators import gnp

    options = dict(wl.options)
    if options.get("engine") == "distributed":
        import repro.net.distributed  # noqa: F401

        options = {}
    with _pass_store(wl.name) as root:
        if root is not None:
            options["cache"] = SolveCache(root)
        solve_mvc(gnp(40, 0.1, seed=0), **options)


@contextlib.contextmanager
def _pass_store(workload: str):
    """A fresh, empty cache root for one ``cache-stream`` pass (else ``None``)."""
    if workload != "cache-stream":
        yield None
        return
    OUT.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="store-", dir=OUT))
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def measure_setup_s(args) -> float:
    """Median over fresh processes of process start -> first request ready.

    Oracle time (only spent when an answer is not stored) is excluded.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup-only run failed:\n{proc.stderr}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(info["ready"] - t0 - info["oracle_s"])
    return statistics.median(samples)


# --------------------------------------------------------------------- #
# the closed loop
# --------------------------------------------------------------------- #
def _nodes_of(result) -> int:
    nodes = getattr(result, "nodes_visited", None)
    if nodes is None:
        nodes = result.stats.nodes_visited
    return int(nodes)


def run_pass(wl, tracer=None, kernels=None) -> Dict[str, Any]:
    """Send every request of the stream once; check each answer before the next."""
    from repro.cache import SolveCache
    from tracer import TracedStore, traced_canonical_form, traced_options

    records = []
    cache_stats: Dict[str, float] = {}
    with _pass_store(wl.name) as root:
        options = dict(wl.options)
        cache = None
        if root is not None:
            cache = SolveCache(root)
            if tracer is not None:
                cache.store = TracedStore(root, tracer)
            options["cache"] = cache
        keying = (traced_canonical_form(tracer)
                  if tracer is not None and cache is not None
                  else contextlib.nullcontext())
        with keying:
            t_pass = time.perf_counter()
            for idx, req in enumerate(wl.requests):
                opts = traced_options(wl.name, options, req.graph, tracer, kernels)
                records.append(_one_request(wl, req, idx, opts, tracer))
            wall = time.perf_counter() - t_pass
        if cache is not None:
            s = cache.session
            hits = s["hits_exact"] + s["hits_iso"] + s["hits_derived"]
            cache_stats = {"hit_ratio": hits / max(1, hits + s["misses"]),
                           "store_bytes": float(cache.store.stats()["bytes"])}
    return {"wall": wall, "records": records, "cache": cache_stats}


def _one_request(wl, req, idx: int, opts: Dict[str, Any], tracer) -> Dict[str, Any]:
    from oracle import check_answer
    from repro import solve_mvc, solve_pvc

    span = None
    if tracer is not None:
        tracer.request = idx
        span = tracer.open("solve")
    result = None
    error: Optional[str] = None
    t0 = time.perf_counter()
    try:
        if req.k is None:
            result = solve_mvc(req.graph, **opts)
        else:
            result = solve_pvc(req.graph, req.k, **opts)
    except Exception as exc:  # a failed request is counted, the loop goes on
        traceback.print_exc(file=sys.stderr)
        error = f"exception: {exc!r}"
    finally:
        latency = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
    if result is not None:
        error = check_answer(req, result)
    if error is None and latency > wl.deadline_s:
        error = f"missed the {wl.deadline_s:g}s deadline ({latency:.2f}s)"
    if error is not None:
        print(f"FAILED {req.label}: {error}", file=sys.stderr)
    rec = {"label": req.label, "latency": latency, "error": error,
           "pvc": req.pvc, "cache": req.cache,
           "answer": None if result is None else (result.optimum, result.feasible),
           "nodes": None if result is None else _nodes_of(result)}
    comms = getattr(result, "comms", None)
    if isinstance(comms, dict):
        rec["comms"] = comms.get("totals", {})
        rec["per_worker_nodes"] = list(getattr(result, "per_worker_nodes", []) or [])
    return rec


def run_passes(wl, seconds: float, n_passes: Optional[int] = None,
               tracer=None, kernels=None) -> List[Dict[str, Any]]:
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(wl, tracer, kernels))
        if n_passes is not None:
            if len(passes) >= n_passes:
                return passes
        elif len(passes) >= MIN_PASSES and time.perf_counter() - t0 >= seconds:
            return passes


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def _nearest_rank(values: List[float], q: float) -> float:
    """The ``q``-th percentile by nearest rank: always one of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(passes, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    # Every pass sends the same stream, so request i has one latency per
    # pass; its median over the passes is the latency the percentiles rank.
    stream = passes[0]["records"]
    latency = [statistics.median(p["records"][i]["latency"] for p in passes)
               for i in range(len(stream))]
    p50 = _nearest_rank(latency, 50)

    def class_p50(key: str, value: str) -> float:
        sel = [lat for lat, r in zip(latency, stream) if r[key] == value]
        return _nearest_rank(sel, 50) if sel else p50

    records = [r for p in passes for r in p["records"]]
    return {
        "setup_s": setup_s,
        "solves_per_s": statistics.median(
            sum(r["error"] is None for r in p["records"]) / p["wall"] for p in passes),
        "solve_s.p50": p50,
        "solve_s.p90": _nearest_rank(latency, 90),
        "ok_frac": sum(r["error"] is None for r in records) / len(records),
        "peak_rss_mb": peak_rss_mb,
        "pvc_yes_s.p50": class_p50("pvc", "yes"),
        "pvc_no_s.p50": class_p50("pvc", "no"),
        "hit_s.p50": class_p50("cache", "hit"),
        "miss_s.p50": class_p50("cache", "miss"),
    }


def per_layer(wl, untraced, traced, tracer, fixed_overhead_s: float) -> Dict[str, float]:
    s = tracer.summary()
    n = len(traced)
    zero = {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}

    def get(name: str) -> Dict[str, float]:
        return s.get(name, zero)

    records = [r for p in traced for r in p["records"]]
    nodes = sum(r["nodes"] or 0 for r in records)
    solve = get("solve")
    evals = get("bounds.prune")["calls"]
    comms = [r["comms"] for r in records if "comms" in r]

    def comm(key: str) -> float:
        return sum(float(c.get(key, 0)) for c in comms) / n

    imbalance = [max(r["per_worker_nodes"]) / statistics.mean(r["per_worker_nodes"])
                 for r in records if r.get("per_worker_nodes") and sum(r["per_worker_nodes"])]
    leases = comm("leases")
    cache = [p["cache"] for p in traced if p["cache"]]
    return {
        "graph.build_s": wl.build_s,
        "kernels.reduce.calls": get("kernels.reduce")["calls"] / n,
        "kernels.reduce.self_s": get("kernels.reduce")["self_s"] / n,
        "kernels.expand.calls": get("kernels.expand")["calls"] / n,
        "kernels.expand.self_s": get("kernels.expand")["self_s"] / n,
        "kernels.greedy.self_s": get("kernels.greedy")["self_s"] / n,
        "bounds.evals": evals / n,
        "bounds.self_s": get("bounds.prune")["self_s"] / n,
        "bounds.prune_ratio": tracer.counts["bounds.pruned"] / evals if evals else 0.0,
        "frontier.pushes": get("frontier.push")["calls"] / n,
        "frontier.max_len": float(tracer.counts["frontier.max_len"]),
        "frontier.self_s": (get("frontier.push")["self_s"]
                            + get("frontier.pop")["self_s"]) / n,
        "search.nodes": nodes / n,
        "search.nodes_per_s": nodes / solve["total_s"] if solve["total_s"] else 0.0,
        "search.loop_self_s": solve["self_s"] / n,
        "net.fixed_overhead_s": fixed_overhead_s,
        "net.messages": comm("messages"),
        "net.wire_bytes": comm("wire_sent") + comm("wire_received"),
        "net.leases": leases,
        "net.subtrees_per_lease": comm("subtrees") / leases if leases else 0.0,
        "net.idle_s": comm("idle_s"),
        "net.worker_imbalance": statistics.mean(imbalance) if imbalance else 0.0,
        "net.nodes": nodes / n if comms else 0.0,
        "cache.key_s": get("cache.key")["total_s"] / n,
        "cache.lookup_s": get("cache.lookup")["total_s"] / n,
        "cache.load_s": get("cache.load")["total_s"] / n,
        "cache.put_s": get("cache.put")["total_s"] / n,
        "cache.hit_ratio": statistics.mean(c["hit_ratio"] for c in cache) if cache else 0.0,
        "cache.store_bytes": statistics.median(c["store_bytes"] for c in cache) if cache else 0.0,
        "trace.overhead_frac": (statistics.median(p["wall"] for p in traced)
                                / statistics.median(p["wall"] for p in untraced) - 1.0),
    }


def trace_mismatches(wl, untraced, traced) -> List[str]:
    """Requests whose traced answer (or sequential node count) differs."""
    exact_nodes = wl.name != "mvc-dist"
    out = []
    for p, (a, b) in enumerate(zip(untraced, traced)):
        for ra, rb in zip(a["records"], b["records"]):
            if ra["answer"] != rb["answer"]:
                out.append(f"pass {p} {ra['label']}: answer {ra['answer']} "
                           f"untraced vs {rb['answer']} traced")
            elif exact_nodes and ra["nodes"] != rb["nodes"]:
                out.append(f"pass {p} {ra['label']}: {ra['nodes']} nodes "
                           f"untraced vs {rb['nodes']} traced")
    return out


def net_fixed_overhead_s() -> float:
    """Median time to solve a one-edge graph through the distributed engine."""
    from repro import CSRGraph, solve_mvc

    graph = CSRGraph.from_edges(2, [(0, 1)])
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        solve_mvc(graph, engine="distributed", n_workers=2, hosts=0)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# --------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------- #
def provenance(args, wl, run_id: str) -> Dict[str, Any]:
    """Repro footer: code identity, environment and every input's checksum."""
    import numpy as np
    from importlib import metadata

    from repro.core.kernel_backends import resolve_kernels

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    auto = resolve_kernels(None)
    instances = [dict(row, kernels=auto.resolved_name(row["n"], row["m"]))
                 for row in wl.instances]
    return {"git_sha": sha, "src_sha256": src.hexdigest()[:16], "run_id": run_id,
            "workload": args.workload, "seed": args.seed, "tiny": args.tiny,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version,
            "instances": instances}


# --------------------------------------------------------------------- #
# process hygiene
# --------------------------------------------------------------------- #
def _child_pids() -> List[int]:
    """Pids whose parent is this process (Linux ``/proc``; else none)."""
    me, out = os.getpid(), []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            # ``pid (comm) state ppid ...``: comm may hold spaces, so split after ')'.
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            out.append(int(entry.parent.name))
    return out


def stop_children(grace_s: float = 2.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The distributed engine's shared-memory plane starts multiprocessing's
    ``resource_tracker``, which otherwise outlives the run by a moment;
    closing its pipe lets it clean up and exit, and it is then reaped.
    Anything else still alive gets SIGTERM, then SIGKILL after ``grace_s``.
    """
    from multiprocessing import active_children, resource_tracker

    # Forked workers inherit the tracker's pipe, so they go first: the
    # tracker only sees end-of-file once every holder has exited.
    for proc in active_children():
        proc.terminate()
        proc.join(grace_s)
        if proc.is_alive():
            proc.kill()
            proc.join()
    resource_tracker._resource_tracker._stop()
    pids = _child_pids()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)
        deadline = time.monotonic() + grace_s
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                with contextlib.suppress(ChildProcessError):
                    if os.waitpid(pid, os.WNOHANG)[0] == 0:
                        continue
                pids.remove(pid)
            time.sleep(0.01)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


# --------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Measure the shipped defaults: no cache, calibration, faults or telemetry.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    src = (ROOT / "src").resolve()
    try:
        import repro

        found: object = Path(repro.__file__).resolve()
    except ImportError as exc:
        found = exc
    if not (isinstance(found, Path) and found.is_relative_to(src)):
        print(f"perfbench: no repro package under {src} ({found})", file=sys.stderr)
        return 2

    wl, oracle_s = setup(args)
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic(), "oracle_s": oracle_s}))
        return 0

    run_id = f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:8]}"
    # A traced run splits its time: untraced passes, then as many traced ones.
    untraced = run_passes(wl, args.seconds / 2 if args.trace else args.seconds)
    rss = peak_rss_mb()
    passes = untraced
    mismatches: List[str] = []
    if args.trace:
        from repro.core.kernel_backends import resolve_kernels
        from tracer import TracedKernels, Tracer

        tracer = Tracer()
        kernels = TracedKernels(resolve_kernels(None), tracer)
        traced = run_passes(wl, args.seconds, n_passes=len(untraced),
                            tracer=tracer, kernels=kernels)
        passes = untraced + traced
        mismatches = trace_mismatches(wl, untraced, traced)
        fixed = net_fixed_overhead_s() if args.workload == "mvc-dist" else 0.0
        metrics = per_layer(wl, untraced, traced, tracer, fixed)
        units = PER_LAYER
        tracer.write(OUT / args.workload / "spans.npz")
    else:
        metrics = end_to_end(untraced, measure_setup_s(args), rss)
        units = END_TO_END

    records = [r for p in passes for r in p["records"]]
    failed = sum(r["error"] is not None for r in records)
    for line in mismatches:
        print(f"TRACE MISMATCH {line}", file=sys.stderr)
    footer = provenance(args, wl, run_id)
    result = {"correct": failed == 0 and not mismatches, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(
        {"provenance": footer, "result": result,
         "passes": [{"wall": p["wall"], "requests": len(p["records"])}
                    for p in passes]}, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} x "
          f"{len(wl.requests)} requests  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:24s} {metrics[name]:.6g} {unit}")
    print(f"# run_id {run_id}  git {footer['git_sha']}  src {footer['src_sha256']}  "
          f"seed {args.seed}  nproc {footer['nproc']}")
    print(f"# python {footer['python']}  numpy {footer['numpy']}  "
          f"scipy {footer['scipy']}")
    for row in footer["instances"]:
        print(f"# {row['label']}  n={row['n']} m={row['m']}  "
              f"csr {row['csr_sha256']}  OPT {row['optimum']}  {row['kernels']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
