"""Independent answer check: HiGHS MILP optima and a numpy cover checker.

Expected optima never come from the solver under test.  They come from
``scipy.optimize.milp`` (HiGHS) on the textbook edge formulation
``min sum x  s.t.  x_u + x_v >= 1 for every edge, x binary``.  Answers
for the ladders are stored in ``answers.json`` next to this file, keyed
by ladder id and guarded by the base graph's CSR checksum.  An instance
missing there (or whose generator output changed) is solved once, before
any timing starts, and cached under ``.perfbench_cache/`` in the checkout.

Regenerate the stored answers (a few minutes; ``phat_complement`` rungs
take ~10 s each in HiGHS)::

    PYTHONPATH=src python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
STORED_ANSWERS = HERE / "answers.json"


def milp_optimum(n: int, u: np.ndarray, v: np.ndarray) -> int:
    """Minimum vertex cover size of the graph with edges ``(u[i], v[i])``."""
    if u.size == 0:
        return 0
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    m = u.size
    rows = np.repeat(np.arange(m), 2)
    cols = np.stack([u, v], axis=1).ravel()
    a = csr_matrix((np.ones(2 * m), (rows, cols)), shape=(m, n))
    res = milp(np.ones(n), constraints=LinearConstraint(a, lb=1, ub=np.inf),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    return int(round(res.fun))


def check_answer(req, result) -> Optional[str]:
    """``None`` if ``result`` answers ``req`` correctly, else the reason.

    MVC: the cover covers every edge and has exactly the oracle size.
    PVC: the decision matches ``k >= OPT``; a yes carries a cover of at
    most ``k`` vertices that covers every edge.
    """
    if getattr(result, "timed_out", False):
        return "timed out"
    if req.k is None:
        if result.optimum != req.optimum:
            return f"optimum {result.optimum} != oracle {req.optimum}"
        return _cover_error(req, result.cover, req.optimum, exact=True)
    if result.feasible is not req.feasible:
        return (f"decision {result.feasible} for k={req.k} != oracle "
                f"{req.feasible} (OPT={req.optimum})")
    if req.feasible:
        return _cover_error(req, result.cover, req.k, exact=False)
    return None


def _cover_error(req, cover, size: int, *, exact: bool) -> Optional[str]:
    if cover is None:
        return "no cover returned"
    cover = np.asarray(cover)
    if cover.ndim != 1 or (cover.size and not np.issubdtype(cover.dtype, np.integer)):
        return "cover is not a 1-D integer array"
    n = req.graph.n
    if cover.size and (cover.min() < 0 or cover.max() >= n):
        return "cover names a vertex outside the graph"
    mask = np.zeros(n, dtype=bool)
    mask[cover] = True
    if int(mask.sum()) != cover.size:
        return "cover repeats a vertex"
    if (exact and cover.size != size) or cover.size > size:
        return f"cover has {cover.size} vertices, expected {'' if exact else '<= '}{size}"
    u, v = req.edges
    if not bool(np.all(mask[u] | mask[v])):
        return "cover misses an edge"
    return None


class AnswerBook:
    """Oracle optima by ladder id: stored file, then checkout cache, then HiGHS."""

    def __init__(self, cache_path: Path):
        self.cache_path = cache_path
        self.stored = _load(STORED_ANSWERS)
        self.cached = _load(cache_path)
        self.oracle_s = 0.0  # HiGHS seconds spent in this process

    def optimum(self, rid: str, graph) -> int:
        from workloads import csr_checksum, edge_arrays

        key = csr_checksum(graph)
        for book in (self.stored, self.cached):
            row = book.get(rid)
            if row is not None and row["csr_sha256"] == key:
                return int(row["optimum"])
        t0 = time.perf_counter()
        opt = milp_optimum(graph.n, *edge_arrays(graph))
        self.oracle_s += time.perf_counter() - t0
        self.cached[rid] = _row(graph, key, opt)
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.cached, indent=1, sort_keys=True))
        tmp.replace(self.cache_path)
        return opt


def _row(graph, key: str, opt: int) -> Dict[str, Any]:
    return {"n": graph.n, "m": graph.m, "csr_sha256": key, "optimum": opt,
            "oracle": "scipy.optimize.milp (HiGHS)"}


def _load(path: Path) -> Dict[str, Any]:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def write_stored_answers() -> None:
    """Solve every ladder rung (full and tiny) with HiGHS into ``answers.json``."""
    from workloads import (LADDERS, TINY_LADDERS, build_rung, csr_checksum,
                           edge_arrays, rung_id)

    book: Dict[str, Any] = {}
    for ladder in list(LADDERS.values()) + list(TINY_LADDERS.values()):
        for rung in ladder:
            rid = rung_id(rung)
            if rid in book:
                continue
            graph = build_rung(rung)
            t0 = time.perf_counter()
            opt = milp_optimum(graph.n, *edge_arrays(graph))
            print(f"{rid}: OPT={opt} ({time.perf_counter() - t0:.1f}s)", flush=True)
            book[rid] = _row(graph, csr_checksum(graph), opt)
    STORED_ANSWERS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(HERE.parent / "src"))
    write_stored_answers()
