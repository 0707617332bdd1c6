"""repro — reproduction of "Parallel Vertex Cover Algorithms on GPUs" (IPDPS 2022).

Public API highlights
---------------------

* :class:`repro.graph.CSRGraph` — immutable CSR graph.
* :func:`repro.core.solve_mvc` / :func:`repro.core.solve_pvc` — one facade
  over the sequential, simulated-GPU (StackOnly / Hybrid / GlobalOnly) and
  real parallel (``distributed``) engines.
* :mod:`repro.sim` — the discrete-event virtual GPU (device specs, launch
  configuration, cost model, broker worklist).
* :mod:`repro.analysis` — the harness regenerating every table and figure
  of the paper's evaluation.
"""

import os as _os

from .core import solve_mvc, solve_pvc
from .graph import CSRGraph

__version__ = "1.0.0"

__all__ = ["CSRGraph", "solve_mvc", "solve_pvc", "__version__"]

# Opt-in: REPRO_CALIBRATION=1 (or =<path>) installs this machine's measured
# kernel-dispatch cutoffs from benchmarks/CALIBRATION.json at import time.
# The emptiness check alone gates the analysis import so the common (unset)
# path never pays it; all value interpretation — on/off spellings, paths,
# the loud refusal of --quick artifacts — lives in one place,
# repro.analysis.microbench.maybe_autoload_calibration.
if _os.environ.get("REPRO_CALIBRATION", "").strip():
    from .analysis.microbench import maybe_autoload_calibration as _autoload

    _autoload()
