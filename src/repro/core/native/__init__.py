"""Build, cache and load the compiled per-node kernels (``vc_kernels.c``).

:func:`load` compiles the C source once per machine with the local C
compiler (``cc -O2 -shared -fPIC`` plus the Python and NumPy include
directories) into ``$XDG_CACHE_HOME/repro/`` (default ``~/.cache/repro``,
created with mode 0700), then loads it with :mod:`ctypes`.  The shared
object's file name is a content hash of the source, the compile command
and the platform (interpreter and NumPy versions included), so an edited
source, another flag or another interpreter never loads a stale build.
A build is written to a temporary name and ``os.replace``-d into place,
so processes compiling the same hash at the same time each load a
complete file.  Any failure -- no compiler, a compile error, a cache
directory that cannot be written or is not private to this user -- makes
:func:`load` return ``None``; the ``native`` backend is then unavailable
and ``auto`` keeps its interpreted cutoff rule.

Three entry points: ``vc_cascade`` (the reduction cascade to its
fixpoint), ``vc_expand`` (the two-child branch step) and
``vc_lower_bound`` (the non-default bound policies' member list --
greedy, degree prefix, maximal matching -- in one call per prune).

Each :class:`Workspace` (one per worker) carries its own :class:`Scratch`:
the cascade's pending lists, the branch step's touched buffers, the
cached graph pointers and, allocated on the first bound evaluation only,
the bound's n + 1 degree counts and n-byte matched mask; scratch is never
shared between workspaces.

Budget soundness.  The ``native`` backend
(:class:`repro.core.kernel_backends.NativeBackend`) evaluates
``formulation.budget`` once per cascade, at entry, and the C cascade
uses ``budget0 - fires`` for the rest of the fixpoint.  Each budget is
``constant - cover_size`` (``best - 1 - c``, ``k - c``, ``n - c``).  In
process, the constant cannot change while one cascade runs, so
``budget0`` is exact.  A ``distributed`` worker's ``_RemoteMVC`` keeps a
local copy of the incumbent that broadcasts and its own leaves lower
between nodes; it only ever decreases.  So ``budget0`` is never smaller
than the live budget: at worst it is stale-high, which only fires the
high-degree rule less, never wrongly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["SOURCE", "cache_dir", "build", "load", "Scratch", "fail"]

#: The C source compiled by :func:`load`.
SOURCE = Path(__file__).with_name("vc_kernels.c")

_FLAGS = ("-O2", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120.0

_NOT_TRIED = object()
_lib = _NOT_TRIED


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, defaulting to ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _compile_command(src: Path, out: Path) -> list:
    includes = (sysconfig.get_paths()["include"], np.get_include())
    return (["cc", *_FLAGS] + [f"-I{d}" for d in includes]
            + [str(src), "-o", str(out)])


def _library_path(directory: Path) -> Path:
    """Content-addressed file name: source, compile command and platform."""
    h = hashlib.sha256(SOURCE.read_bytes())
    # No platform.platform(): it runs `uname -p` in a subprocess.
    identity = (_compile_command(Path("src.c"), Path("out.so"))
                + [sysconfig.get_platform(), sys.version, np.__version__])
    h.update("\0".join(identity).encode())
    return directory / f"vc_kernels-{h.hexdigest()[:24]}.so"


def _private_dir(directory: Path) -> bool:
    """Create ``directory`` (mode 0700) and check nobody else can write it."""
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = directory.stat()
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def build(directory: Optional[Path] = None) -> Optional[Path]:
    """Compile into the cache unless the content-addressed build exists.

    Returns the shared object's path, or ``None`` on any failure.
    """
    directory = cache_dir() if directory is None else directory
    try:
        if not _private_dir(directory):
            return None
        target = _library_path(directory)
        if target.exists():
            return target
        fd, tmp = tempfile.mkstemp(prefix=target.stem + ".", suffix=".tmp",
                                   dir=directory)
        os.close(fd)
        try:
            proc = subprocess.run(_compile_command(SOURCE, Path(tmp)),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL,
                                  timeout=_COMPILE_TIMEOUT_S)
            if proc.returncode != 0:
                return None
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return target
    except (OSError, subprocess.SubprocessError):
        return None


def _bind(path: Path) -> Optional[ctypes.CDLL]:
    """Load ``path`` and declare every entry point's signature."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    i64, ptr, obj = ctypes.c_int64, ctypes.c_void_p, ctypes.py_object
    lib.vc_cascade.argtypes = [ptr, ptr, obj, i64, obj, i64, i64, ptr, ptr]
    lib.vc_cascade.restype = i64
    lib.vc_expand.argtypes = [ptr, ptr, obj, obj, i64, i64, ptr, ptr, ptr]
    lib.vc_expand.restype = i64
    lib.vc_lower_bound.argtypes = [ptr, ptr, obj, i64, i64, i64, i64, i64,
                                   ptr]
    lib.vc_lower_bound.restype = i64
    lib.vc_probe.argtypes = [obj, i64]
    lib.vc_probe.restype = i64
    # The kernels read arrays through NumPy's accessor macros; make sure
    # the build agrees with the running NumPy before trusting it.
    probe = np.zeros(3, dtype=np.int32)
    if lib.vc_probe(probe, 3) != probe.ctypes.data or lib.vc_probe(
            probe.astype(np.int64), 3) != 0:
        return None
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernels (built on first use), or ``None`` if unavailable.

    The outcome -- library or ``None`` -- is settled once per process.
    """
    global _lib
    if _lib is _NOT_TRIED:
        path = build()
        _lib = None if path is None else _bind(path)
    return _lib


class Scratch:
    """One workspace's native buffers and cached pointers.

    Held in :attr:`repro.graph.degree_array.Workspace.native`; every
    buffer the C side writes lives here, so concurrent workers with their
    own workspaces never share one.
    """

    __slots__ = ("n", "graph", "indptr", "indices", "buf", "buf_ptr",
                 "touched_def", "touched_cont", "def_ptr", "cont_ptr",
                 "out", "out_ptr", "bound_buf", "bound_ptr")

    def __init__(self, n: int) -> None:
        self.n = n
        self.graph = None
        self.indptr = self.indices = 0
        # vc_cascade: pending lists and sweep snapshot (2n each), targets (n)
        self.buf = np.empty(max(7 * n, 1), dtype=np.int64)
        self.buf_ptr = self.buf.ctypes.data
        # vc_expand: a vertex enters the deferred list at most at degrees
        # 2, 1 and 0; the continued list holds pivot neighbours only
        self.touched_def = np.empty(max(3 * n, 1), dtype=np.int64)
        self.touched_cont = np.empty(max(n, 1), dtype=np.int64)
        self.def_ptr = self.touched_def.ctypes.data
        self.cont_ptr = self.touched_cont.ctypes.data
        self.out = np.zeros(6, dtype=np.int64)
        self.out_ptr = self.out.ctypes.data
        # vc_lower_bound: allocated by bound_scratch() on first use
        self.bound_buf = None
        self.bound_ptr = 0

    def bound_scratch(self) -> int:
        """vc_lower_bound's scratch: n + 1 zeroed int64 counts, then an
        n-byte matched mask.  Allocated on the first call, so traversals
        that never evaluate a non-default bound allocate nothing."""
        if self.bound_buf is None:
            self.bound_buf = np.zeros(self.n + 1 + (self.n + 7) // 8,
                                      dtype=np.int64)
            self.bound_ptr = self.bound_buf.ctypes.data
        return self.bound_ptr

    def bind(self, graph) -> None:
        """Cache ``graph``'s CSR pointers (the graph stays referenced)."""
        if (graph.n != self.n or graph.indptr.dtype != np.int64
                or graph.indices.dtype != np.int32
                or not graph.indptr.flags.c_contiguous
                or not graph.indices.flags.c_contiguous):
            raise ValueError("native kernels need a contiguous int64/int32 "
                             f"CSR graph of {self.n} vertices")
        self.graph = graph
        self.indptr = graph.indptr.ctypes.data
        self.indices = graph.indices.ctypes.data


_ERRORS = {-1: "degree array is not a writeable contiguous int32 array of n",
           -2: "dirty hint is not a contiguous int64 array",
           -3: "degree array is not a contiguous int32 array of n, or holds "
               "a degree above n"}


def fail(rc: int) -> None:
    """Raise for a kernel's nonzero return code (returned before any write)."""
    raise ValueError(f"native kernels: {_ERRORS.get(rc, rc)}")
