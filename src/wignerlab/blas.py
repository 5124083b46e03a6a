"""One BLAS thread per compute phase.

numpy and scipy each bundle their own OpenBLAS, multithreaded by default.
Three phases run on one BLAS thread:

- the replica phases of simulate and lemma (harness._parallel_map).  They
  already spread replicas over Python threads, and each of those driving a
  multithreaded BLAS oversubscribes the cores.  LAPACK's symmetric
  eigensolver also returns different bits for different BLAS thread counts at
  n >= 512.
- the residual table of volterra (volterra.residual_table).  Its covariance
  residual works on blocks of 64 time columns, too small for a second BLAS
  thread to save wall time; it only adds CPU time.
- the Chebyshev-U coefficients of the limit law (limits._u_coefficients), a
  128 x 128 GEMV whose bits could depend on how BLAS threads split it.

single_blas_thread() sets both bundled copies to one thread for the duration
of a phase, so a phase runs at the speed of the cores and its outputs depend
only on (config, seed), whatever --threads, the core count or the BLAS default.

The libraries are found through their exported thread-control symbols on the
first phase, not at import.  scipy's copy is located through its package spec,
without importing scipy, so a run that never calls scipy never loads it.
Without those symbols (another BLAS, or an OpenBLAS built without the
scipy-openblas prefix) nothing is changed.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib.util
import os
import threading
from typing import Callable, Iterator

PHASE_BLAS_THREADS = 1

# (package, bundled-libraries directory beside it, thread-control symbol stem)
_BUNDLED_OPENBLAS = (
    ("numpy", "numpy.libs", "scipy_openblas_{}_num_threads64_"),
    ("scipy", "scipy.libs", "scipy_openblas_{}_num_threads"),
)


@functools.cache
def _controls() -> tuple[tuple[Callable, Callable], ...]:
    """(get_num_threads, set_num_threads) for each bundled OpenBLAS found."""
    found = []
    for package, libs_dir, stem in _BUNDLED_OPENBLAS:
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        package_dir = os.path.dirname(spec.origin)
        for path in sorted(glob.glob(os.path.join(package_dir, os.pardir, libs_dir, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            get = getattr(lib, stem.format("get"), None)
            set_ = getattr(lib, stem.format("set"), None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found.append((get, set_))
            break
    return tuple(found)


def replica_blas_threads() -> int | None:
    """BLAS threads a replica phase or the volterra table runs with; None when no bundled OpenBLAS was found."""
    return PHASE_BLAS_THREADS if _controls() else None


# The thread count is process-wide, so phases running concurrently on several
# Python threads share one pin: the first to enter sets it, the last to leave
# restores the counts saved on entry.
_lock = threading.Lock()
_active_phases = 0
_saved_counts: list[int] = []


@contextlib.contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with every bundled OpenBLAS on one thread, then restore the counts."""
    global _active_phases
    with _lock:
        if _active_phases == 0:
            _saved_counts[:] = [get() for get, _ in _controls()]
            for _, set_ in _controls():
                set_(PHASE_BLAS_THREADS)
        _active_phases += 1
    try:
        yield
    finally:
        with _lock:
            _active_phases -= 1
            if _active_phases == 0:
                for (_, set_), count in zip(_controls(), _saved_counts):
                    set_(count)
