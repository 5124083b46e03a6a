"""One BLAS thread per compute phase.

numpy bundles its own OpenBLAS, multithreaded by default.  Two phases run on
one BLAS thread:

- the replica phases of simulate and lemma (harness._parallel_map).  They
  already spread replicas over Python threads, each of which would drive a
  multithreaded BLAS, and LAPACK's symmetric eigensolver returns different
  bits for different BLAS thread counts at n >= 512.
- the residual table of volterra (volterra.residual_table), whose blocks of
  64 time columns are too small for a second BLAS thread to save wall time.

single_blas_thread() sets numpy's copy to one thread for the duration of a
phase, so a phase's outputs depend only on (config, seed), whatever --threads,
the core count or the BLAS default.  The library is found through its
thread-control symbols on the first phase, not at import; without them
(another BLAS) nothing is changed.  The package imports no scipy, so numpy's
copy is the only OpenBLAS a run loads.
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


@functools.cache
def _controls() -> tuple[Callable, Callable] | None:
    """(get_num_threads, set_num_threads) of numpy's bundled OpenBLAS; None where it is not found."""
    numpy_dir = os.path.dirname(importlib.util.find_spec("numpy").origin)
    for path in sorted(glob.glob(os.path.join(numpy_dir, os.pardir, "numpy.libs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def replica_blas_threads() -> int | None:
    """BLAS threads a replica phase or the volterra table runs with; None when no bundled OpenBLAS was found."""
    return PHASE_BLAS_THREADS if _controls() else None


# The thread count is process-wide, so phases running concurrently on several
# Python threads share one pin: the first to enter sets it, the last to leave
# restores the count saved on entry.
_lock = threading.Lock()
_active_phases = 0
_saved_count = 0


@contextlib.contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with numpy's bundled OpenBLAS on one thread, then restore its count."""
    global _active_phases, _saved_count
    get, set_ = _controls() or (None, None)
    with _lock:
        if _active_phases == 0 and set_:
            _saved_count = get()
            set_(PHASE_BLAS_THREADS)
        _active_phases += 1
    try:
        yield
    finally:
        with _lock:
            _active_phases -= 1
            if _active_phases == 0 and set_:
                set_(_saved_count)
