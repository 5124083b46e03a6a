"""Machine facts printed beside every run's metrics."""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _openblas_threads(package_dir: str, libs_name: str, symbol: str) -> int | None:
    """Thread count reported by a bundled OpenBLAS (read through its export, never set)."""
    for path in glob.glob(os.path.join(package_dir, os.pardir, libs_name, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def facts(replica_threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "numpy_blas_threads": _openblas_threads(
            os.path.dirname(np.__file__), "numpy.libs", "scipy_openblas_get_num_threads64_"),
        "scipy_blas_threads": _openblas_threads(
            os.path.dirname(scipy.__file__), "scipy.libs", "scipy_openblas_get_num_threads"),
        "replica_threads": replica_threads,
    }
