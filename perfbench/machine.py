"""What the numbers were measured on, and the GEMM rate they are compared to."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

GEMM_ROWS = 768   # one row slab of the engine's default tile
GEMM_REPS = 5


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS is configured to use, or None if unknown.

    Read from the library numpy already loaded; the benchmark never sets it.
    """
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def nproc() -> int:
    """CPUs this process may run on, as the `nproc` command counts them."""
    return len(os.sched_getaffinity(0))


def record(workers: int) -> dict:
    """nproc, Python, numpy, the BLAS build and threads, and the worker count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy without the dict form of show_config
        blas = {}
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": workers,
    }


def gemm_gflops(rows: np.ndarray, dtype) -> float:
    """GFLOP/s of one GEMM_ROWS x N x d tile product in `dtype`, median of GEMM_REPS."""
    b = np.ascontiguousarray(rows, dtype=dtype)
    a = np.ascontiguousarray(b[:GEMM_ROWS])
    times = []
    for _ in range(GEMM_REPS):
        t0 = time.perf_counter()
        out = a @ b.T
        times.append(time.perf_counter() - t0)
    del out
    return 2.0 * a.shape[0] * b.shape[0] * b.shape[1] / statistics.median(times) / 1e9
