"""Facts about the machine and libraries a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

#: What the benchmark does not do to the machine, stated with every result.
CONDITIONS = {
    "cpu_pinning": "none",
    "frequency_governor": "unchanged",
    "page_cache": "not dropped",
    "rss_scope": "ru_maxrss of the benchmark's own process (RUSAGE_SELF); "
                 "children such as the set-up import probes are excluded",
}

_THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def _loaded_blas_libraries() -> list[str]:
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/") and ".so" in p)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        **CONDITIONS,
    }
