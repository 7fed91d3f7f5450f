"""The machine and library record attached to every benchmark result, so
numbers from different machines are never compared blindly."""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy


def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l3_size():
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if _read(os.path.join(base, entry, "level")).strip() == "3":
            return _read(os.path.join(base, entry, "size")).strip()
    return "unknown"


def _openblas_version():
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    libs = {tok for tok in _read("/proc/self/maps").split() if "openblas" in os.path.basename(tok)}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def working_set_mb(workload, problems):
    """CSR arrays of every matrix plus the largest s-step basis Y (n x (2s+1))."""
    csr = sum(p.a.values.nbytes + p.a.col_idx.nbytes + p.a.row_ptr.nbytes for p in problems.values())
    n_max = max(p.a.n for p in problems.values())
    s_max = max((c.s for c in workload.cells), default=0)
    return (csr + n_max * (2 * s_max + 1) * 8) / 2 ** 20


def environment(workload, problems):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_threads": _blas_threads(),
        "working_set_mb": round(working_set_mb(workload, problems), 3),
        "matrices": {label: {"n": p.a.n, "nnz": p.a.nnz} for label, p in problems.items()},
    }
