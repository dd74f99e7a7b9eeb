"""The machine and library settings a result was measured under.

BLAS threading is left at its default (at most the core count) and only
recorded, so that numbers from different machines or settings are never
compared silently.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re

import numpy as np
import scipy


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None, "library": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"], info["library"] = int(fn()), os.path.basename(lib)
                return info
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe() -> dict:
    """Python, numpy and scipy versions, the BLAS library and its thread
    count, the usable core count and the CPU model of this process."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }
