"""Print the numerical environment a benchmark child sees, as JSON:
Python and numpy versions, the BLAS library and the thread count it
reports."""

from __future__ import annotations

import ctypes
import json
import platform

import numpy as np

THREAD_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
)


def blas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        if ".so" not in path:
            continue
        lib = ctypes.CDLL(path)
        for symbol in THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": blas_threads(),
    }))
