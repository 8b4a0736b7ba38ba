"""Process set-up shared by the benchmark entry point (run.py) and its worker.

Only the standard library is imported at module level: ``bootstrap`` must
pin the BLAS thread pool before numpy is first imported, because OpenBLAS
reads its thread count once, when it is loaded.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: with two, step times on a shared 2-CPU machine measured
# the scheduler (0.89 / 1.04 / 1.14 s per paper-width step across identical
# runs) rather than the program.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchSetupError(RuntimeError):
    """The checkout cannot be benchmarked (for example, it has no sources)."""


def bootstrap():
    """Pin BLAS threads and make the checkout's ``src`` importable.

    Raises BenchSetupError when ``src/momentloc`` is missing or when an
    installed copy elsewhere would shadow it.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if "numpy" in sys.modules:
        raise BenchSetupError("numpy was imported before the BLAS thread pin")
    if not (SRC / "momentloc" / "__init__.py").is_file():
        raise BenchSetupError(f"no momentloc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import momentloc

    if Path(momentloc.__file__).resolve().parent != SRC / "momentloc":
        raise BenchSetupError(f"momentloc imported from {momentloc.__file__}, not {SRC}")


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, workload: str) -> dict:
    """Machine, interpreter and BLAS facts recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }
