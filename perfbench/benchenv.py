"""Process environment of every benchmark process.

:func:`setup` must run before NumPy is imported: it fixes the BLAS thread
count (one thread per process, so the benchmark's two processes never ask
for more threads than a 2-core machine has) and puts the repository's
``src/`` on ``sys.path``.  :func:`describe` is the environment record
printed with every result.

:func:`calibrate` times a fixed kernel that no change to the repository
can touch.  On shared machines the speed of the same code drifts by up to
1.5x for minutes at a time (noisy neighbours; the guest sees no steal
time, and CPU time drifts with wall time).  The end-to-end times are
therefore reported *speed-normalized*: each wall time is multiplied by
``REFERENCE_CALIBRATION_S / calibration`` measured next to it, i.e. it is
the time the op would have taken at the reference machine's speed.  The
raw wall times are printed alongside in the report line.
"""

from __future__ import annotations

import gc
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


#: Kernel time of :func:`calibrate` on the reference machine (2-core Xeon
#: VM, Python 3.11, NumPy 2.4, one BLAS thread) when it is not slowed down.
REFERENCE_CALIBRATION_S = 0.0095
CALIBRATION_REPEATS = 5


class MissingSource(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def setup() -> None:
    for name in _THREAD_VARS:
        os.environ[name] = str(BLAS_THREADS)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for a child process: same BLAS threads, ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _kernel() -> float:
    """About 10 ms of interpreter and small-array NumPy work, like the ops'."""
    import numpy as np

    started = time.perf_counter()
    counts: dict = {}
    for i in range(20000):
        key = i % 997
        counts[key] = counts.get(key, 0) + len(str(i))
    values = np.arange(256.0)
    for _ in range(1500):
        values = np.minimum(values * 1.0001, 1e6) + 0.5
        values.sum()
    return time.perf_counter() - started


def calibrate() -> float:
    """Seconds the calibration kernel takes now (best of a few runs).

    The garbage collector is off meanwhile: the kernel's garbage is freed by
    reference counting, and a collection would time the caller's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_kernel() for _ in range(CALIBRATION_REPEATS))
    finally:
        if enabled:
            gc.enable()


def normalize(seconds: float, calibration: float) -> float:
    """A wall time rescaled to the reference machine's speed."""
    return seconds * REFERENCE_CALIBRATION_S / calibration


def _openblas_version() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"].get("version", "unknown"))
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def describe(seed: int, workload: str, extra: "dict | None" = None) -> dict:
    import numpy as np
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_threads": {name: os.environ.get(name) for name in _THREAD_VARS},
        "workload": workload,
        "seed": seed,
        **(extra or {}),
    }
