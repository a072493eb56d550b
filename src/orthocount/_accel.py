"""Kernel acceleration switch.

The density counting kernels are written twice: a numba @njit version and a
pure numpy/python fallback.  Selection happens once at import time:

  ORTHOCOUNT_NO_NUMBA=1   force the fallback path (also used when numba is
                          not importable)
  ORTHOCOUNT_THREADS=k    cap numba threading layer at k threads

`USE_NUMBA` records which path is active; `jit_or_fallback` picks the
implementation.  Kernels must be bit-for-bit deterministic on both paths.
"""

import os

USE_NUMBA = os.environ.get("ORTHOCOUNT_NO_NUMBA", "").strip() not in ("1", "true", "yes")

if USE_NUMBA:
    try:
        import numba
        from numba import njit

        _threads = os.environ.get("ORTHOCOUNT_THREADS", "").strip()
        if _threads:
            numba.set_num_threads(max(1, min(int(_threads), numba.config.NUMBA_NUM_THREADS)))
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

if not USE_NUMBA:
    def njit(*args, **kwargs):  # noqa: D103
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco


def jit_or_fallback(jitted, fallback):
    """Return the active implementation for a dual-path kernel."""
    return jitted if USE_NUMBA else fallback
