"""One BLAS thread for mtvlm's compute, set from inside the process.

numpy bundles OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so`` and
splits each matrix product over every core by default. This model's
products are too small to gain from that, and when another process holds
a core they stall on the thread that waits for it. ``one_thread`` sets
the count to 1 through the library's own thread-count calls and restores
the previous count on exit. Importing this module loads nothing; the
library is looked up on first use.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def _thread_calls():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None when the
    library or either symbol is missing."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def one_thread():
    """Run the body on one BLAS thread, whatever ``OPENBLAS_NUM_THREADS``
    says, and restore the previous count on exit, also when the body
    raises. Nests. Without the bundled library it changes nothing."""
    calls = _thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
