"""The BLAS thread count, read and set through numpy's bundled OpenBLAS.

numpy's wheels link a private OpenBLAS whose thread calls carry the
``scipy_openblas_*64_`` prefix.  ``ctypes`` finds them through numpy's linear
algebra module, whose dependencies include that library, so the count set
here is the one numpy's products use.  On any other BLAS the lookup fails,
:func:`blas_threads` does nothing and :func:`blas_thread_count` reports
``"unknown"``.

The count the process starts with (``OPENBLAS_NUM_THREADS`` caps it) is read
once, at import, as ``PROCESS_THREADS``.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

from numpy.linalg import _umath_linalg


def _openblas():
    """numpy's OpenBLAS ``(get, set)`` thread-count calls, or None when they are not there."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    put.argtypes, put.restype = (ctypes.c_int,), None
    return get, put


_CALLS = _openblas()


def blas_thread_count() -> int | str:
    """The thread count BLAS products use now, or ``"unknown"`` on a BLAS without the calls."""
    return _CALLS[0]() if _CALLS else "unknown"


PROCESS_THREADS = blas_thread_count()


@contextmanager
def blas_threads(count):
    """Run the body with ``count`` BLAS threads, then restore the count it found.

    The count is restored on an exception too, and nested uses restore in
    order.  Does nothing on a BLAS without the calls.
    """
    if _CALLS is None:
        yield
        return
    get, put = _CALLS
    before = get()
    put(count)
    try:
        yield
    finally:
        put(before)
