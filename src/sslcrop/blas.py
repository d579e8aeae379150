"""The thread count of the loaded OpenBLAS, read and set through the library's own functions.

A gemm split over more BLAS threads sums its products in another order, so the
thread count changes the bits of every result.  `one_thread()` runs a block on
one BLAS thread and then restores the caller's count; every training phase,
`cli.run` and every command run under it, and matrix workers pin themselves
with `set_threads(1)`.  The library is found through /proc/self/maps with ctypes (no
new dependency, nothing to configure); without OpenBLAS, or without /proc,
nothing happens.
"""

from __future__ import annotations

import contextlib
import functools


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS this process has loaded."""
    import ctypes  # here and not at the top: a command that never trains should not pay for it

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_set_num_threads{suffix}"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


def set_threads(n: int) -> None:
    """Set every loaded OpenBLAS to `n` threads."""
    for _, set_ in _openblas():
        set_(n)


@contextlib.contextmanager
def one_thread():
    """Run the block (or, as a decorator, the function) with every loaded OpenBLAS on
    one thread; on the way out each gets back the thread count it had."""
    libs = _openblas()
    saved = [get() for get, _ in libs]
    set_threads(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(libs, saved):
            set_(n)
