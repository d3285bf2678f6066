"""Thread counts of the OpenBLAS libraries that numpy and scipy load.

numpy maps its OpenBLAS on import; scipy's is mapped when `gpr` loads
scipy's compiled LAPACK module, which links it.

The simulate path calls LAPACK on matrices of a few dozen rows, where a
second BLAS thread saves no wall time: it wakes for a few calls and then
spins between them, doubling CPU time per row. Campaigns therefore run
BLAS on one thread; parallelism belongs to units of work: whole trials,
or, with fewer trials than CPUs, the spans of a trial between GPS fixes.

`campaign.run_campaign` forks its workers inside `one_blas_thread()`,
so they inherit one thread from the parent. A worker must not call a
setter itself: OpenBLAS stops its thread pools at fork, a setter call in
the child starts them again, and their idle threads spin.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

__all__ = ["Pool", "openblas_pools", "one_blas_thread"]

# thread-count getters as exported by the scipy-openblas wheels (64-bit
# integer build for numpy, 32-bit for scipy) and by a plain OpenBLAS; each
# setter's name swaps "get" for "set"
_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


class Pool(NamedTuple):
    """The thread-count functions of one loaded OpenBLAS."""

    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def openblas_pools() -> tuple[Pool, ...]:
    """Every OpenBLAS mapped into this process, found once per process.

    Reads /proc/self/maps, so it finds only what is mapped at its first
    call: importing `uavtrack.gpr` maps both, numpy's OpenBLAS and, through
    gpr's LAPACK load, scipy's. Returns () where there is no such file or
    no OpenBLAS, so callers then leave threading alone.
    """
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return ()
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping that is not a loadable file
            continue
        for name in _GETTERS:
            get = getattr(lib, name, None)
            set_ = getattr(lib, name.replace("_get_", "_set_"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append(Pool(get, set_))
                break
    return tuple(pools)


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with every OpenBLAS pool on one thread, then restore
    each pool's previous count, also when the body raises."""
    pools = openblas_pools()
    saved = [pool.get() for pool in pools]
    for pool in pools:
        pool.set(1)
    try:
        yield
    finally:
        for pool, n in zip(pools, saved):
            pool.set(n)
