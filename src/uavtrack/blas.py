"""The native libraries the simulate path calls: scipy's LAPACK routines,
and the thread counts of the OpenBLAS libraries that numpy and scipy load.

Importing this module loads scipy's compiled LAPACK module, which links
scipy's OpenBLAS and imports numpy, which maps numpy's. So both are mapped
before `openblas_pools()` first reads the process's mappings, whatever
the caller imported before.

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
import os
import sys
from contextlib import contextmanager
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from typing import Callable, Iterator, NamedTuple

__all__ = ["Pool", "openblas_pools", "one_blas_thread", "dpotrf", "dpotrs", "dtrtri", "dtrtrs"]


def _load_flapack():
    """scipy's compiled LAPACK module, loaded from its file beside scipy.linalg.

    scipy is located without running its package init, and importing the
    module through scipy.linalg would run that package's init too, whose
    array-API layer loads about 300 modules (numpy.f2py, numpy.testing,
    numpy.ma, ...) that the GP never calls. The routines are the very
    objects scipy.linalg.lapack exports: an extension module is
    initialized once per process, and every later load shares its
    functions. sys.modules is left as it was found.
    """
    spec = find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed; uavtrack needs its LAPACK module")
    where = os.path.join(spec.submodule_search_locations[0], "linalg")
    path = os.path.join(where, "_flapack" + EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"no scipy LAPACK module _flapack{EXTENSION_SUFFIXES[0]} in {where}")
    name = "scipy.linalg._flapack"
    known = name in sys.modules
    spec = spec_from_file_location(name, path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    if not known:  # creating the module registered it, without its package
        sys.modules.pop(name, None)
    return module


_flapack = _load_flapack()
dpotrf, dpotrs, dtrtri, dtrtrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtri, _flapack.dtrtrs

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
    call; importing this module has mapped both, numpy's OpenBLAS and
    scipy's. Returns () where there is no such file or no OpenBLAS, so
    callers then leave threading alone.
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
