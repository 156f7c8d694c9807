"""Ownership of numpy's OpenBLAS thread count while pipeline stages overlap.

numpy's bundled OpenBLAS spreads each dense-MLP GEMM over its own thread
pool, one thread per core by default.  When the pipeline runs [Train] on
a thread of its own beside [Insert], [Collect] and [Plan], those BLAS
threads compete with the other stages for the same cores, so a stream
that overlaps stages holds BLAS at one thread and gives the old count
back when it ends.

The count is process-wide, so holds are reference-counted under a lock:
the first hold saves the count and sets one thread, the last release
restores what the first hold saved, and interleaved streams restore it
once.  The library is found through ``ctypes`` among the shared objects
the process has mapped (``/proc/self/maps``), by the setter and getter
names OpenBLAS builds export; where none is found (another BLAS, or no
``/proc``), :func:`hold_single_thread` returns ``False`` and the caller
keeps its stages sequential.

The thread count changes no result: OpenBLAS splits a GEMM across
threads by output blocks, so each output element is reduced in the same
order on any count.  ``tests/core/test_stage_overlap.py`` pins training
losses bit-identical at one thread and at the default.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Callable, Optional, Tuple

#: Exported (setter, getter) name stems, tried in order: the
#: ``scipy-openblas`` wheels numpy ships, then plain OpenBLAS builds,
#: each with and without the 64-bit-integer interface suffix.
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")

_Functions = Tuple[Callable[[], int], Callable[[int], None]]


def _mapped_openblas_paths() -> Tuple[str, ...]:
    """Paths of the OpenBLAS shared objects this process has mapped."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return ()
    paths = {entry[5].strip() for entry in fields if len(entry) == 6}
    return tuple(sorted(
        path for path in paths if "openblas" in os.path.basename(path)
    ))


def _find_functions() -> Optional[_Functions]:
    """``(get, set)`` of the loaded OpenBLAS's thread count, or ``None``."""
    for path in _mapped_openblas_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                try:
                    getter = getattr(library, f"{prefix}_get_num_threads{suffix}")
                    setter = getattr(library, f"{prefix}_set_num_threads{suffix}")
                except AttributeError:
                    continue
                getter.argtypes = []
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return getter, setter
    return None


class _BlasThreads:
    """The process's OpenBLAS thread count and the holds on it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._searched = False
        self._functions: Optional[_Functions] = None
        self._holders = 0
        self._saved = 1

    def _api(self) -> Optional[_Functions]:
        # Called under the lock: the library is searched for once.
        if not self._searched:
            self._functions = _find_functions()
            self._searched = True
        return self._functions

    def count(self) -> Optional[int]:
        with self._lock:
            api = self._api()
            return None if api is None else int(api[0]())

    def hold_single_thread(self) -> bool:
        with self._lock:
            api = self._api()
            if api is None:
                return False
            if self._holders == 0:
                self._saved = int(api[0]())
                api[1](1)
            self._holders += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                self._functions[1](self._saved)


# One per process, like the count it guards.  A child forked while a
# stream holds it inherits the open hold, so it keeps BLAS at one thread.
_BLAS = _BlasThreads()


def thread_count() -> Optional[int]:
    """OpenBLAS's current thread count, or ``None`` if none was found."""
    return _BLAS.count()


def hold_single_thread() -> bool:
    """Hold OpenBLAS at one thread until the matching :func:`release`.

    Returns ``False``, holding nothing, when no OpenBLAS setter was found.
    """
    return _BLAS.hold_single_thread()


def release() -> None:
    """Release one hold; the last restores the count the first one saved."""
    _BLAS.release()
