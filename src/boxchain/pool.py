"""One thread pool for the phases that treat every box on its own.

Escape pruning and the edge lookup image and look up each box
independently of the others, and numpy releases the interpreter lock
inside their kernels.  ``in_pieces`` cuts such a phase into consecutive
pieces of rows, runs them on a pool with one thread per CPU in the
process's affinity mask, and yields their results in piece order on the
calling thread.  The pieces do not depend on the number of workers, and
one worker runs them inline, one after another, so no output depends on
how many CPUs there are.

At most workers + 1 pieces are in flight, which bounds the memory held
by results not yet consumed.  A piece returns arrays of its own, and
they are allocated in its worker's malloc arena (glibc gives each thread
one).  Memory freed there tends to stay resident, and only that worker
reuses it, so the free memory of every arena is handed back (glibc's
``malloc_trim``, ``give_back``) after each pooled phase.  A consumer
that keeps the pieces' arrays past the phase calls ``give_back`` again
once it has dropped them: the edge build joins its pieces' edges after
the last piece, and frees them then.

The pool is made on first use and forgotten in a child made by ``fork``,
which inherits none of its threads.
"""

from __future__ import annotations

import ctypes
import functools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterator

__all__ = ["give_back", "in_pieces", "worker_count"]

_pool = None  # (workers, ThreadPoolExecutor), made on first use


def worker_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _executor(workers: int) -> ThreadPoolExecutor:
    global _pool
    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown(wait=False)
        _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="boxchain"))
    return _pool[1]


def _forget_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def in_pieces(fn: Callable, n: int, size: int) -> Iterator:
    """Yield fn(start, stop) for the pieces [start, stop) of range(n),
    ``size`` rows each but the last, in order."""
    calls = ((start, min(start + size, n)) for start in range(0, n, size))
    workers = worker_count()
    if workers < 2:
        for call in calls:
            yield fn(*call)
        return
    pool = _executor(workers)
    pending = deque()
    try:
        for call in calls:
            pending.append(pool.submit(fn, *call))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:  # a consumer that stops early leaves no piece running
        for future in pending:
            future.cancel()
        wait(pending)
        give_back()


def give_back() -> None:
    """Hand the free memory of every malloc arena back to the system
    (glibc's ``malloc_trim``; nothing without glibc)."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None without glibc.  It hands the free
    memory of every arena back to the system: without it, what the
    workers' arenas keep after a phase adds to the peak of the next."""
    try:
        fn = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_size_t]
    fn.restype = ctypes.c_int
    return fn
