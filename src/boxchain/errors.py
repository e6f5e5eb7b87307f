"""Error taxonomy shared across the package.

DomainError / UsageError live in ia (they are raised by the interval
layer too); the resource and parse errors below are pipeline-level.
CLI exit codes: config/usage/domain -> 2, memory budget -> 3, parse -> 4.
Memory: the peak RSS the budget reads (``peak_rss_mb``), and the
arena trim after the phases that free large temporaries (``give_back``).
"""

import ctypes
import functools
import resource
import sys

from .ia import DomainError, UsageError

__all__ = [
    "DomainError",
    "UsageError",
    "ResourceError",
    "MemoryBudgetError",
    "ParseError",
]


class ResourceError(RuntimeError):
    """A configured resource limit (depth, memory) would be exceeded."""


class MemoryBudgetError(ResourceError):
    """The process's peak RSS passed the memory budget (``check_memory_budget``);
    ``run_pipeline`` attaches the partial record as ``.record``."""


def peak_rss_mb() -> float:
    """The process's resident-memory high-water mark since it started,
    imports included, in MB of 1024 kB.

    On Linux this is ``VmHWM`` from ``/proc/self/status``: the peak of
    this process's own address space.  ``ru_maxrss`` would also hold the
    resident size of the process that started it, at the moment it did,
    since the kernel carries the old address space's peak over ``exec``.
    Where that file does not exist, ``ru_maxrss`` is the measure (in kB,
    but in bytes on macOS), and the parent's share may be in it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return peak / 1024.0 if sys.platform == "darwin" else peak


def give_back() -> None:
    """Hand the free memory of every malloc arena back to the system
    (glibc's ``malloc_trim``; nothing without glibc).  A phase that frees
    many large temporaries calls it at its end, so that what malloc keeps
    of them does not add to the peak of the next phase."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None without glibc."""
    try:
        fn = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_size_t]
    fn.restype = ctypes.c_int
    return fn


def check_memory_budget(budget_mb, phase: str) -> None:
    """Raise MemoryBudgetError if the process has peaked above
    ``budget_mb`` (None: no budget).  The high-water mark holds every
    transient since the start, so a run that checks after each of its
    phases and returns has stayed within the budget."""
    if budget_mb is None:
        return
    peak = peak_rss_mb()
    if peak > budget_mb:
        raise MemoryBudgetError(
            f"peak RSS {peak:.0f} MB passed the memory budget ({budget_mb:.0f} MB) {phase}"
        )


class ParseError(ValueError):
    """A model file or parameter string could not be parsed."""
