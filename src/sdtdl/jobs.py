"""Independent jobs on every core, with BLAS held at one thread: a fit's
per-class work, each source-dictionary update beside the prediction pass
after it, and the sample blocks of a prediction pass."""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# ``in_job`` is true on a thread while it runs a job of _run_jobs
_local = threading.local()

# (getter, setter) names of an OpenBLAS thread count: numpy's bundled
# OpenBLAS, then a system one
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_controls():
    """``(get, set)`` of the loaded OpenBLAS's thread count, or None when
    no loaded library exports them. The libraries are the ones this
    process maps whose path names BLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_hold_lock = threading.Lock()
_hold_depth = 0  # holds entered and not yet left
_hold_saved = 0  # the thread count the outermost hold found


@contextlib.contextmanager
def _one_blas_thread():
    """Hold BLAS at one thread, process-wide, and give the caller's count
    back on the way out, also when the body raises. The count belongs to
    the process, so the holds share one depth: only the outermost of
    nested or overlapping holds, on any thread, sets and restores it."""
    global _hold_depth, _hold_saved
    controls = _blas_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _hold_lock:
        if _hold_depth == 0:
            _hold_saved = get()
            set_(1)
        _hold_depth += 1
    try:
        yield
    finally:
        with _hold_lock:
            _hold_depth -= 1
            if _hold_depth == 0:
                set_(_hold_saved)


def _class_workers(count: int) -> int:
    """Threads for ``count`` independent jobs: one per core, at most one
    per job. Without a BLAS thread setter, BLAS may run on every core
    already: one worker."""
    if _blas_controls() is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(count, cores))


def _run_jobs(jobs: list) -> list:
    """``[job() for job in jobs]``, the jobs spread over
    :func:`_class_workers` threads. The calling thread is one of them and
    starts with ``jobs[0]``, extra thread ``k`` starts with ``jobs[k]``, and
    then each thread takes the next job from one shared iterator. Every
    extra thread keeps a malloc arena of its own, which holds what the
    thread freed. The first exception a job raises reaches the caller after
    every thread has stopped, and no thread takes a job after it.

    A call made from inside a job, or with one worker, runs its jobs in
    order on the calling thread: a job already holds one of the threads the
    cores allow."""
    workers = 1 if getattr(_local, "in_job", False) else _class_workers(len(jobs))
    if workers == 1:
        return [job() for job in jobs]
    results = [None] * len(jobs)
    rest = iter(range(workers, len(jobs)))
    lock = threading.Lock()

    def drain(k):
        _local.in_job = True
        try:
            while k is not None:
                results[k] = jobs[k]()
                with lock:
                    k = next(rest, None)
        except BaseException:
            with lock:
                collections.deque(rest, maxlen=0)  # no thread takes a further job
            raise
        finally:
            _local.in_job = False

    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(drain, k) for k in range(1, workers)]
        drain(0)
        for f in futures:
            f.result()
    return results
