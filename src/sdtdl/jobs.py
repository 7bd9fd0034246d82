"""Independent jobs on the cores that BLAS leaves free: a fit's per-class
work, each source-dictionary update beside the prediction pass after it,
and the sample blocks of a prediction pass."""

from __future__ import annotations

import collections
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# ``in_job`` is true on a thread while it runs a job of _run_jobs
_local = threading.local()


def _class_workers(count: int) -> int:
    """Threads for ``count`` independent jobs: the cores that BLAS leaves
    free, ``cores // blas_threads``, and at most one per job. When no BLAS
    thread count is set, BLAS already runs on every core: one worker."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            break
    else:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(count, cores // blas))


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
