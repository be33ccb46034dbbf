"""Tiny deterministic job pool and the process's BLAS thread count.

Jobs are independent closures whose results are collected in submission
order, so the assembled output never depends on the worker count.  A pool
of N workers is the calling thread plus N - 1 started threads, which take
jobs from one shared counter in submission order; the caller works instead
of waiting, so a pool starts, and gives a glibc heap to, one thread fewer.

numpy's bundled OpenBLAS is held at one thread for the whole run of every
public computation (``denoise_image``, ``estimate_sigma``, ``ccf_denoise``,
``make_report``) and of every pool of more than one worker, and nowhere
inside them.  Small ``eigh`` and matmul calls gain nothing from BLAS threads,
which only spin and, in a pool, compete with its threads for cores; and one
thread keeps outputs independent of the BLAS thread count.  The setting is
process-global, so other threads of the process see it meanwhile; nested and
concurrent holders share one saved count, which the last to leave restores.
Other BLAS builds (MKL, Accelerate) are left alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

from .errors import InvalidConfig

ENV_THREADS = "HSCUBE_THREADS"

# (get, set) thread-count symbols of the OpenBLAS builds numpy ships with.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = 0


def resolve_threads(requested: int | None = None) -> int:
    """Explicit request wins, then the HSCUBE_THREADS variable, then 1.

    A count below 1, from either source, is an ``InvalidConfig``.
    """
    if requested is not None:
        threads, source = int(requested), "threads"
    else:
        env = os.environ.get(ENV_THREADS, "").strip()
        if not env:
            return 1
        try:
            threads, source = int(env), ENV_THREADS
        except ValueError:
            raise InvalidConfig(f"{ENV_THREADS} must be an integer, got {env!r}") from None
    if threads < 1:
        raise InvalidConfig(f"{source} must be at least 1, got {threads}")
    return threads


@functools.cache
def _openblas_controls():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None.

    Symbols resolved through numpy's own extension module reach the BLAS it
    was linked against, whatever that library's file is called.
    """
    try:
        try:
            from numpy._core import _multiarray_umath as ext
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as ext
        lib = ctypes.CDLL(ext.__file__)
    except (ImportError, OSError, AttributeError):
        return None
    for get_name, set_name in _OPENBLAS_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _single_threaded_blas():
    """Hold OpenBLAS at one thread; nested and concurrent holders share one
    saved count, restored once by the last to leave."""
    global _blas_depth, _blas_saved
    controls = _openblas_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                set_(_blas_saved)


def run_jobs(jobs, threads: int = 1) -> list:
    """Run zero-argument callables, returning results in submission order.

    The calling thread and ``min(threads, len(jobs)) - 1`` started threads
    take the jobs in submission order.  Every job runs even when some
    raise; the failure of the earliest job is raised.  An interrupt of the
    caller (``KeyboardInterrupt``) stops handing out jobs, waits for the
    running ones and propagates.
    """
    jobs = list(jobs)
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [job() for job in jobs]
    results = [None] * len(jobs)
    failures = {}
    pending = iter(range(len(jobs)))
    lock = threading.Lock()

    def take():
        with lock:
            return next(pending, None)

    def work(catch):
        while (i := take()) is not None:
            try:
                results[i] = jobs[i]()
            except catch as exc:
                failures[i] = exc

    # started threads record whatever a job raises; the caller lets an
    # interrupt through
    started = [threading.Thread(target=work, args=(BaseException,)) for _ in range(workers - 1)]
    with _single_threaded_blas():
        try:
            for thread in started:
                thread.start()
            work(Exception)
        finally:
            with lock:
                for _ in pending:  # hand out no more jobs
                    pass
            for thread in started:
                if thread.is_alive():  # one that failed to start cannot be joined
                    thread.join()
    if failures:
        raise failures[min(failures)]
    return results
