import os
import platform
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import hscube as hs
from hscube import ccf, cdbm3d, evaluate, parallel
from hscube.ccf import WindowSpec, ccf_denoise, ccf_sliding
from hscube.cdbm3d import DenoiseConfig, denoise_image, estimate_sigma
from hscube.errors import InvalidConfig
from hscube.parallel import resolve_threads, run_jobs

TIMEOUT = 30.0


@pytest.fixture
def blas(monkeypatch):
    """numpy's OpenBLAS (get, set), started at two threads so that a pinned
    count of one is told apart from the default; the count is restored
    afterwards.  Every set call made by the pool is recorded in ``sets``."""
    controls = parallel._openblas_controls()
    if controls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count symbol")
    get, set_ = controls
    start = get()
    set_(2)
    if get() != 2:
        set_(start)
        pytest.skip("OpenBLAS cannot run two threads here")
    sets = []

    def recording_set(n):
        sets.append(n)
        set_(n)

    monkeypatch.setattr(parallel, "_openblas_controls", lambda: (get, recording_set))
    yield get, sets
    set_(start)


class TestBlasLimiter:
    def test_pool_jobs_run_with_one_blas_thread(self, blas):
        get, sets = blas
        assert run_jobs([get] * 4, threads=2) == [1] * 4
        assert get() == 2
        assert sets == [1, 2]

    def test_count_restored_when_a_job_raises(self, blas):
        get, sets = blas

        def boom():
            raise RuntimeError("job failed")

        with pytest.raises(RuntimeError, match="job failed"):
            run_jobs([get, boom, get], threads=2)
        assert get() == 2
        assert sets == [1, 2]

    @pytest.mark.parametrize("threads, n_jobs", [(1, 3), (4, 1)])
    def test_inline_runs_keep_blas_default(self, blas, threads, n_jobs):
        get, sets = blas
        assert run_jobs([get] * n_jobs, threads=threads) == [2] * n_jobs
        assert sets == []

    def test_nested_pools_restore_once(self, blas):
        get, sets = blas

        def outer_job():
            inner = run_jobs([get, get], threads=2)
            return inner, get()

        results = run_jobs([outer_job, outer_job], threads=2)
        assert results == [([1, 1], 1)] * 2
        assert get() == 2
        assert sets == [1, 2]

    def test_concurrent_pools_restore_once(self, blas):
        get, sets = blas
        all_inside = threading.Barrier(4, timeout=TIMEOUT)
        first_done = threading.Event()

        def job_a():
            all_inside.wait()
            return get()

        def job_b():
            all_inside.wait()
            assert first_done.wait(TIMEOUT)
            return get()  # the other pool has exited; still pinned

        results = {}

        def caller(name, job, then=None):
            results[name] = run_jobs([job, job], threads=2)
            if then is not None:
                then.set()

        callers = [
            threading.Thread(target=caller, args=("a", job_a, first_done)),
            threading.Thread(target=caller, args=("b", job_b)),
        ]
        for t in callers:
            t.start()
        for t in callers:
            t.join(TIMEOUT)
            assert not t.is_alive()
        assert results == {"a": [1, 1], "b": [1, 1]}
        assert get() == 2
        assert sets == [1, 2]


SMALL = DenoiseConfig(patch_rows=4, patch_cols=4, patch_step=2, search_radius=4,
                      max_group_size=4, sigma=0.5)


def small_image():
    rng = np.random.default_rng(5)
    return rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))


def record_blas(monkeypatch, get, module, names):
    """BLAS thread counts seen by calls to ``module``'s functions ``names``."""
    counts = []
    for name in names:
        original = getattr(module, name)

        def recording(*args, _original=original, **kwargs):
            counts.append(get())
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    return counts


@pytest.fixture
def seen(monkeypatch, blas):
    """BLAS thread counts seen by the matcher, the factors and both
    shrinkers; the wrappers keep the names the benchmark hooks."""
    names = ("_collect_groups", "_batched_factors", "hard_threshold_core", "wiener_shrink_core")
    return record_blas(monkeypatch, blas[0], cdbm3d, names)


class TestFilterHoldsBlas:
    def test_denoise_outside_a_pool(self, blas, seen):
        get, sets = blas
        denoise_image(small_image(), SMALL)
        assert seen and set(seen) == {1}
        assert get() == 2
        assert sets == [1, 2]  # once per call, not per pass

    def test_sigma_probe_outside_a_pool(self, blas, seen, monkeypatch):
        get, sets = blas
        monkeypatch.setattr(cdbm3d, "_SIGMA_CALIBRATION", {})
        assert estimate_sigma(small_image(), SMALL) > 0
        assert seen and set(seen) == {1}
        assert get() == 2
        assert sets == [1, 2]  # the calibration probe runs inside the same hold

    def test_count_restored_when_the_pass_raises(self, blas, monkeypatch):
        get, sets = blas

        def boom(core, threshold):
            raise RuntimeError("shrink failed")

        monkeypatch.setattr(cdbm3d, "hard_threshold_core", boom)
        with pytest.raises(RuntimeError, match="shrink failed"):
            denoise_image(small_image(), SMALL)
        assert get() == 2
        assert sets == [1, 2]

    def test_pool_jobs_set_nothing_extra(self, blas, seen):
        get, sets = blas
        image = small_image()
        out = run_jobs([lambda: denoise_image(image, SMALL)] * 2, threads=2)
        assert np.array_equal(out[0], out[1])
        assert seen and set(seen) == {1}
        assert get() == 2
        assert sets == [1, 2]  # the pool's own hold only


def small_cube():
    model = hs.bk7()
    spec = hs.two_peak_spec(16, 16, model)
    truth = hs.generate_truth(spec, model, (16, 16), hs.default_wavelengths(8))
    return truth, hs.add_noise(truth, hs.NoiseSpec(0.5, 3))


SUBSPACE_STEPS = ("identify_subspace", "project", "back_project")


class TestComputationsHoldBlas:
    """Each public computation holds one BLAS thread for its whole run, also
    outside a pool, and the caller's count comes back afterwards."""

    def test_ccf_denoise_subspace_steps(self, blas, monkeypatch):
        get, sets = blas
        seen = record_blas(monkeypatch, get, ccf, SUBSPACE_STEPS)
        ccf_denoise(small_cube()[1], SMALL, threads=1)
        assert len(seen) == 3 and set(seen) == {1}
        assert get() == 2
        assert sets == [1, 2]

    def test_ccf_sliding_subspace_steps(self, blas, monkeypatch):
        get, sets = blas
        seen = record_blas(monkeypatch, get, ccf, SUBSPACE_STEPS)
        ccf_sliding(small_cube()[1], SMALL, WindowSpec(6, 3), threads=1)
        assert len(seen) == 3 * 3 and set(seen) == {1}  # three windows
        assert get() == 2

    def test_report_metrics(self, blas, monkeypatch):
        get, sets = blas
        seen = record_blas(monkeypatch, get, evaluate, ["rrmse_phase"])
        truth, noisy = small_cube()
        evaluate.make_report(noisy, truth, 0.0, object_name="o", method="m",
                             sigma=None, seed=None)
        assert seen == [1] * truth.n_bands
        assert get() == 2
        assert sets == [1, 2]

    def test_count_restored_when_ccf_denoise_raises(self, blas, monkeypatch):
        get, sets = blas

        def boom(zeig, basis):
            raise RuntimeError("back-projection failed")

        monkeypatch.setattr(ccf, "back_project", boom)
        with pytest.raises(RuntimeError, match="back-projection failed"):
            ccf_denoise(small_cube()[1], SMALL, threads=1)
        assert get() == 2
        assert sets == [1, 2]


def test_non_integer_thread_variable_is_invalid(monkeypatch):
    monkeypatch.setenv("HSCUBE_THREADS", "abc")
    with pytest.raises(InvalidConfig, match="HSCUBE_THREADS"):
        resolve_threads()
    assert resolve_threads(3) == 3  # an explicit request wins


@pytest.mark.parametrize("requested", [0, -2])
def test_thread_request_below_one_is_invalid(monkeypatch, requested):
    monkeypatch.setenv("HSCUBE_THREADS", "2")
    with pytest.raises(InvalidConfig, match=rf"^threads must be at least 1, got {requested}$"):
        resolve_threads(requested)


@pytest.mark.parametrize("value", ["0", "-1", " -3 "])
def test_thread_variable_below_one_is_invalid(monkeypatch, value):
    monkeypatch.setenv("HSCUBE_THREADS", value)
    with pytest.raises(InvalidConfig, match=r"^HSCUBE_THREADS must be at least 1"):
        resolve_threads()
    assert resolve_threads(1) == 1  # an explicit request wins


def test_no_op_limiter_keeps_submission_order(monkeypatch):
    monkeypatch.setattr(parallel, "_openblas_controls", lambda: None)

    def make_job(i):
        def job():
            time.sleep(0.01 * (5 - i))  # later jobs finish first
            return i

        return job

    assert run_jobs([make_job(i) for i in range(6)], threads=3) == list(range(6))


class TestPool:
    """The caller is one of the pool's workers; jobs are taken in
    submission order from one shared counter."""

    def test_caller_runs_a_job(self):
        # two jobs that must run at once: the caller takes one of them
        both_running = threading.Barrier(2, timeout=TIMEOUT)

        def job():
            both_running.wait()
            return threading.get_ident()

        idents = run_jobs([job, job], threads=2)
        assert threading.get_ident() in idents
        assert len(set(idents)) == 2

    @pytest.mark.parametrize("threads", [2, 3])
    def test_at_most_n_threads_caller_included(self, threads):
        before = threading.active_count()
        seen = []

        def job():
            seen.append((threading.get_ident(), threading.active_count()))
            time.sleep(0.002)

        run_jobs([job] * 12, threads=threads)
        assert len({ident for ident, _ in seen}) <= threads
        assert max(active for _, active in seen) <= before + threads - 1
        assert threading.active_count() == before  # every started thread is joined

    def test_each_job_runs_once_under_frequent_switches(self):
        # more workers than cores, switching threads every microsecond: a
        # job handed out twice or skipped shows in the run counts
        runs = [0] * 400
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def make_job(i):
                def job():
                    runs[i] += 1  # one worker per index, so no lost update
                    return i

                return job

            results = run_jobs([make_job(i) for i in range(400)], threads=8)
        finally:
            sys.setswitchinterval(switch)
        assert results == list(range(400))
        assert runs == [1] * 400

    def test_later_jobs_run_after_an_earlier_one_raises(self):
        ran = []

        def boom():
            raise RuntimeError("first job failed")

        def make_job(i):
            def job():
                time.sleep(0.002)
                ran.append(i)
                return i

            return job

        with pytest.raises(RuntimeError, match="first job failed"):
            run_jobs([boom] + [make_job(i) for i in range(1, 8)], threads=2)
        assert sorted(ran) == list(range(1, 8))

    def test_earliest_failure_is_raised(self):
        def late_failure():
            time.sleep(0.05)  # fails after job 2 has failed
            raise ValueError("job 1")

        def early_failure():
            raise KeyError("job 2")

        with pytest.raises(ValueError, match="job 1"):
            run_jobs([lambda: 0, late_failure, early_failure, lambda: 3], threads=3)

    def test_interrupt_of_the_caller_stops_handing_out_jobs(self):
        caller = threading.get_ident()
        before = threading.active_count()
        ran = []

        def make_job(i):
            def job():
                if threading.get_ident() == caller:
                    raise KeyboardInterrupt
                time.sleep(0.01)
                ran.append(i)

            return job

        with pytest.raises(KeyboardInterrupt):
            run_jobs([make_job(i) for i in range(50)], threads=2)
        assert threading.active_count() == before  # the running job was waited for
        done = len(ran)
        time.sleep(0.05)
        assert len(ran) == done < 49

    def test_thread_that_cannot_start(self, monkeypatch):
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            run_jobs([lambda: 1] * 3, threads=2)

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's per-thread heaps")
    def test_fresh_process_pool_runs_without_faults(self):
        # A pool's started thread gets a glibc heap of its own; with the
        # malloc thresholds raised in every pass, the windows of a pooled
        # ccf_sliding reuse the same heap pages call after call.  The median
        # call is taken: a call whose thread starts before the previous
        # call's thread has fully exited is given a fresh heap by glibc,
        # which faults in once (about 800 pages here, more often on a busy
        # machine).
        code = textwrap.dedent("""
            import resource
            import statistics
            import hscube as hs
            from hscube import DenoiseConfig
            from hscube.ccf import WindowSpec, ccf_sliding
            model = hs.bk7()
            spec = hs.compound_spec(24, 24, model)
            truth = hs.generate_truth(spec, model, (24, 24), hs.default_wavelengths(12))
            noisy = hs.add_noise(truth, hs.NoiseSpec(1.3, 7))
            cfg, window = DenoiseConfig(sigma=1.3), WindowSpec(8, 4)
            for _ in range(2):
                ccf_sliding(noisy, cfg, window, threads=2)
            faults = []
            for _ in range(7):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                ccf_sliding(noisy, cfg, window, threads=2)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            print(statistics.median(faults))
        """)
        src = str(Path(hs.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=300)
        assert res.returncode == 0, res.stderr
        assert float(res.stdout) < 100
