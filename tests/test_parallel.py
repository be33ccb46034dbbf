import threading
import time

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


def test_no_op_limiter_keeps_submission_order(monkeypatch):
    monkeypatch.setattr(parallel, "_openblas_controls", lambda: None)

    def make_job(i):
        def job():
            time.sleep(0.01 * (5 - i))  # later jobs finish first
            return i

        return job

    assert run_jobs([make_job(i) for i in range(6)], threads=3) == list(range(6))
