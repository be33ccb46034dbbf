import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hscube as hs
from hscube.ccf import WindowSpec, ccf_denoise, ccf_sliding, sliding_plan
from hscube.cdbm3d import DenoiseConfig, Variant
from hscube.errors import HscubeError, InvalidConfig, TooFewBands


def rank3_cube(rng, l=24, side=24):
    a = rng.normal(size=(l, 3)) + 1j * rng.normal(size=(l, 3))
    b = rng.normal(size=(3, side * side)) + 1j * rng.normal(size=(3, side * side))
    data = (a @ b).reshape(l, side, side).transpose(1, 2, 0)
    return hs.ComplexCube(wavelengths=np.linspace(400, 700, l), data=data)


@pytest.fixture(scope="module")
def small_noisy_pair(bk7_model):
    spec = hs.two_peak_spec(40, 40, bk7_model)
    wl = hs.default_wavelengths(36)
    truth = hs.generate_truth(spec, bk7_model, (40, 40), wl)
    noisy = hs.add_noise(truth, hs.NoiseSpec(sigma=1.3, seed=3))
    return truth, noisy


def mean_rrmse(est, ref):
    return float(np.mean([hs.rrmse_phase(est, ref, b) for b in range(ref.n_bands)]))


class TestSlidingPlan:
    def test_full_scale_window_count(self):
        plan = sliding_plan(200, WindowSpec(width=70, step=12))
        assert len(plan) == 17

    def test_every_band_owned_once(self):
        for l, width, step in [(200, 70, 12), (60, 24, 6), (37, 11, 5), (10, 10, 3)]:
            plan = sliding_plan(l, WindowSpec(width=width, step=step))
            owned = sorted(b for run in plan for b in run.kept)
            assert owned == list(range(l))

    def test_edge_windows_truncated(self):
        plan = sliding_plan(100, WindowSpec(width=40, step=10))
        first, last = plan[0], plan[-1]
        # truncated, not shifted: edge centers keep a one-sided neighborhood
        assert (first.band_lo, first.band_hi) == (0, 20)
        assert first.center == 0
        assert (last.band_lo, last.band_hi) == (70, 100)
        # at least as wide as the cube: the window is the whole cube
        plan = sliding_plan(30, WindowSpec(width=70, step=12))
        assert all((run.band_lo, run.band_hi) == (0, 30) for run in plan)

    def test_band_goes_to_nearest_center(self):
        plan = sliding_plan(50, WindowSpec(width=30, step=10))
        centers = {run.center: run for run in plan}
        # band 14 is 4 away from 10 and 6 away from 20
        assert 14 in centers[10].kept
        # exact tie at band 15 goes to the lower center
        assert 15 in centers[10].kept

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 240), st.integers(1, 260), st.integers(1, 260))
    def test_plan_owns_every_band_once(self, bands, width, step):
        try:
            plan = sliding_plan(bands, WindowSpec(width=width, step=step))
        except HscubeError:
            return
        assert sorted(b for run in plan for b in run.kept) == list(range(bands))
        for run in plan:
            assert 0 <= run.band_lo < run.band_hi <= bands
            assert all(run.band_lo <= b < run.band_hi for b in run.kept)

    def test_uncoverable_band_rejected(self):
        with pytest.raises(ValueError):
            sliding_plan(50, WindowSpec(width=3, step=10))

    def test_invalid_window_spec(self):
        with pytest.raises(InvalidConfig):
            WindowSpec(width=0, step=3)
        with pytest.raises(InvalidConfig):
            WindowSpec(width=5, step=0)


class TestCcfDenoise:
    def test_rank3_noiseless_identity(self):
        cube = rank3_cube(np.random.default_rng(0))
        out = ccf_denoise(cube, DenoiseConfig())
        rel = np.linalg.norm(out.data - cube.data) / np.linalg.norm(cube.data)
        assert rel <= 1e-6

    def test_output_dims_preserved(self, small_noisy_pair):
        _, noisy = small_noisy_pair
        out = ccf_denoise(noisy, DenoiseConfig())
        assert out.shape == noisy.shape
        assert np.array_equal(out.wavelengths, noisy.wavelengths)

    def test_reduces_error_strongly(self, small_noisy_pair):
        truth, noisy = small_noisy_pair
        out = ccf_denoise(noisy, DenoiseConfig())
        assert mean_rrmse(out, truth) < 0.5 * mean_rrmse(noisy, truth)

    def test_needs_three_bands(self):
        cube = hs.ComplexCube(
            wavelengths=np.array([400.0, 500.0]),
            data=np.ones((16, 16, 2), complex),
        )
        with pytest.raises(TooFewBands):
            ccf_denoise(cube, DenoiseConfig())

    def test_diagnostics_recorded(self, small_noisy_pair):
        _, noisy = small_noisy_pair
        diags = []
        ccf_denoise(noisy, DenoiseConfig(), diagnostics=diags)
        assert len(diags) == 1
        info = diags[0]
        assert info["p"] >= 1
        assert len(info["sigma_eigen"]) == info["p"]
        assert len(info["eigenvalues"]) == noisy.n_bands

    def test_phase_equivariance(self):
        # rotating the cube by a global unit phase rotates the output
        cube = rank3_cube(np.random.default_rng(5), l=16, side=20)
        noisy = hs.add_noise(cube, hs.NoiseSpec(sigma=0.3, seed=2))
        cfg = DenoiseConfig(variant=Variant.COMPLEX_3D)
        c = np.exp(1j * 0.7)
        base = ccf_denoise(noisy, cfg)
        rotated = ccf_denoise(
            hs.ComplexCube(wavelengths=noisy.wavelengths, data=c * noisy.data), cfg
        )
        err = np.linalg.norm(rotated.data - c * base.data) / np.linalg.norm(base.data)
        assert err <= 1e-8

    def test_threads_do_not_change_result(self, small_noisy_pair):
        _, noisy = small_noisy_pair
        a = ccf_denoise(noisy, DenoiseConfig(), threads=1)
        b = ccf_denoise(noisy, DenoiseConfig(), threads=4)
        assert np.array_equal(a.data, b.data)


class TestCcfSliding:
    def test_single_window_equals_whole_run(self, small_noisy_pair):
        _, noisy = small_noisy_pair
        cfg = DenoiseConfig()
        single = ccf_denoise(noisy, cfg)
        slid = ccf_sliding(noisy, cfg, WindowSpec(width=noisy.n_bands, step=noisy.n_bands))
        assert np.array_equal(single.data, slid.data)

    def test_window_p_bounded_by_width(self, small_noisy_pair):
        _, noisy = small_noisy_pair
        diags = []
        ccf_sliding(noisy, DenoiseConfig(), WindowSpec(12, 6), diagnostics=diags)
        for info in diags:
            assert 1 <= info["p"] <= info["band_hi"] - info["band_lo"]

    def test_sliding_beats_single_run(self, small_noisy_pair):
        truth, noisy = small_noisy_pair
        cfg = DenoiseConfig()
        single = ccf_denoise(noisy, cfg)
        slid = ccf_sliding(noisy, cfg, WindowSpec(16, 6))
        assert mean_rrmse(slid, truth) <= mean_rrmse(single, truth)

    def test_every_band_written_once(self, small_noisy_pair):
        _, noisy = small_noisy_pair
        diags = []
        out = ccf_sliding(noisy, DenoiseConfig(), WindowSpec(16, 6), diagnostics=diags)
        claimed = sorted(b for info in diags for b in info["kept_bands"])
        assert claimed == list(range(noisy.n_bands))
        assert np.all(np.isfinite(out.data))

    def test_threads_do_not_change_result(self, small_noisy_pair):
        _, noisy = small_noisy_pair
        cfg = DenoiseConfig()
        a = ccf_sliding(noisy, cfg, WindowSpec(16, 6), threads=1)
        b = ccf_sliding(noisy, cfg, WindowSpec(16, 6), threads=3)
        assert np.array_equal(a.data, b.data)
