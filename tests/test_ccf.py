import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hscube as hs
from hscube.ccf import WindowSpec, ccf_denoise, ccf_sliding, sliding_plan
from hscube.cdbm3d import DenoiseConfig, Stages, Variant
from hscube.cube import reshape_to_matrix
from hscube.errors import (
    DecompositionFailed,
    HscubeError,
    InvalidConfig,
    ResultOverflow,
    TooFewBands,
    TooFewPixels,
)
from hscube.subspace import identify_subspace


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


def scaled(a, e):
    """a * 2^e, component by component."""
    out = np.empty(np.shape(a), dtype=np.complex128)
    with np.errstate(over="ignore"):
        out.real, out.imag = np.ldexp(np.real(a), e), np.ldexp(np.imag(a), e)
    return out


def peak_exponent(a):
    """e with the largest real or imaginary magnitude of ``a`` in [2^(e-1), 2^e)."""
    return math.frexp(float(np.max(np.abs(np.asarray(a, np.complex128).view(np.float64)))))[1]


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

    def test_window_as_wide_as_the_cube_is_one_run(self):
        for bands, width, step in [(30, 70, 12), (30, 30, 1), (1, 1, 1), (200, 260, 12)]:
            (run,) = sliding_plan(bands, WindowSpec(width=width, step=step))
            assert (run.center, run.band_lo, run.band_hi) == (bands // 2, 0, bands)
            assert run.kept == tuple(range(bands))
        assert len(sliding_plan(30, WindowSpec(width=29, step=1))) == 30

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
        assert len({(run.band_lo, run.band_hi) for run in plan}) == len(plan)  # no rerun
        for run in plan:
            assert 0 <= run.band_lo < run.band_hi <= bands
            assert all(run.band_lo <= b < run.band_hi for b in run.kept)
            # the owner is the nearest covering center, the lower one on a tie
            for b in run.kept:
                covering = [r.center for r in plan if r.band_lo <= b < r.band_hi]
                assert run.center == min(covering, key=lambda c: (abs(b - c), c))

    def test_uncoverable_band_rejected(self):
        with pytest.raises(InvalidConfig, match="^step: band 3 "):
            sliding_plan(50, WindowSpec(width=5, step=10))

    def test_edge_window_too_narrow_rejected(self):
        for width in (1, 2, 3, 4):
            with pytest.raises(InvalidConfig, match="^width: "):
                sliding_plan(20, WindowSpec(width=width, step=3))
        assert sliding_plan(20, WindowSpec(width=5, step=3))[0].band_hi == 3
        (run,) = sliding_plan(4, WindowSpec(width=4, step=3))  # the whole cube
        assert (run.band_lo, run.band_hi) == (0, 4)

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

    @pytest.mark.parametrize(
        "shape, error", [((16, 16, 1), TooFewBands), ((1, 1, 4), TooFewPixels)]
    )
    def test_too_small_huge_cube_fails_typed(self, shape, error):
        # such a cube's spectral matrix is a view of its read-only samples
        data = np.full(shape, 1e200 + 1e200j)
        cube = hs.ComplexCube(wavelengths=np.linspace(400, 700, shape[2]), data=data)
        with pytest.raises(error):
            ccf_denoise(cube, DenoiseConfig())

    def test_huge_cube_fails_typed(self):
        # ccf_denoise rescales such a cube first; the subspace estimate alone
        # overflows the band correlations
        cube = rank3_cube(np.random.default_rng(6), l=12, side=16)
        huge = hs.ComplexCube(wavelengths=cube.wavelengths, data=cube.data * 1e200)
        with np.errstate(all="ignore"), pytest.raises(DecompositionFailed):
            identify_subspace(reshape_to_matrix(huge))

    def test_zero_cube_returns_zeros(self):
        cube = hs.ComplexCube(
            wavelengths=np.linspace(400, 700, 12), data=np.zeros((16, 16, 12), complex)
        )
        diags = []
        out = ccf_denoise(cube, DenoiseConfig(), diagnostics=diags)
        assert out.shape == cube.shape and not np.any(out.data)
        assert diags[0]["p"] == 0 and diags[0]["sigma_eigen"] == []

    def test_peak_memory_below_twice_the_payload(self):
        # the spectral matrix is a view of the cube and the result wraps the
        # back-projection: the cube-sized arrays made are the estimate and the
        # conjugate inside the band correlation, never both at once
        rng = np.random.default_rng(6)
        clean = rank3_cube(rng, l=120, side=48).data
        noisy = clean + 0.5 * (rng.normal(size=clean.shape) + 1j * rng.normal(size=clean.shape))
        cube = hs.ComplexCube(wavelengths=np.linspace(400, 700, 120), data=noisy)
        del clean, noisy
        cfg = DenoiseConfig(stages=Stages.THRESHOLD_ONLY)
        ccf_denoise(cube, cfg)  # fill the sigma calibration outside the trace
        tracemalloc.start()
        try:
            ccf_denoise(cube, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * cube.data.nbytes

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

    def test_window_sub_cubes_share_the_input_memory(self, small_noisy_pair, monkeypatch):
        _, noisy = small_noisy_pair
        shared = []

        def spy(sub, *args, **kwargs):
            shared.append(np.shares_memory(sub.data, noisy.data))
            return ccf_denoise(sub, *args, **kwargs)

        monkeypatch.setattr(hs.ccf, "ccf_denoise", spy)
        window = WindowSpec(16, 8)
        ccf_sliding(noisy, DenoiseConfig(stages=Stages.THRESHOLD_ONLY), window)
        assert len(shared) == len(sliding_plan(noisy.n_bands, window)) and all(shared)

    def test_peak_memory_does_not_grow_with_windows(self):
        # finished window jobs hold only the bands they own: one cube in all
        rng = np.random.default_rng(5)
        clean = rank3_cube(rng, l=120, side=16).data
        noisy = clean + 0.5 * (rng.normal(size=clean.shape) + 1j * rng.normal(size=clean.shape))
        cube = hs.ComplexCube(wavelengths=np.linspace(400, 700, 120), data=noisy)
        cfg = DenoiseConfig(stages=Stages.THRESHOLD_ONLY)
        ccf_denoise(cube, cfg)  # fill the sigma calibration outside the traces

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        window = hs.ComplexCube(wavelengths=cube.wavelengths[:32], data=noisy[:, :, :32])
        one_window = peak(lambda: ccf_denoise(window, cfg))
        fifteen = peak(lambda: ccf_sliding(cube, cfg, WindowSpec(32, 8)))
        thirty = peak(lambda: ccf_sliding(cube, cfg, WindowSpec(32, 4)))
        assert fifteen <= one_window + 2 * noisy.nbytes
        assert thirty <= fifteen + noisy.nbytes / 2


class TestScaleSafety:
    """A cube out of the safe magnitude band [2^-400, 2^400) is filtered by
    ``ccf_denoise`` at the power-of-two scale that brings its peak to
    [1/2, 1), and the result, diagnostics included, is scaled back;
    ``ccf_sliding`` leaves that to ``ccf_denoise``, window by window."""

    WINDOW = WindowSpec(5, 3)

    @staticmethod
    def noisy_rank3(seed, l=6, side=12):
        rng = np.random.default_rng(seed)
        clean = rank3_cube(rng, l=l, side=side).data
        return clean + 0.3 * (rng.normal(size=clean.shape) + 1j * rng.normal(size=clean.shape))

    @classmethod
    def run(cls, method, data):
        """(output samples or None on ResultOverflow, diagnostics)."""
        cube = hs.ComplexCube(wavelengths=np.linspace(400, 700, data.shape[2]), data=data)
        diags: list = []
        try:
            if method == "ccf":
                out = ccf_denoise(cube, DenoiseConfig(), diagnostics=diags)
            else:
                out = ccf_sliding(cube, DenoiseConfig(), cls.WINDOW, diagnostics=diags)
        except ResultOverflow:
            return None, diags
        return out.data, diags

    @classmethod
    def by_window(cls, data):
        """The sliding output assembled from one ``ccf_denoise`` per window,
        and their diagnostics; None when a window's result overflows."""
        out = np.empty_like(data)
        diags: list = []
        for run in sliding_plan(data.shape[2], cls.WINDOW):
            sub, info = cls.run("ccf", data[:, :, run.band_lo : run.band_hi])
            if sub is None:
                return None, []
            out[:, :, list(run.kept)] = sub[:, :, [b - run.band_lo for b in run.kept]]
            diags += info
        return out, diags

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.one_of(st.integers(-1000, -400), st.integers(401, 1024)),
    )
    def test_any_magnitude(self, seed, k):
        x = self.noisy_rank3(seed)
        y = scaled(x, k - peak_exponent(x))
        e = peak_exponent(y)
        out, diags = self.run("ccf", y)
        expected, expected_diags = self.run("ccf", scaled(y, -e))
        expected = scaled(expected, e)
        if not np.all(np.isfinite(expected)):
            assert out is None
            return
        assert out.tobytes() == expected.tobytes()
        (got,), (want,) = diags, expected_diags
        with np.errstate(over="ignore"):
            assert got["sigma_eigen"] == list(np.ldexp(want["sigma_eigen"], e))
            assert got["eigenvalues"] == list(np.ldexp(want["eigenvalues"], 2 * e))

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.one_of(st.integers(-1000, -400), st.integers(401, 1024)),
    )
    def test_sliding_any_magnitude(self, seed, k):
        x = self.noisy_rank3(seed)
        y = scaled(x, k - peak_exponent(x))
        out, diags = self.run("sliding", y)
        expected, expected_diags = self.by_window(y)
        if expected is None:
            assert out is None
            return
        assert np.all(np.isfinite(out))
        assert out.tobytes() == expected.tobytes()
        assert len(diags) == len(expected_diags)
        for got, want in zip(diags, expected_diags):
            for key in ("p", "sigma_eigen", "eigenvalues", "mse_curve"):
                assert got[key] == want[key]

    @pytest.mark.parametrize("k", [-450, 450])
    def test_threshold_is_scaled_with_the_cube(self, k):
        # match_threshold is a squared distance in the cube's units
        x = self.noisy_rank3(7, l=12, side=16)
        canon = scaled(x, -peak_exponent(x))
        cfg = DenoiseConfig(match_threshold=0.3)
        wavelengths = np.linspace(400, 700, 12)
        out = ccf_denoise(hs.ComplexCube(wavelengths, scaled(canon, k)),
                          replace(cfg, match_threshold=math.ldexp(0.3, 2 * k)))
        expected = ccf_denoise(hs.ComplexCube(wavelengths, canon), cfg)
        assert not np.array_equal(expected.data, ccf_denoise(hs.ComplexCube(wavelengths, canon),
                                                             DenoiseConfig()).data)
        assert out.data.tobytes() == scaled(expected.data, k).tobytes()

    @pytest.mark.parametrize("factor", [1e-200, 1e200])
    def test_scales_that_used_to_fail(self, factor):
        # unscaled, the band correlations underflowed into SingularRegression
        # or overflowed into DecompositionFailed
        x = self.noisy_rank3(6, l=12, side=16) * factor
        out, _ = self.run("ccf", x)
        canon, _ = self.run("ccf", scaled(x, -peak_exponent(x)))
        assert out.tobytes() == scaled(canon, peak_exponent(x)).tobytes()
        out, _ = self.run("sliding", x)
        assert np.all(np.isfinite(out))
        assert out.tobytes() == self.by_window(x)[0].tobytes()
