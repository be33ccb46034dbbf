import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hscube as hs
from hscube.errors import DimensionMismatch, InvalidConfig, NonPositiveWavelength, OutOfBounds
from hscube.synth import ObjectKind, PhaseObjectSpec


@pytest.fixture(scope="module")
def model():
    return hs.bk7()


class TestDispersion:
    def test_two_term_value(self, model):
        # direct evaluation of the two-term formula at 0.5 um
        assert hs.refractive_index(model, 500.0) == pytest.approx(1.5214, abs=1e-4)

    def test_long_wavelength_limit(self, model):
        assert hs.refractive_index(model, 1e9) == pytest.approx(model.a0, abs=1e-9)

    def test_monotone_decreasing_over_range(self, model):
        wl = np.linspace(400.0, 798.0, 200)
        n = hs.refractive_index(model, wl)
        assert np.all(np.diff(n) < 0)

    def test_rejects_nonpositive_wavelength(self, model):
        with pytest.raises(NonPositiveWavelength):
            hs.refractive_index(model, 0.0)

    @pytest.mark.parametrize("a0", [0.9, math.inf, math.nan])
    def test_rejects_model_with_index_below_one(self, a0):
        with pytest.raises(InvalidConfig):
            hs.DispersionModel(a0=a0, b0_um2=0.0)

    @pytest.mark.parametrize("kwargs, field", [
        ({"a0": "1.5"}, "a0"),
        ({"a0": True}, "a0"),
        ({"a0": math.nan}, "a0"),
        ({"b0_um2": math.inf}, "b0_um2"),
        ({"c0_um4": None}, "c0_um4"),
    ])
    def test_coefficients_are_finite_reals(self, kwargs, field):
        with pytest.raises(InvalidConfig, match=f"^{field}: expected a finite number"):
            hs.DispersionModel(**kwargs)

    def test_coefficients_stored_as_floats(self):
        model = hs.DispersionModel(a0=2, b0_um2=np.float32(0.5), c0_um4=0)
        assert [type(v) for v in (model.a0, model.b0_um2, model.c0_um4)] == [float] * 3
        assert model == hs.DispersionModel(2.0, 0.5, 0.0)

    def test_index_checked_at_the_requested_wavelengths(self):
        # above 1 over 400-798 nm, so the model itself is accepted
        model = hs.DispersionModel(a0=1.5, b0_um2=0.0, c0_um4=-0.01)
        assert hs.refractive_index(model, 400.0) > 1.0
        with pytest.raises(InvalidConfig, match=r"^refractive index .*, got -4\.75 at 200 nm"):
            hs.refractive_index(model, [400.0, 200.0])


class TestWrapPhase:
    def test_half_open_convention(self):
        assert hs.wrap_phase(np.pi) == pytest.approx(-np.pi)
        assert hs.wrap_phase(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
        assert hs.wrap_phase(-np.pi) == pytest.approx(-np.pi)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_range_and_equivalence(self, phi):
        w = float(hs.wrap_phase(phi))
        assert -np.pi <= w < np.pi
        k = (phi - w) / (2 * np.pi)
        assert abs(k - round(k)) < 1e-6


class TestPhaseObjects:
    @pytest.mark.parametrize("value", [-1.0, np.nan])
    def test_thickness_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(InvalidConfig, match="thickness must be finite and nonnegative"):
            PhaseObjectSpec(kind=ObjectKind.TWO_PEAK, thickness_maps=(np.full((3, 3), value),))

    def test_two_peak_below_index_one_is_a_config_error(self):
        model = hs.DispersionModel(a0=1.5, b0_um2=0.0, c0_um4=-0.01)
        with pytest.raises(InvalidConfig, match=r"^refractive index .* at 200 nm"):
            hs.two_peak_spec(8, 8, model, 200.0)

    def test_zero_thickness_zero_phase(self, model):
        spec = PhaseObjectSpec(kind=ObjectKind.TWO_PEAK, thickness_maps=(np.zeros((4, 4)),))
        assert hs.phase_at(spec, model, 1, 2, 500.0) == 0.0

    def test_phase_formula_identity(self, model):
        # h = lambda / (n - 1) gives exactly one full cycle
        lam_nm = 633.0
        n = hs.refractive_index(model, lam_nm)
        h = (lam_nm / 1000.0) / (n - 1.0)
        spec = PhaseObjectSpec(
            kind=ObjectKind.TWO_PEAK, thickness_maps=(np.full((3, 3), h),)
        )
        assert hs.phase_at(spec, model, 0, 0, lam_nm) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_out_of_bounds_pixel(self, model):
        spec = hs.two_peak_spec(8, 8, model)
        with pytest.raises(OutOfBounds):
            hs.phase_at(spec, model, 8, 0, 500.0)

    def test_two_peak_stays_interferometric(self, model):
        spec = hs.two_peak_spec(32, 32, model)
        wl = hs.default_wavelengths(24)
        truth = hs.generate_truth(spec, model, (32, 32), wl)
        for b in range(truth.n_bands):
            t = b / truth.n_bands
            phases = np.array(
                [
                    hs.phase_at(spec, model, x, y, wl[b], t)
                    for y in range(32)
                    for x in range(32)
                ]
            )
            assert phases.max() < np.pi
            assert phases.min() >= 0.0

    @pytest.mark.parametrize("phase", [0.0, np.pi, 4.0])
    def test_two_peak_phase_outside_zero_pi_names_its_field(self, model, phase):
        with pytest.raises(InvalidConfig, match="^target_phase: "):
            hs.two_peak_spec(16, 16, model, target_phase=phase)

    def test_wrapped_peak_calibration(self, model):
        spec = hs.wrapped_peak_spec(32, 32, model, max_phase=28.9)
        h = spec.thickness_maps[0]
        n400 = hs.refractive_index(model, 400.0)
        max_phase = 2 * np.pi * h.max() * (n400 - 1.0) / 0.4
        assert max_phase == pytest.approx(28.9, abs=1e-6)

    def test_compound_sections(self, model):
        spec = hs.compound_spec(24, 24, model)
        wl = hs.default_wavelengths(30)
        truth = hs.generate_truth(spec, model, (24, 24), wl)
        # all slices in the first third share the binary map pattern
        first = spec.thickness_maps[0]
        for b in range(10):
            phase = np.angle(truth.band(b))
            assert np.array_equal(phase > 1e-9, first > 0)
        assert len({m.tobytes() for m in spec.thickness_maps}) == 3

    def test_compound_minimum_size(self, model):
        hs.compound_spec(5, 10, model)
        for rows, cols in [(4, 29), (29, 9), (1, 1)]:
            with pytest.raises(DimensionMismatch, match="at least 5 rows and 10 columns"):
                hs.compound_spec(rows, cols, model)

    def test_compound_needs_three_maps(self):
        with pytest.raises(DimensionMismatch):
            PhaseObjectSpec(kind=ObjectKind.COMPOUND, thickness_maps=(np.zeros((4, 4)),))

    def test_generate_dims_must_match(self, model):
        spec = hs.two_peak_spec(16, 16, model)
        with pytest.raises(DimensionMismatch):
            hs.generate_truth(spec, model, (8, 8), hs.default_wavelengths(5))


class TestGenerateTruth:
    def test_unit_amplitude(self, model):
        spec = hs.two_peak_spec(16, 16, model)
        truth = hs.generate_truth(spec, model, (16, 16), hs.default_wavelengths(8))
        assert np.allclose(np.abs(truth.data), 1.0, atol=1e-12)

    def test_angle_matches_phase_at(self, model):
        spec = hs.wrapped_peak_spec(12, 12, model)
        wl = hs.default_wavelengths(6)
        truth = hs.generate_truth(spec, model, (12, 12), wl)
        rng = np.random.default_rng(1)
        for _ in range(40):
            x, y, b = rng.integers(12), rng.integers(12), rng.integers(6)
            expected = hs.wrap_phase(
                hs.phase_at(spec, model, int(x), int(y), wl[b], b / len(wl))
            )
            assert np.angle(truth.data[y, x, b]) == pytest.approx(
                float(expected), abs=1e-12
            )

    def test_default_grid_covers_400_798(self):
        wl = hs.default_wavelengths()
        assert len(wl) == 200
        assert wl[0] == 400.0 and wl[-1] == 798.0


class TestNoise:
    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(InvalidConfig, match="sigma"):
            hs.NoiseSpec(sigma=sigma)

    def test_sigma_zero_is_identity(self, model):
        spec = hs.two_peak_spec(8, 8, model)
        truth = hs.generate_truth(spec, model, (8, 8), hs.default_wavelengths(4))
        noisy = hs.add_noise(truth, hs.NoiseSpec(sigma=0.0, seed=11))
        assert np.array_equal(noisy.data, truth.data)

    def test_seed_determinism(self, model):
        spec = hs.two_peak_spec(8, 8, model)
        truth = hs.generate_truth(spec, model, (8, 8), hs.default_wavelengths(4))
        a = hs.add_noise(truth, hs.NoiseSpec(sigma=1.0, seed=42))
        b = hs.add_noise(truth, hs.NoiseSpec(sigma=1.0, seed=42))
        assert np.array_equal(a.data, b.data)
        c = hs.add_noise(truth, hs.NoiseSpec(sigma=1.0, seed=43))
        assert not np.array_equal(a.data, c.data)

    def test_total_variance_convention(self, model):
        spec = hs.two_peak_spec(64, 64, model)
        truth = hs.generate_truth(spec, model, (64, 64), hs.default_wavelengths(16))
        sigma = 1.3
        noisy = hs.add_noise(truth, hs.NoiseSpec(sigma=sigma, seed=5))
        diff = noisy.data - truth.data
        # 64x64x16 samples put the variance estimate well within 2 percent
        assert np.var(diff) == pytest.approx(sigma**2, rel=0.02)

    def test_noise_is_centered_and_circular(self, model):
        spec = hs.two_peak_spec(32, 32, model)
        truth = hs.generate_truth(spec, model, (32, 32), hs.default_wavelengths(16))
        diff = (hs.add_noise(truth, hs.NoiseSpec(1.0, 9)).data - truth.data).ravel()
        n = diff.size
        assert abs(diff.mean()) < 4.0 / np.sqrt(n)
        corr = np.mean(diff.real * diff.imag)
        assert abs(corr) < 4.0 * 0.5 / np.sqrt(n)
