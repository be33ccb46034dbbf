import dataclasses
import io

import numpy as np
import pytest

import hscube as hs
from hscube.ccf import WindowSpec
from hscube.cdbm3d import DenoiseConfig
from hscube.errors import DimensionMismatch, DispersionRequired, ManifestError, ZeroReference
from hscube.evaluate import (
    CSV_COLUMNS,
    MethodDef,
    ObjectDef,
    csv_text,
    make_report,
    parse_manifest,
    read_csv,
    run_experiment,
    write_csv,
)
from hscube.synth import DispersionModel, ObjectKind


def tiny_cube(rng, side=6, bands=4, phase_scale=0.5):
    phases = phase_scale * rng.normal(size=(side, side, bands))
    return hs.ComplexCube(
        wavelengths=np.linspace(400, 500, bands), data=np.exp(1j * phases)
    )


class TestRrmse:
    def test_equal_cubes_zero(self):
        cube = tiny_cube(np.random.default_rng(0))
        assert hs.rrmse_phase(cube, cube, 0) == 0.0
        assert hs.rrmse_amplitude(cube, cube, 0) == 0.0

    def test_doubled_phase_gives_one(self):
        rng = np.random.default_rng(1)
        phases = 0.3 * rng.normal(size=(8, 8, 2))
        truth = hs.ComplexCube(
            wavelengths=np.array([400.0, 500.0]), data=np.exp(1j * phases)
        )
        est = hs.ComplexCube(
            wavelengths=np.array([400.0, 500.0]), data=np.exp(2j * phases)
        )
        assert hs.rrmse_phase(est, truth, 1) == pytest.approx(1.0, rel=1e-12)

    def test_matches_elementwise_reference(self):
        rng = np.random.default_rng(2)
        truth = tiny_cube(rng)
        est = tiny_cube(rng)
        b = 2
        # straightforward elementwise oracle
        pt = np.angle(truth.data[:, :, b])
        pe = np.angle(est.data[:, :, b])
        d = np.mod(pe - pt + np.pi, 2 * np.pi) - np.pi
        expected = np.sqrt((d**2).sum()) / np.sqrt((pt**2).sum())
        assert hs.rrmse_phase(est, truth, b) == pytest.approx(expected, abs=1e-12)

    def test_wrapped_difference(self):
        truth = hs.ComplexCube(
            wavelengths=np.array([400.0]),
            data=np.exp(1j * np.full((4, 4, 1), 3.0)),
        )
        est = hs.ComplexCube(
            wavelengths=np.array([400.0]),
            data=np.exp(1j * np.full((4, 4, 1), -3.0)),
        )
        # raw difference is 6 rad, wrapped difference is 2*pi - 6
        expected = (2 * np.pi - 6.0) / 3.0
        assert hs.rrmse_phase(est, truth, 0) == pytest.approx(expected, rel=1e-9)

    def test_error_scale_covariance(self):
        rng = np.random.default_rng(3)
        phases = 0.2 * rng.normal(size=(8, 8, 1))
        e = 0.05 * rng.normal(size=(8, 8, 1))
        wl = np.array([400.0])
        truth = hs.ComplexCube(wavelengths=wl, data=np.exp(1j * phases))
        est1 = hs.ComplexCube(wavelengths=wl, data=np.exp(1j * (phases + e)))
        est2 = hs.ComplexCube(wavelengths=wl, data=np.exp(1j * (phases + 2 * e)))
        r1 = hs.rrmse_phase(est1, truth, 0)
        r2 = hs.rrmse_phase(est2, truth, 0)
        assert r2 == pytest.approx(2 * r1, rel=1e-9)

    def test_zero_reference_rejected(self):
        cube = hs.ComplexCube(
            wavelengths=np.array([400.0]), data=np.ones((4, 4, 1), complex)
        )
        with pytest.raises(ZeroReference):
            hs.rrmse_phase(cube, cube, 0)

    def test_shape_mismatch(self):
        a = tiny_cube(np.random.default_rng(4), side=6)
        b = tiny_cube(np.random.default_rng(4), side=5)
        with pytest.raises(DimensionMismatch):
            hs.rrmse_phase(a, b, 0)


class TestSnr:
    def test_equal_energy_zero_db(self):
        wl = np.array([400.0])
        truth = hs.ComplexCube(wavelengths=wl, data=np.ones((4, 4, 1), complex))
        noisy = hs.ComplexCube(wavelengths=wl, data=np.ones((4, 4, 1), complex) * (1 + 1j))
        # noise is 1j everywhere: equal energy to the truth
        assert hs.snr_db(noisy, truth) == pytest.approx(0.0, abs=1e-12)

    def test_sigma_25_is_about_minus_8_db(self, bk7_model):
        spec = hs.two_peak_spec(48, 48, bk7_model)
        truth = hs.generate_truth(spec, bk7_model, (48, 48), hs.default_wavelengths(30))
        noisy = hs.add_noise(truth, hs.NoiseSpec(sigma=2.5, seed=1))
        assert hs.snr_db(noisy, truth) == pytest.approx(-8.0, abs=1.0)

    def test_zero_noise_sentinel(self):
        cube = tiny_cube(np.random.default_rng(5))
        assert hs.snr_db(cube, cube) == float("inf")


class TestBaselineAverage:
    def test_noiseless_interferometric_identity(self, bk7_model):
        spec = hs.two_peak_spec(16, 16, bk7_model)
        truth = hs.generate_truth(spec, bk7_model, (16, 16), hs.default_wavelengths(10))
        out = hs.baseline_average(truth, bk7_model, "global")
        assert np.max(np.abs(np.angle(out.data) - np.angle(truth.data))) <= 1e-10

    def test_pairwise_mode_runs(self, bk7_model):
        spec = hs.two_peak_spec(16, 16, bk7_model)
        truth = hs.generate_truth(spec, bk7_model, (16, 16), hs.default_wavelengths(10))
        noisy = hs.add_noise(truth, hs.NoiseSpec(0.5, 3))
        out = hs.baseline_average(noisy, bk7_model, "pairwise")
        assert out.shape == noisy.shape

    def test_requires_model(self):
        cube = tiny_cube(np.random.default_rng(6))
        with pytest.raises(DispersionRequired):
            hs.baseline_average(cube, None, "global")

    def test_amplitude_passthrough(self, bk7_model):
        spec = hs.two_peak_spec(16, 16, bk7_model)
        truth = hs.generate_truth(spec, bk7_model, (16, 16), hs.default_wavelengths(6))
        noisy = hs.add_noise(truth, hs.NoiseSpec(0.8, 4))
        out = hs.baseline_average(noisy, bk7_model, "global")
        assert np.allclose(np.abs(out.data), np.abs(noisy.data), atol=1e-12)


class TestBaselineSeparate:
    def test_sigma_zero_identity(self, bk7_model):
        spec = hs.two_peak_spec(24, 24, bk7_model)
        truth = hs.generate_truth(spec, bk7_model, (24, 24), hs.default_wavelengths(3))
        out = hs.baseline_separate(truth, DenoiseConfig(sigma=0.0))
        assert np.max(np.abs(out.data - truth.data)) <= 1e-10

    def test_amplitude_nonnegative(self, bk7_model):
        spec = hs.two_peak_spec(24, 24, bk7_model)
        truth = hs.generate_truth(spec, bk7_model, (24, 24), hs.default_wavelengths(3))
        noisy = hs.add_noise(truth, hs.NoiseSpec(1.3, 5))
        out = hs.baseline_separate(noisy, DenoiseConfig(sigma=1.3))
        assert np.all(np.abs(out.data) >= 0.0)
        assert out.shape == noisy.shape


def small_manifest(**overrides):
    doc = {
        "schema_version": 1,
        "size": [16, 16, 8],
        "lambda_nm": [400.0, 798.0],
        "objects": ["two-peak"],
        "sigmas": [0.8],
        "seeds": [3],
        "methods": [
            {"name": "average", "mode": "global"},
            {"name": "noop"},
        ],
    }
    doc.update(overrides)
    return doc


class TestManifest:
    def test_parse_minimal(self):
        m = parse_manifest(small_manifest())
        assert m.n_bands == 8
        assert m.objects[0].kind is ObjectKind.TWO_PEAK
        assert m.methods[0].average_mode == "global"

    def test_field_path_in_errors(self):
        with pytest.raises(ManifestError, match=r"methods\[0\]\.name"):
            parse_manifest(small_manifest(methods=[{"name": "nope"}]))
        with pytest.raises(ManifestError, match="schema_version"):
            parse_manifest(small_manifest(schema_version=99))
        with pytest.raises(ManifestError, match="sigmas"):
            parse_manifest(small_manifest(sigmas=[-1.0]))
        with pytest.raises(ManifestError, match=r"methods\[0\]\.config\.patch_rows"):
            parse_manifest(
                small_manifest(methods=[{"name": "noop", "config": {"patch_rows": "x"}}])
            )
        for kind in ("cube", "WRAPPED_PEAK"):
            with pytest.raises(ManifestError, match=r"objects\[1\]\.kind: unknown object kind"):
                parse_manifest(small_manifest(objects=["wrapped", {"kind": kind}]))

    def test_defaults_come_from_the_dataclasses(self):
        m = parse_manifest(small_manifest(
            objects=[kind.value for kind in ObjectKind], methods=[{"name": "ccf-sliding"}]
        ))
        assert [o.kind for o in m.objects] == list(ObjectKind)
        assert all(
            (o.target_phase, o.max_phase) == (ObjectDef.target_phase, ObjectDef.max_phase)
            for o in m.objects
        )
        assert m.dispersion == DispersionModel()
        (method,) = m.methods
        assert method.config == DenoiseConfig() and method.window == WindowSpec()

    def test_empty_lists_allowed(self):
        m = parse_manifest(small_manifest(objects=[], methods=[]))
        reports, failures = run_experiment(m)
        assert reports == [] and failures == []


class TestRunExperiment:
    def test_runs_and_is_deterministic(self):
        m = parse_manifest(small_manifest())
        r1, f1 = run_experiment(m)
        r2, f2 = run_experiment(m)
        assert not f1 and not f2
        assert len(r1) == 2
        assert csv_text(r1) == csv_text(r2)

    def test_failure_isolated(self):
        # averaging a truly zero-phase object fails in rrmse; noop still reports
        m = dataclasses.replace(
            parse_manifest(small_manifest()),
            methods=(
                MethodDef(name="average", average_mode="bogus"),
                MethodDef(name="noop"),
            ),
        )
        reports, failures = run_experiment(m)
        assert len(failures) == 1
        assert "average" in failures[0][0]
        assert len(reports) == 1

    def test_noop_matches_input_error(self):
        m = parse_manifest(small_manifest(methods=[{"name": "noop"}]))
        reports, _ = run_experiment(m)
        rep = reports[0]
        assert rep.method == "noop"
        assert np.all(rep.rrmse_phase_bands > 0)
        assert rep.p_per_band.tolist() == [-1] * 8


class TestCsvRoundTrip:
    def test_header_exact(self):
        text = csv_text([])
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_round_trip_exact(self):
        m = parse_manifest(small_manifest())
        reports, _ = run_experiment(m)
        text = csv_text(reports)
        back = read_csv(io.StringIO(text))
        assert len(back) == len(reports)
        for a, b in zip(reports, back):
            assert b.object_name == a.object_name
            assert b.method == a.method
            assert b.sigma == a.sigma and b.seed == a.seed
            assert b.window == a.window and b.step == a.step
            assert np.array_equal(b.wavelengths, a.wavelengths)
            assert np.array_equal(b.rrmse_phase_bands, a.rrmse_phase_bands)
            assert np.array_equal(b.rrmse_amp_bands, a.rrmse_amp_bands)
            assert np.array_equal(b.p_per_band, a.p_per_band)
            assert b.snr_input_db == a.snr_input_db
            assert b.seconds == a.seconds
        # writing the parsed reports again is byte-identical
        assert csv_text(back) == text

    def test_round_trip_through_file(self, tmp_path):
        m = parse_manifest(small_manifest())
        reports, _ = run_experiment(m)
        path = tmp_path / "out.csv"
        write_csv(reports, path)
        back = read_csv(path)
        assert csv_text(back) == path.read_text()

    def test_make_report_p_per_band_from_diagnostics(self):
        rng = np.random.default_rng(7)
        truth = tiny_cube(rng)
        diags = [
            {"kept_bands": [0, 1], "p": 2},
            {"kept_bands": [2, 3], "p": 3},
        ]
        rep = make_report(
            truth, truth, 10.0, object_name="o", method="ccf-sliding",
            sigma=0.1, seed=1, window=4, step=2, diagnostics=diags,
        )
        assert rep.p_per_band.tolist() == [2, 2, 3, 3]
