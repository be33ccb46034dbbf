import csv
import dataclasses
import io
import json
import pathlib

import numpy as np
import pytest

import hscube as hs
from hscube.ccf import WindowSpec
from hscube.cdbm3d import DenoiseConfig
from hscube.errors import (
    DimensionMismatch,
    DispersionRequired,
    InvalidConfig,
    ManifestError,
    ZeroReference,
)
from hscube.evaluate import (
    CSV_COLUMNS,
    METHOD_NAMES,
    MethodDef,
    ObjectDef,
    csv_text,
    make_report,
    parse_manifest,
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

    def test_sums_in_pixel_major_order(self):
        # the cube holds its samples band-major; the energies still add
        # pixel-major, so the ratio is the same float in either layout
        rng = np.random.default_rng(21)
        shape = (17, 23, 9)
        a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
        wl = np.linspace(400, 500, 9)
        got = hs.snr_db(hs.ComplexCube(wl, a), hs.ComplexCube(wl, b))
        signal = float(np.sum(np.abs(b) ** 2))
        noise = float(np.sum(np.abs(a - b) ** 2))
        assert got == 10.0 * np.log10(signal / noise)

    def test_zero_noise_sentinel(self):
        cube = tiny_cube(np.random.default_rng(5))
        assert hs.snr_db(cube, cube) == float("inf")


class TestBaselineAverage:
    def test_noiseless_interferometric_identity(self, bk7_model):
        spec = hs.two_peak_spec(16, 16, bk7_model)
        truth = hs.generate_truth(spec, bk7_model, (16, 16), hs.default_wavelengths(10))
        out = hs.baseline_average(truth, bk7_model, "global")
        assert np.max(np.abs(np.angle(out.data) - np.angle(truth.data))) <= 1e-10

    def test_band_mean_adds_in_pixel_major_order(self, bk7_model):
        # as for snr_db: the same floats whichever layout holds the samples
        rng = np.random.default_rng(22)
        data = np.exp(1j * rng.uniform(-3.0, 3.0, size=(17, 23, 9)))
        wl = np.linspace(400, 500, 9)
        out = hs.baseline_average(hs.ComplexCube(wl, data), bk7_model, "global")
        scale = (wl / 1000.0) / (2.0 * np.pi * (hs.refractive_index(bk7_model, wl) - 1.0))
        h = np.angle(data) * scale
        expected = np.abs(data) * np.exp(1j * (h.mean(axis=2, keepdims=True) / scale))
        assert np.array_equal(out.data, expected)

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

    def test_unknown_mode_is_a_config_error(self, bk7_model):
        cube = tiny_cube(np.random.default_rng(6))
        with pytest.raises(InvalidConfig, match=r"^mode: .*'bogus'"):
            hs.baseline_average(cube, bk7_model, mode="bogus")

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


class TestObjectTruth:
    @pytest.mark.parametrize("kind, build", [
        (ObjectKind.TWO_PEAK, hs.two_peak_spec),
        (ObjectKind.COMPOUND, hs.compound_spec),
        (ObjectKind.WRAPPED_PEAK, hs.wrapped_peak_spec),
    ])
    def test_truth_is_the_spec_cube(self, bk7_model, kind, build):
        truth = ObjectDef(kind=kind, name=kind.value).truth((16, 20, 5), (420.0, 700.0), bk7_model)
        wavelengths = np.linspace(420.0, 700.0, 5)
        expected = hs.generate_truth(build(16, 20, bk7_model, 420.0), bk7_model, (16, 20),
                                     wavelengths)
        assert np.array_equal(truth.wavelengths, wavelengths)
        assert truth.data.tobytes() == expected.data.tobytes()

    @pytest.mark.parametrize("kwargs, where", [
        ({"kind": "compound", "name": "bars"}, r"^kind: expected an ObjectKind, got 'compound'"),
        ({"kind": ObjectKind.WRAPPED_PEAK, "name": 7}, r"^name: expected a string, got 7"),
    ])
    def test_hand_built_object_checked_when_built(self, kwargs, where):
        with pytest.raises(InvalidConfig, match=where):
            ObjectDef(**kwargs)


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
        assert m.size == (16, 16, 8) and m.lambda_nm == (400.0, 798.0)
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

    @pytest.mark.parametrize("method, where", [
        pytest.param({"window": 8.7}, r"window: width: ", id="window-float"),
        pytest.param({"window": True}, r"window: width: ", id="window-bool"),
        pytest.param({"step": "8"}, r"window: step: ", id="step-string"),
        pytest.param({"config": {"search_radius": True}}, r"config\.search_radius: ",
                     id="radius-bool"),
        pytest.param({"config": {"match_threshold": float("nan")}},
                     r"config\.match_threshold: ", id="threshold-nan"),
        pytest.param({"config": {"sigma": 1.0}}, r"config\.sigma: unknown", id="sigma"),
        pytest.param({"config": {"variant": 4}}, r"config\.variant: unknown", id="variant"),
        pytest.param({"config": [8]}, r"config: expected an object", id="config-list"),
    ])
    def test_settings_checked_by_their_dataclass(self, method, where):
        with pytest.raises(ManifestError, match=r"^methods\[0\]\." + where):
            parse_manifest(small_manifest(methods=[{"name": "ccf-sliding", **method}]))

    @pytest.mark.parametrize("width, bands", [(1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (4, 4)])
    def test_sliding_window_too_narrow_for_its_edge(self, width, bands):
        # the edge window at band 0 holds ceil(width / 2) bands, the subspace
        # needs 3; a window as wide as the cube is the whole cube
        doc = small_manifest(size=[16, 16, bands],
                             methods=[{"name": "ccf-sliding", "window": width, "step": 2}])
        if width < 5 and width < bands:
            with pytest.raises(ManifestError, match=r"^methods\[0\]\.window: width: "):
                parse_manifest(doc)
        else:
            (method,) = parse_manifest(doc).methods
            assert method.window == WindowSpec(width, 2)

    def test_sliding_plan_leaving_a_band_uncovered(self):
        doc = small_manifest(size=[16, 16, 20],
                             methods=[{"name": "ccf-sliding", "window": 5, "step": 10}])
        with pytest.raises(ManifestError, match=r"^methods\[0\]\.window: step: "):
            parse_manifest(doc)

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

    @pytest.mark.parametrize("override, where", [
        ({"seeds": [-1]}, r"seeds\[0\]: seed: "),
        ({"seeds": [True]}, r"seeds\[0\]: seed: "),
        ({"objects": [{"kind": "compound", "target_phase": float("nan")}]},
         r"objects\[0\]\.target_phase: "),
        ({"objects": [{"kind": "wrapped", "max_phase": "28"}]}, r"objects\[0\]\.max_phase: "),
        ({"objects": ["compound", {"kind": "two-peak", "target_phase": 4}]},
         r"objects\[1\]\.target_phase: "),
        ({"sigmas": [0.5, float("inf")]}, r"sigmas\[1\]: sigma: "),
        ({"sigmas": [True]}, r"sigmas\[0\]: sigma: "),
        ({"sigmas": [0.5, "1"]}, r"sigmas\[1\]: sigma: "),
        ({"size": [16, 0, 8]}, r"size: "),
        ({"lambda_nm": [float("nan"), 500]}, r"lambda_nm: "),
        ({"dispersion": {"a0": "1.5"}}, r"dispersion: a0: expected a finite number, got '1\.5'"),
        ({"dispersion": {"a0": True}}, r"dispersion: a0: "),
        ({"dispersion": {"b0_um2": float("nan")}}, r"dispersion: b0_um2: "),
        ({"dispersion": {"a0": 0.9, "b0_um2": 0}}, r"dispersion: refractive index "),
        ({"objects": [{"kind": "wrapped", "name": 7}]}, r"objects\[0\]\.name: "),
        ({"methods": [{"name": "noop", "label": 5}]}, r"methods\[0\]\.label: "),
        ({"methods": [{"name": "average", "mode": "Global"}]},
         r"methods\[0\]\.average_mode: .*'Global'"),
    ])
    def test_noise_object_and_geometry_errors_name_their_field(self, override, where):
        with pytest.raises(ManifestError, match="^" + where):
            parse_manifest(small_manifest(**override))

    @pytest.mark.parametrize("override, where", [
        ({"output": "x.csv"}, r"output: unknown field"),
        ({"dispersion": {"a0": 1.5, "b0": 0.004}}, r"dispersion\.b0: unknown field"),
        ({"objects": [{"kind": "two-peak", "phase": 2.0}]}, r"objects\[0\]\.phase: unknown field"),
        ({"methods": [{"name": "noop", "windw": 3}]}, r"methods\[0\]\.windw: unknown field"),
        ({"methods": [{"name": "noop", "sigma_known": False}]},
         r"methods\[0\]\.sigma_known: unknown field"),
    ])
    def test_unknown_keys_rejected_with_their_path(self, override, where):
        with pytest.raises(ManifestError, match="^" + where):
            parse_manifest(small_manifest(**override))

    @pytest.mark.parametrize("name", ["comparison", "fig3a", "fig3b", "fig3d"])
    def test_shipped_manifests_parse(self, name):
        path = pathlib.Path(__file__).resolve().parents[1] / "manifests" / f"{name}.manifest"
        manifest = parse_manifest(json.loads(path.read_text()))
        assert manifest.methods
        assert all(method.name in METHOD_NAMES for method in manifest.methods)

    def test_index_checked_on_the_manifest_grid(self):
        # above 1 over 400-798 nm, below 1 at 200 nm, where this grid starts
        dispersion = {"a0": 1.5, "b0_um2": 0.0, "c0_um4": -0.01}
        assert parse_manifest(small_manifest(dispersion=dispersion)).dispersion == (
            DispersionModel(1.5, 0.0, -0.01)
        )
        with pytest.raises(ManifestError, match=r"^dispersion: refractive index .* at 200 nm"):
            parse_manifest(small_manifest(dispersion=dispersion, lambda_nm=[200, 300]))

    def test_empty_lists_allowed(self):
        m = parse_manifest(small_manifest(objects=[], methods=[]))
        reports, failures = run_experiment(m)
        assert reports == [] and failures == []

    @pytest.mark.parametrize("kwargs, where", [
        ({"name": "bogus"}, r"^name: unknown method 'bogus'"),
        ({"name": "noop", "average_mode": "x"}, r"^average_mode: .*'x'"),
        ({"name": "average", "average_mode": "Global"}, r"^average_mode: .*'Global'"),
        ({"name": "noop", "label": 5}, r"^label: expected a string, got 5"),
    ])
    def test_hand_built_method_checked_when_built(self, kwargs, where):
        # checked like DenoiseConfig and WindowSpec, before any cube is built
        with pytest.raises(InvalidConfig, match=where):
            MethodDef(**kwargs)


class TestRunExperiment:
    def test_runs_and_is_deterministic(self):
        m = parse_manifest(small_manifest())
        r1, f1 = run_experiment(m)
        r2, f2 = run_experiment(m)
        assert not f1 and not f2
        assert len(r1) == 2
        assert csv_text(r1) == csv_text(r2)

    def test_failure_isolated(self):
        # a sliding window too narrow for the 8-band cube fails its own
        # combination; noop still reports
        m = dataclasses.replace(
            parse_manifest(small_manifest()),
            methods=(
                MethodDef(name="ccf-sliding", window=WindowSpec(width=3, step=1)),
                MethodDef(name="noop"),
            ),
        )
        reports, failures = run_experiment(m)
        assert len(failures) == 1
        assert "ccf-sliding" in failures[0][0]
        assert failures[0][1].startswith("InvalidConfig: width")
        assert len(reports) == 1

    def test_bad_values_of_a_hand_built_manifest_fail_per_combination(self):
        # the dataclasses a parsed manifest passes through check these values;
        # a hand-built one reaches run_experiment with them
        m = parse_manifest(small_manifest(size=[16, 8, 8], methods=[{"name": "noop"}]))
        m = dataclasses.replace(
            m,
            objects=m.objects + (ObjectDef(kind=ObjectKind.COMPOUND, name="bars"),),
            sigmas=(0.5, float("inf")),
            seeds=(3, -1),
        )
        reports, failures = run_experiment(m)
        assert [(r.object_name, r.sigma, r.seed) for r in reports] == [("two-peak", 0.5, 3)]
        labels = [label for label, _ in failures]
        assert labels == [
            "two-peak/sigma=0.5/seed=-1/noop",
            "two-peak/sigma=inf/seed=3/noop",
            "two-peak/sigma=inf/seed=-1/noop",
            "bars/sigma=0.5/seed=3/noop",
            "bars/sigma=0.5/seed=-1/noop",
            "bars/sigma=inf/seed=3/noop",
            "bars/sigma=inf/seed=-1/noop",
        ]
        messages = dict(failures)
        assert messages["two-peak/sigma=inf/seed=3/noop"].startswith("InvalidConfig: sigma")
        assert messages["two-peak/sigma=0.5/seed=-1/noop"].startswith("InvalidConfig: seed")
        assert all(messages[label].startswith("DimensionMismatch: compound")
                   for label in labels[3:])

    def test_noop_matches_input_error(self):
        m = parse_manifest(small_manifest(methods=[{"name": "noop"}]))
        reports, _ = run_experiment(m)
        rep = reports[0]
        assert rep.method == "noop"
        assert np.all(rep.rrmse_phase_bands > 0)
        assert rep.p_per_band.tolist() == [-1] * 8


def read_rows(source):
    """The rows of a metrics CSV, as dicts keyed by column name."""
    return list(csv.DictReader(source))


class TestCsvRoundTrip:
    def test_header_exact(self):
        text = csv_text([])
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_round_trip_exact(self):
        # every float column parses back with float() to the report's value
        m = parse_manifest(small_manifest())
        reports, _ = run_experiment(m)
        rows = read_rows(io.StringIO(csv_text(reports)))
        assert len(rows) == sum(len(rep.wavelengths) + 1 for rep in reports)
        for rep in reports:
            mine = [row for row in rows if row["method"] == rep.method]
            bands, (summary,) = mine[:-1], mine[-1:]
            for row in mine:
                assert row["object"] == rep.object_name
                assert float(row["sigma"]) == rep.sigma and int(row["seed"]) == rep.seed
                assert row["window"] == row["step"] == ""
                assert float(row["snr_db"]) == rep.snr_input_db
                assert float(row["seconds"]) == rep.seconds
            assert [int(row["band_index"]) for row in bands] == list(range(len(bands)))
            for name, values in (("wavelength_nm", rep.wavelengths),
                                 ("rrmse_phase", rep.rrmse_phase_bands),
                                 ("rrmse_amp", rep.rrmse_amp_bands)):
                assert np.array_equal([float(row[name]) for row in bands], values), name
            assert [int(row["p_selected"]) for row in bands] == rep.p_per_band.tolist()
            # the summary row holds the band means
            assert (summary["band_index"], summary["wavelength_nm"]) == ("-1", "")
            for name in ("rrmse_phase", "rrmse_amp"):
                band_mean = np.mean([float(row[name]) for row in bands])
                assert float(summary[name]) == band_mean, name
            assert float(summary["rrmse_phase"]) == rep.mean_rrmse_phase
            assert float(summary["rrmse_amp"]) == rep.mean_rrmse_amp
            assert int(summary["p_selected"]) == -1

    def test_file_matches_stream(self, tmp_path):
        m = parse_manifest(small_manifest())
        reports, _ = run_experiment(m)
        path = tmp_path / "out.csv"
        write_csv(reports, path)
        assert path.read_text() == csv_text(reports)

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
