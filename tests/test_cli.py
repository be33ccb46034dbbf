import csv
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import hscube as hs
from hscube import cli
from hscube.ccf import WindowSpec
from hscube.cdbm3d import DenoiseConfig
from hscube.cube import read_cube, write_cube
from hscube.evaluate import CSV_COLUMNS, METHOD_NAMES, ObjectDef, config_snapshot
from hscube.synth import ObjectKind


def read_rows(path):
    """The rows of a metrics CSV, as dicts keyed by column name."""
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "hscube", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """Directory holding a small deterministic truth/noisy pair."""
    d = tmp_path_factory.mktemp("clidata")
    res = run_cli(
        "synth", "--object", "two-peak", "--size", 24, 24, 12,
        "--lambda", 400, 798, "--sigma", 1.3, "--seed", 7,
        "--out", d / "truth.chsc", "--noisy-out", d / "noisy.chsc",
    )
    assert res.returncode == 0, res.stderr
    return d


class TestSynth:
    def test_writes_two_files_and_prints_snr(self, synth_dir):
        truth = read_cube(synth_dir / "truth.chsc")
        noisy = read_cube(synth_dir / "noisy.chsc")
        assert truth.shape == (24, 24, 12)
        assert noisy.shape == (24, 24, 12)

    def test_deterministic(self, synth_dir, tmp_path):
        res = run_cli(
            "synth", "--object", "two-peak", "--size", 24, 24, 12,
            "--lambda", 400, 798, "--sigma", 1.3, "--seed", 7,
            "--out", tmp_path / "t.chsc", "--noisy-out", tmp_path / "n.chsc",
        )
        assert res.returncode == 0
        assert (tmp_path / "t.chsc").read_bytes() == (synth_dir / "truth.chsc").read_bytes()
        assert (tmp_path / "n.chsc").read_bytes() == (synth_dir / "noisy.chsc").read_bytes()

    def test_sigma_zero_noisy_equals_truth(self, tmp_path):
        res = run_cli(
            "synth", "--object", "two-peak", "--size", 16, 16, 6,
            "--sigma", 0, "--out", tmp_path / "t.chsc",
            "--noisy-out", tmp_path / "n.chsc",
        )
        assert res.returncode == 0
        assert (tmp_path / "t.chsc").read_bytes() == (tmp_path / "n.chsc").read_bytes()
        assert "inf" in res.stdout

    def test_wrapped_max_phase_calibration(self, tmp_path):
        res = run_cli(
            "synth", "--object", "wrapped", "--size", 24, 24, 8,
            "--max-phase-400", 28.9, "--out", tmp_path / "w.chsc",
            "--noisy-out", tmp_path / "wn.chsc",
        )
        assert res.returncode == 0
        cube = read_cube(tmp_path / "w.chsc")
        model = hs.bk7()
        n400 = hs.refractive_index(model, 400.0)
        # recover thickness from the longest wavelength, where nothing wraps...
        # instead check directly: the wrapped truth's absolute phase peak
        spec = hs.wrapped_peak_spec(24, 24, model, max_phase=28.9)
        top = 2 * np.pi * spec.thickness_maps[0].max() * (n400 - 1.0) / 0.4
        assert top == pytest.approx(28.9, abs=1e-6)
        assert np.all(np.abs(np.angle(cube.data)) <= np.pi)

    @pytest.mark.parametrize("flags", [
        ("--object", "unknown"),
        ("--sigma", -1),
        ("--sigma", "nan"),
        ("--dispersion", "0.5,0"),
        ("--lambda", 0, 500),
        ("--object", "compound", "--size", 9, 9, 4),
        # the index is above 1 over 400-798 nm, below 1 at 200-300 nm
        ("--lambda", 200, 300, "--dispersion", "1.5,0,-0.01"),
    ])
    def test_bad_flags_exit_2(self, tmp_path, flags):
        res = run_cli(  # a repeated flag takes its last value
            "synth", "--object", "two-peak", "--size", 16, 16, 4, *flags,
            "--out", tmp_path / "t.chsc", "--noisy-out", tmp_path / "n.chsc",
        )
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("flags, field", [
        (("--object", "compound", "--sigma", 1, "--seed", -1), "seed"),
        (("--size", 0, 8, 4), "size"),
        (("--size", 8, 8, 0), "size"),
        (("--lambda", 500, 400), "lambda_nm"),
        (("--lambda", "nan", 500), "lambda_nm"),
        (("--target-phase", "nan"), "target_phase"),
        (("--target-phase", 4), "target_phase"),
        (("--object", "wrapped", "--max-phase-400", "inf"), "max_phase"),
    ])
    def test_setting_errors_name_their_field(self, tmp_path, flags, field):
        res = run_cli(
            "synth", "--object", "two-peak", "--size", 16, 16, 4, *flags,
            "--out", tmp_path / "t.chsc", "--noisy-out", tmp_path / "n.chsc",
        )
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"error: {field}: "), res.stderr
        assert not (tmp_path / "t.chsc").exists()


# every DenoiseConfig flag of `denoise`: a value other than the default, the
# config fields it sets, and an out-of-range value
CONFIG_FLAGS = [
    ("--patch", (4, 6), {"patch_rows": 4, "patch_cols": 6}, (4, 0)),
    ("--patch-step", (2,), {"patch_step": 2}, (0,)),
    ("--search-radius", (5,), {"search_radius": 5}, (-1,)),
    ("--group-size", (8,), {"max_group_size": 8}, (0,)),
    ("--match-threshold", (0.5,), {"match_threshold": 0.5}, (-1,)),
    ("--hard-threshold", (3.5,), {"hard_threshold_factor": 3.5}, ("nan",)),
    ("--sigma", (0.7,), {"sigma": 0.7}, ("inf",)),
    ("--variant", ("complex3d",), {"variant": "complex3d"}, ("complex4d",)),
    ("--stages", ("threshold",), {"stages": "threshold"}, ("wiener",)),
]


class TestDenoise:
    def test_config_flags_cover_every_field(self):
        covered = {name for _, _, fields, _ in CONFIG_FLAGS for name in fields}
        assert covered == {f.name for f in dataclasses.fields(DenoiseConfig)}

    @pytest.mark.parametrize("flag, value, expected, bad", CONFIG_FLAGS,
                             ids=[row[0] for row in CONFIG_FLAGS])
    def test_config_flag_reaches_the_sidecar(self, synth_dir, tmp_path, flag, value, expected,
                                             bad):
        out = tmp_path / "c.chsc"
        res = run_cli("denoise", "--method", "cdbm3d-slice", flag, *value,
                      synth_dir / "noisy.chsc", out)
        assert res.returncode == 0, res.stderr
        config = json.loads((tmp_path / "c.chsc.json").read_text())["config"]
        assert {key: config[key] for key in expected} == expected
        default = config_snapshot(DenoiseConfig())
        assert {key: v for key, v in config.items() if key not in expected} == {
            key: v for key, v in default.items() if key not in expected
        }

        res = run_cli("denoise", "--method", "cdbm3d-slice", flag, *bad,
                      synth_dir / "noisy.chsc", tmp_path / "bad.chsc")
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "bad.chsc").exists()

    def test_timings_fill_only_the_sidecar_seconds(self, synth_dir, tmp_path):
        seconds, cubes = [], []
        for name, flags in (("plain.chsc", ()), ("timed.chsc", ("--timings",))):
            res = run_cli("denoise", "--method", "ccf", *flags, synth_dir / "noisy.chsc",
                          tmp_path / name)
            assert res.returncode == 0, res.stderr
            seconds.append(json.loads((tmp_path / (name + ".json")).read_text())["seconds"])
            cubes.append((tmp_path / name).read_bytes())
        assert seconds[0] is None
        assert isinstance(seconds[1], float) and seconds[1] > 0
        assert cubes[0] == cubes[1]

    def test_ccf_sliding_with_sidecar(self, synth_dir, tmp_path):
        out = tmp_path / "den.chsc"
        res = run_cli(
            "denoise", "--method", "ccf-sliding", "--window", 8, "--step", 4,
            synth_dir / "noisy.chsc", out,
        )
        assert res.returncode == 0, res.stderr
        sidecar = json.loads((out.parent / "den.chsc.json").read_text())
        assert sidecar["method"] == "ccf-sliding"
        assert len(sidecar["windows"]) == 3  # centers 0, 4, 8 on 12 bands
        assert all(w["p"] >= 1 for w in sidecar["windows"])
        est = read_cube(out)
        assert est.shape == (24, 24, 12)

    def test_idempotent_runs(self, synth_dir, tmp_path):
        out = tmp_path / "a.chsc"
        args = ("denoise", "--method", "ccf", synth_dir / "noisy.chsc", out)
        assert run_cli(*args).returncode == 0
        first = out.read_bytes(), (tmp_path / "a.chsc.json").read_text()
        assert run_cli(*args).returncode == 0
        assert (out.read_bytes(), (tmp_path / "a.chsc.json").read_text()) == first

    def test_average_requires_dispersion(self, synth_dir, tmp_path):
        res = run_cli(
            "denoise", "--method", "average", synth_dir / "noisy.chsc", tmp_path / "x.chsc"
        )
        assert res.returncode == 2
        assert "dispersion" in res.stderr.lower()
        assert not (tmp_path / "x.chsc").exists()

    def test_average_with_dispersion(self, synth_dir, tmp_path):
        res = run_cli(
            "denoise", "--method", "average", "--dispersion", "1.5046,0.0042",
            synth_dir / "noisy.chsc", tmp_path / "avg.chsc",
        )
        assert res.returncode == 0, res.stderr

    def test_pairwise_average_of_one_band_is_the_band(self, tmp_path):
        # one band has no neighbor to average with
        rng = np.random.default_rng(3)
        band = np.exp(1j * rng.uniform(-1, 1, (12, 12, 1))) * rng.uniform(1, 2, (12, 12, 1))
        write_cube(hs.ComplexCube(wavelengths=np.array([500.0]), data=band), tmp_path / "one.chsc")
        res = run_cli(
            "denoise", "--method", "average", "--average-mode", "pairwise",
            "--dispersion", "1.5046,0.0042", tmp_path / "one.chsc", tmp_path / "avg.chsc",
        )
        assert res.returncode == 0, res.stderr
        assert np.array_equal(read_cube(tmp_path / "avg.chsc").data, band)

    @pytest.mark.parametrize("flags", [
        ("--method", "average", "--average-mode", "pairwise", "--dispersion", "1.5046,0.0042"),
        ("--method", "average", "--dispersion", "1.5046,0.0042"),
        ("--method", "cdbm3d-slice"),
        ("--method", "separate"),
    ], ids=["average-pairwise", "average-global", "cdbm3d-slice", "separate"])
    def test_cube_without_bands_has_too_few_bands(self, tmp_path, flags):
        empty = hs.ComplexCube(wavelengths=np.zeros(0), data=np.zeros((12, 12, 0), complex))
        write_cube(empty, tmp_path / "empty.chsc")
        res = run_cli("denoise", *flags, tmp_path / "empty.chsc", tmp_path / "out.chsc")
        assert res.returncode == 1
        assert res.stderr == "error: need at least 1 band, got 0\n"
        assert not (tmp_path / "out.chsc").exists()

    @pytest.mark.parametrize("flags, field", [
        (("--method", "ccf", "--patch", 0, 8), "patch_rows"),
        (("--method", "ccf-sliding", "--window", 0), "width"),
        (("--method", "ccf", "--match-threshold", "nan"), "match_threshold"),
        (("--method", "ccf", "--hard-threshold", "inf"), "hard_threshold_factor"),
        (("--method", "cdbm3d-slice", "--sigma", "nan"), "sigma"),
    ])
    def test_out_of_range_setting_exit_2(self, synth_dir, tmp_path, flags, field):
        res = run_cli("denoise", *flags, synth_dir / "noisy.chsc", tmp_path / "z.chsc")
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"error: {field}: ")
        assert not (tmp_path / "z.chsc").exists()

    def test_average_below_index_one_at_the_cube_wavelengths_exit_2(self, tmp_path):
        cube = hs.ComplexCube(wavelengths=np.array([200.0, 250.0, 300.0]),
                              data=np.ones((8, 8, 3), complex))
        write_cube(cube, tmp_path / "uv.chsc")
        res = run_cli("denoise", "--method", "average", "--dispersion", "1.5,0,-0.01",
                      tmp_path / "uv.chsc", tmp_path / "avg.chsc")
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: refractive index "), res.stderr
        assert not (tmp_path / "avg.chsc").exists()

    @pytest.fixture(scope="class")
    def twenty_bands(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("twenty")
        res = run_cli("synth", "--object", "two-peak", "--size", 16, 16, 20, "--sigma", 1.3,
                      "--seed", 7, "--out", d / "truth.chsc", "--noisy-out", d / "noisy.chsc")
        assert res.returncode == 0, res.stderr
        return d / "noisy.chsc"

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_narrow_sliding_window_fails_up_front(self, twenty_bands, tmp_path, width):
        # the edge window at band 0 holds ceil(width / 2) bands, and the
        # subspace needs 3: widths 1-4 used to exit 1 with TooFewBands
        out = tmp_path / "w.chsc"
        res = run_cli("denoise", "--method", "ccf-sliding", "--window", width, "--step", 3,
                      twenty_bands, out)
        if width < 5:
            assert res.returncode == 2, res.stderr
            assert res.stderr.startswith("error: width: "), res.stderr
            assert not out.exists()
        else:
            assert res.returncode == 0, res.stderr
            assert read_cube(out).shape == (16, 16, 20)

    def test_window_as_wide_as_the_cube_runs_once(self, synth_dir, tmp_path):
        runs = {}
        for name, flags in [("ccf", ()), ("ccf-sliding", ("--window", 12, "--step", 4))]:
            out = tmp_path / f"{name}.chsc"
            res = run_cli("denoise", "--method", name, *flags, "--threads", 2,
                          synth_dir / "noisy.chsc", out)
            assert res.returncode == 0, res.stderr
            runs[name] = out.read_bytes(), json.loads((tmp_path / f"{name}.chsc.json").read_text())
        assert runs["ccf-sliding"][0] == runs["ccf"][0]
        (window,) = runs["ccf-sliding"][1]["windows"]
        assert (window["band_lo"], window["band_hi"]) == (0, 12)
        assert window["kept_bands"] == list(range(12))

    def test_non_integer_thread_variable_exit_2(self, synth_dir, tmp_path):
        import os

        env = dict(os.environ, HSCUBE_THREADS="abc")
        res = run_cli(
            "denoise", "--method", "ccf", synth_dir / "noisy.chsc", tmp_path / "t.chsc", env=env
        )
        assert res.returncode == 2, res.stderr
        assert "HSCUBE_THREADS" in res.stderr
        assert not (tmp_path / "t.chsc").exists()

    @pytest.mark.parametrize("flags, variable", [
        (["--threads", 0], None),
        (["--threads", -2], None),
        ([], "0"),
        ([], "-1"),
    ])
    def test_thread_count_below_one_exit_2(self, synth_dir, tmp_path, flags, variable):
        import os

        env = dict(os.environ)
        env.pop("HSCUBE_THREADS", None)
        if variable is not None:
            env["HSCUBE_THREADS"] = variable
        res = run_cli(
            "denoise", "--method", "ccf", *flags, synth_dir / "noisy.chsc",
            tmp_path / "t.chsc", env=env,
        )
        assert res.returncode == 2, res.stderr
        assert ("threads" if variable is None else "HSCUBE_THREADS") in res.stderr
        assert "at least 1" in res.stderr
        assert not (tmp_path / "t.chsc").exists()

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        bad = tmp_path / "bad.chsc"
        bad.write_bytes(b"CHSC" + bytes(20))
        res = run_cli("denoise", "--method", "ccf", bad, tmp_path / "y.chsc")
        assert res.returncode == 1  # runtime failure, not a usage error
        assert not (tmp_path / "y.chsc").exists()
        assert not (tmp_path / "y.chsc.json").exists()

    def test_subspace_csv_dump(self, synth_dir, tmp_path):
        res = run_cli(
            "denoise", "--method", "ccf", "--subspace-csv", tmp_path / "sub.csv",
            synth_dir / "noisy.chsc", tmp_path / "d.chsc",
        )
        assert res.returncode == 0
        lines = (tmp_path / "sub.csv").read_text().splitlines()
        assert lines[0] == "window_center,candidate_dim,eigenvalue,mse,chosen_p"
        assert len(lines) == 1 + 12  # one candidate row per band

    def test_defaults_and_choices_come_from_the_library(self):
        parser = cli._build_parser()
        args = parser.parse_args(["denoise", "--method", "ccf", "in.chsc", "out.chsc"])
        assert cli._config_from(args) == DenoiseConfig()
        assert WindowSpec(args.window, args.step) == WindowSpec()
        for kind in ObjectKind:
            args = parser.parse_args(["synth", "--object", kind.value, "--size", "4", "4", "4"])
            assert ObjectKind(args.object) is kind
            assert (args.target_phase, args.max_phase) == (
                ObjectDef.target_phase, ObjectDef.max_phase
            )
        for name in METHOD_NAMES:
            argv = ["denoise", "--method", name, "in.chsc", "out.chsc"]
            if name == "noop":  # a manifest-only method
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)
            else:
                assert parser.parse_args(argv).method == name

    def test_help_documents_config_fields(self):
        res = run_cli("denoise", "--help")
        assert res.returncode == 0
        for field in ("patch_step", "search_radius", "max_group_size",
                      "hard_threshold_factor", "WindowSpec.width", "WindowSpec.step"):
            assert field in res.stdout


class TestMetrics:
    def test_zero_error_against_itself(self, synth_dir, tmp_path):
        res = run_cli(
            "metrics", "--out", tmp_path / "m.csv",
            synth_dir / "truth.chsc", synth_dir / "truth.chsc",
        )
        assert res.returncode == 0
        rows = read_rows(tmp_path / "m.csv")
        assert len(rows) == 13  # 12 bands and the summary row
        assert [row["band_index"] for row in rows] == [str(b) for b in range(12)] + ["-1"]
        assert all(float(row["rrmse_phase"]) == 0.0 for row in rows)
        assert all(float(row["rrmse_amp"]) == 0.0 for row in rows)

    def test_header_schema(self, synth_dir, tmp_path):
        run_cli("metrics", "--out", tmp_path / "m.csv",
                synth_dir / "noisy.chsc", synth_dir / "truth.chsc")
        header = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_input_snr_column_is_nan(self, synth_dir, tmp_path):
        # metrics never sees the noisy cube, so it cannot know the input SNR
        res = run_cli("metrics", "--out", tmp_path / "m.csv",
                      synth_dir / "noisy.chsc", synth_dir / "truth.chsc")
        assert res.returncode == 0, res.stderr
        rows = read_rows(tmp_path / "m.csv")
        assert len(rows) == 13  # 12 bands and the summary row
        assert all(row["snr_db"] == "nan" for row in rows)

    def test_stdout_when_no_out_flag(self, synth_dir):
        res = run_cli("metrics", synth_dir / "truth.chsc", synth_dir / "truth.chsc")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_shape_mismatch_exit_2(self, synth_dir, tmp_path):
        small = hs.ComplexCube(
            wavelengths=np.linspace(400, 500, 3),
            data=np.ones((8, 8, 3), complex),
        )
        write_cube(small, tmp_path / "small.chsc")
        res = run_cli("metrics", tmp_path / "small.chsc", synth_dir / "truth.chsc")
        assert res.returncode == 2
        assert "(8, 8, 3)" in res.stderr and "(24, 24, 12)" in res.stderr


class TestSweep:
    def test_empty_manifest_header_only(self, tmp_path):
        manifest = tmp_path / "empty.manifest"
        manifest.write_text(json.dumps({
            "schema_version": 1, "size": [8, 8, 4], "lambda_nm": [400, 798],
            "objects": [], "sigmas": [], "seeds": [], "methods": [],
            "output_csv": str(tmp_path / "empty.csv"),
        }))
        res = run_cli("sweep", manifest)
        assert res.returncode == 0
        assert (tmp_path / "empty.csv").read_text().splitlines() == [",".join(CSV_COLUMNS)]

    def test_schema_violation_exit_2_with_path(self, tmp_path):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text(json.dumps({
            "schema_version": 1, "size": [8, 8, 4], "lambda_nm": [400, 798],
            "objects": ["two-peak"], "sigmas": [0.5], "seeds": [1],
            "methods": [{"name": "ccf-sliding", "window": "wide"}],
        }))
        res = run_cli("sweep", manifest)
        assert res.returncode == 2
        assert "methods[0]" in res.stderr

    @pytest.mark.parametrize("override, where", [
        ({"seeds": [-1]}, "seeds[0]: seed: "),
        ({"objects": [{"kind": "compound", "target_phase": float("nan")}]},
         "objects[0].target_phase: "),
        ({"lambda_nm": [400, float("inf")]}, "lambda_nm: "),
        ({"objects": ["compound", {"kind": "two-peak", "target_phase": 4}]},
         "objects[1].target_phase: "),
        ({"sigmas": [0.5, float("inf")]}, "sigmas[1]: sigma: "),
        ({"methods": [{"name": "noop", "windw": 3}]}, "methods[0].windw: unknown field"),
        ({"methods": [{"name": "noop", "sigma_known": False}]},
         "methods[0].sigma_known: unknown field"),
        ({"dispersion": {"a0": "1.5"}}, "dispersion: a0: "),
        ({"dispersion": {"a0": True}}, "dispersion: a0: "),
        ({"lambda_nm": [200, 300], "dispersion": {"a0": 1.5, "b0_um2": 0, "c0_um4": -0.01}},
         "dispersion: refractive index must stay finite and above 1"),
        ({"objects": [{"kind": "two-peak", "name": 7}]}, "objects[0].name: "),
        ({"methods": [{"name": "noop", "label": 5}]}, "methods[0].label: "),
    ])
    def test_noise_and_object_settings_exit_2(self, tmp_path, override, where):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text(json.dumps({
            "schema_version": 1, "size": [16, 16, 4], "lambda_nm": [400, 798],
            "objects": ["two-peak"], "sigmas": [0.5], "seeds": [1],
            "methods": [{"name": "noop"}], **override,
        }))
        res = run_cli("sweep", "--out", tmp_path / "out.csv", manifest)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"error: {where}"), res.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_timings_fill_the_seconds_column(self, tmp_path):
        manifest = tmp_path / "timed.manifest"
        manifest.write_text(json.dumps({
            "schema_version": 1, "size": [16, 16, 8], "lambda_nm": [400, 798],
            "objects": ["two-peak"], "sigmas": [1.0], "seeds": [2],
            "methods": [{"name": "average"}],
        }))
        for flags in ((), ("--timings",)):
            res = run_cli("sweep", *flags, "--out", tmp_path / "t.csv", manifest)
            assert res.returncode == 0, res.stderr
            seconds = {row["seconds"] for row in read_rows(tmp_path / "t.csv")}
            if flags:
                (value,) = seconds  # one combination, so one time on all its rows
                assert float(value) > 0
            else:
                assert seconds == {"0.0"}

    def test_not_json_exit_2(self, tmp_path):
        manifest = tmp_path / "garbage.manifest"
        manifest.write_text("not json at all")
        assert run_cli("sweep", manifest).returncode == 2

    def test_small_sweep_runs(self, tmp_path):
        manifest = tmp_path / "tiny.manifest"
        manifest.write_text(json.dumps({
            "schema_version": 1, "size": [16, 16, 8], "lambda_nm": [400, 798],
            "objects": ["two-peak"], "sigmas": [1.0], "seeds": [2],
            "methods": [{"name": "average", "mode": "global"}, {"name": "noop"}],
            "output_csv": str(tmp_path / "tiny.csv"),
        }))
        res = run_cli("sweep", manifest)
        assert res.returncode == 0, res.stderr
        rows = read_rows(tmp_path / "tiny.csv")
        assert len(rows) == 2 * 9  # 8 bands and the summary row per method
        assert {row["method"] for row in rows} == {"average", "noop"}


class TestDeterminismAcrossThreads:
    def test_denoise_bit_identical(self, synth_dir, tmp_path):
        sidecars = []
        for threads, name in [(1, "t1.chsc"), (4, "t4.chsc")]:
            res = run_cli(
                "denoise", "--method", "ccf-sliding", "--window", 8, "--step", 4,
                "--threads", threads, synth_dir / "noisy.chsc", tmp_path / name,
            )
            assert res.returncode == 0, res.stderr
            sidecars.append(json.loads((tmp_path / (name + ".json")).read_text()))
        assert (tmp_path / "t1.chsc").read_bytes() == (tmp_path / "t4.chsc").read_bytes()
        # sidecars agree on everything except the run identity fields
        for side in sidecars:
            for key in ("threads", "output"):
                side.pop(key)
        assert sidecars[0] == sidecars[1]

    def test_env_var_fallback(self, synth_dir, tmp_path, monkeypatch):
        import os

        env = dict(os.environ, HSCUBE_THREADS="3")
        res = run_cli(
            "denoise", "--method", "ccf", synth_dir / "noisy.chsc",
            tmp_path / "env.chsc", env=env,
        )
        assert res.returncode == 0
        sidecar = json.loads((tmp_path / "env.chsc.json").read_text())
        assert sidecar["threads"] == 3
