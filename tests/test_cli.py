import csv
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
from hscube.evaluate import CSV_COLUMNS, METHOD_NAMES, ObjectDef, read_csv
from hscube.synth import ObjectKind


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

    def test_bad_flags_exit_2(self, tmp_path):
        res = run_cli("synth", "--object", "unknown", "--size", 8, 8, 4)
        assert res.returncode == 2


class TestDenoise:
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

    @pytest.mark.parametrize("flags", [
        ("--method", "ccf", "--patch", 0, 8),
        ("--method", "ccf-sliding", "--window", 0),
    ])
    def test_out_of_range_setting_exit_2(self, synth_dir, tmp_path, flags):
        res = run_cli("denoise", *flags, synth_dir / "noisy.chsc", tmp_path / "z.chsc")
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ")
        assert not (tmp_path / "z.chsc").exists()

    def test_non_integer_thread_variable_exit_2(self, synth_dir, tmp_path):
        import os

        env = dict(os.environ, HSCUBE_THREADS="abc")
        res = run_cli(
            "denoise", "--method", "ccf", synth_dir / "noisy.chsc", tmp_path / "t.chsc", env=env
        )
        assert res.returncode == 2, res.stderr
        assert "HSCUBE_THREADS" in res.stderr
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
        reports = read_csv(tmp_path / "m.csv")
        assert len(reports) == 1
        assert np.all(reports[0].rrmse_phase_bands == 0.0)
        assert np.all(reports[0].rrmse_amp_bands == 0.0)

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
        with open(tmp_path / "m.csv", newline="") as f:
            rows = list(csv.DictReader(f))
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
        reports = read_csv(tmp_path / "tiny.csv")
        assert {r.method for r in reports} == {"average", "noop"}


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
