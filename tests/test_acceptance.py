"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The numbered criteria mirror the project requirements: exactness of the
algebraic passages, subspace recovery rate, the desk-scale window-size and
noise-level studies, method ranking on the three object families, window
arithmetic, and bit-determinism across worker counts.  Heavy experiment runs
are shared between criteria through session fixtures; the shipped manifests
under manifests/ are the single source of their parameters.
"""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import hscube as hs
from hscube.ccf import WindowSpec, ccf_denoise, ccf_sliding, sliding_plan
from hscube.cdbm3d import DenoiseConfig, denoise_image, hosvd, inverse_hosvd
from hscube.cube import read_cube, reshape_to_cube, reshape_to_matrix, write_cube
from hscube.evaluate import parse_manifest, run_experiment
from hscube.subspace import identify_subspace

MANIFESTS = pathlib.Path(__file__).resolve().parent.parent / "manifests"


def _report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _run_manifest(name: str):
    with open(MANIFESTS / name) as f:
        manifest = parse_manifest(json.load(f))
    reports, failures = run_experiment(manifest)
    assert not failures, failures
    return reports


@pytest.fixture(scope="session")
def fig3a_reports():
    return _run_manifest("fig3a.manifest")


@pytest.fixture(scope="session")
def fig3d_reports():
    return _run_manifest("fig3d.manifest")


@pytest.fixture(scope="session")
def comparison_reports():
    return _run_manifest("comparison.manifest")


def _mean(reports, **match):
    picked = [
        r
        for r in reports
        if all(getattr(r, key) == value for key, value in match.items())
    ]
    assert picked, f"no report matches {match}"
    assert len(picked) == 1
    return picked[0].mean_rrmse_phase


@pytest.mark.fast_acceptance
class TestCriterion1Exactness:
    def test_exactness_suite(self, tmp_path):
        rng = np.random.default_rng(20260808)

        g = rng.normal(size=(8, 8, 12)) + 1j * rng.normal(size=(8, 8, 12))
        hosvd_err = np.linalg.norm(inverse_hosvd(hosvd(g)) - g) / np.linalg.norm(g)

        l, n = 20, 900
        z = (
            (rng.normal(size=(l, 4)) + 1j * rng.normal(size=(l, 4)))
            @ (rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n)))
            + 0.2 * (rng.normal(size=(l, n)) + 1j * rng.normal(size=(l, n)))
        )
        basis = identify_subspace(z)
        ortho_err = np.max(np.abs(basis.E.conj().T @ basis.E - np.eye(basis.p)))

        cube = hs.ComplexCube(
            wavelengths=np.linspace(400, 700, 6),
            data=rng.normal(size=(7, 9, 6)) + 1j * rng.normal(size=(7, 9, 6)),
        )
        reshaped = reshape_to_cube(reshape_to_matrix(cube), 7, 9, cube.wavelengths)
        reshape_ok = np.array_equal(reshaped.data, cube.data)
        path = tmp_path / "cube.chsc"
        write_cube(cube, path)
        file_ok = np.array_equal(read_cube(path).data, cube.data)
        write_cube(read_cube(path), tmp_path / "again.chsc")
        file_ok &= path.read_bytes() == (tmp_path / "again.chsc").read_bytes()

        img = np.exp(1j * rng.normal(size=(24, 24)))
        ident_err = np.max(np.abs(denoise_image(img, DenoiseConfig(sigma=0.0)) - img))

        a = rng.normal(size=(18, 3)) + 1j * rng.normal(size=(18, 3))
        b = rng.normal(size=(3, 24 * 24)) + 1j * rng.normal(size=(3, 24 * 24))
        rank3 = hs.ComplexCube(
            wavelengths=np.linspace(400, 700, 18),
            data=(a @ b).reshape(18, 24, 24).transpose(1, 2, 0),
        )
        out = ccf_denoise(rank3, DenoiseConfig())
        ccf_err = np.linalg.norm(out.data - rank3.data) / np.linalg.norm(rank3.data)

        ok = (
            hosvd_err <= 1e-10
            and ortho_err <= 1e-10
            and reshape_ok
            and file_ok
            and ident_err <= 1e-10
            and ccf_err <= 1e-6
        )
        _report(
            1,
            "exactness",
            ok,
            f"hosvd={hosvd_err:.2e} ortho={ortho_err:.2e} reshape_bitwise={reshape_ok} "
            f"file_bitwise={file_ok} sigma0={ident_err:.2e} ccf_rank3={ccf_err:.2e}",
        )


@pytest.mark.fast_acceptance
class TestCriterion2SubspaceOracle:
    def test_rank_recovery_100_trials(self):
        hits = 0
        trials = 100
        for i in range(trials):
            k = (i % 6) + 1
            rng = np.random.default_rng(1000 + i)
            a = rng.normal(size=(24, k)) + 1j * rng.normal(size=(24, k))
            b = rng.normal(size=(k, 1024)) + 1j * rng.normal(size=(k, 1024))
            z = a @ b
            hits += identify_subspace(z).p == k
        _report(2, "subspace oracle", hits >= 95, f"{hits}/100 exact rank recoveries")


class TestCriterion3WindowStudy:
    def test_u_curve_minimum_interior(self, fig3a_reports):
        widths = [30, 50, 70, 90, 110]
        errors = [_mean(fig3a_reports, method=f"w{w}") for w in widths]
        best = widths[int(np.argmin(errors))]
        detail = " ".join(f"w{w}={e:.4f}" for w, e in zip(widths, errors))
        _report(3, "window-size study", best not in (30, 110), f"min at w{best}; {detail}")


class TestCriterion4SlidingAdvantage:
    def test_sliding_beats_single(self, fig3a_reports):
        sliding = _mean(fig3a_reports, method="w70")
        single = _mean(fig3a_reports, method="ccf-single")
        ok = sliding <= 0.9 * single
        _report(
            4,
            "sliding advantage",
            ok,
            f"sliding(70,12)={sliding:.4f} vs single={single:.4f} (need <= 0.9x)",
        )


class TestCriterion5NoiseStudy:
    def test_sigma_sweep(self, fig3d_reports):
        snr25 = next(r for r in fig3d_reports if r.sigma == 2.5).snr_input_db
        errors = {r.sigma: r.mean_rrmse_phase for r in fig3d_reports}
        monotone = errors[2.5] >= errors[1.3] >= errors[0.5]
        ok = abs(snr25 - (-8.0)) <= 1.5 and errors[2.5] <= 0.15 and monotone
        _report(
            5,
            "noise-level study",
            ok,
            f"snr(2.5)={snr25:.2f}dB rrmse={errors[0.5]:.4f}/{errors[1.3]:.4f}/{errors[2.5]:.4f} "
            f"for sigma=0.5/1.3/2.5",
        )


class TestCriterion6MethodRanking:
    def test_two_peak_ordering(self, comparison_reports):
        cs = _mean(comparison_reports, object_name="two-peak", method="ccf-sliding")
        sl = _mean(comparison_reports, object_name="two-peak", method="cdbm3d-slice")
        sep = _mean(comparison_reports, object_name="two-peak", method="separate")
        noop = _mean(comparison_reports, object_name="two-peak", method="noop")
        others = [
            _mean(comparison_reports, object_name="two-peak", method=m)
            for m in ("average-global", "average-pairwise")
        ]
        # the cube filter is also the best method outright on the smooth object
        ok = (
            cs < sl < sep
            and all(cs < m for m in others)
            and all(m <= noop for m in [cs, sl, sep] + others)
        )
        _report(
            6,
            "ranking: smooth object",
            ok,
            f"ccf-sliding={cs:.4f} < cdbm3d-slice={sl:.4f} < separate={sep:.4f} (noisy={noop:.4f})",
        )

    def test_compound_averaging_fails(self, comparison_reports):
        # the comparison set of the compound study: cube filter, per-slice
        # filter, separate amplitude/phase; pairwise averaging belongs to the
        # wrapped study only
        methods = ["ccf-sliding", "cdbm3d-slice", "separate"]
        avg = _mean(comparison_reports, object_name="compound", method="average-global")
        rest = {m: _mean(comparison_reports, object_name="compound", method=m) for m in methods}
        ok = all(avg > v for v in rest.values())
        detail = f"average-global={avg:.4f} vs " + " ".join(
            f"{m}={v:.4f}" for m, v in rest.items()
        )
        _report(6, "ranking: compound object", ok, detail)

    def test_wrapped_ccf_best(self, comparison_reports):
        methods = ["cdbm3d-slice", "separate", "average-global", "average-pairwise"]
        cs = _mean(comparison_reports, object_name="wrapped", method="ccf-sliding")
        rest = {m: _mean(comparison_reports, object_name="wrapped", method=m) for m in methods}
        ok = all(cs < v for v in rest.values())
        detail = f"ccf-sliding={cs:.4f} vs " + " ".join(f"{m}={v:.4f}" for m, v in rest.items())
        _report(6, "ranking: wrapped object", ok, detail)


class TestStepStudy:
    """Supplementary desk-scale step-size sweep: widening the center spacing
    must not reduce the mean error (5 percent statistical slack)."""

    def test_step_sweep_non_decreasing(self):
        reports = _run_manifest("fig3b.manifest")
        steps = [1, 6, 12, 24, 48]
        errors = [_mean(reports, method=f"s{s}") for s in steps]
        ok = all(errors[i + 1] >= errors[i] * 0.95 for i in range(len(errors) - 1))
        detail = " ".join(f"s{s}={e:.4f}" for s, e in zip(steps, errors))
        _report(0, "step-size study", ok, detail)


@pytest.mark.fast_acceptance
class TestCriterion7WindowArithmetic:
    def test_17_invocations_on_200_bands(self):
        plan = sliding_plan(200, WindowSpec(width=70, step=12))
        rng = np.random.default_rng(3)
        smooth = np.cumsum(rng.normal(size=(12, 12, 1)), axis=0)
        phases = smooth * np.linspace(0.8, 1.2, 200)[None, None, :]
        cube = hs.ComplexCube(
            wavelengths=np.linspace(400, 798, 200), data=np.exp(0.25j * phases)
        )
        noisy = hs.add_noise(cube, hs.NoiseSpec(sigma=0.5, seed=1))
        diags = []
        cfg = DenoiseConfig(patch_rows=4, patch_cols=4, search_radius=6)
        ccf_sliding(noisy, cfg, WindowSpec(width=70, step=12), diagnostics=diags)
        ok = len(plan) == 17 and len(diags) == 17
        _report(7, "window arithmetic", ok, f"plan={len(plan)} actual runs={len(diags)}")


@pytest.mark.fast_acceptance
class TestCriterion8Determinism:
    def _cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "hscube", *map(str, args)],
            capture_output=True,
            text=True,
        )

    def test_cubes_and_csvs_bit_identical(self, tmp_path):
        base = tmp_path / "in.chsc"
        res = self._cli(
            "synth", "--object", "two-peak", "--size", 20, 20, 12,
            "--sigma", 1.0, "--seed", 5,
            "--out", tmp_path / "t.chsc", "--noisy-out", base,
        )
        assert res.returncode == 0, res.stderr
        cubes = []
        for threads in (1, 4):
            out = tmp_path / f"out{threads}.chsc"
            res = self._cli(
                "denoise", "--method", "ccf-sliding", "--window", 8, "--step", 4,
                "--threads", threads, base, out,
            )
            assert res.returncode == 0, res.stderr
            cubes.append(out.read_bytes())

        manifest = tmp_path / "d.manifest"
        manifest.write_text(json.dumps({
            "schema_version": 1, "size": [16, 16, 10], "lambda_nm": [400, 798],
            "objects": ["two-peak"], "sigmas": [1.0], "seeds": [3],
            "methods": [
                {"name": "ccf-sliding", "window": 6, "step": 4},
                {"name": "average", "mode": "global"},
            ],
        }))
        csvs = []
        for threads in (1, 4):
            out = tmp_path / f"sweep{threads}.csv"
            res = self._cli("sweep", "--threads", threads, "--out", out, manifest)
            assert res.returncode == 0, res.stderr
            csvs.append(out.read_bytes())

        ok = cubes[0] == cubes[1] and csvs[0] == csvs[1]
        _report(
            8,
            "determinism across threads",
            ok,
            f"cube bytes equal={cubes[0] == cubes[1]} csv bytes equal={csvs[0] == csvs[1]}",
        )


@pytest.mark.fast_acceptance
class TestExternalCubeProperty:
    """Stand-in for real acquisitions: an externally written CHSC cube must
    go through the sliding pipeline without NaNs, shape change, or an
    incomplete sidecar."""

    def test_external_cube_round(self, tmp_path):
        rng = np.random.default_rng(77)
        base = np.cumsum(rng.normal(size=(20, 20)), axis=1)
        bands = []
        for b in range(24):
            amp = 1.0 + 0.2 * np.cos(base + 0.1 * b)
            phase = 0.5 * base * (1 + 0.02 * b)
            bands.append(amp * np.exp(1j * phase))
        external = hs.ComplexCube(
            wavelengths=np.linspace(420.0, 780.0, 24),
            data=np.stack(bands, axis=2) + 0.4 * (
                rng.normal(size=(20, 20, 24)) + 1j * rng.normal(size=(20, 20, 24))
            ),
        )
        src = tmp_path / "external.chsc"
        write_cube(external, src)

        out = tmp_path / "filtered.chsc"
        res = subprocess.run(
            [sys.executable, "-m", "hscube", "denoise", "--method", "ccf-sliding",
             "--window", "10", "--step", "5", str(src), str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        filtered = read_cube(out)
        sidecar = json.loads((tmp_path / "filtered.chsc.json").read_text())
        windows = sidecar["windows"]
        covered = sorted(b for w in windows for b in w["kept_bands"])
        ok = (
            filtered.shape == external.shape
            and bool(np.all(np.isfinite(filtered.data)))
            and sidecar["method"] == "ccf-sliding"
            and sidecar["config"]["patch_rows"] == 8
            and covered == list(range(24))
            and all(w["p"] >= 1 and len(w["sigma_eigen"]) == w["p"] for w in windows)
        )
        _report(
            9,
            "external cube property",
            ok,
            f"shape={filtered.shape} windows={len(windows)} all bands covered={covered == list(range(24))}",
        )
