"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs the
user-visible operation in ``run`` (the part that is timed and traced), and
checks the outputs in ``check`` against oracles computed here, outside the
program.  ``run`` calls hscube through module attributes at call time, so
the tracer's wrappers apply to it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

import hscube
import hscube.cdbm3d
import hscube.cli
import hscube.evaluate

SIGMA = 1.3
LAMBDA_NM = (400.0, 798.0)

# per-size geometry; "tiny" is for the self-tests
SIZES = {
    "full": {
        "filter2d": {"sides": [128], "large_sides": [128, 256]},
        "cube-cli": {"side": 32, "bands": 200, "window": 70, "step": 12, "threads": 2},
        "sweep-baselines": {"side": 24, "bands": 12, "window": 8, "step": 4, "threads": 2},
    },
    "tiny": {
        "filter2d": {"sides": [24], "large_sides": [24, 40]},
        "cube-cli": {"side": 16, "bands": 40, "window": 14, "step": 6, "threads": 2},
        "sweep-baselines": {"side": 16, "bands": 6, "window": 6, "step": 3, "threads": 2},
    },
}


@dataclass
class Outcome:
    """What one pass attempted, what failed, and what its outputs were."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    rrmse_phase: float = float("nan")
    rrmse_amp: float = float("nan")

    def fail(self, message: str):
        """An operation failed: an exception, a non-zero exit, a sweep
        failure, or a non-finite or wrong-shape output."""
        self.failed += 1
        self.problems.append(message)

    def flag(self, message: str):
        """An operation's output failed a check."""
        self.problems.append(message)


# ---------------------------------------------------------------------------
# oracles independent of the program


def rrmse_phase(est: np.ndarray, truth: np.ndarray) -> float:
    """Relative RMS error of the wrapped phase difference."""
    phi = np.angle(truth)
    diff = np.mod(np.angle(est) - phi + np.pi, 2 * np.pi) - np.pi
    return float(np.linalg.norm(diff) / np.linalg.norm(phi))


def rrmse_amp(est: np.ndarray, truth: np.ndarray) -> float:
    amp = np.abs(truth)
    return float(np.linalg.norm(np.abs(est) - amp) / np.linalg.norm(amp))


def band_means(est: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Mean over bands of the phase and amplitude RRMSE of (rows, cols, bands) cubes."""
    bands = range(truth.shape[2])
    return (
        float(np.mean([rrmse_phase(est[:, :, b], truth[:, :, b]) for b in bands])),
        float(np.mean([rrmse_amp(est[:, :, b], truth[:, :, b]) for b in bands])),
    )


def parse_chsc(raw: bytes) -> np.ndarray:
    """Samples of a CHSC file as a (rows, cols, bands) array."""
    if raw[:4] != b"CHSC":
        raise ValueError("not a CHSC file")
    n, m, l = struct.unpack_from("<III", raw, 8)
    offset = 20 + 8 * l
    if len(raw) != offset + 16 * n * m * l:
        raise ValueError("CHSC payload size does not match its header")
    flat = np.frombuffer(raw, dtype="<c16", count=n * m * l, offset=offset)
    return flat.reshape(l, n, m).transpose(1, 2, 0)


def warm_up(seed: int):
    """One small noise estimate, which fills the filter's lazy calibration."""
    rng = np.random.default_rng(seed)
    hscube.cdbm3d.estimate_sigma(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))


def clear_lazy_state():
    """Drop the sigma calibration cache so that every set-up pays for it."""
    cache = getattr(hscube.cdbm3d, "_SIGMA_CALIBRATION", None)
    if isinstance(cache, dict):
        cache.clear()


def compound_band0(side: int, seed: int):
    """Band 0 (the bar target) of the compound object and a noisy copy."""
    model = hscube.bk7()
    spec = hscube.compound_spec(side, side, model, LAMBDA_NM[0])
    truth = hscube.generate_truth(spec, model, (side, side), np.array([LAMBDA_NM[0]]))
    noisy = hscube.add_noise(truth, hscube.NoiseSpec(sigma=SIGMA, seed=seed))
    return truth.band(0), noisy.band(0)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    uses_pool = False

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.geom = SIZES[size][self.name]
        self.workdir = workdir
        self.threads = self.geom.get("threads", 1)

    def setup(self, large: bool = False):
        """Build the inputs; ``large`` adds the sizes only the traced run uses."""
        raise NotImplementedError

    def run(self, threads: int | None = None, inject_failure: bool = False):
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError


class Filter2D(Workload):
    """``denoise_image`` on single bands: the large-image path, with no pool,
    subspace or I/O."""

    name = "filter2d"

    def setup(self, large: bool = False):
        sides = self.geom["large_sides"] if large else self.geom["sides"]
        self.images = {side: compound_band0(side, self.seed) for side in sides}
        warm_up(self.seed)

    def run(self, threads=None, inject_failure=False, sides=None):
        results = []
        for side in sides or self.geom["sides"]:
            truth, noisy = self.images[side]
            if inject_failure:
                noisy = noisy.copy()
                noisy[side // 2, side // 2] = np.nan
            try:
                est = hscube.denoise_image(noisy, hscube.DenoiseConfig())
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                est = exc
            results.append((side, est))
        return results

    def check(self, result) -> Outcome:
        out = Outcome()
        digest = hashlib.sha256()
        phases, amps = [], []
        for side, est in result:
            out.attempted += 1
            truth, noisy = self.images[side]
            if isinstance(est, Exception):
                out.fail(f"{side}^2: {type(est).__name__}: {est}")
                continue
            est = np.asarray(est)
            if est.shape != truth.shape or not np.all(np.isfinite(est)):
                out.fail(f"{side}^2: output shape {est.shape} or non-finite samples")
                continue
            digest.update(np.ascontiguousarray(est, dtype=np.complex128).tobytes())
            phase, amp = rrmse_phase(est, truth), rrmse_amp(est, truth)
            if not (phase < rrmse_phase(noisy, truth) and amp < rrmse_amp(noisy, truth)):
                out.flag(f"{side}^2: denoised error is not below the input error")
            phases.append(phase)
            amps.append(amp)
        out.digest = digest.hexdigest()
        if phases:
            out.rrmse_phase, out.rrmse_amp = float(np.mean(phases)), float(np.mean(amps))
        return out


class CubeCli(Workload):
    """``hscube synth`` once, then ``denoise --method ccf-sliding`` and
    ``metrics`` through ``hscube.cli.main``, as a user runs them."""

    name = "cube-cli"
    uses_pool = True

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _cli(self, argv) -> int:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = hscube.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = -1
        self.last_stderr = err.getvalue().strip()
        return code

    def setup(self, large: bool = False):
        g = self.geom
        code = self._cli([
            "synth", "--object", "compound",
            "--size", str(g["side"]), str(g["side"]), str(g["bands"]),
            "--sigma", str(SIGMA), "--seed", str(self.seed),
            "--out", self._path("truth.chsc"), "--noisy-out", self._path("noisy.chsc"),
        ])
        if code != 0:
            raise RuntimeError(f"synth failed: {self.last_stderr}")
        warm_up(self.seed)
        with open(self._path("truth.chsc"), "rb") as f:
            self.truth = parse_chsc(f.read()).copy()
        with open(self._path("noisy.chsc"), "rb") as f:
            raw = f.read()
        self.noisy_error = band_means(parse_chsc(raw), self.truth)
        with open(self._path("truncated.chsc"), "wb") as f:
            f.write(raw[: len(raw) // 2])

    def run(self, threads=None, inject_failure=False):
        g = self.geom
        source = self._path("truncated.chsc" if inject_failure else "noisy.chsc")
        estimate, report = self._path("estimate.chsc"), self._path("metrics.csv")
        for path in (estimate, estimate + ".json", report):
            if os.path.exists(path):
                os.unlink(path)
        denoise = self._cli([
            "denoise", "--method", "ccf-sliding",
            "--window", str(g["window"]), "--step", str(g["step"]),
            "--threads", str(threads or self.threads), source, estimate,
        ])
        denoise_err = self.last_stderr
        metrics = self._cli(["metrics", "--out", report, estimate, self._path("truth.chsc")])
        return (denoise, denoise_err), (metrics, self.last_stderr)

    def check(self, result) -> Outcome:
        (denoise, denoise_err), (metrics, metrics_err) = result
        g = self.geom
        out = Outcome(attempted=2)
        if denoise != 0:
            out.fail(f"denoise exited {denoise}: {denoise_err}")
        if metrics != 0:
            out.fail(f"metrics exited {metrics}: {metrics_err}")
        if out.failed:
            return out
        estimate, report = self._path("estimate.chsc"), self._path("metrics.csv")
        with open(estimate, "rb") as f:
            raw = f.read()
        with open(estimate + ".json", "rb") as f:
            sidecar_raw = f.read()
        with open(report, "rb") as f:
            report_raw = f.read()
        windows = json.loads(sidecar_raw)["windows"]
        # the sidecar also records the thread count, which may differ
        out.digest = hashlib.sha256(
            raw + report_raw + json.dumps(windows, sort_keys=True).encode()
        ).hexdigest()
        est = parse_chsc(raw)
        if est.shape != self.truth.shape or not np.all(np.isfinite(est)):
            out.fail(f"estimate shape {est.shape} or non-finite samples")
            return out
        out.rrmse_phase, out.rrmse_amp = band_means(est, self.truth)
        kept = sorted(b for w in windows for b in w["kept_bands"])
        expected = len(range(0, g["bands"], g["step"]))
        if len(windows) != expected or kept != list(range(g["bands"])):
            out.flag(f"{len(windows)} windows (expected {expected}) or bands not owned once")
        summary = report_raw.decode().splitlines()[-1].split(",")
        csv_phase, csv_amp = float(summary[6]), float(summary[7])
        if not (np.isclose(csv_phase, out.rrmse_phase, rtol=1e-9)
                and np.isclose(csv_amp, out.rrmse_amp, rtol=1e-9)):
            out.flag(f"metrics CSV ({csv_phase}, {csv_amp}) disagrees with the oracle")
        if not (out.rrmse_phase < self.noisy_error[0] and out.rrmse_amp < self.noisy_error[1]):
            out.flag("denoised error is not below the input error")
        return out


class SweepBaselines(Workload):
    """``run_experiment`` on a reduced comparison manifest: many small
    per-band filters under the pool, plus scoring."""

    name = "sweep-baselines"
    uses_pool = True
    DENOISERS = ("ccf-sliding", "cdbm3d-slice")

    def _manifest(self, inject_failure: bool):
        g = self.geom
        methods = [
            {"name": "ccf-sliding", "window": g["window"], "step": g["step"]},
            {"name": "cdbm3d-slice"},
            {"name": "separate"},
            {"name": "average"},
            {"name": "noop"},
        ]
        if inject_failure:  # a patch larger than the image fails at run time
            methods.append({"name": "cdbm3d-slice", "label": "forced-failure",
                            "config": {"patch_rows": g["side"] + 1}})
        return hscube.evaluate.parse_manifest({
            "schema_version": 1,
            "size": [g["side"], g["side"], g["bands"]],
            "lambda_nm": list(LAMBDA_NM),
            "objects": ["compound"],
            "sigmas": [SIGMA],
            "seeds": [self.seed],
            "methods": methods,
        })

    def setup(self, large: bool = False):
        self.manifest = self._manifest(False)
        self.failing = self._manifest(True)
        warm_up(self.seed)

    def run(self, threads=None, inject_failure=False):
        manifest = self.failing if inject_failure else self.manifest
        threads = threads or self.threads
        reports, failures = hscube.evaluate.run_experiment(manifest, threads=threads)
        return manifest, reports, failures

    def check(self, result) -> Outcome:
        manifest, reports, failures = result
        out = Outcome(attempted=len(manifest.methods))
        for label, message in failures:
            out.fail(f"{label}: {message}")
        for rep in reports:
            if not (np.all(np.isfinite(rep.rrmse_phase_bands))
                    and np.all(np.isfinite(rep.rrmse_amp_bands))):
                out.fail(f"{rep.method}: non-finite scores")
        if out.failed:
            return out
        out.digest = hashlib.sha256(hscube.evaluate.csv_text(reports).encode()).hexdigest()
        by_method = {rep.method: rep for rep in reports}
        noop = by_method["noop"]
        for name in self.DENOISERS:
            if not by_method[name].mean_rrmse_phase < noop.mean_rrmse_phase:
                out.flag(f"{name}: phase error is not below the input error")
        scored = [rep for rep in reports if rep.method != "noop"]
        out.rrmse_phase = float(np.mean([rep.mean_rrmse_phase for rep in scored]))
        out.rrmse_amp = float(np.mean([rep.mean_rrmse_amp for rep in scored]))
        return out


WORKLOADS = {cls.name: cls for cls in (Filter2D, CubeCli, SweepBaselines)}
