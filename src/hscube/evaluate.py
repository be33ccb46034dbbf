"""Accuracy metrics, baseline filters, and the experiment harness.

The harness executes every (object, sigma, seed, method) combination named
by a manifest, computes per-band phase and amplitude errors against the
clean cube, and emits the results as CSV rows (one per band, plus a summary
row per combination with band_index = -1).
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .ccf import WindowSpec, ccf_denoise, ccf_sliding
from .cdbm3d import DenoiseConfig, Stages, Variant, denoise_image, estimate_sigma
from .cube import ComplexCube
from .errors import DimensionMismatch, DispersionRequired, ManifestError, ZeroReference
from .parallel import run_jobs
from .synth import (
    TWO_PI,
    DispersionModel,
    NoiseSpec,
    ObjectKind,
    add_noise,
    compound_spec,
    generate_truth,
    refractive_index,
    two_peak_spec,
    wrap_phase,
    wrapped_peak_spec,
)

CSV_COLUMNS = [
    "object",
    "method",
    "sigma",
    "seed",
    "band_index",
    "wavelength_nm",
    "rrmse_phase",
    "rrmse_amp",
    "snr_db",
    "p_selected",
    "window",
    "step",
    "seconds",
]

METHOD_NAMES = ("ccf", "ccf-sliding", "cdbm3d-slice", "separate", "average", "noop")


# ---------------------------------------------------------------------------
# metrics


def _check_shapes(a: ComplexCube, b: ComplexCube):
    if a.shape != b.shape:
        raise DimensionMismatch(f"cube shapes differ: {a.shape} vs {b.shape}")


def rrmse_phase(est: ComplexCube, truth: ComplexCube, band: int) -> float:
    """Relative RMS error between wrapped phases of one band; the pointwise
    difference is itself wrapped to [-pi, pi) before norming."""
    _check_shapes(est, truth)
    phi_true = np.angle(truth.band(band))
    ref = np.linalg.norm(phi_true)
    if ref == 0.0:
        raise ZeroReference(f"band {band} of the reference has zero phase norm")
    diff = wrap_phase(np.angle(est.band(band)) - phi_true)
    return float(np.linalg.norm(diff) / ref)


def rrmse_amplitude(est: ComplexCube, truth: ComplexCube, band: int) -> float:
    _check_shapes(est, truth)
    amp_true = np.abs(truth.band(band))
    ref = np.linalg.norm(amp_true)
    if ref == 0.0:
        raise ZeroReference(f"band {band} of the reference has zero amplitude norm")
    return float(np.linalg.norm(np.abs(est.band(band)) - amp_true) / ref)


def snr_db(noisy: ComplexCube, truth: ComplexCube) -> float:
    """Total-energy signal-to-noise ratio in dB; +inf when the cubes match."""
    _check_shapes(noisy, truth)
    noise_energy = float(np.sum(np.abs(noisy.data - truth.data) ** 2))
    if noise_energy == 0.0:
        return float("inf")
    signal_energy = float(np.sum(np.abs(truth.data) ** 2))
    return 10.0 * np.log10(signal_energy / noise_energy)


# ---------------------------------------------------------------------------
# baseline filters


def baseline_average(
    noisy: ComplexCube, model: DispersionModel | None, mode: str = "global"
) -> ComplexCube:
    """Invert the phase back to thickness per band, average the thickness,
    and recompute the phases; amplitudes pass through unchanged.

    ``global`` averages over all bands, ``pairwise`` over neighboring band
    pairs only (for phases that wrap).
    """
    if model is None:
        raise DispersionRequired("thickness averaging needs a dispersion model")
    if mode not in ("global", "pairwise"):
        raise ValueError(f"unknown averaging mode {mode!r}")
    wl_um = noisy.wavelengths / 1000.0
    n_lam = refractive_index(model, noisy.wavelengths)
    scale = wl_um / (TWO_PI * (n_lam - 1.0))  # phase -> thickness, per band
    h = np.angle(noisy.data) * scale[None, None, :]
    if mode == "global":
        h_avg = np.broadcast_to(h.mean(axis=2, keepdims=True), h.shape)
    else:
        h_avg = np.empty_like(h)
        h_avg[:, :, :-1] = 0.5 * (h[:, :, :-1] + h[:, :, 1:])
        h_avg[:, :, -1] = 0.5 * (h[:, :, -2] + h[:, :, -1])
    phases = h_avg / scale[None, None, :]
    return ComplexCube(
        wavelengths=noisy.wavelengths,
        data=np.abs(noisy.data) * np.exp(1j * phases),
    )


def per_slice_cdbm3d(noisy: ComplexCube, cfg: DenoiseConfig, threads: int = 1) -> ComplexCube:
    """Filter every band independently with the complex patch filter."""

    def make_job(b):
        return lambda: denoise_image(noisy.band(b), cfg)

    slices = run_jobs([make_job(b) for b in range(noisy.n_bands)], threads)
    return ComplexCube(
        wavelengths=noisy.wavelengths, data=np.stack(slices, axis=2)
    )


def baseline_separate(noisy: ComplexCube, cfg: DenoiseConfig, threads: int = 1) -> ComplexCube:
    """Filter amplitude and wrapped phase of each band as independent real
    images, then recombine.  Each real image is filtered with the
    per-component deviation sigma/sqrt(2); negative filtered amplitudes are
    clamped to zero."""

    def make_job(b):
        def job():
            band = noisy.band(b)
            sigma = cfg.sigma
            if sigma is None:
                sigma = estimate_sigma(band, cfg)
            real_cfg = replace(cfg, sigma=sigma / np.sqrt(2.0))
            amp = denoise_image(np.abs(band).astype(np.complex128), real_cfg).real
            phase = denoise_image(np.angle(band).astype(np.complex128), real_cfg).real
            return np.maximum(amp, 0.0) * np.exp(1j * phase)

        return job

    slices = run_jobs([make_job(b) for b in range(noisy.n_bands)], threads)
    return ComplexCube(wavelengths=noisy.wavelengths, data=np.stack(slices, axis=2))


# ---------------------------------------------------------------------------
# experiment manifest


@dataclass(frozen=True)
class ObjectDef:
    kind: ObjectKind
    name: str
    target_phase: float = 2.8
    max_phase: float = 28.9

    def build(self, n_rows: int, n_cols: int, model: DispersionModel, lambda_min: float):
        if self.kind is ObjectKind.TWO_PEAK:
            return two_peak_spec(n_rows, n_cols, model, lambda_min, self.target_phase)
        if self.kind is ObjectKind.COMPOUND:
            return compound_spec(n_rows, n_cols, model, lambda_min, self.target_phase)
        return wrapped_peak_spec(n_rows, n_cols, model, lambda_min, self.max_phase)


@dataclass(frozen=True)
class MethodDef:
    name: str
    config: DenoiseConfig = field(default_factory=DenoiseConfig)
    window: WindowSpec = field(default_factory=WindowSpec)
    average_mode: str = "global"
    sigma_known: bool = True
    label: str = ""

    @property
    def report_label(self) -> str:
        return self.label or self.name


@dataclass(frozen=True)
class Manifest:
    schema_version: int
    n_rows: int
    n_cols: int
    n_bands: int
    lambda_lo: float
    lambda_hi: float
    dispersion: DispersionModel
    objects: tuple[ObjectDef, ...]
    sigmas: tuple[float, ...]
    seeds: tuple[int, ...]
    methods: tuple[MethodDef, ...]
    output_csv: str | None = None


def _need(mapping, key, kind, path):
    if key not in mapping:
        raise ManifestError(f"{path}{key}: missing required field")
    value = mapping[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ManifestError(f"{path}{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


_CONFIG_FIELDS = {
    "patch_rows": int,
    "patch_cols": int,
    "patch_step": int,
    "search_radius": int,
    "max_group_size": int,
    "match_threshold": float,
    "hard_threshold_factor": float,
    "variant": str,
    "stages": str,
}


def _parse_config(raw, path) -> DenoiseConfig:
    kwargs = {}
    for key, value in raw.items():
        if key not in _CONFIG_FIELDS:
            raise ManifestError(f"{path}{key}: unknown filter parameter")
        want = _CONFIG_FIELDS[key]
        if want is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, want) or isinstance(value, bool):
            raise ManifestError(f"{path}{key}: expected {want.__name__}")
        kwargs[key] = value
    if "variant" in kwargs:
        try:
            kwargs["variant"] = Variant(kwargs["variant"])
        except ValueError:
            raise ManifestError(f"{path}variant: unknown variant {kwargs['variant']!r}")
    if "stages" in kwargs:
        try:
            kwargs["stages"] = Stages(kwargs["stages"])
        except ValueError:
            raise ManifestError(f"{path}stages: unknown stages value {kwargs['stages']!r}")
    try:
        return DenoiseConfig(**kwargs)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}")


def parse_manifest(doc: dict) -> Manifest:
    """Validate a decoded manifest document; errors carry the field path."""
    if not isinstance(doc, dict):
        raise ManifestError(": manifest root must be an object")
    version = _need(doc, "schema_version", int, "")
    if version != 1:
        raise ManifestError(f"schema_version: unsupported version {version}")

    size = _need(doc, "size", list, "")
    if len(size) != 3 or not all(isinstance(v, int) and v > 0 for v in size):
        raise ManifestError("size: expected three positive integers [rows, cols, bands]")
    lam = _need(doc, "lambda_nm", list, "")
    if len(lam) != 2 or not all(isinstance(v, (int, float)) for v in lam) or lam[0] >= lam[1]:
        raise ManifestError("lambda_nm: expected [lo, hi] with lo < hi")

    disp_raw = doc.get("dispersion", {})
    if not isinstance(disp_raw, dict):
        raise ManifestError("dispersion: expected an object")
    base = DispersionModel()
    try:
        dispersion = DispersionModel(
            a0=float(disp_raw.get("a0", base.a0)),
            b0_um2=float(disp_raw.get("b0_um2", base.b0_um2)),
            c0_um4=float(disp_raw.get("c0_um4", base.c0_um4)),
        )
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"dispersion: {exc}")

    objects = []
    for i, entry in enumerate(_need(doc, "objects", list, "")):
        path = f"objects[{i}]."
        if isinstance(entry, str):
            entry = {"kind": entry}
        if not isinstance(entry, dict):
            raise ManifestError(f"objects[{i}]: expected a string or object")
        kind_name = _need(entry, "kind", str, path)
        try:
            kind = ObjectKind(kind_name)
        except ValueError:
            raise ManifestError(f"{path}kind: unknown object kind {kind_name!r}")
        objects.append(
            ObjectDef(
                kind=kind,
                name=str(entry.get("name", kind_name)),
                target_phase=float(entry.get("target_phase", ObjectDef.target_phase)),
                max_phase=float(entry.get("max_phase", ObjectDef.max_phase)),
            )
        )

    sigmas = _need(doc, "sigmas", list, "")
    if not all(isinstance(s, (int, float)) and s >= 0 for s in sigmas):
        raise ManifestError("sigmas: every entry must be a nonnegative number")
    seeds = _need(doc, "seeds", list, "")
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds):
        raise ManifestError("seeds: every entry must be an integer")

    methods = []
    for i, entry in enumerate(_need(doc, "methods", list, "")):
        path = f"methods[{i}]."
        if not isinstance(entry, dict):
            raise ManifestError(f"methods[{i}]: expected an object")
        name = _need(entry, "name", str, path)
        if name not in METHOD_NAMES:
            raise ManifestError(f"{path}name: unknown method {name!r}")
        cfg = _parse_config(entry.get("config", {}), path + "config.")
        try:
            window = WindowSpec(
                width=int(entry.get("window", WindowSpec.width)),
                step=int(entry.get("step", WindowSpec.step)),
            )
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"{path}window: {exc}")
        mode = entry.get("mode", MethodDef.average_mode)
        if mode not in ("global", "pairwise"):
            raise ManifestError(f"{path}mode: expected 'global' or 'pairwise'")
        sigma_known = entry.get("sigma_known", MethodDef.sigma_known)
        if not isinstance(sigma_known, bool):
            raise ManifestError(f"{path}sigma_known: expected a boolean")
        label = entry.get("label", "")
        if not isinstance(label, str):
            raise ManifestError(f"{path}label: expected a string")
        methods.append(
            MethodDef(
                name=name, config=cfg, window=window, average_mode=mode,
                sigma_known=sigma_known, label=label,
            )
        )

    output_csv = doc.get("output_csv")
    if output_csv is not None and not isinstance(output_csv, str):
        raise ManifestError("output_csv: expected a string path")

    return Manifest(
        schema_version=version,
        n_rows=size[0],
        n_cols=size[1],
        n_bands=size[2],
        lambda_lo=float(lam[0]),
        lambda_hi=float(lam[1]),
        dispersion=dispersion,
        objects=tuple(objects),
        sigmas=tuple(float(s) for s in sigmas),
        seeds=tuple(seeds),
        methods=tuple(methods),
        output_csv=output_csv,
    )


# ---------------------------------------------------------------------------
# running methods


def apply_method(
    method: MethodDef,
    noisy: ComplexCube,
    sigma: float | None,
    model: DispersionModel | None,
    threads: int = 1,
):
    """Dispatch one method on a noisy cube; returns (estimate, diagnostics)."""
    diagnostics: list = []
    cfg = method.config
    if method.sigma_known and sigma is not None:
        cfg = replace(cfg, sigma=sigma)
    if method.name == "ccf":
        return ccf_denoise(noisy, cfg, diagnostics=diagnostics, threads=threads), diagnostics
    if method.name == "ccf-sliding":
        est = ccf_sliding(noisy, cfg, method.window, diagnostics=diagnostics, threads=threads)
        return est, diagnostics
    if method.name == "cdbm3d-slice":
        return per_slice_cdbm3d(noisy, cfg, threads=threads), diagnostics
    if method.name == "separate":
        return baseline_separate(noisy, cfg, threads=threads), diagnostics
    if method.name == "average":
        return baseline_average(noisy, model, method.average_mode), diagnostics
    if method.name == "noop":
        return noisy, diagnostics
    raise ValueError(f"unknown method {method.name!r}")


@dataclass(eq=False)
class MetricsReport:
    """Per-band and summary accuracy of one method on one noisy cube."""

    object_name: str
    method: str
    sigma: float | None
    seed: int | None
    window: int | None
    step: int | None
    wavelengths: np.ndarray
    rrmse_phase_bands: np.ndarray
    rrmse_amp_bands: np.ndarray
    p_per_band: np.ndarray  # -1 where no subspace was involved
    snr_input_db: float
    seconds: float = 0.0
    config: dict | None = None

    @property
    def mean_rrmse_phase(self) -> float:
        return float(self.rrmse_phase_bands.mean())

    @property
    def mean_rrmse_amp(self) -> float:
        return float(self.rrmse_amp_bands.mean())


def make_report(
    est: ComplexCube,
    truth: ComplexCube,
    noisy_snr: float,
    *,
    object_name: str,
    method: str,
    sigma: float | None,
    seed: int | None,
    window: int | None = None,
    step: int | None = None,
    diagnostics: list | None = None,
    seconds: float = 0.0,
    config: dict | None = None,
) -> MetricsReport:
    bands = truth.n_bands
    p_per_band = np.full(bands, -1, dtype=np.int64)
    for info in diagnostics or []:
        for b in info.get("kept_bands", []):
            p_per_band[b] = info["p"]
    return MetricsReport(
        object_name=object_name,
        method=method,
        sigma=sigma,
        seed=seed,
        window=window,
        step=step,
        wavelengths=truth.wavelengths.copy(),
        rrmse_phase_bands=np.array([rrmse_phase(est, truth, b) for b in range(bands)]),
        rrmse_amp_bands=np.array([rrmse_amplitude(est, truth, b) for b in range(bands)]),
        p_per_band=p_per_band,
        snr_input_db=noisy_snr,
        seconds=seconds,
        config=config,
    )


def run_experiment(manifest: Manifest, threads: int = 1, measure_time: bool = False):
    """Execute all combinations; returns (reports, failures).

    ``failures`` holds (combination label, error message) pairs; other
    combinations still complete.  Timings are recorded only when
    ``measure_time`` is set, so default CSV output is run-to-run identical.
    """
    reports: list[MetricsReport] = []
    failures: list[tuple[str, str]] = []
    wavelengths = np.linspace(manifest.lambda_lo, manifest.lambda_hi, manifest.n_bands)
    for obj in manifest.objects:
        spec = obj.build(manifest.n_rows, manifest.n_cols, manifest.dispersion, manifest.lambda_lo)
        truth = generate_truth(
            spec, manifest.dispersion, (manifest.n_rows, manifest.n_cols), wavelengths
        )
        for sigma in manifest.sigmas:
            for seed in manifest.seeds:
                noisy = add_noise(truth, NoiseSpec(sigma=sigma, seed=seed))
                snr = snr_db(noisy, truth)
                for method in manifest.methods:
                    label = f"{obj.name}/sigma={sigma}/seed={seed}/{method.report_label}"
                    try:
                        t0 = time.perf_counter()
                        est, diags = apply_method(
                            method, noisy, sigma, manifest.dispersion, threads=threads
                        )
                        dt = time.perf_counter() - t0 if measure_time else 0.0
                        uses_window = method.name == "ccf-sliding"
                        reports.append(
                            make_report(
                                est,
                                truth,
                                snr,
                                object_name=obj.name,
                                method=method.report_label,
                                sigma=sigma,
                                seed=seed,
                                window=method.window.width if uses_window else None,
                                step=method.window.step if uses_window else None,
                                diagnostics=diags,
                                seconds=dt,
                                config=config_snapshot(method.config),
                            )
                        )
                    except Exception as exc:  # noqa: BLE001 - isolate combination failures
                        failures.append((label, f"{type(exc).__name__}: {exc}"))
    return reports, failures


def config_snapshot(cfg: DenoiseConfig) -> dict:
    snap = asdict(cfg)
    snap["variant"] = cfg.variant.value
    snap["stages"] = cfg.stages.value
    return snap


# ---------------------------------------------------------------------------
# CSV round trip


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(reports, target) -> None:
    """Write per-band rows plus one summary row (band_index = -1) per report."""
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    handle = open(target, "w", newline="") if own else target
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rep in reports:
            common = [rep.object_name, rep.method, _fmt(rep.sigma), _fmt(rep.seed)]
            tail = [_fmt(rep.window), _fmt(rep.step), _fmt(rep.seconds)]
            for b in range(len(rep.wavelengths)):
                writer.writerow(
                    common
                    + [
                        b,
                        _fmt(float(rep.wavelengths[b])),
                        _fmt(float(rep.rrmse_phase_bands[b])),
                        _fmt(float(rep.rrmse_amp_bands[b])),
                        _fmt(rep.snr_input_db),
                        int(rep.p_per_band[b]),
                    ]
                    + tail
                )
            writer.writerow(
                common
                + [
                    -1,
                    "",
                    _fmt(rep.mean_rrmse_phase),
                    _fmt(rep.mean_rrmse_amp),
                    _fmt(rep.snr_input_db),
                    -1,
                ]
                + tail
            )
    finally:
        if own:
            handle.close()


def _parse_opt(text: str, kind):
    return None if text == "" else kind(text)


def read_csv(source) -> list[MetricsReport]:
    """Parse a metrics CSV back into reports (config snapshots are not part
    of the CSV schema and come back as None)."""
    own = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    handle = open(source, "r", newline="") if own else source
    try:
        rows = list(csv.reader(handle))
    finally:
        if own:
            handle.close()
    if not rows or rows[0] != CSV_COLUMNS:
        raise ValueError("not a metrics CSV: header mismatch")
    reports: list[MetricsReport] = []
    current = None
    bands: list[tuple] = []

    def finish(summary_row):
        key, rows_ = current, sorted(bands)
        reports.append(
            MetricsReport(
                object_name=key[0],
                method=key[1],
                sigma=_parse_opt(key[2], float),
                seed=_parse_opt(key[3], int),
                window=_parse_opt(key[4], int),
                step=_parse_opt(key[5], int),
                wavelengths=np.array([r[1] for r in rows_]),
                rrmse_phase_bands=np.array([r[2] for r in rows_]),
                rrmse_amp_bands=np.array([r[3] for r in rows_]),
                p_per_band=np.array([r[5] for r in rows_], dtype=np.int64),
                snr_input_db=float(summary_row[8]),
                seconds=float(summary_row[12]),
            )
        )

    for row in rows[1:]:
        key = (row[0], row[1], row[2], row[3], row[10], row[11])
        band = int(row[4])
        if band == -1:
            if key != current:
                raise ValueError("summary row without matching band rows")
            finish(row)
            current, bands = None, []
            continue
        if current is None:
            current = key
        elif key != current:
            raise ValueError("band rows of different combinations interleaved")
        bands.append((band, float(row[5]), float(row[6]), float(row[7]), row[8], int(row[9])))
    if current is not None:
        raise ValueError("missing summary row for the last combination")
    return reports


def csv_text(reports) -> str:
    buf = io.StringIO()
    write_csv(reports, buf)
    return buf.getvalue()
