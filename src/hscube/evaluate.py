"""Accuracy metrics, baseline filters, and the experiment harness.

The harness executes every (object, sigma, seed, method) combination named
by a manifest, computes per-band phase and amplitude errors against the
clean cube, and emits the results as CSV rows (one per band, plus a summary
row per combination with band_index = -1).
"""

from __future__ import annotations

import contextlib
import csv
import io
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .ccf import WindowSpec, ccf_denoise, ccf_sliding, sliding_plan
from .cdbm3d import DenoiseConfig, Stages, Variant, _check_real, denoise_image, estimate_sigma
from .cube import ComplexCube
from .errors import (
    DimensionMismatch,
    DispersionRequired,
    InvalidConfig,
    ManifestError,
    TooFewBands,
    ZeroReference,
)
from .parallel import _single_threaded_blas, run_jobs
from .synth import (
    TWO_PI,
    DispersionModel,
    NoiseSpec,
    ObjectKind,
    _check_geometry,
    _check_two_peak_phase,
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
AVERAGE_MODES = ("global", "pairwise")


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
    # the sums run in pixel-major (C) order, not in the cube's band-major
    # memory order, which would round the totals differently
    noise_energy = float(np.sum(np.abs(np.subtract(noisy.data, truth.data, order="C")) ** 2))
    if noise_energy == 0.0:
        return float("inf")
    signal_energy = float(np.sum(np.abs(truth.data, order="C") ** 2))
    return 10.0 * np.log10(signal_energy / noise_energy)


# ---------------------------------------------------------------------------
# baseline filters


def _require_bands(cube: ComplexCube):
    if cube.n_bands == 0:
        raise TooFewBands("need at least 1 band, got 0")


def baseline_average(
    noisy: ComplexCube, model: DispersionModel | None, mode: str = "global"
) -> ComplexCube:
    """Invert the phase back to thickness per band, average the thickness,
    and recompute the phases; amplitudes pass through unchanged.

    ``global`` averages over all bands, ``pairwise`` over neighboring band
    pairs only (for phases that wrap); a single band has no neighbor and is
    returned unchanged.  A cube without bands raises ``TooFewBands``.
    """
    if model is None:
        raise DispersionRequired("thickness averaging needs a dispersion model")
    if mode not in AVERAGE_MODES:
        raise InvalidConfig(f"mode: expected one of {AVERAGE_MODES}, got {mode!r}")
    _require_bands(noisy)
    if mode == "pairwise" and noisy.n_bands == 1:
        return noisy
    wl_um = noisy.wavelengths / 1000.0
    n_lam = refractive_index(model, noisy.wavelengths)
    scale = wl_um / (TWO_PI * (n_lam - 1.0))  # phase -> thickness, per band
    # pixel-major, so that the band mean adds along a contiguous axis
    h = np.multiply(np.angle(noisy.data), scale[None, None, :], order="C")
    if mode == "global":
        h_avg = np.broadcast_to(h.mean(axis=2, keepdims=True), h.shape)
    else:
        h_avg = np.empty_like(h)
        h_avg[:, :, :-1] = 0.5 * (h[:, :, :-1] + h[:, :, 1:])
        h_avg[:, :, -1] = 0.5 * (h[:, :, -2] + h[:, :, -1])
    phases = h_avg / scale[None, None, :]
    data = np.multiply(np.abs(noisy.data), np.exp(1j * phases), out=np.empty_like(noisy.data))
    return ComplexCube(wavelengths=noisy.wavelengths, data=data)


def _filter_bands(noisy: ComplexCube, filter_band, threads: int) -> ComplexCube:
    """``filter_band(band)`` of every band, one pool job each, stacked into a cube."""
    _require_bands(noisy)
    jobs = [partial(filter_band, noisy.band(b)) for b in range(noisy.n_bands)]
    slices = run_jobs(jobs, threads)
    return ComplexCube(wavelengths=noisy.wavelengths, data=np.stack(slices).transpose(1, 2, 0))


def per_slice_cdbm3d(noisy: ComplexCube, cfg: DenoiseConfig, threads: int = 1) -> ComplexCube:
    """Filter every band independently with the complex patch filter."""
    return _filter_bands(noisy, partial(denoise_image, cfg=cfg), threads)


def _separate_band(band: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    sigma = cfg.sigma
    if sigma is None:
        sigma = estimate_sigma(band, cfg)
    real_cfg = replace(cfg, sigma=sigma / np.sqrt(2.0))
    amp = denoise_image(np.abs(band).astype(np.complex128), real_cfg).real
    phase = denoise_image(np.angle(band).astype(np.complex128), real_cfg).real
    return np.maximum(amp, 0.0) * np.exp(1j * phase)


def baseline_separate(noisy: ComplexCube, cfg: DenoiseConfig, threads: int = 1) -> ComplexCube:
    """Filter amplitude and wrapped phase of each band as independent real
    images, then recombine.  Each real image is filtered with the
    per-component deviation sigma/sqrt(2); negative filtered amplitudes are
    clamped to zero."""
    return _filter_bands(noisy, partial(_separate_band, cfg=cfg), threads)


# ---------------------------------------------------------------------------
# experiment manifest


@dataclass(frozen=True)
class ObjectDef:
    kind: ObjectKind
    name: str
    target_phase: float = 2.8
    max_phase: float = 28.9

    def __post_init__(self):
        if not isinstance(self.kind, ObjectKind):
            raise InvalidConfig(f"kind: expected an ObjectKind, got {self.kind!r}")
        if not isinstance(self.name, str):
            raise InvalidConfig(f"name: expected a string, got {self.name!r}")
        for name in ("target_phase", "max_phase"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
        if self.kind is ObjectKind.TWO_PEAK:
            _check_two_peak_phase(self.target_phase)

    def truth(self, size, lambda_nm, model: DispersionModel) -> ComplexCube:
        """The clean cube of ``size`` (rows, cols, bands) over ``lambda_nm``
        (lo, hi), its bands evenly spaced."""
        n_rows, n_cols, n_bands = size
        lo, hi = lambda_nm
        if self.kind is ObjectKind.TWO_PEAK:
            spec = two_peak_spec(n_rows, n_cols, model, lo, self.target_phase)
        elif self.kind is ObjectKind.COMPOUND:
            spec = compound_spec(n_rows, n_cols, model, lo, self.target_phase)
        else:
            spec = wrapped_peak_spec(n_rows, n_cols, model, lo, self.max_phase)
        return generate_truth(spec, model, (n_rows, n_cols), np.linspace(lo, hi, n_bands))


@dataclass(frozen=True)
class MethodDef:
    name: str
    config: DenoiseConfig = field(default_factory=DenoiseConfig)
    window: WindowSpec = field(default_factory=WindowSpec)
    average_mode: str = "global"
    label: str = ""

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise InvalidConfig(f"name: unknown method {self.name!r}")
        if self.average_mode not in AVERAGE_MODES:
            raise InvalidConfig(
                f"average_mode: expected one of {AVERAGE_MODES}, got {self.average_mode!r}"
            )
        if not isinstance(self.label, str):
            raise InvalidConfig(f"label: expected a string, got {self.label!r}")

    @property
    def report_label(self) -> str:
        return self.label or self.name


@dataclass(frozen=True)
class Manifest:
    size: tuple[int, int, int]  # rows, cols, bands
    lambda_nm: tuple[float, float]  # lo, hi
    dispersion: DispersionModel
    objects: tuple[ObjectDef, ...]
    sigmas: tuple[float, ...]
    seeds: tuple[int, ...]
    methods: tuple[MethodDef, ...]
    output_csv: str | None = None


_METHOD_KEYS = {"name", "config", "window", "step", "mode", "label"}


def _need(mapping, key, kind, path):
    if key not in mapping:
        raise ManifestError(f"{path}{key}: missing required field")
    value = mapping[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ManifestError(f"{path}{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _known_keys(mapping: dict, known, path: str) -> None:
    """Reject a key of a manifest object that no field of it reads."""
    for key in mapping:
        if key not in known:
            raise ManifestError(f"{path}{key}: unknown field, expected one of {sorted(known)}")


@contextlib.contextmanager
def _setting(path: str):
    """Re-raise a setting's own ``InvalidConfig`` as a ``ManifestError`` at ``path``."""
    try:
        yield
    except InvalidConfig as exc:
        raise ManifestError(f"{path}{exc}")


def _parse_config(raw, path) -> DenoiseConfig:
    """DenoiseConfig from a manifest ``config`` object; the dataclass checks
    every value, and its message names the field."""
    if not isinstance(raw, dict):
        raise ManifestError(f"{path[:-1]}: expected an object")
    known = {f.name for f in fields(DenoiseConfig)} - {"sigma"}  # sigma comes from `sigmas`
    _known_keys(raw, known, path)
    kwargs = dict(raw)
    for key, kind in (("variant", Variant), ("stages", Stages)):
        if key in kwargs:
            try:
                kwargs[key] = kind(kwargs[key])
            except ValueError:
                raise ManifestError(f"{path}{key}: unknown {key} value {kwargs[key]!r}")
    with _setting(path):
        return DenoiseConfig(**kwargs)


def parse_manifest(doc: dict) -> Manifest:
    """Validate a decoded manifest document; errors carry the field path."""
    if not isinstance(doc, dict):
        raise ManifestError(": manifest root must be an object")
    _known_keys(doc, {f.name for f in fields(Manifest)} | {"schema_version"}, "")
    version = _need(doc, "schema_version", int, "")
    if version != 1:
        raise ManifestError(f"schema_version: unsupported version {version}")

    with _setting(""):
        size, lam = _check_geometry(_need(doc, "size", list, ""), _need(doc, "lambda_nm", list, ""))

    disp_raw = doc.get("dispersion", {})
    if not isinstance(disp_raw, dict):
        raise ManifestError("dispersion: expected an object")
    _known_keys(disp_raw, {f.name for f in fields(DispersionModel)}, "dispersion.")
    with _setting("dispersion: "):
        dispersion = DispersionModel(**disp_raw)
        refractive_index(dispersion, np.linspace(*lam, size[2]))  # the grid of ObjectDef.truth

    objects = []
    for i, entry in enumerate(_need(doc, "objects", list, "")):
        path = f"objects[{i}]."
        if isinstance(entry, str):
            entry = {"kind": entry}
        if not isinstance(entry, dict):
            raise ManifestError(f"objects[{i}]: expected a string or object")
        _known_keys(entry, {f.name for f in fields(ObjectDef)}, path)
        kind_name = _need(entry, "kind", str, path)
        try:
            kind = ObjectKind(kind_name)
        except ValueError:
            raise ManifestError(f"{path}kind: unknown object kind {kind_name!r}")
        with _setting(path):  # an object is named after its kind unless it has a name
            objects.append(ObjectDef(**{"name": kind_name, **entry, "kind": kind}))

    sigmas, seeds = [], []
    for i, sigma in enumerate(_need(doc, "sigmas", list, "")):
        with _setting(f"sigmas[{i}]: "):
            sigmas.append(NoiseSpec(sigma=sigma).sigma)
    for i, seed in enumerate(_need(doc, "seeds", list, "")):
        with _setting(f"seeds[{i}]: "):
            seeds.append(NoiseSpec(sigma=0.0, seed=seed).seed)

    methods = []
    for i, entry in enumerate(_need(doc, "methods", list, "")):
        path = f"methods[{i}]."
        if not isinstance(entry, dict):
            raise ManifestError(f"methods[{i}]: expected an object")
        _known_keys(entry, _METHOD_KEYS, path)
        name = _need(entry, "name", str, path)
        cfg = _parse_config(entry.get("config", {}), path + "config.")
        with _setting(f"{path}window: "):
            window = WindowSpec(
                width=entry.get("window", WindowSpec.width),
                step=entry.get("step", WindowSpec.step),
            )
            if name == "ccf-sliding":
                sliding_plan(size[2], window)
        with _setting(path):
            methods.append(MethodDef(name=name, config=cfg, window=window,
                                     average_mode=entry.get("mode", MethodDef.average_mode),
                                     label=entry.get("label", MethodDef.label)))

    output_csv = doc.get("output_csv")
    if output_csv is not None and not isinstance(output_csv, str):
        raise ManifestError("output_csv: expected a string path")

    return Manifest(
        size=size,
        lambda_nm=lam,
        dispersion=dispersion,
        objects=tuple(objects),
        sigmas=tuple(sigmas),
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
    """Dispatch one method on a noisy cube; returns (estimate, diagnostics).
    A ``sigma`` that is not None replaces the method config's."""
    diagnostics: list = []
    cfg = method.config
    if sigma is not None:
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

    @property
    def mean_rrmse_phase(self) -> float:
        return float(self.rrmse_phase_bands.mean())

    @property
    def mean_rrmse_amp(self) -> float:
        return float(self.rrmse_amp_bands.mean())


@_single_threaded_blas()
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
    )


def _attempt(build, *args):
    """``build(*args)``, or the exception it raised, so that every
    combination built on it fails on its own instead of ending the sweep."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - raised again per combination
        return exc


def _noisy_input(truth, sigma: float, seed: int):
    """The noisy cube for one sigma and seed, and its input SNR."""
    if isinstance(truth, Exception):
        raise truth
    noisy = add_noise(truth, NoiseSpec(sigma=sigma, seed=seed))
    return noisy, snr_db(noisy, truth)


def run_experiment(manifest: Manifest, threads: int = 1, measure_time: bool = False):
    """Execute all combinations; returns (reports, failures).

    ``failures`` holds (combination label, error message) pairs; other
    combinations still complete.  Timings are recorded only when
    ``measure_time`` is set, so default CSV output is run-to-run identical.
    """
    reports: list[MetricsReport] = []
    failures: list[tuple[str, str]] = []
    for obj in manifest.objects:
        truth = _attempt(obj.truth, manifest.size, manifest.lambda_nm, manifest.dispersion)
        for sigma in manifest.sigmas:
            for seed in manifest.seeds:
                inputs = _attempt(_noisy_input, truth, sigma, seed)
                for method in manifest.methods:
                    label = f"{obj.name}/sigma={sigma}/seed={seed}/{method.report_label}"
                    try:
                        if isinstance(inputs, Exception):
                            raise inputs
                        noisy, snr = inputs
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
# CSV output


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


def csv_text(reports) -> str:
    buf = io.StringIO()
    write_csv(reports, buf)
    return buf.getvalue()
