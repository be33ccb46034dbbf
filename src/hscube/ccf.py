"""Whole-cube denoising pipeline and its sliding spectral window variant.

Single run: reshape the cube to a bands-by-pixels matrix, identify the
signal subspace, reshape the projected rows into eigenimages, filter each
eigenimage with the patch filter using that eigenimage's own noise level,
then project back and reshape to a cube.  Estimates come out for every band
even though only the few eigenimages are filtered.

Sliding mode: the pipeline runs on a band window centered at successive
band indices; every output band is taken from the window whose center lies
nearest (ties go to the lower center), so the assembled cube is written
exactly once per band.  Windows are truncated at the cube edges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .cdbm3d import (
    DenoiseConfig,
    _check_int,
    _check_patch,
    _ldexp,
    _rescaled,
    _scale_exponent,
    denoise_image,
)
from .cube import ComplexCube, reshape_to_cube, reshape_to_matrix
from .errors import InvalidConfig
from .parallel import _single_threaded_blas, run_jobs
from .subspace import back_project, identify_subspace, project


@dataclass(frozen=True)
class WindowSpec:
    """Sliding window geometry: band count per window and center spacing."""

    width: int = 70
    step: int = 12

    def __post_init__(self):
        object.__setattr__(self, "width", _check_int("width", self.width, 1))
        object.__setattr__(self, "step", _check_int("step", self.step, 1))


@dataclass(frozen=True)
class WindowRun:
    """One planned pipeline invocation of the sliding mode."""

    center: int
    band_lo: int  # inclusive
    band_hi: int  # exclusive
    kept: tuple[int, ...]  # absolute band indices this run contributes


def sliding_plan(n_bands: int, window: WindowSpec) -> list[WindowRun]:
    """Window centers, their clamped band ranges, and the band ownership map.

    A window is symmetric around its center and truncated at the cube edges
    (never mirrored or shifted), so edge centers see a one-sided, smaller
    neighborhood.  A window at least as wide as the cube is the whole cube
    wherever it is centered, so the plan is then one run, centered at the
    middle band.  Bands are owned by the nearest center whose window covers
    them.  The plan is rejected (``InvalidConfig``), before any window runs,
    when some window other than the whole cube holds fewer than the 3 bands
    the subspace's noise estimate needs (``width: ``), or when the
    width/step combination leaves some band uncovered (``step: ``).
    """
    wide = window.width >= n_bands
    centers = np.array([n_bands // 2]) if wide else np.arange(0, n_bands, window.step)
    start = centers - window.width // 2
    lo, hi = np.maximum(0, start), np.minimum(n_bands, start + window.width)
    narrowest = int((hi - lo).min())
    if not wide and narrowest < 3:
        raise InvalidConfig(
            f"width: {window.width} on {n_bands} bands leaves a window of {narrowest} "
            f"band(s), and the noise estimate needs 3; widen it, or make it at least "
            f"the band count"
        )
    bands = np.arange(n_bands)[:, None]
    covers = (lo <= bands) & (bands < hi)
    # the nearest covering center; argmin takes the first, the lower, on a tie
    owner = np.where(covers, np.abs(bands - centers), n_bands).argmin(axis=1)
    covered = covers.any(axis=1)
    if not covered.all():
        raise InvalidConfig(f"step: band {covered.argmin()} is not covered by any window "
                            f"(width={window.width}, step={window.step})")
    return [WindowRun(c, l, h, tuple(np.flatnonzero(owner == i).tolist()))
            for i, (c, l, h) in enumerate(zip(centers.tolist(), lo.tolist(), hi.tolist()))]


@_single_threaded_blas()
def ccf_denoise(
    cube: ComplexCube,
    cfg: DenoiseConfig,
    diagnostics: list | None = None,
    threads: int = 1,
) -> ComplexCube:
    """Subspace-projected collaborative filtering of a whole cube.

    ``cfg.sigma`` is ignored; each eigenimage is filtered with the noise
    level implied by the estimated noise correlation.  When ``diagnostics``
    is a list, a JSON-ready summary of the subspace decision is appended.
    A cube whose largest magnitude leaves [2^-400, 2^400) is filtered, with
    its ``match_threshold``, at the power-of-two scale that brings it to
    [1/2, 1), as in ``denoise_image``; its output and diagnostics are scaled back.
    A cube whose images are smaller than a patch raises ``DimensionMismatch``
    before the subspace is identified.
    """
    _check_patch((cube.n_rows, cube.n_cols), cfg)
    shift = _scale_exponent(cube.data)
    z = reshape_to_matrix(cube)
    if shift:  # z is a view of the caller's samples
        z = _ldexp(z, -shift)
        cfg = _rescaled(replace(cfg, sigma=None), -shift)  # sigma is set per eigenimage
    basis = identify_subspace(z)
    images = project(z, basis).reshape(basis.p, cube.n_rows, cube.n_cols)
    sigmas = np.sqrt(basis.eigen_noise_var)
    jobs = [partial(denoise_image, image, replace(cfg, sigma=s))
            for image, s in zip(images, sigmas.tolist())]
    filtered = run_jobs(jobs, threads)
    n_px = cube.n_rows * cube.n_cols  # an all-zero cube has p = 0 and nothing to stack
    zeig_hat = np.array(filtered, dtype=np.complex128).reshape(basis.p, n_px)
    z_hat = back_project(zeig_hat, basis)
    if shift:
        _ldexp(z_hat, shift, out=z_hat)  # a fresh product
    if diagnostics is not None:
        info = {
            "center": None,
            "band_lo": 0,
            "band_hi": cube.n_bands,
            "kept_bands": list(range(cube.n_bands)),
            "p": basis.p,
            "sigma_eigen": [float(s) for s in sigmas],
            "eigenvalues": [float(v) for v in basis.eigenvalues],
            "mse_curve": [float(v) for v in basis.mse_curve],
        }
        if shift:  # back to the caller's units; a power beyond float64 reads inf
            with np.errstate(over="ignore"):
                for key, power in (("sigma_eigen", 1), ("eigenvalues", 2), ("mse_curve", 2)):
                    scaled = np.ldexp(np.asarray(info[key], float), power * shift)
                    info[key] = [float(v) for v in scaled]
        diagnostics.append(info)
    return reshape_to_cube(z_hat, cube.n_rows, cube.n_cols, cube.wavelengths)


def ccf_sliding(
    cube: ComplexCube,
    cfg: DenoiseConfig,
    window: WindowSpec,
    diagnostics: list | None = None,
    threads: int = 1,
) -> ComplexCube:
    """Sliding-window variant; every band of the output comes from exactly
    one window run.

    Each window's sub-cube is a view of the input's band slice, and each
    window job writes the bands it owns straight into one band-major
    output, so the jobs hold no copy of the cube beyond their own window's
    result.  A window out of the safe magnitude band is rescaled by
    ``ccf_denoise`` on its own.  The patch size is checked, as in
    ``ccf_denoise``, before the plan and before any window runs.
    """
    _check_patch((cube.n_rows, cube.n_cols), cfg)
    plan = sliding_plan(cube.n_bands, window)
    out = np.empty((cube.n_bands, cube.n_rows, cube.n_cols), dtype=np.complex128)
    infos = run_jobs([partial(_run_window, cube, cfg, run, out) for run in plan], threads)
    if diagnostics is not None:
        diagnostics.extend(infos)
    return ComplexCube(wavelengths=cube.wavelengths, data=out.transpose(1, 2, 0))


def _run_window(cube: ComplexCube, cfg: DenoiseConfig, run: WindowRun, out: np.ndarray) -> dict:
    """One window of ``ccf_sliding``: filter the window's band slice, write
    the bands it owns into the band-major ``out``, and return its diagnostics."""
    sub = ComplexCube(
        wavelengths=cube.wavelengths[run.band_lo : run.band_hi],
        data=cube.data[:, :, run.band_lo : run.band_hi],
    )
    local: list = []
    result = ccf_denoise(sub, cfg, diagnostics=local, threads=1)
    bands = result.data.transpose(2, 0, 1)  # the result's band-major buffer
    for b in run.kept:
        out[b] = bands[b - run.band_lo]
    return {**local[0], "center": run.center, "band_lo": run.band_lo, "band_hi": run.band_hi,
            "kept_bands": list(run.kept)}
