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

import numpy as np

from .cdbm3d import DenoiseConfig, denoise_image
from .cube import ComplexCube, SpectralMatrix, reshape_to_cube, reshape_to_matrix
from .errors import DimensionMismatch, InvalidConfig
from .parallel import run_jobs
from .subspace import back_project, identify_subspace, project


@dataclass(frozen=True)
class WindowSpec:
    """Sliding window geometry: band count per window and center spacing."""

    width: int = 70
    step: int = 12

    def __post_init__(self):
        if self.width < 1:
            raise InvalidConfig("window width must be at least 1 band")
        if self.step < 1:
            raise InvalidConfig("window step must be at least 1 band")


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
    neighborhood; a window at least as wide as the cube is the whole cube.
    Bands are owned by the nearest center whose window covers them; when the
    width/step combination leaves some band uncovered the plan is rejected.
    """
    centers = [min(c, n_bands - 1) for c in range(0, n_bands, window.step)]
    bounds = []
    for c in centers:
        if window.width >= n_bands:
            bounds.append((0, n_bands))
        else:
            lo = max(0, c - window.width // 2)
            bounds.append((lo, min(n_bands, c - window.width // 2 + window.width)))

    kept: list[list[int]] = [[] for _ in centers]
    for b in range(n_bands):
        best = None
        for ci, (c, (lo, hi)) in enumerate(zip(centers, bounds)):
            if lo <= b < hi:
                key = (abs(b - c), c)
                if best is None or key < best[0]:
                    best = (key, ci)
        if best is None:
            raise DimensionMismatch(
                f"band {b} is not covered by any window "
                f"(width={window.width}, step={window.step})"
            )
        kept[best[1]].append(b)
    return [
        WindowRun(center=c, band_lo=lo, band_hi=hi, kept=tuple(k))
        for c, (lo, hi), k in zip(centers, bounds, kept)
    ]


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
    """
    z = reshape_to_matrix(cube)
    basis = identify_subspace(z)
    zeig = project(z, basis)
    images = zeig.entries.reshape(basis.p, cube.n_rows, cube.n_cols)
    sigmas = np.sqrt(basis.eigen_noise_var)

    def make_job(i):
        return lambda: denoise_image(images[i], replace(cfg, sigma=float(sigmas[i])))

    filtered = run_jobs([make_job(i) for i in range(basis.p)], threads)
    n_px = cube.n_rows * cube.n_cols
    zeig_hat = SpectralMatrix(  # an all-zero cube has p = 0 and nothing to stack
        entries=np.array(filtered, dtype=np.complex128).reshape(basis.p, n_px),
        n_rows=cube.n_rows,
        n_cols=cube.n_cols,
    )
    z_hat = back_project(zeig_hat, basis)
    if diagnostics is not None:
        diagnostics.append(
            {
                "center": None,
                "band_lo": 0,
                "band_hi": cube.n_bands,
                "kept_bands": list(range(cube.n_bands)),
                "p": basis.p,
                "sigma_eigen": [float(s) for s in sigmas],
                "eigenvalues": [float(v) for v in basis.eigenvalues],
                "mse_curve": [float(v) for v in basis.mse_curve],
            }
        )
    return reshape_to_cube(z_hat, wavelengths=cube.wavelengths)


def ccf_sliding(
    cube: ComplexCube,
    cfg: DenoiseConfig,
    window: WindowSpec,
    diagnostics: list | None = None,
    threads: int = 1,
) -> ComplexCube:
    """Sliding-window variant; every band of the output comes from exactly
    one window run."""
    plan = sliding_plan(cube.n_bands, window)

    def make_job(run: WindowRun):
        def job():
            sub = ComplexCube(
                wavelengths=cube.wavelengths[run.band_lo : run.band_hi],
                data=cube.data[:, :, run.band_lo : run.band_hi],
            )
            local: list = []
            result = ccf_denoise(sub, cfg, diagnostics=local, threads=1)
            return result, local[0]

        return job

    results = run_jobs([make_job(run) for run in plan], threads)
    out = np.empty_like(cube.data)
    for run, (result, info) in zip(plan, results):
        for b in run.kept:
            out[:, :, b] = result.data[:, :, b - run.band_lo]
        if diagnostics is not None:
            info.update(
                {
                    "center": run.center,
                    "band_lo": run.band_lo,
                    "band_hi": run.band_hi,
                    "kept_bands": list(run.kept),
                }
            )
            diagnostics.append(info)
    return ComplexCube(wavelengths=cube.wavelengths, data=out)
