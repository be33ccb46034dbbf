"""Synthetic phase-object cubes: thickness maps, Cauchy dispersion, noise.

A transparent object of thickness h(x, y) micrometers delays light of
wavelength lambda by

    phi = 2*pi * h * (n(lambda) - 1) / lambda        (h, lambda in um)

so the clean field is exp(j*phi), of unit amplitude.  Three object
families are provided: a smooth two-peak surface whose phase stays inside
[-pi, pi) for every band, a compound object whose thickness map changes
between three band sections, and a single tall peak whose phase wraps many
times.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .cdbm3d import _check_finite, _check_int, _check_real
from .cube import ComplexCube
from .errors import DimensionMismatch, InvalidConfig, NonPositiveWavelength, OutOfBounds

TWO_PI = 2.0 * np.pi

# Two-term Cauchy coefficients for BK7 glass (dimensionless, um^2).
BK7_A0 = 1.5046
BK7_B0 = 0.00420

# Band-index fractions at which the compound object switches thickness maps.
SECTION_BOUNDARIES = (1.0 / 3.0, 2.0 / 3.0)


@dataclass(frozen=True)
class DispersionModel:
    """Cauchy dispersion n(lambda) = a0 + b0/lambda^2 + c0/lambda^4, lambda in um.

    Each coefficient is a finite real, and the index must stay finite and
    above 1 over 400-798 nm; ``refractive_index`` checks it again at the
    wavelengths it is asked for."""

    a0: float = BK7_A0
    b0_um2: float = BK7_B0
    c0_um4: float = 0.0

    def __post_init__(self):
        for name in ("a0", "b0_um2", "c0_um4"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))
        refractive_index(self, np.linspace(400.0, 798.0, 256))


def bk7() -> DispersionModel:
    return DispersionModel()


def refractive_index(model: DispersionModel, lambda_nm: float):
    """Evaluate the Cauchy formula at a wavelength given in nanometers; an
    index that is not finite and above 1 at any of them is ``InvalidConfig``."""
    lam = np.asarray(lambda_nm, dtype=np.float64)
    if np.any(lam <= 0):
        raise NonPositiveWavelength(f"wavelength must be positive, got {lambda_nm}")
    lam_um = lam / 1000.0
    n = model.a0 + model.b0_um2 / lam_um**2 + model.c0_um4 / lam_um**4
    bad = np.flatnonzero(~(np.isfinite(n) & (n > 1.0)))
    if bad.size:
        raise InvalidConfig(f"refractive index must stay finite and above 1, got "
                            f"{np.ravel(n)[bad[0]]:g} at {np.ravel(lam)[bad[0]]:g} nm")
    return n


def wrap_phase(phi):
    """Reduce a phase (radians) to the half-open interval [-pi, pi)."""
    return np.mod(np.asarray(phi, dtype=np.float64) + np.pi, TWO_PI) - np.pi


class ObjectKind(enum.Enum):
    TWO_PEAK = "two-peak"
    COMPOUND = "compound"
    WRAPPED_PEAK = "wrapped"


@dataclass(frozen=True, eq=False)
class PhaseObjectSpec:
    """Concrete thickness map(s) in micrometers.

    Single-map objects carry one map; the compound object carries three,
    switched at the band-index fractions ``SECTION_BOUNDARIES``.
    """

    kind: ObjectKind
    thickness_maps: tuple[np.ndarray, ...]

    def __post_init__(self):
        maps = tuple(np.asarray(m, dtype=np.float64) for m in self.thickness_maps)
        for m in maps:
            if m.ndim != 2 or m.shape != maps[0].shape:
                raise DimensionMismatch("all thickness maps must share one 2D shape")
            if not np.all(np.isfinite(m)) or np.any(m < 0):
                raise InvalidConfig("thickness must be finite and nonnegative")
        if self.kind is ObjectKind.COMPOUND:
            if len(maps) != 3:
                raise DimensionMismatch("compound object needs exactly 3 thickness maps")
        elif len(maps) != 1:
            raise DimensionMismatch(f"{self.kind.value} object needs exactly 1 thickness map")
        object.__setattr__(self, "thickness_maps", maps)

    @property
    def n_rows(self) -> int:
        return self.thickness_maps[0].shape[0]

    @property
    def n_cols(self) -> int:
        return self.thickness_maps[0].shape[1]

    def thickness_at(self, band_fraction: float) -> np.ndarray:
        """Thickness map active at a relative band position in [0, 1)."""
        if self.kind is not ObjectKind.COMPOUND:
            return self.thickness_maps[0]
        b1, b2 = SECTION_BOUNDARIES
        if band_fraction < b1:
            return self.thickness_maps[0]
        if band_fraction < b2:
            return self.thickness_maps[1]
        return self.thickness_maps[2]


def default_wavelengths(n_bands: int = 200, lo_nm: float = 400.0, hi_nm: float = 798.0):
    """Uniform wavelength grid, by default 200 bands over 400-798 nm."""
    return np.linspace(lo_nm, hi_nm, n_bands)


def _check_geometry(size, lambda_nm):
    """A synthetic cube's ``size`` [rows, cols, bands] as three positive
    ints, and its range ``lambda_nm`` [lo, hi] as finite floats, 0 < lo < hi."""
    if len(size) != 3:
        raise InvalidConfig(f"size: expected [rows, cols, bands], got {size}")
    if len(lambda_nm) != 2:
        raise InvalidConfig(f"lambda_nm: expected [lo, hi], got {lambda_nm}")
    lo, hi = (_check_real("lambda_nm", v) for v in lambda_nm)
    if not 0 < lo < hi:
        raise InvalidConfig(f"lambda_nm: expected 0 < lo < hi, got [{lo}, {hi}]")
    return tuple(_check_int("size", v, 1) for v in size), (lo, hi)


def _thickness_for_phase(model: DispersionModel, lambda_nm: float, phase_rad: float) -> float:
    """Thickness in um that produces a given absolute phase at one wavelength."""
    n = refractive_index(model, lambda_nm)
    return phase_rad * (lambda_nm / 1000.0) / (TWO_PI * (n - 1.0))


def _grid(n_rows: int, n_cols: int):
    y = np.arange(n_rows, dtype=np.float64)[:, None]
    x = np.arange(n_cols, dtype=np.float64)[None, :]
    return y, x


def _gaussian_bump(n_rows, n_cols, center_yx, width_frac):
    y, x = _grid(n_rows, n_cols)
    cy, cx = center_yx
    w = width_frac * min(n_rows, n_cols)
    return np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2.0 * w**2))


def _rescale_to_phase(raw_map, model, lambda_nm, target_phase):
    peak = raw_map.max()
    if peak <= 0:
        raise ValueError("thickness map must have a positive peak to calibrate")
    return raw_map * (_thickness_for_phase(model, lambda_nm, target_phase) / peak)


def _check_two_peak_phase(target_phase: float) -> None:
    """The two-peak object's phase stays unwrapped only for a peak in (0, pi)."""
    if not 0 < target_phase < np.pi:
        raise InvalidConfig(f"target_phase: the two-peak object needs 0 < target_phase < pi, "
                            f"got {target_phase}")


def two_peak_spec(
    n_rows: int,
    n_cols: int,
    model: DispersionModel,
    lambda_min_nm: float = 400.0,
    target_phase: float = 2.8,
) -> PhaseObjectSpec:
    """Smooth sum of two Gaussian bumps, scaled so the largest phase (reached
    at the shortest wavelength) equals ``target_phase`` and stays below pi."""
    _check_two_peak_phase(target_phase)
    b1 = _gaussian_bump(n_rows, n_cols, (0.38 * n_rows, 0.32 * n_cols), 0.11)
    b2 = 0.72 * _gaussian_bump(n_rows, n_cols, (0.62 * n_rows, 0.68 * n_cols), 0.17)
    h = _rescale_to_phase(b1 + b2, model, lambda_min_nm, target_phase)
    return PhaseObjectSpec(kind=ObjectKind.TWO_PEAK, thickness_maps=(h,))


def wrapped_peak_spec(
    n_rows: int,
    n_cols: int,
    model: DispersionModel,
    lambda_min_nm: float = 400.0,
    max_phase: float = 28.9,
) -> PhaseObjectSpec:
    """Tall truncated Gaussian peak whose phase wraps many times.

    The Gaussian tails are cut at their boundary level so the peak has
    compact support; the height is calibrated so the maximum phase at the
    shortest wavelength equals ``max_phase`` exactly on the pixel grid.
    """
    bump = _gaussian_bump(n_rows, n_cols, ((n_rows - 1) / 2.0, (n_cols - 1) / 2.0), 0.16)
    floor = np.exp(-0.5 / 0.16**2)  # level one half-image away from the center
    raw = np.maximum(bump - floor, 0.0) / (1.0 - floor)
    h = _rescale_to_phase(raw, model, lambda_min_nm, max_phase)
    return PhaseObjectSpec(kind=ObjectKind.WRAPPED_PEAK, thickness_maps=(h,))


def usaf_thickness(n_rows: int, n_cols: int) -> np.ndarray:
    """Binary resolution-target style map: triplets of bars at shrinking scales."""
    img = np.zeros((n_rows, n_cols))
    scale = max(min(n_rows, n_cols) // 4, 3)
    top = max(n_rows // 12, 1)
    left = max(n_cols // 12, 1)
    while scale >= 3 and top + scale < n_rows and left + 2 * scale + 2 < n_cols:
        bar = max(scale // 5, 1)
        for k in range(3):  # vertical triplet
            c0 = left + 2 * k * bar
            img[top : top + scale, c0 : c0 + bar] = 1.0
        h_left = left + scale + 2
        for k in range(3):  # horizontal triplet
            r0 = top + 2 * k * bar
            img[r0 : r0 + bar, h_left : h_left + scale] = 1.0
        top += scale + max(scale // 3, 2)
        scale = int(scale * 0.55)
    return img


def _inclined_step_thickness(n_rows, n_cols):
    # linear ramp with one step discontinuity along the column direction
    _, x = _grid(n_rows, n_cols)
    ramp = np.broadcast_to(x / max(n_cols - 1, 1), (n_rows, n_cols)).copy()
    ramp[:, n_cols // 2 :] += 0.6
    return ramp / ramp.max()


def compound_spec(
    n_rows: int,
    n_cols: int,
    model: DispersionModel,
    lambda_min_nm: float = 400.0,
    target_phase: float = 2.8,
) -> PhaseObjectSpec:
    """Three-section object: binary bar target, Gaussian peak, inclined
    discontinuous surface; each section calibrated to an interferometric range.
    The bar target needs at least 5 rows and 10 columns to draw one bar."""
    if n_rows < 5 or n_cols < 10:
        raise DimensionMismatch(
            f"compound object needs at least 5 rows and 10 columns, got {n_rows}x{n_cols}"
        )
    maps = (
        usaf_thickness(n_rows, n_cols),
        _gaussian_bump(n_rows, n_cols, (0.5 * (n_rows - 1), 0.5 * (n_cols - 1)), 0.14),
        _inclined_step_thickness(n_rows, n_cols),
    )
    scaled = tuple(_rescale_to_phase(m, model, lambda_min_nm, target_phase) for m in maps)
    return PhaseObjectSpec(kind=ObjectKind.COMPOUND, thickness_maps=scaled)


def phase_at(
    spec: PhaseObjectSpec,
    model: DispersionModel,
    x: int,
    y: int,
    lambda_nm: float,
    band_fraction: float = 0.0,
) -> float:
    """Absolute (unwrapped) phase at pixel (x, y); x is the column, y the row.

    ``band_fraction`` selects the section of a compound object and is ignored
    otherwise.
    """
    if not (0 <= y < spec.n_rows and 0 <= x < spec.n_cols):
        raise OutOfBounds(f"pixel ({x}, {y}) outside {spec.n_cols}x{spec.n_rows}")
    h = spec.thickness_at(band_fraction)[y, x]
    n = refractive_index(model, lambda_nm)
    return TWO_PI * h * (n - 1.0) / (lambda_nm / 1000.0)


def generate_truth(
    spec: PhaseObjectSpec,
    model: DispersionModel,
    dims: tuple[int, int],
    wavelengths: np.ndarray,
) -> ComplexCube:
    """Build the clean cube exp(j*phi) over a wavelength grid."""
    n_rows, n_cols = dims
    if (n_rows, n_cols) != (spec.n_rows, spec.n_cols):
        raise DimensionMismatch(
            f"requested dims {dims} do not match the object maps "
            f"({spec.n_rows}, {spec.n_cols})"
        )
    wl = np.asarray(wavelengths, dtype=np.float64)
    n_bands = wl.size
    bands = np.empty((n_bands, n_rows, n_cols), dtype=np.complex128)
    n_of_lambda = refractive_index(model, wl)
    for b in range(n_bands):
        h = spec.thickness_at(b / n_bands)
        phi = TWO_PI * h * (n_of_lambda[b] - 1.0) / (wl[b] / 1000.0)
        bands[b] = np.exp(1j * phi)
    return ComplexCube(wavelengths=wl, data=bands.transpose(1, 2, 0))


@dataclass(frozen=True)
class NoiseSpec:
    """Circular complex Gaussian noise of total standard deviation sigma.

    The variance splits evenly between the real and imaginary parts, so each
    component has standard deviation sigma/sqrt(2).  Generation is driven by
    a counter-based generator and is deterministic for a given seed.
    """

    sigma: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", _check_real("sigma", self.sigma))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0))


def add_noise(cube: ComplexCube, noise: NoiseSpec) -> ComplexCube:
    """Add i.i.d. circular complex Gaussian noise to every sample."""
    if noise.sigma == 0.0:
        return ComplexCube(wavelengths=cube.wavelengths, data=cube.data)
    rng = np.random.Generator(np.random.Philox(noise.seed))
    comp = rng.normal(scale=noise.sigma / np.sqrt(2.0), size=cube.shape + (2,))
    # the (re, im) pairs read as complex samples, summed into an array laid
    # out band-major as the cube's, so the result needs no copy
    noise = comp.view(np.complex128)[..., 0]
    data = np.add(cube.data, noise, out=np.empty_like(cube.data))
    return ComplexCube(wavelengths=cube.wavelengths, data=data)
