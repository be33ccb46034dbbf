"""Complex hyperspectral cube data model, 2D/3D reshape passages and CHSC file I/O.

Conventions used throughout the package:

* A cube holds ``n_rows x n_cols x n_bands`` complex samples stored as a
  numpy array of shape ``(n_rows, n_cols, n_bands)``.  The spatial axes
  follow the usual image convention: axis 0 is the vertical coordinate
  ("y", row), axis 1 the horizontal one ("x", column).
* A band slice flattens in C order (row outer, column inner).  The same
  order is used by the spectral-matrix reshape and by the file format, so
  both passages are lossless and bit-exact.

CHSC binary layout (little endian):

    bytes 0..3   magic b"CHSC"
    u32          version (currently 1)
    u32 x 3      n_rows, n_cols, n_bands
    f64 x L      wavelengths in nanometers, strictly increasing
    (f64, f64)   interleaved (re, im) samples, band outer, then row, then col
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    NonMonotoneWavelengths,
    TruncatedPayload,
    UnsupportedVersion,
)

_MAGIC = b"CHSC"
_VERSION = 1
_HEADER = struct.Struct("<III")


@dataclass(frozen=True, eq=False)
class ComplexCube:
    """Immutable complex-valued hyperspectral cube with its wavelength grid."""

    wavelengths: np.ndarray  # (n_bands,) float64, nm, strictly increasing
    data: np.ndarray  # (n_rows, n_cols, n_bands) complex128

    def __post_init__(self):
        # Views, so that freezing them leaves a caller's own array writeable.
        wl = np.ascontiguousarray(self.wavelengths, dtype=np.float64).view()
        data = np.ascontiguousarray(self.data, dtype=np.complex128).view()
        if data.ndim != 3:
            raise DimensionMismatch(f"cube data must be 3D, got shape {data.shape}")
        if wl.ndim != 1 or wl.shape[0] != data.shape[2]:
            raise DimensionMismatch(
                f"wavelength count {wl.shape} does not match band count {data.shape[2]}"
            )
        if wl.size > 1 and not np.all(np.diff(wl) > 0):
            raise NonMonotoneWavelengths("wavelengths must be strictly increasing")
        if not np.all(np.isfinite(wl)):
            raise NonMonotoneWavelengths("wavelengths must be finite")
        if not np.all(np.isfinite(data)):
            raise DimensionMismatch("cube data contains non-finite samples")
        wl.setflags(write=False)
        data.setflags(write=False)
        object.__setattr__(self, "wavelengths", wl)
        object.__setattr__(self, "data", data)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    @property
    def n_bands(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def band(self, index: int) -> np.ndarray:
        """Return the 2D complex slice for one band."""
        if not 0 <= index < self.n_bands:
            raise DimensionMismatch(f"band {index} outside [0, {self.n_bands})")
        return self.data[:, :, index]

    def allclose(self, other: "ComplexCube", rtol=1e-12, atol=0.0) -> bool:
        return (
            self.shape == other.shape
            and np.array_equal(self.wavelengths, other.wavelengths)
            and np.allclose(self.data, other.data, rtol=rtol, atol=atol)
        )


@dataclass(eq=False)
class SpectralMatrix:
    """Bands-by-pixels matrix view of a cube, with the spatial dims kept for
    the inverse reshape.  Row b is band b flattened in C order."""

    entries: np.ndarray  # (n_bands or p, n_pixels) complex128
    n_rows: int
    n_cols: int
    wavelengths: np.ndarray | None = field(default=None)

    @property
    def n_bands(self) -> int:
        return self.entries.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.entries.shape[1]


def reshape_to_matrix(cube: ComplexCube) -> SpectralMatrix:
    """Flatten a cube into its bands-by-pixels spectral matrix (lossless)."""
    n, m, l = cube.shape
    entries = np.ascontiguousarray(cube.data.transpose(2, 0, 1).reshape(l, n * m))
    return SpectralMatrix(entries=entries, n_rows=n, n_cols=m, wavelengths=cube.wavelengths)


def reshape_to_cube(mat: SpectralMatrix, wavelengths: np.ndarray | None = None) -> ComplexCube:
    """Exact inverse of reshape_to_matrix.

    Raises DimensionMismatch when the pixel count does not factor into the
    recorded spatial dims.  A wavelength grid may be supplied for matrices
    whose rows are no longer the original bands.
    """
    n, m = mat.n_rows, mat.n_cols
    if mat.n_pixels != n * m:
        raise DimensionMismatch(
            f"matrix has {mat.n_pixels} pixels, expected {n}*{m}={n * m}"
        )
    wl = wavelengths if wavelengths is not None else mat.wavelengths
    if wl is None:
        wl = np.arange(mat.n_bands, dtype=np.float64)
    data = mat.entries.reshape(mat.n_bands, n, m).transpose(1, 2, 0)
    return ComplexCube(wavelengths=np.asarray(wl, dtype=np.float64), data=data)


def write_cube(cube: ComplexCube, path) -> None:
    """Write a cube in CHSC format; the byte stream is a bit-exact image of
    the float64 payload."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(_HEADER.pack(cube.n_rows, cube.n_cols, cube.n_bands))
        f.write(cube.wavelengths.astype("<f8").tobytes())
        f.write(cube.data.transpose(2, 0, 1).astype("<c16").tobytes())


def read_cube(path) -> ComplexCube:
    """Read a CHSC file, validating the header and payload size.

    The size the header declares is checked against the file's size before
    anything is allocated, and the payload is read one band at a time into
    the final array, so peak memory stays close to the payload itself.
    """
    with open(path, "rb") as f:
        head = f.read(8 + _HEADER.size)
        if head[:4] != _MAGIC:
            raise BadMagic(f"expected magic {_MAGIC!r}, got {head[:4]!r}")
        if len(head) < 8:
            raise TruncatedPayload("file ends inside the version field")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != _VERSION:
            raise UnsupportedVersion(f"unsupported CHSC version {version}")
        if len(head) < 8 + _HEADER.size:
            raise TruncatedPayload("file ends inside the dimension header")
        n, m, l = _HEADER.unpack_from(head, 8)
        rest = os.fstat(f.fileno()).st_size - len(head)
        if rest < l * 8:
            raise TruncatedPayload("file ends inside the wavelength table")
        expected = n * m * l * 16
        if rest - l * 8 != expected:
            raise TruncatedPayload(
                f"payload holds {rest - l * 8} bytes, header declares {expected}"
            )
        wl = np.empty(l, dtype="<f8")
        if f.readinto(wl) != wl.nbytes:
            raise TruncatedPayload("file ends inside the wavelength table")
        if l > 1 and not np.all(np.diff(wl) > 0):
            raise NonMonotoneWavelengths("wavelength table is not strictly increasing")
        data = np.empty((n, m, l), dtype=np.complex128)
        band = np.empty((n, m), dtype="<c16")
        for b in range(l):
            if f.readinto(band) != band.nbytes:
                raise TruncatedPayload(f"file ends inside band {b}")
            data[:, :, b] = band
    return ComplexCube(wavelengths=wl, data=data)
