"""Complex hyperspectral cube data model, 2D/3D reshape passages and CHSC file I/O.

Conventions used throughout the package:

* A cube holds ``n_rows x n_cols x n_bands`` complex samples, indexed as
  a numpy array of shape ``(n_rows, n_cols, n_bands)``.  The spatial axes
  follow the usual image convention: axis 0 is the vertical coordinate
  ("y", row), axis 1 the horizontal one ("x", column).
* The samples live band-major, in one C-contiguous ``(n_bands, n_rows,
  n_cols)`` buffer: a band slice is contiguous and flattens in C order
  (row outer, column inner).  The spectral matrix and the file format use
  the same order, so both passages are lossless, bit-exact and copy-free.

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
from dataclasses import dataclass

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
    data: np.ndarray  # (n_rows, n_cols, n_bands) complex128, a view of the band-major buffer

    def __post_init__(self):
        # Views, so that freezing them leaves a caller's own array writeable.
        wl = np.ascontiguousarray(self.wavelengths, dtype=np.float64).view()
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise DimensionMismatch(f"cube data must be 3D, got shape {data.shape}")
        # copies only when the samples are not already band-major complex128
        bands = np.ascontiguousarray(data.transpose(2, 0, 1), dtype=np.complex128)
        data = bands.transpose(1, 2, 0)
        if wl.ndim != 1 or wl.shape[0] != data.shape[2]:
            raise DimensionMismatch(
                f"wavelength count {wl.shape} does not match band count {data.shape[2]}"
            )
        if wl.size > 1 and not np.all(np.diff(wl) > 0):
            raise NonMonotoneWavelengths("wavelengths must be strictly increasing")
        if not np.all(np.isfinite(wl)):
            raise NonMonotoneWavelengths("wavelengths must be finite")
        if not np.all(np.isfinite(bands)):
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
        """Return the contiguous 2D complex slice for one band."""
        if not 0 <= index < self.n_bands:
            raise DimensionMismatch(f"band {index} outside [0, {self.n_bands})")
        return self.data[:, :, index]


def reshape_to_matrix(cube: ComplexCube) -> np.ndarray:
    """The cube's bands-by-pixels spectral matrix, a read-only C-contiguous
    view of its samples; row b is band b flattened in C order."""
    n, m, l = cube.shape
    return cube.data.transpose(2, 0, 1).reshape(l, n * m)


def reshape_to_cube(z: np.ndarray, n_rows: int, n_cols: int, wavelengths) -> ComplexCube:
    """Exact inverse of reshape_to_matrix: the rows of ``z`` become the
    bands, on the grid ``wavelengths``, of an ``n_rows x n_cols`` cube.  A
    C-contiguous complex128 ``z`` is wrapped as it is, without a copy.

    Raises DimensionMismatch when ``z`` is not 2D or its pixel count is not
    ``n_rows * n_cols``.
    """
    z = np.asarray(z)
    if z.ndim != 2:
        raise DimensionMismatch(f"spectral matrix must be 2D, got shape {z.shape}")
    n_bands, n_px = z.shape
    if n_px != n_rows * n_cols:
        raise DimensionMismatch(
            f"matrix has {n_px} pixels, expected {n_rows}*{n_cols}={n_rows * n_cols}"
        )
    data = z.reshape(n_bands, n_rows, n_cols).transpose(1, 2, 0)
    return ComplexCube(wavelengths=wavelengths, data=data)


def write_cube(cube: ComplexCube, path) -> None:
    """Write a cube in CHSC format; the byte stream is a bit-exact image of
    the float64 payload, written straight from the cube's buffer."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(_HEADER.pack(cube.n_rows, cube.n_cols, cube.n_bands))
        f.write(cube.wavelengths.astype("<f8").tobytes())
        f.write(cube.data.transpose(2, 0, 1).astype("<c16", copy=False))


def read_cube(path) -> ComplexCube:
    """Read a CHSC file, validating the header and payload size.

    The size the header declares is checked against the file's size before
    anything is allocated, and the payload is read in one piece into the
    cube's own buffer, so peak memory stays close to the payload itself.
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
        bands = np.empty((l, n, m), dtype="<c16")
        if f.readinto(bands) != bands.nbytes:
            raise TruncatedPayload("file ends inside the payload")
    return ComplexCube(wavelengths=wl, data=bands.transpose(1, 2, 0))
