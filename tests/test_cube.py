import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hscube.cube import (
    ComplexCube,
    read_cube,
    reshape_to_cube,
    reshape_to_matrix,
    write_cube,
)
from hscube.errors import (
    BadMagic,
    DimensionMismatch,
    HscubeError,
    NonMonotoneWavelengths,
    TruncatedPayload,
    UnsupportedVersion,
)


def random_cube(rng, n, m, l):
    data = rng.normal(size=(n, m, l)) + 1j * rng.normal(size=(n, m, l))
    return ComplexCube(wavelengths=np.linspace(400.0, 700.0, l), data=data)


class TestCubeModel:
    def test_wavelength_count_must_match(self):
        with pytest.raises(DimensionMismatch):
            ComplexCube(wavelengths=np.array([400.0, 500.0]), data=np.zeros((2, 2, 3), complex))

    def test_wavelengths_strictly_increasing(self):
        with pytest.raises(NonMonotoneWavelengths):
            ComplexCube(
                wavelengths=np.array([400.0, 400.0, 500.0]),
                data=np.zeros((2, 2, 3), complex),
            )

    def test_rejects_non_finite_samples(self):
        data = np.zeros((2, 2, 2), complex)
        data[0, 0, 0] = np.nan
        with pytest.raises(DimensionMismatch):
            ComplexCube(wavelengths=np.array([400.0, 500.0]), data=data)

    def test_data_immutable(self):
        cube = random_cube(np.random.default_rng(0), 3, 3, 2)
        with pytest.raises(ValueError):
            cube.data[0, 0, 0] = 1.0

    def test_caller_arrays_stay_writeable(self):
        wl = np.array([400.0, 500.0])
        bands = np.zeros((2, 3, 4), complex)  # band-major: (bands, rows, cols)
        cube = ComplexCube(wavelengths=wl, data=bands.transpose(1, 2, 0))
        assert bands.flags.writeable and wl.flags.writeable
        assert not cube.data.flags.writeable and not cube.wavelengths.flags.writeable
        assert np.shares_memory(cube.data, bands)  # band-major memory is not copied
        bands[0, 0, 0] = 1.0
        pixel_major = np.zeros((3, 4, 2), complex)
        copied = ComplexCube(wavelengths=wl, data=pixel_major)
        assert not np.shares_memory(copied.data, pixel_major)  # copied once, to band-major
        assert pixel_major.flags.writeable
        pixel_major[0, 0, 0] = 1.0
        assert copied.data[0, 0, 0] == 0

    def test_samples_held_band_major(self):
        cube = random_cube(np.random.default_rng(10), 4, 5, 6)
        assert cube.data.shape == (4, 5, 6)
        assert cube.data.transpose(2, 0, 1).flags.c_contiguous
        assert all(cube.band(b).flags.c_contiguous for b in range(cube.n_bands))

    def test_band_slices_reassemble(self):
        cube = random_cube(np.random.default_rng(1), 4, 5, 6)
        rebuilt = np.stack([cube.band(b) for b in range(cube.n_bands)], axis=2)
        assert np.array_equal(rebuilt, cube.data)


class TestReshape:
    def test_degenerate_spatial_dims(self):
        values = np.array([1 + 0j, 0 + 2j, 3 - 1j])
        cube = ComplexCube(
            wavelengths=np.array([400.0, 500.0, 600.0]),
            data=values.reshape(1, 1, 3),
        )
        mat = reshape_to_matrix(cube)
        assert mat.shape == (3, 1)
        assert np.array_equal(mat[:, 0], values)

    def test_row_major_convention(self):
        a, b, c, d = 1 + 1j, 2 - 1j, 3 + 0j, 4 + 4j
        cube = ComplexCube(
            wavelengths=np.array([500.0]),
            data=np.array([[a, b], [c, d]]).reshape(2, 2, 1),
        )
        mat = reshape_to_matrix(cube)
        assert np.array_equal(mat, np.array([[a, b, c, d]]))

    def test_round_trip_random_cube(self):
        cube = random_cube(np.random.default_rng(2), 4, 5, 6)
        back = reshape_to_cube(reshape_to_matrix(cube), 4, 5, cube.wavelengths)
        assert np.array_equal(back.data, cube.data)
        assert np.array_equal(back.wavelengths, cube.wavelengths)

    def test_matrix_to_cube_shape(self):
        mat = np.arange(12, dtype=complex).reshape(3, 4)
        cube = reshape_to_cube(mat, 2, 2, np.array([400.0, 500.0, 600.0]))
        assert cube.shape == (2, 2, 3)
        assert cube.data[0, 1, 2] == mat[2, 1]

    def test_wrong_pixel_count(self):
        with pytest.raises(DimensionMismatch):
            reshape_to_cube(np.zeros((3, 7), complex), 2, 4, np.array([400.0, 500.0, 600.0]))

    def test_rejects_a_matrix_that_is_not_2d(self):
        with pytest.raises(DimensionMismatch):
            reshape_to_cube(np.zeros(8, complex), 2, 4, np.array([400.0]))
        with pytest.raises(DimensionMismatch):
            reshape_to_cube(np.zeros((1, 2, 4), complex), 2, 4, np.array([400.0]))

    def test_leaves_the_callers_array_unchanged(self):
        cube = random_cube(np.random.default_rng(5), 3, 4, 5)
        before = cube.data.tobytes()
        mat = reshape_to_matrix(cube)
        with pytest.raises(ValueError):  # a read-only view, not a writeable copy
            mat[0, 0] = 1.0
        back = reshape_to_cube(mat, 3, 4, cube.wavelengths)
        assert cube.data.tobytes() == before
        assert np.array_equal(back.data, cube.data)

    def test_passages_share_the_cube_memory(self):
        cube = random_cube(np.random.default_rng(11), 3, 4, 5)
        mat = reshape_to_matrix(cube)
        assert np.shares_memory(mat, cube.data)
        assert mat.flags.c_contiguous and not mat.flags.writeable
        z = np.arange(24, dtype=complex).reshape(2, 12)
        assert np.shares_memory(reshape_to_cube(z, 3, 4, np.array([400.0, 500.0])).data, z)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 5),
        l=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, n, m, l, seed):
        cube = random_cube(np.random.default_rng(seed), n, m, l)
        back = reshape_to_cube(reshape_to_matrix(cube), n, m, cube.wavelengths)
        assert np.array_equal(back.data, cube.data)


class TestChscFiles:
    def test_bitwise_round_trip(self, tmp_path):
        cube = random_cube(np.random.default_rng(3), 8, 8, 5)
        path = tmp_path / "cube.chsc"
        write_cube(cube, path)
        back = read_cube(path)
        assert np.array_equal(back.data, cube.data)
        assert np.array_equal(back.wavelengths, cube.wavelengths)
        # a second write is byte-identical
        path2 = tmp_path / "cube2.chsc"
        write_cube(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.chsc"
        path.write_bytes(b"XXXX" + bytes(64))
        with pytest.raises(BadMagic):
            read_cube(path)

    def test_unsupported_version(self, tmp_path):
        cube = random_cube(np.random.default_rng(4), 2, 2, 2)
        path = tmp_path / "v9.chsc"
        write_cube(cube, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersion):
            read_cube(path)

    def test_truncated_payload(self, tmp_path):
        cube = random_cube(np.random.default_rng(5), 4, 4, 4)
        path = tmp_path / "short.chsc"
        write_cube(cube, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])  # drop one complex sample
        with pytest.raises(TruncatedPayload):
            read_cube(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        cube = random_cube(np.random.default_rng(6), 2, 3, 2)
        path = tmp_path / "extra.chsc"
        write_cube(cube, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(TruncatedPayload):
            read_cube(path)

    def test_non_monotone_wavelengths_in_file(self, tmp_path):
        cube = random_cube(np.random.default_rng(7), 2, 2, 3)
        path = tmp_path / "wl.chsc"
        write_cube(cube, path)
        raw = bytearray(path.read_bytes())
        # overwrite the second wavelength with the first
        raw[20 + 8 : 20 + 16] = raw[20 : 20 + 8]
        path.write_bytes(bytes(raw))
        with pytest.raises(NonMonotoneWavelengths):
            read_cube(path)

    def test_read_peak_memory_close_to_payload(self, tmp_path):
        cube = random_cube(np.random.default_rng(9), 64, 64, 200)
        path = tmp_path / "large.chsc"
        write_cube(cube, path)
        payload = cube.data.nbytes
        del cube
        tracemalloc.start()
        try:
            back = read_cube(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.shape == (64, 64, 200)
        assert peak <= 1.25 * payload

    def test_write_peak_memory_far_below_payload(self, tmp_path):
        cube = random_cube(np.random.default_rng(12), 64, 64, 50)
        tracemalloc.start()
        try:
            write_cube(cube, tmp_path / "large.chsc")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * cube.data.nbytes

    def test_zero_band_header_allocates_no_band(self, tmp_path):
        path = tmp_path / "no_bands.chsc"
        write_cube(random_cube(np.random.default_rng(8), 1, 1, 0), path)
        raw = bytearray(path.read_bytes())
        raw[8:20] = struct.pack("<III", 1, 2**26, 0)  # a 1 GiB band, and no band
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            back = read_cube(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.shape == (1, 2**26, 0)
        assert peak < 2**20

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_damaged_file_fails_typed_or_reads_valid(self, data):
        n, m, l = (data.draw(st.integers(0, 4)) for _ in range(3))
        cube = random_cube(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n, m, l)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "damaged.chsc")
            write_cube(cube, path)
            with open(path, "rb") as f:
                raw = bytearray(f.read())
            if data.draw(st.booleans()):
                raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
            else:
                for _ in range(data.draw(st.integers(1, 6))):
                    raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
            with open(path, "wb") as f:
                f.write(raw)
            try:
                back = read_cube(path)
            except HscubeError:
                return
        assert isinstance(back, ComplexCube)
        assert back.wavelengths.shape == (back.n_bands,)
        assert np.all(np.isfinite(back.data)) and np.all(np.diff(back.wavelengths) > 0)
