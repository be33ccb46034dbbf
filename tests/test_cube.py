import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hscube.cube import (
    ComplexCube,
    SpectralMatrix,
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
        data = np.zeros((2, 2, 2), complex)
        wl = np.array([400.0, 500.0])
        cube = ComplexCube(wavelengths=wl, data=data)
        assert data.flags.writeable and wl.flags.writeable
        assert not cube.data.flags.writeable and not cube.wavelengths.flags.writeable
        assert np.shares_memory(cube.data, data)  # still zero-copy
        data[0, 0, 0] = 1.0

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
        assert mat.entries.shape == (3, 1)
        assert np.array_equal(mat.entries[:, 0], values)

    def test_row_major_convention(self):
        a, b, c, d = 1 + 1j, 2 - 1j, 3 + 0j, 4 + 4j
        cube = ComplexCube(
            wavelengths=np.array([500.0]),
            data=np.array([[a, b], [c, d]]).reshape(2, 2, 1),
        )
        mat = reshape_to_matrix(cube)
        assert np.array_equal(mat.entries, np.array([[a, b, c, d]]))

    def test_round_trip_random_cube(self):
        cube = random_cube(np.random.default_rng(2), 4, 5, 6)
        back = reshape_to_cube(reshape_to_matrix(cube))
        assert np.array_equal(back.data, cube.data)
        assert np.array_equal(back.wavelengths, cube.wavelengths)

    def test_matrix_to_cube_shape(self):
        mat = SpectralMatrix(entries=np.arange(12, dtype=complex).reshape(3, 4), n_rows=2, n_cols=2)
        cube = reshape_to_cube(mat)
        assert cube.shape == (2, 2, 3)
        assert cube.data[0, 1, 2] == mat.entries[2, 1]

    def test_bad_provenance_dims(self):
        mat = SpectralMatrix(entries=np.zeros((3, 7), complex), n_rows=2, n_cols=4)
        with pytest.raises(DimensionMismatch):
            reshape_to_cube(mat)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 5),
        l=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, n, m, l, seed):
        cube = random_cube(np.random.default_rng(seed), n, m, l)
        back = reshape_to_cube(reshape_to_matrix(cube))
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
