import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hscube as hs
from hscube.cube import SpectralMatrix, reshape_to_matrix
from hscube.errors import DimensionMismatch, TooFewBands, TooFewPixels
from hscube.subspace import (
    RIDGE_SCALE,
    back_project,
    estimate_noise,
    identify_subspace,
    project,
)


def complex_noise(rng, shape, sigma=1.0):
    return (sigma / np.sqrt(2.0)) * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def rank_k_matrix(rng, l, k, n):
    a = rng.normal(size=(l, k)) + 1j * rng.normal(size=(l, k))
    b = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    return a @ b


class TestEstimateNoise:
    def test_preconditions(self):
        with pytest.raises(TooFewBands):
            estimate_noise(SpectralMatrix(np.zeros((2, 100), complex), 10, 10))
        with pytest.raises(TooFewPixels):
            estimate_noise(SpectralMatrix(np.zeros((8, 8), complex), 2, 4))

    def test_pure_noise_diagonal(self):
        rng = np.random.default_rng(0)
        z = SpectralMatrix(complex_noise(rng, (8, 4096)), 64, 64)
        var = estimate_noise(z)
        assert var.shape == (8,)
        assert np.all(np.abs(var - 1.0) < 0.1)

    def test_rank_one_residual_vanishes(self):
        rng = np.random.default_rng(1)
        row = rng.normal(size=512) + 1j * rng.normal(size=512)
        z = SpectralMatrix(np.tile(row, (6, 1)), 16, 32)
        var = estimate_noise(z)
        scale = np.linalg.norm(z.entries) ** 2 / z.n_pixels
        assert np.linalg.norm(var) <= 1e-10 * scale

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(2)
        z = rank_k_matrix(rng, 6, 2, 400) + complex_noise(rng, (6, 400))
        var1 = estimate_noise(SpectralMatrix(z, 20, 20))
        var2 = estimate_noise(SpectralMatrix(2.0 * z, 20, 20))
        assert np.allclose(var2, 4.0 * var1, rtol=1e-8)


class TestIdentifySubspace:
    def test_exact_rank_three(self):
        rng = np.random.default_rng(3)
        z = SpectralMatrix(rank_k_matrix(rng, 24, 3, 1024), 32, 32)
        basis = identify_subspace(z)
        assert basis.p == 3
        recon = back_project(project(z, basis), basis)
        rel = np.linalg.norm(recon.entries - z.entries) / np.linalg.norm(z.entries)
        assert rel <= 1e-8

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(4)
        z = SpectralMatrix(rank_k_matrix(rng, 16, 4, 900) + complex_noise(rng, (16, 900)), 30, 30)
        basis = identify_subspace(z)
        gram = basis.E.conj().T @ basis.E
        assert np.max(np.abs(gram - np.eye(basis.p))) <= 1e-10

    def test_pure_noise_floors_at_one(self):
        rng = np.random.default_rng(5)
        z = SpectralMatrix(complex_noise(rng, (12, 2048)), 32, 64)
        assert identify_subspace(z).p == 1

    def test_two_peak_cube_small_subspace(self):
        model = hs.bk7()
        spec = hs.two_peak_spec(48, 48, model)
        wl = hs.default_wavelengths(60)
        truth = hs.generate_truth(spec, model, (48, 48), wl)
        noisy = hs.add_noise(truth, hs.NoiseSpec(sigma=1.3, seed=7))
        basis = identify_subspace(reshape_to_matrix(noisy))
        assert basis.p <= 60 // 4

    def test_mse_curve_minimized_at_p(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            z = SpectralMatrix(
                rank_k_matrix(rng, 20, 3, 800) + 0.3 * complex_noise(rng, (20, 800)),
                20,
                40,
            )
            basis = identify_subspace(z)
            assert np.all(basis.mse_curve[basis.p - 1] <= basis.mse_curve + 1e-9)

    def test_eigen_noise_var_consistent(self):
        rng = np.random.default_rng(7)
        z = SpectralMatrix(
            rank_k_matrix(rng, 14, 2, 700) + complex_noise(rng, (14, 700)), 70, 10
        )
        basis = identify_subspace(z)
        var = estimate_noise(z)
        assert np.array_equal(basis.noise_var, var)
        for i in range(basis.p):
            direct = (basis.E[:, i].conj() @ np.diag(var) @ basis.E[:, i]).real
            assert abs(basis.eigen_noise_var[i] - direct) <= 1e-10

    def test_rank_recovery_rate(self):
        # 40 trials across k = 1..6 must essentially always recover k
        rng = np.random.default_rng(8)
        hits = 0
        trials = 0
        for k in range(1, 7):
            for _ in range(7):
                z = SpectralMatrix(rank_k_matrix(rng, 24, k, 1024), 32, 32)
                trials += 1
                hits += identify_subspace(z).p == k
        assert hits >= 0.95 * trials


def lstsq_noise_var(zm):
    """Residual variance of each band regressed on all the others: one
    least-squares solve per band, with the estimator's ridge
    (RIDGE_SCALE * trace(R_y) / L) appended as extra rows."""
    l, n = zm.shape
    power = np.sum(np.abs(zm) ** 2) / n  # trace of R_y
    if power == 0.0:
        return np.zeros(l)
    ridge_rows = np.sqrt(n * RIDGE_SCALE * power / l) * np.eye(l - 1)
    out = np.empty(l)
    for i in range(l):
        others = np.delete(zm, i, axis=0).T  # (n, L - 1)
        coef = np.linalg.lstsq(
            np.vstack([others, ridge_rows]), np.concatenate([zm[i], np.zeros(l - 1)]),
            rcond=None,
        )[0]
        out[i] = np.sum(np.abs(zm[i] - others @ coef) ** 2) / n
    return out


def reference_p(zm, noise_var):
    """Minimum-error subspace size from Rayleigh quotients of the band
    correlation and of the diagonal noise correlation."""
    l, n = zm.shape
    r_y = zm @ zm.conj().T / n
    r_y = 0.5 * (r_y + r_y.conj().T)
    vecs = np.linalg.eigh(r_y)[1]
    ridge = RIDGE_SCALE * np.trace(r_y).real / l
    p_y = np.einsum("li,lk,ki->i", vecs.conj(), r_y, vecs).real
    sigma2 = np.einsum("li,lk,ki->i", vecs.conj(), np.diag(noise_var), vecs).real + ridge
    p = int(np.sum(2.0 * sigma2 - p_y < 0.0))
    return 1 if p == 0 and p_y.sum() > 0.0 else p


class TestClosedFormOracle:
    """The closed-form band noise against a per-band least-squares solve.

    Agreement is |closed form - lstsq| <= 1e-10 * lstsq + 1e-10 * trace(R_y) / L.
    The floor is the ridge the estimator adds: on rank-deficient and
    duplicated-row inputs the inverse of R_y + ridge has a condition number
    near 1e10 * L, and both sides carry rounding residue of up to ~2e-11 of
    the mean band power where the exact variance is zero.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_lstsq_per_band(self, data):
        l = data.draw(st.integers(3, 40))
        n = data.draw(st.integers(l + 1, 4 * l + 40))
        kind = data.draw(st.sampled_from(["noisy", "rank-deficient", "duplicated", "zero"]))
        scale = 10.0 ** data.draw(st.integers(-3, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        if kind == "zero":
            zm = np.zeros((l, n), complex)
        else:
            zm = rank_k_matrix(rng, l, int(rng.integers(1, l)), n)
            if kind != "rank-deficient":
                zm += complex_noise(rng, (l, n), rng.uniform(0.01, 3.0))
            if kind == "duplicated":
                copies = rng.random(l) < 0.5
                zm[copies] = zm[rng.integers(0, l, size=l)][copies]
        zm *= scale
        z = SpectralMatrix(zm, 1, n)

        got = estimate_noise(z)
        want = lstsq_noise_var(zm)
        floor = 1e-10 * np.sum(np.abs(zm) ** 2) / n / l
        assert got.shape == (l,) and np.all(got >= 0.0)
        assert np.all(np.abs(got - want) <= 1e-10 * want + floor)
        assert identify_subspace(z).p == reference_p(zm, want)


class TestProjection:
    def make_basis(self, rng, l=10, k=3, n=500):
        z = SpectralMatrix(
            rank_k_matrix(rng, l, k, n) + 0.1 * complex_noise(rng, (l, n)), 25, n // 25
        )
        return z, identify_subspace(z)

    def test_identity_when_full(self):
        rng = np.random.default_rng(9)
        z, basis = self.make_basis(rng)
        full = basis.E @ basis.E.conj().T
        inside = full @ z.entries
        recon = back_project(project(z, basis), basis).entries
        assert np.allclose(recon, inside, atol=1e-10)

    def test_full_identity_basis_is_identity(self):
        from hscube.subspace import EigenBasis

        l = 6
        basis = EigenBasis(
            E=np.eye(l, dtype=complex),
            p=l,
            noise_var=np.zeros(l),
            eigen_noise_var=np.zeros(l),
            mse_curve=np.zeros(l),
            eigenvalues=np.ones(l),
        )
        rng = np.random.default_rng(14)
        z = SpectralMatrix(rng.normal(size=(l, 12)) + 0j, 3, 4)
        assert np.array_equal(project(z, basis).entries, z.entries)

    def test_projection_non_expansive(self):
        rng = np.random.default_rng(10)
        z, basis = self.make_basis(rng)
        assert np.linalg.norm(project(z, basis).entries) <= np.linalg.norm(z.entries) + 1e-9

    def test_back_project_isometry(self):
        rng = np.random.default_rng(11)
        _, basis = self.make_basis(rng)
        zeig = SpectralMatrix(
            rng.normal(size=(basis.p, 100)) + 1j * rng.normal(size=(basis.p, 100)), 10, 10
        )
        out = back_project(zeig, basis)
        assert np.linalg.norm(out.entries) == pytest.approx(
            np.linalg.norm(zeig.entries), abs=1e-10
        )
        # project after back_project is the identity on subspace coordinates
        again = project(out, basis)
        assert np.allclose(again.entries, zeig.entries, atol=1e-10)

    def test_zero_maps_to_zero(self):
        rng = np.random.default_rng(12)
        _, basis = self.make_basis(rng)
        zeig = SpectralMatrix(np.zeros((basis.p, 64), complex), 8, 8)
        assert not np.any(back_project(zeig, basis).entries)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(13)
        _, basis = self.make_basis(rng)
        wrong = SpectralMatrix(np.zeros((basis.n_bands + 1, 64), complex), 8, 8)
        with pytest.raises(DimensionMismatch):
            project(wrong, basis)
        wrong_eig = SpectralMatrix(np.zeros((basis.p + 1, 64), complex), 8, 8)
        with pytest.raises(DimensionMismatch):
            back_project(wrong_eig, basis)
