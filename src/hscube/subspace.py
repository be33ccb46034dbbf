"""Signal-subspace identification for complex spectral matrices.

The noise in each band is estimated by regressing that band on all the
others (complex least squares through the shared correlation matrix), and
the subspace is the set of correlation-matrix eigenvectors whose inclusion
lowers the reconstruction mean squared error: keeping eigenvector e_i costs
twice the noise power sigma_i^2 = e_i^H R_n e_i it admits, dropping it costs
the data power p_i = e_i^H R_y e_i it discards, so e_i is kept exactly when
2*sigma_i^2 < p_i.  All transposes are conjugate transposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import SpectralMatrix
from .errors import DimensionMismatch, SingularRegression, TooFewBands, TooFewPixels

# Relative ridge applied to the regression normal equations and, following
# common practice for this estimator, to the noise correlation inside the
# selection criterion; keeps degenerate (noiseless / rank-deficient) inputs
# well behaved.
RIDGE_SCALE = 1e-10


@dataclass(eq=False)
class EigenBasis:
    """Orthonormal spectral basis of the selected signal subspace."""

    E: np.ndarray  # (L, p) complex, orthonormal columns
    p: int
    noise_corr: np.ndarray  # (L, L) Hermitian PSD
    eigen_noise_var: np.ndarray  # (p,) real, e_i^H R_n e_i clamped at 0
    mse_curve: np.ndarray  # (L,) mse of keeping the k best candidates, k = 1..L
    eigenvalues: np.ndarray  # (L,) eigenvalues of R_y, descending

    @property
    def n_bands(self) -> int:
        return self.E.shape[0]


def _hermitize(r: np.ndarray) -> np.ndarray:
    return 0.5 * (r + r.conj().T)


def _regress_bands(z: SpectralMatrix):
    """Band correlation R_y = Z Z^H / n, the residuals of each band regressed
    on the others, and the diagonal of their correlation (see
    ``estimate_noise``)."""
    zm = z.entries
    l, n = zm.shape
    if l < 3:
        raise TooFewBands(f"need at least 3 bands, got {l}")
    if n <= l:
        raise TooFewPixels(f"need more pixels than bands, got {n} <= {l}")

    r_y = _hermitize(zm @ zm.conj().T / n)
    ridge = RIDGE_SCALE * np.trace(r_y).real / l

    r_inv = None
    for factor in (1.0, 1e6):
        try:
            r_inv = np.linalg.inv(r_y + factor * ridge * np.eye(l))
            break
        except np.linalg.LinAlgError:
            continue
    if r_inv is None:
        raise SingularRegression("band correlation matrix is singular even with ridge")

    # Coefficients for all bands at once: removing band i from the inverse via
    # the block-inversion identity, beta_i = (R_{-i,-i})^-1 R_{-i,i}.
    betas = np.zeros((l, l), dtype=np.complex128)
    for i in range(l):
        xx = r_inv - np.outer(r_inv[:, i], r_inv[i, :]) / r_inv[i, i]
        rra = r_y[:, i].copy()
        rra[i] = 0.0
        betas[i, :] = xx @ rra
    # Least-squares prediction of band i is conj(beta_i) applied to the rows.
    residual = zm - betas.conj() @ zm
    variances = np.maximum(np.einsum("ij,ij->i", residual, residual.conj()).real / n, 0.0)
    return r_y, residual, np.diag(variances).astype(np.complex128)


def estimate_noise(z: SpectralMatrix):
    """Estimate per-band noise by multiple regression on the other bands.

    Returns ``(noise_estimate, noise_corr)`` where the estimate is a
    SpectralMatrix of residual rows and ``noise_corr`` is the diagonal part
    of their L x L sample correlation matrix.  The off-diagonal part is
    discarded deliberately: the regression residual operator annihilates
    any spectral direction shared by all bands, so the full residual
    correlation underestimates noise exactly where the signal lives, while
    its diagonal stays unbiased.
    """
    _, residual, noise_corr = _regress_bands(z)
    noise = SpectralMatrix(
        entries=residual, n_rows=z.n_rows, n_cols=z.n_cols, wavelengths=z.wavelengths
    )
    return noise, noise_corr


def identify_subspace(z: SpectralMatrix) -> EigenBasis:
    """Pick the eigen-subspace of the band correlation matrix that minimizes
    the reconstruction mean squared error under the estimated noise."""
    r_y, _, noise_corr = _regress_bands(z)
    l = r_y.shape[0]

    eigvals, vecs = np.linalg.eigh(r_y)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    vecs = vecs[:, order]

    ridge = RIDGE_SCALE * np.trace(r_y).real / l
    p_y = np.einsum("li,lk,ki->i", vecs.conj(), r_y, vecs).real
    sigma2 = np.einsum("li,lk,ki->i", vecs.conj(), noise_corr, vecs).real + ridge
    delta = 2.0 * sigma2 - p_y

    rank = np.argsort(delta, kind="stable")
    total_power = float(p_y.sum())
    mse_curve = total_power + np.cumsum(delta[rank])

    selected = rank[delta[rank] < 0.0]
    if selected.size == 0:
        selected = rank[:1]
    p = int(selected.size)

    signal_power = p_y[selected] - (sigma2[selected] - ridge)
    by_signal = selected[np.argsort(signal_power, kind="stable")[::-1]]
    e = vecs[:, by_signal]

    var = np.einsum("li,lk,ki->i", e.conj(), noise_corr, e).real
    var = np.maximum(var, 0.0)
    return EigenBasis(
        E=e,
        p=p,
        noise_corr=noise_corr,
        eigen_noise_var=var,
        mse_curve=mse_curve,
        eigenvalues=eigvals,
    )


def project(z: SpectralMatrix, basis: EigenBasis) -> SpectralMatrix:
    """Project band rows onto the subspace: E^H Z, a p-by-pixels matrix."""
    if z.n_bands != basis.n_bands:
        raise DimensionMismatch(
            f"matrix has {z.n_bands} bands, basis expects {basis.n_bands}"
        )
    return SpectralMatrix(
        entries=basis.E.conj().T @ z.entries, n_rows=z.n_rows, n_cols=z.n_cols
    )


def back_project(zeig: SpectralMatrix, basis: EigenBasis) -> SpectralMatrix:
    """Return from subspace coordinates to band space: E Zeig."""
    if zeig.n_bands != basis.p:
        raise DimensionMismatch(
            f"matrix has {zeig.n_bands} rows, basis holds {basis.p} eigenvectors"
        )
    return SpectralMatrix(
        entries=basis.E @ zeig.entries, n_rows=zeig.n_rows, n_cols=zeig.n_cols
    )
