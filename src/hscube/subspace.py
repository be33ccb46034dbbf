"""Signal-subspace identification for complex spectral matrices.

Everything follows from the band correlation matrix R_y = Z Z^H / n, as in
HySime.  The noise in each band is the residual of a least-squares
regression of that band on all the others.  With P = (R_y + ridge)^-1,
block inversion makes row i of A = P / diag(P) exactly band i's residual
operator, so the residual variances are diag(A R_y A^H) in closed form,
with no per-band loop and no residual matrix.  The subspace is the set of
eigenvectors e_i of R_y whose inclusion lowers the reconstruction mean
squared error: keeping e_i costs twice the noise power
sigma_i^2 = sum_l |e_il|^2 var_l it admits, dropping it costs the data power
it discards, which is its eigenvalue lambda_i, so e_i is kept exactly when
2*sigma_i^2 < lambda_i.  All transposes are conjugate transposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import SpectralMatrix
from .errors import (
    DecompositionFailed,
    DimensionMismatch,
    SingularRegression,
    TooFewBands,
    TooFewPixels,
)

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
    noise_var: np.ndarray  # (L,) real, per-band noise variance
    eigen_noise_var: np.ndarray  # (p,) real, sum_l |e_il|^2 noise_var_l
    mse_curve: np.ndarray  # (L,) mse of keeping the k best candidates, k = 1..L
    eigenvalues: np.ndarray  # (L,) eigenvalues of R_y, descending

    @property
    def n_bands(self) -> int:
        return self.E.shape[0]


def _hermitize(r: np.ndarray) -> np.ndarray:
    return 0.5 * (r + r.conj().T)


def _regress_bands(z: SpectralMatrix):
    """Band correlation R_y = Z Z^H / n and the residual variance of each
    band regressed on the others (see ``estimate_noise``)."""
    zm = z.entries
    l, n = zm.shape
    if l < 3:
        raise TooFewBands(f"need at least 3 bands, got {l}")
    if n <= l:
        raise TooFewPixels(f"need more pixels than bands, got {n} <= {l}")

    r_y = _hermitize(zm @ zm.conj().T / n)
    if not np.any(zm):  # no signal and no noise: nothing to regress
        return r_y, np.zeros(l)
    ridge = RIDGE_SCALE * np.trace(r_y).real / l

    for factor in (1.0, 1e6):
        try:
            r_inv = np.linalg.inv(r_y + factor * ridge * np.eye(l))
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise SingularRegression("band correlation matrix is singular even with ridge")

    # By block inversion, -r_inv[i, j] / r_inv[i, i] (j != i) are the
    # coefficients of band i regressed on band j, so row i of `a` maps the
    # bands to band i's residual, and that residual's variance is
    # (a R_y a^H)_ii.
    a = r_inv / np.diag(r_inv)[:, None]
    return r_y, np.maximum(np.sum((a @ r_y) * a.conj(), axis=1).real, 0.0)


def estimate_noise(z: SpectralMatrix) -> np.ndarray:
    """Estimate per-band noise variances by multiple regression on the
    other bands; returns an (L,) real array.

    Each variance is the mean squared residual of its band regressed on all
    the others, computed in closed form from the band correlation matrix.
    Only these variances, the diagonal of the residual correlation, are
    used: the regression residual operator annihilates any spectral
    direction shared by all bands, so the full residual correlation
    underestimates noise exactly where the signal lives, while its diagonal
    stays unbiased.
    """
    return _regress_bands(z)[1]


def identify_subspace(z: SpectralMatrix) -> EigenBasis:
    """Pick the eigen-subspace of the band correlation matrix that minimizes
    the reconstruction mean squared error under the estimated noise.  An
    all-zero matrix holds no signal, and its subspace is empty (p = 0)."""
    r_y, noise_var = _regress_bands(z)
    l = r_y.shape[0]

    try:
        eigvals, vecs = np.linalg.eigh(r_y)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailed("band correlation eigendecomposition failed") from exc
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    vecs = vecs[:, order]

    ridge = RIDGE_SCALE * np.trace(r_y).real / l
    eig_noise = (np.abs(vecs) ** 2).T @ noise_var  # e_i^H diag(noise_var) e_i
    delta = 2.0 * (eig_noise + ridge) - eigvals

    rank = np.argsort(delta, kind="stable")
    total_power = float(eigvals.sum())
    mse_curve = total_power + np.cumsum(delta[rank])

    selected = rank[delta[rank] < 0.0]
    if selected.size == 0 and total_power > 0.0:  # all-zero data keeps nothing
        selected = rank[:1]

    signal_power = eigvals[selected] - eig_noise[selected]
    by_signal = selected[np.argsort(signal_power, kind="stable")[::-1]]
    return EigenBasis(
        E=vecs[:, by_signal],
        p=int(selected.size),
        noise_var=noise_var,
        eigen_noise_var=eig_noise[by_signal],
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
