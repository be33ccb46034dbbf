"""Signal-subspace identification for a complex (bands, pixels) spectral
matrix Z, row b holding band b of a cube flattened (``reshape_to_matrix``).

Everything follows from the band correlation matrix R_y = Z Z^H / n, as in
HySime.  The noise in each band is the residual of a least-squares
regression of that band on all the others.  With P = (R_y + ridge)^-1,
block inversion makes column i of A = P / diag(P) (P is Hermitian, so its
columns are its conjugated rows) exactly band i's residual operator, so the
residual variances are diag(A^H R_y A) in closed form, with no per-band
loop and no residual matrix.  The subspace is the set of
eigenvectors e_i of R_y whose inclusion lowers the reconstruction mean
squared error: keeping e_i costs twice the noise power
sigma_i^2 = sum_l |e_il|^2 var_l it admits, dropping it costs the data power
it discards, which is its eigenvalue lambda_i, so e_i is kept exactly when
2*sigma_i^2 < lambda_i.  All transposes are conjugate transposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    noise_var: np.ndarray  # (L,) real, per-band noise variance
    eigen_noise_var: np.ndarray  # (p,) real, sum_l |e_il|^2 noise_var_l
    mse_curve: np.ndarray  # (L,) mse of keeping the k best candidates, k = 1..L
    eigenvalues: np.ndarray  # (L,) eigenvalues of R_y, descending

    @property
    def n_bands(self) -> int:
        return self.E.shape[0]

    @property
    def p(self) -> int:
        """The subspace dimension: the number of eigenvectors kept."""
        return self.E.shape[1]


def _hermitize(r: np.ndarray) -> np.ndarray:
    return 0.5 * (r + r.conj().T)


def _check_2d(z: np.ndarray) -> None:
    if z.ndim != 2:
        raise DimensionMismatch(f"spectral matrix must be 2D, got shape {z.shape}")


def _regress_bands(z: np.ndarray):
    """Band correlation R_y = Z Z^H / n, the residual variance of each band
    regressed on the others (see ``estimate_noise``) and the ridge added to
    the regression, ``RIDGE_SCALE`` times the mean band power."""
    _check_2d(z)
    l, n = z.shape
    if l < 3:
        raise TooFewBands(f"need at least 3 bands, got {l}")
    if n <= l:
        raise TooFewPixels(f"need more pixels than bands, got {n} <= {l}")

    r_y = _hermitize(z @ z.conj().T / n)
    ridge = RIDGE_SCALE * np.trace(r_y).real / l
    if not np.any(z):  # no signal and no noise: nothing to regress
        return r_y, np.zeros(l), ridge

    for factor in (1.0, 1e6):
        try:
            r_inv = np.linalg.inv(r_y + factor * ridge * np.eye(l))
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise SingularRegression("band correlation matrix is singular even with ridge")

    # By block inversion, -r_inv[j, i] / r_inv[i, i] (j != i) are the
    # conjugated coefficients of band i regressed on band j, so column i of
    # `a` maps the bands to band i's residual (a^H Z), and that residual's
    # variance is (a^H R_y a)_ii.  The inverse is solved column by column, so
    # each column is as accurate as one linear solve, while a row gathers a
    # rounding error from every solve: at a condition number near 1e10 * L,
    # rows missed a duplicated band's zero residual by 4e-10 of its power.
    a = r_inv / np.diag(r_inv)
    return r_y, np.maximum(np.sum(a.conj() * (r_y @ a), axis=0).real, 0.0), ridge


def estimate_noise(z: np.ndarray) -> np.ndarray:
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


def identify_subspace(z: np.ndarray) -> EigenBasis:
    """Pick the eigen-subspace of the band correlation matrix that minimizes
    the reconstruction mean squared error under the estimated noise.  An
    all-zero matrix holds no signal, and its subspace is empty (p = 0)."""
    r_y, noise_var, ridge = _regress_bands(z)

    try:
        eigvals, vecs = np.linalg.eigh(r_y)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailed("band correlation eigendecomposition failed") from exc
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    vecs = vecs[:, order]

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
        noise_var=noise_var,
        eigen_noise_var=eig_noise[by_signal],
        mse_curve=mse_curve,
        eigenvalues=eigvals,
    )


def project(z: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """Project band rows onto the subspace: E^H Z, a p-by-pixels matrix."""
    _check_2d(z)
    if z.shape[0] != basis.n_bands:
        raise DimensionMismatch(f"matrix has {z.shape[0]} bands, basis expects {basis.n_bands}")
    return basis.E.conj().T @ z


def back_project(zeig: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """Return from subspace coordinates to band space: E Zeig."""
    _check_2d(zeig)
    if zeig.shape[0] != basis.p:
        raise DimensionMismatch(
            f"matrix has {zeig.shape[0]} rows, basis holds {basis.p} eigenvectors"
        )
    return basis.E @ zeig
