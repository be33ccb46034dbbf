"""Block-matching collaborative filter for a single complex-valued image.

Pipeline per reference patch: gather the most similar patches from a local
search window into a small tensor, factor that tensor with a data-adaptive
orthonormal transform per mode (higher-order SVD), shrink the core
coefficients, invert, and average the overlapping patch estimates back into
the image with per-group weights.  Shrinking is hard thresholding in the
first stage and Wiener attenuation against a pilot estimate in the second.

Two tensor layouts are supported: ``Complex3D`` keeps groups as complex
rows x cols x K tensors; ``ImRe4D`` splits real and imaginary parts into a
fourth mode of size two and works on real tensors.

The heavy lifting is batched: groups that matched the same number of
patches are factored, shrunk, inverted and aggregated together through
stacked linear algebra, ``_GROUP_CHUNK`` groups at a time, so the working
set stays in cache and the filter's memory does not grow with the image
beyond its image-sized accumulators and match lists.  Batched groups stay
in gather order (K, rows, cols, then [re, im] under ImRe4D), and every mode
product and mode Gram is one stacked GEMM on the last axis of a contiguous
stack, with no unfolding copy (``_contract_last``).  Outputs match the
earlier unfolding implementation to rounding, not bit for bit.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DecompositionFailed, DimensionMismatch, InvalidConfig, OutOfBounds
from .parallel import _single_threaded_blas

AGG_EPS = 1e-12


class Variant(enum.Enum):
    COMPLEX_3D = "complex3d"
    IMRE_4D = "imre4d"


class Stages(enum.Enum):
    THRESHOLD_ONLY = "threshold"
    THRESHOLD_PLUS_WIENER = "threshold+wiener"


@dataclass(frozen=True)
class DenoiseConfig:
    """Tuning parameters of the patch filter.

    ``sigma`` is the total standard deviation of the complex noise in the
    image being filtered; leave it as None to have ``denoise_image`` fill it
    in with the robust estimate from ``estimate_sigma``.
    """

    patch_rows: int = 8
    patch_cols: int = 8
    patch_step: int = 3
    search_radius: int = 19
    max_group_size: int = 32
    match_threshold: float | None = None  # mean squared distance per pixel
    hard_threshold_factor: float = 2.7
    sigma: float | None = None
    variant: Variant = Variant.IMRE_4D
    stages: Stages = Stages.THRESHOLD_PLUS_WIENER

    def __post_init__(self):
        if self.patch_rows < 1 or self.patch_cols < 1:
            raise InvalidConfig("patch dimensions must be positive")
        if self.patch_step < 1:
            raise InvalidConfig("patch step must be positive")
        if self.search_radius < 0:
            raise InvalidConfig("search radius must be nonnegative")
        if self.max_group_size < 1:
            raise InvalidConfig("group size cap must be at least 1")
        if self.match_threshold is not None and self.match_threshold < 0:
            raise InvalidConfig("match threshold must be nonnegative")
        if self.hard_threshold_factor < 0:
            raise InvalidConfig("hard threshold factor must be nonnegative")
        if self.sigma is not None and self.sigma < 0:
            raise InvalidConfig("sigma must be nonnegative")


@dataclass(eq=False)
class PatchGroup:
    """Stack of matched patches; the first member is always the reference."""

    reference: tuple[int, int]
    coords: np.ndarray  # (K, 2) int top-left corners
    tensor: np.ndarray  # (patch_rows, patch_cols, K) complex

    @property
    def size(self) -> int:
        return self.coords.shape[0]


@dataclass(eq=False)
class HosvdFactors:
    """One orthonormal factor per tensor mode plus the full core tensor."""

    factors: tuple[np.ndarray, ...]
    core: np.ndarray


# ---------------------------------------------------------------------------
# batched tensor algebra


def _contract_last(x: np.ndarray, mat) -> np.ndarray:
    """Contract the last axis of the contiguous stack ``x`` (G, d1, ..., dm)
    with ``mat`` (G, e, dm) and move it to the front: one stacked GEMM on a
    transposed view, no copy.  A ``mat`` of None only moves the axis."""
    a = x.reshape(x.shape[0], -1, x.shape[-1]).swapaxes(1, 2)
    out = np.ascontiguousarray(a) if mat is None else mat @ a
    return out.reshape(out.shape[:2] + x.shape[1:-1])


def _batched_factors(t: np.ndarray, identity_last: bool = False):
    """(factors, core) of a stack of tensors shaped (G, d1, ..., dm): an
    orthonormal factor per mode (descending singular value order; None for
    the identity kept on the last mode under ``identity_last``) and the core.
    Modes are contracted last to first as their factors are found; those
    already applied are orthonormal, so each Gram is the mode's own."""
    factors = [None] * (t.ndim - 1)
    x = t
    for mode in range(t.ndim - 1, 0, -1):
        mat = None
        if not (identity_last and mode == t.ndim - 1):
            a = x.reshape(x.shape[0], -1, x.shape[-1])
            try:
                _, vecs = np.linalg.eigh(a.swapaxes(1, 2) @ a.conj())
            except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
                raise DecompositionFailed(f"eigendecomposition failed on mode {mode}") from exc
            factors[mode - 1] = u = np.ascontiguousarray(vecs[:, :, ::-1])
            mat = u.conj().swapaxes(1, 2)
        x = _contract_last(x, mat)
    return factors, x


def _batched_transform(t: np.ndarray, factors, forward: bool) -> np.ndarray:
    """Contract every mode with its factor: conjugate-transposed for the
    forward (analysis) pass, plain for the inverse (synthesis) pass.  A
    factor of None is the identity, and its mode is left as it is."""
    out = t
    for u in reversed(factors):
        if u is not None and forward:
            u = u.conj().swapaxes(1, 2)
        out = _contract_last(out, u)
    return out


def hosvd(tensor) -> HosvdFactors:
    """Full higher-order SVD of one tensor (exact when the core is untouched)."""
    t = tensor.tensor if isinstance(tensor, PatchGroup) else np.asarray(tensor)
    if t.size == 0:
        raise DimensionMismatch("cannot factor an empty tensor")
    factors, core = _batched_factors(t[None])
    return HosvdFactors(factors=tuple(f[0] for f in factors), core=core[0])


def inverse_hosvd(f: HosvdFactors) -> np.ndarray:
    """Rebuild the tensor from its core and factors."""
    return _batched_transform(f.core[None], [u[None] for u in f.factors], forward=False)[0]


def hard_threshold_core(core: np.ndarray, threshold: float):
    """Zero coefficients below the threshold, always keeping the single
    largest one per tensor; returns (shrunk core, retained count)."""
    flat = core.reshape(core.shape[0], -1)
    mag = np.abs(flat)
    keep = mag >= threshold
    keep[np.arange(flat.shape[0]), np.argmax(mag, axis=1)] = True
    out = np.where(keep, flat, 0).reshape(core.shape)
    return out, keep.sum(axis=1)


def wiener_shrink_core(core_noisy: np.ndarray, core_pilot: np.ndarray, sigma: float):
    """Attenuate noisy coefficients by |pilot|^2 / (|pilot|^2 + sigma^2);
    returns (shrunk core, attenuation factors)."""
    p2 = np.abs(core_pilot) ** 2
    denom = p2 + sigma * sigma
    shrink = np.divide(p2, denom, out=np.zeros_like(p2), where=denom > 0)
    return shrink * core_noisy, shrink


# ---------------------------------------------------------------------------
# grouping


def _reference_grid(size: int, patch: int, step: int) -> np.ndarray:
    last = size - patch
    grid = list(range(0, last + 1, step))
    if grid[-1] != last:
        grid.append(last)
    return np.asarray(grid, dtype=np.intp)


def _patch_energies(image: np.ndarray, pr: int, pc: int) -> np.ndarray:
    """||P||^2 of the patch at every corner, summed in the patch's scan order."""
    n_vr, n_vc = image.shape[0] - pr + 1, image.shape[1] - pc + 1
    power = image.real * image.real + image.imag * image.imag
    energies = np.zeros((n_vr, n_vc))
    for dr in range(pr):
        for dc in range(pc):
            energies += power[dr : dr + n_vr, dc : dc + n_vc]
    return energies


def _nearest(dist: np.ndarray, keep: int):
    """Column indices and values of the ``keep`` smallest entries of each
    row, ordered by value and then by index; where entries tie at the cut,
    the lowest indices are kept.  Rows with fewer finite entries end in +inf.
    """
    keep = min(keep, dist.shape[1])
    idx = np.argpartition(dist, keep - 1, axis=1)[:, :keep]
    cut = np.take_along_axis(dist, idx[:, -1:], axis=1)
    # argpartition keeps any subset of the entries tied at a finite cut;
    # rows where some were left out take the lowest indices instead
    left_out = np.count_nonzero(dist == cut, axis=1) > np.count_nonzero(
        np.take_along_axis(dist, idx, axis=1) == cut, axis=1
    )
    fix = np.flatnonzero(left_out & (cut[:, 0] < np.inf))
    if fix.size:
        sub, sub_cut = dist[fix], cut[fix]
        chosen = sub < sub_cut
        tied = sub == sub_cut
        chosen |= tied & (np.cumsum(tied, axis=1) <= keep - chosen.sum(axis=1, keepdims=True))
        idx[fix] = np.nonzero(chosen)[1].reshape(fix.size, keep)
    d = np.take_along_axis(dist, idx, axis=1)
    order = np.lexsort((idx, d), axis=1)
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(d, order, axis=1)


_MATCH_TILE = 6  # side of the square matching tiles, in patch steps


def _match(match_image: np.ndarray, refs, cfg: DenoiseConfig):
    """Match each reference patch in ``refs``; returns one
    (member_rows, member_cols) pair per reference, in the order of ``refs``.

    Members are the reference, then up to ``max_group_size - 1`` other
    patches of its search window in ascending distance, ties broken by
    (row, col).  References are matched a tile at a time against the patches
    of the box covering the tile's search windows only, so the cost grows
    with the pixel count, not its square.  Distances use the expansion
    ||P_ref - P||^2 = ||P||^2 - 2 Re<P, P_ref> + ||P_ref||^2, so the cross
    terms of a whole tile come out of a single matrix product.
    """
    pr, pc = cfg.patch_rows, cfg.patch_cols
    n_px = pr * pc
    rad = cfg.search_radius
    keep = cfg.max_group_size - 1
    refs = np.asarray(refs, dtype=np.intp).reshape(-1, 2)
    if keep == 0:
        return [(ref[:1], ref[1:]) for ref in refs]
    norms = _patch_energies(match_image, pr, pc)
    n_vr, n_vc = norms.shape

    side = _MATCH_TILE * cfg.patch_step  # about _MATCH_TILE**2 grid references per tile
    tiles = refs // side
    tile_id = tiles[:, 0] * (n_vc // side + 1) + tiles[:, 1]
    by_tile = np.argsort(tile_id, kind="stable")
    groups = [None] * len(refs)
    for members in np.split(by_tile, np.flatnonzero(np.diff(tile_id[by_tile])) + 1):
        r, c = refs[members, 0], refs[members, 1]
        r0, r1 = np.maximum(r - rad, 0), np.minimum(r + rad, n_vr - 1)
        c0, c1 = np.maximum(c - rad, 0), np.minimum(c + rad, n_vc - 1)
        br, bc = r0.min(), c0.min()
        bh, bw = r1.max() - br + 1, c1.max() - bc + 1
        box = match_image[br : br + bh + pr - 1, bc : bc + bw + pc - 1]
        feats = sliding_window_view(box, (pr, pc)).reshape(bh * bw, n_px)
        own = (r - br) * bw + (c - bc)
        cross = (feats @ feats[own].conj().T).real
        box_norms = norms[br : br + bh, bc : bc + bw].ravel()
        dist = (box_norms - 2.0 * cross.T + box_norms[own, None]) / n_px
        np.maximum(dist, 0.0, out=dist)

        # only the reference's own window, without the reference itself
        box_r, box_c = np.arange(br, br + bh), np.arange(bc, bc + bw)
        in_r = (box_r >= r0[:, None]) & (box_r <= r1[:, None])
        in_c = (box_c >= c0[:, None]) & (box_c <= c1[:, None])
        outside = ~(in_r[:, :, None] & in_c[:, None, :]).reshape(dist.shape)
        outside[np.arange(len(members)), own] = True
        if cfg.match_threshold is not None:
            outside |= dist > cfg.match_threshold
        dist[outside] = np.inf

        idx, d = _nearest(dist, keep)
        found = d < np.inf  # a prefix of each row
        flat = idx[found]
        counts = found.sum(axis=1)
        starts = np.cumsum(counts) - counts
        rows = np.insert(br + flat // bw, starts, r)
        cols = np.insert(bc + flat % bw, starts, c)
        splits = np.cumsum(counts + 1)[:-1]
        for gi, rr, cc in zip(members, np.split(rows, splits), np.split(cols, splits)):
            groups[gi] = (rr, cc)
    return groups


def _collect_groups(match_image: np.ndarray, cfg: DenoiseConfig):
    """Match every reference patch on the grid, in scan order."""
    h, w = match_image.shape
    grid_r = _reference_grid(h, cfg.patch_rows, cfg.patch_step)
    grid_c = _reference_grid(w, cfg.patch_cols, cfg.patch_step)
    return _match(match_image, [(int(r), int(c)) for r in grid_r for c in grid_c], cfg)


def block_match(image: np.ndarray, ref_coord: tuple[int, int], cfg: DenoiseConfig) -> PatchGroup:
    """Group the patches most similar to the one anchored at ``ref_coord``."""
    image = _check_image(image, cfg)
    h, w = image.shape
    r, c = ref_coord
    if not (0 <= r <= h - cfg.patch_rows and 0 <= c <= w - cfg.patch_cols):
        raise OutOfBounds(f"reference {ref_coord} does not admit a full patch")
    # only the search window takes part, so the cost does not grow with the image
    rad = cfg.search_radius
    r0, c0 = max(0, r - rad), max(0, c - rad)
    window = image[r0 : r + rad + cfg.patch_rows, c0 : c + rad + cfg.patch_cols]
    rows, cols = _match(window, [(r - r0, c - c0)], cfg)[0]
    rows, cols = rows + r0, cols + c0
    views = sliding_window_view(image, (cfg.patch_rows, cfg.patch_cols))
    tensor = np.ascontiguousarray(np.moveaxis(views[rows, cols], 0, 2))
    return PatchGroup(
        reference=(r, c),
        coords=np.stack([rows, cols], axis=1),
        tensor=tensor,
    )


# ---------------------------------------------------------------------------
# stages


def to_imre(tensor: np.ndarray) -> np.ndarray:
    """Split a complex tensor into a real one with a trailing [re, im] mode,
    a view of the tensor's own bytes where it is C-contiguous."""
    tensor = np.ascontiguousarray(tensor, dtype=np.complex128)
    return tensor.view(np.float64).reshape(tensor.shape + (2,))


def from_imre(tensor: np.ndarray) -> np.ndarray:
    """Inverse of ``to_imre``, a view where the tensor is C-contiguous."""
    return np.ascontiguousarray(tensor, dtype=np.float64).view(np.complex128)[..., 0]


def _bucket_by_size(groups):
    buckets: dict[int, list[int]] = {}
    for gi, (rows, _) in enumerate(groups):
        buckets.setdefault(rows.size, []).append(gi)
    return buckets


def _scatter(num, den, est, rows, cols, weights, width):
    """Add the weighted patch estimates into the flat image sums ``num`` and
    ``den``; ``np.add.at`` sums each pixel in index order."""
    pr, pc = est.shape[2], est.shape[3]
    base = rows * width + cols
    idx = (
        base[:, :, None, None]
        + (np.arange(pr) * width)[None, None, :, None]
        + np.arange(pc)[None, None, None, :]
    ).ravel()
    wv = weights[:, None, None, None]
    np.add.at(num.reshape(-1), idx, (wv * est).ravel())
    np.add.at(den.reshape(-1), idx, np.broadcast_to(wv, est.shape).ravel())


def _check_image(image: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    image = np.asarray(image, dtype=np.complex128)
    if image.ndim != 2:
        raise DimensionMismatch(f"expected a 2D image, got shape {image.shape}")
    if image.shape[0] < cfg.patch_rows or image.shape[1] < cfg.patch_cols:
        raise DimensionMismatch(
            f"patch {cfg.patch_rows}x{cfg.patch_cols} exceeds image {image.shape}"
        )
    if not np.all(np.isfinite(image)):
        raise DimensionMismatch("image contains non-finite samples")
    return image


_GROUP_CHUNK = 64  # groups taken through the collaborative pass at a time


def _grouped_cores(match_image: np.ndarray, images, cfg: DenoiseConfig):
    """Match on ``match_image`` and group every image in ``images`` at the
    matched corners.

    Yields one iterator per bucket of equal-size groups, which gathers and
    transforms the bucket ``_GROUP_CHUNK`` groups at a time.  Each step
    yields (rows, cols, factors, cores): the (G, K) member corners, the
    per-mode factors of the first image's groups, and the forward transform
    of each image's groups in those factors.  Groups keep their gather order
    (G, K, patch_rows, patch_cols); under ImRe4D they carry a trailing
    [re, im] mode, whose factor is the identity (None) when every image is
    real.  Every step works per group, so the chunk size does not change a
    bit of the result.
    """
    views = [sliding_window_view(im, (cfg.patch_rows, cfg.patch_cols)) for im in images]
    groups = _collect_groups(match_image, cfg)
    imre = cfg.variant is Variant.IMRE_4D
    real_only = imre and not any(np.any(im.imag) for im in images)

    def chunks(indices):
        for start in range(0, len(indices), _GROUP_CHUNK):
            part = indices[start : start + _GROUP_CHUNK]
            rows = np.stack([groups[i][0] for i in part])
            cols = np.stack([groups[i][1] for i in part])
            tensors = [v[rows, cols] for v in views]
            if imre:
                tensors = [to_imre(t) for t in tensors]
            factors, core = _batched_factors(tensors[0], identity_last=real_only)
            cores = [core] + [_batched_transform(t, factors, forward=True) for t in tensors[1:]]
            yield rows, cols, factors, cores

    for indices in _bucket_by_size(groups).values():
        yield chunks(indices)


def _collaborative_pass(match_image: np.ndarray, images, cfg: DenoiseConfig, shrink) -> np.ndarray:
    """Shrink every group with ``shrink(*cores) -> (core, weights)``, invert
    and average the weighted patch estimates back into the image.

    Each bucket is summed on its own, from zero and in scatter order, and
    then added to the image sums, so the result does not depend on the
    chunk size.  OpenBLAS is held at one thread for the whole pass: its
    small batched calls gain nothing from more.
    """
    h, w = match_image.shape
    num = np.zeros((h, w), dtype=np.complex128)
    den = np.zeros((h, w), dtype=np.float64)
    with _single_threaded_blas():
        for bucket in _grouped_cores(match_image, images, cfg):
            bucket_num, bucket_den = np.zeros_like(num), np.zeros_like(den)
            for rows, cols, factors, cores in bucket:
                core, weights = shrink(*cores)
                est = _batched_transform(core, factors, forward=False)
                if cfg.variant is Variant.IMRE_4D:
                    est = from_imre(est)
                _scatter(bucket_num, bucket_den, est, rows, cols, weights, w)
            num += bucket_num
            den += bucket_den
    return num / den


def threshold_stage(image: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    """First stage: hard thresholding of group transform coefficients."""
    image = _check_image(image, cfg)
    sigma = cfg.sigma if cfg.sigma is not None else 0.0
    thr = cfg.hard_threshold_factor * sigma

    def shrink(core):
        core, n_retained = hard_threshold_core(core, thr)
        return core, 1.0 / np.maximum(1, n_retained)

    return _collaborative_pass(image, [image], cfg, shrink)


def wiener_stage(image: np.ndarray, pilot: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    """Second stage: Wiener attenuation in the transform adapted to the pilot.

    Matching and factor estimation both use the pilot; the noisy image is
    grouped with the same coordinates and shrunk toward the pilot spectrum.
    """
    image = _check_image(image, cfg)
    pilot = np.asarray(pilot, dtype=np.complex128)
    if pilot.shape != image.shape:
        raise DimensionMismatch(
            f"pilot shape {pilot.shape} does not match image {image.shape}"
        )
    pilot = _check_image(pilot, cfg)
    sigma = cfg.sigma if cfg.sigma is not None else 0.0

    def shrink(core_pilot, core_noisy):
        core, attenuation = wiener_shrink_core(core_noisy, core_pilot, sigma)
        energy = attenuation.reshape(attenuation.shape[0], -1)
        return core, 1.0 / (sigma * sigma * np.einsum("gi,gi->g", energy, energy) + AGG_EPS)

    return _collaborative_pass(pilot, [pilot, image], cfg, shrink)


def denoise_image(image: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    """Run the configured stages on one complex image and return the estimate."""
    image = _check_image(image, cfg)
    if cfg.sigma is None:
        cfg = replace(cfg, sigma=estimate_sigma(image, cfg))
    est = threshold_stage(image, cfg)
    if cfg.stages is Stages.THRESHOLD_PLUS_WIENER:
        est = wiener_stage(image, est, cfg)
    return est


def _tail_mad(image: np.ndarray, probe: DenoiseConfig) -> float:
    """Uncalibrated deviation estimate from the trailing transform content
    (core coefficients whose index sits in the upper half of every mode).
    A real image has real coefficients, whose magnitudes alone give the
    deviation of real noise; a complex image's real and imaginary parts are
    pooled into the total complex deviation."""
    tail = []
    with _single_threaded_blas():  # as in _collaborative_pass
        for bucket in _grouped_cores(image, [image], probe):
            for _, _, _, (core,) in bucket:
                sl = tuple(slice(d // 2, None) for d in core.shape[1:])
                tail.append(core[(slice(None),) + sl].ravel())
    coeffs = np.concatenate(tail)
    if not np.any(image.imag):
        return float(np.median(np.abs(coeffs)) / 0.6745)
    comps = np.concatenate([coeffs.real, coeffs.imag])
    return float(np.median(np.abs(comps)) / 0.6745 * np.sqrt(2.0))


_SIGMA_CALIBRATION: dict[tuple, float] = {}
_SIGMA_CALIBRATION_LOCK = threading.Lock()


def _sigma_calibration(probe: DenoiseConfig, real: bool) -> float:
    """Expected raw tail estimate on unit noise, real or complex, for this
    tensor geometry.

    The data-adaptive factors soak up part of the noise energy, so the raw
    tail statistic underestimates sigma by a geometry-dependent factor;
    dividing by this seeded unit-noise probe removes the bias.
    """
    # every field that shapes the probe's groups, and the kind of noise
    key = (
        real,
        probe.patch_rows,
        probe.patch_cols,
        probe.patch_step,
        probe.search_radius,
        probe.max_group_size,
    )
    with _SIGMA_CALIBRATION_LOCK:  # pool workers share the cache
        if key not in _SIGMA_CALIBRATION:
            side = max(64, 2 * max(probe.patch_rows, probe.patch_cols))
            rng = np.random.Generator(np.random.Philox(20260808))
            unit = rng.normal(size=(side, side)).astype(np.complex128)
            if not real:
                unit = (unit + 1j * rng.normal(size=(side, side))) / np.sqrt(2)
            _SIGMA_CALIBRATION[key] = _tail_mad(unit, probe)
        return _SIGMA_CALIBRATION[key]


def estimate_sigma(image: np.ndarray, cfg: DenoiseConfig | None = None) -> float:
    """Robust noise estimate from the highest-frequency transform content.

    Groups on a coarse grid are factored and the core coefficients whose
    indices fall in the upper half of every mode, which carry almost no
    signal, feed a median-absolute-deviation estimate; the value is
    calibrated against a unit-noise probe and returned as the total standard
    deviation of the noise: complex noise for a complex image, real noise
    for an image without imaginary part.  A constant image returns exactly
    0.0.  ``cfg.match_threshold`` is ignored: a threshold can leave single
    patches as groups, whose tail cores hold only rounding residue.
    """
    base = cfg or DenoiseConfig()
    probe = replace(
        base,
        patch_step=max(base.patch_rows, base.patch_cols),
        max_group_size=min(base.max_group_size, 8),
        match_threshold=None,
        sigma=0.0,
        variant=Variant.COMPLEX_3D,  # the probe works on complex tensors
    )
    image = _check_image(image, probe)
    if np.all(image == image.flat[0]):
        return 0.0
    return _tail_mad(image, probe) / _sigma_calibration(probe, not np.any(image.imag))
