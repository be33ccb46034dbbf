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
stacked linear algebra, in chunks whose gathered group tensor holds at most
``_CHUNK_BYTES``.  Chunks are sized in bytes, not groups, so that a chunk's
temporaries stay in cache.  Freed and reused chunk after chunk, they stay
in the heap only once glibc's dynamic mmap and trim thresholds have been
raised past them, which glibc does only after the process frees a large
mapped block; each pass therefore frees one of 2 MiB first
(``_raise_malloc_thresholds``), whatever the process allocated before.
That lifts the mmap threshold to 2 MiB and the trim threshold, which
bounds what each thread's heap keeps free, to 4 MiB.
One chunk is alive at a time: the pass and the noise probe drop each
chunk's arrays before the next is gathered and factored.  Matching works on
tiles of ``_MATCH_TILE`` pixels a side, and fills each tile's cross product
one slab of box rows at a time, so its copy of patch samples stays within
``_CHUNK_BYTES`` too.  The filter's memory does not grow with the image
beyond its image-sized accumulators and match lists: one call on a 128x128
image peaks at about 4.9 MB of traced heap.  Batched groups stay
in gather order (K, rows, cols, then [re, im] under ImRe4D), and every mode
product and mode Gram is one stacked GEMM on the last axis of a contiguous
stack, with no unfolding copy (``_contract_last``).
"""

from __future__ import annotations

import enum
import math
import numbers
import threading
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DecompositionFailed,
    DimensionMismatch,
    InvalidConfig,
    OutOfBounds,
    ResultOverflow,
)
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
    in with the robust estimate from ``estimate_sigma``.  Every field is
    checked for type, finiteness and range on construction, and stored as an
    int, a float or an enum member; ``InvalidConfig`` names the field.
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
        for name, low in (("patch_rows", 1), ("patch_cols", 1), ("patch_step", 1),
                          ("search_radius", 0), ("max_group_size", 1)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), low))
        for name in ("match_threshold", "hard_threshold_factor", "sigma"):
            value = getattr(self, name)
            if value is not None or name == "hard_threshold_factor":  # None leaves it unset
                object.__setattr__(self, name, _check_real(name, value))
        if not isinstance(self.variant, Variant):
            raise InvalidConfig(f"variant: expected a Variant, got {self.variant!r}")
        if not isinstance(self.stages, Stages):
            raise InvalidConfig(f"stages: expected a Stages value, got {self.stages!r}")


def _check_int(name: str, value, low: int) -> int:
    """``value`` as an int of at least ``low``; bools are not integers here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfig(f"{name}: expected an integer, got {value!r}")
    if value < low:
        raise InvalidConfig(f"{name}: must be at least {low}, got {value}")
    return int(value)


def _check_finite(name: str, value) -> float:
    """``value`` as a finite float; bools are not numbers here."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise InvalidConfig(f"{name}: expected a finite number, got {value!r}")
    return float(value)


def _check_real(name: str, value) -> float:
    """``value`` as a finite, nonnegative float."""
    real = _check_finite(name, value)
    if real < 0:
        raise InvalidConfig(f"{name}: must be nonnegative, got {value}")
    return real


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
                # a real stack is its own conjugate: no copy of the chunk
                _, vecs = np.linalg.eigh(a.swapaxes(1, 2) @ (a.conj() if np.iscomplexobj(a) else a))
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
    t = np.asarray(tensor)
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
    p2 = np.abs(core_pilot)
    np.square(p2, out=p2)
    shrink = p2 + sigma * sigma  # the denominator, overwritten by the factor
    np.divide(p2, shrink, out=shrink, where=shrink > 0)  # a zero denominator stays 0
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
    # a copy, so the (tile, box) partition index is freed at once
    idx = np.argpartition(dist, keep - 1, axis=1)[:, :keep].copy()
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


_MATCH_TILE = 18  # side of the square matching tiles, in pixels


def _match(match_image: np.ndarray, refs, cfg: DenoiseConfig):
    """Match each reference patch in ``refs``; returns one
    (member_rows, member_cols) pair per reference, in the order of ``refs``.

    Members are the reference, then up to ``max_group_size - 1`` other
    patches of its search window in ascending distance, ties broken by
    (row, col).  References are matched a tile of ``_MATCH_TILE`` pixels a
    side at a time against the patches of the box covering the tile's search
    windows only, so the cost grows with the pixel count, not its square, and
    the box does not grow with the reference grid's step.  Distances use the
    expansion ||P_ref - P||^2 = ||P||^2 - 2 Re<P, P_ref> + ||P_ref||^2, so the
    cross terms of a whole tile are a real matrix product over the
    interleaved (re, im) samples of the patches: the tile's own reference
    patches, copied once, against the box's patches, copied one slab of box
    rows at a time (at most ``_CHUNK_BYTES`` of samples per slab) into the
    rows of the (box, tile) product.  The distances are then evaluated in
    place on the product.
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

    tiles = refs // _MATCH_TILE
    tile_id = tiles[:, 0] * (n_vc // _MATCH_TILE + 1) + tiles[:, 1]
    by_tile = np.argsort(tile_id, kind="stable")
    groups = [None] * len(refs)
    for members in np.split(by_tile, np.flatnonzero(np.diff(tile_id[by_tile])) + 1):
        r, c = refs[members, 0], refs[members, 1]
        r0, r1 = np.maximum(r - rad, 0), np.minimum(r + rad, n_vr - 1)
        c0, c1 = np.maximum(c - rad, 0), np.minimum(c + rad, n_vc - 1)
        br, bc = r0.min(), c0.min()
        bh, bw = r1.max() - br + 1, c1.max() - bc + 1
        box = match_image[br : br + bh + pr - 1, bc : bc + bw + pc - 1]
        windows = sliding_window_view(box, (pr, pc))
        ref_feats = windows[r - br, c - bc].reshape(len(members), n_px).view(np.float64)
        dist = np.empty((bh * bw, len(members)))
        slab = max(1, _CHUNK_BYTES // (bw * n_px * 16))  # box rows per slab
        for s in range(0, bh, slab):
            feats = np.ascontiguousarray(windows[s : s + slab].reshape(-1, n_px))
            np.matmul(feats.view(np.float64), ref_feats.T, out=dist[s * bw : (s + slab) * bw])
            del feats  # one slab alive at a time
        dist = dist.T  # (tile, box) cross terms
        own = (r - br) * bw + (c - bc)
        # (||P||^2 - 2 cross + ||P_ref||^2) / n_px; a - 2c is exactly a + (-2c)
        box_norms = norms[br : br + bh, bc : bc + bw].ravel()
        np.multiply(dist, -2.0, out=dist)
        np.add(box_norms, dist, out=dist)
        np.add(dist, box_norms[own, None], out=dist)
        np.divide(dist, n_px, out=dist)
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
        del dist, outside  # freed before the next tile's product
        # the reference, then the found members, which are a prefix of each row
        sizes = 1 + np.count_nonzero(d < np.inf, axis=1)
        idx = np.concatenate([own[:, None], idx], axis=1)
        rows, cols = br + idx // bw, bc + idx % bw
        for gi, rr, cc, k in zip(members, rows, cols, sizes.tolist()):
            groups[gi] = (rr[:k], cc[:k])
    return groups


def _collect_groups(match_image: np.ndarray, cfg: DenoiseConfig):
    """Match every reference patch on the grid, in scan order."""
    h, w = match_image.shape
    grid_r = _reference_grid(h, cfg.patch_rows, cfg.patch_step)
    grid_c = _reference_grid(w, cfg.patch_cols, cfg.patch_step)
    refs = np.stack(np.meshgrid(grid_r, grid_c, indexing="ij"), axis=-1)  # in scan order
    return _match(match_image, refs, cfg)


def block_match(image: np.ndarray, ref_coord: tuple[int, int], cfg: DenoiseConfig):
    """Match the patch anchored at ``ref_coord``; returns the (rows, cols)
    top-left corners of its group, the reference first, as ``_match`` does."""
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
    return rows + r0, cols + c0


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
    ``den``; ``np.add.at`` sums each pixel in index order.  ``est`` is
    weighted in place."""
    pr, pc = est.shape[2], est.shape[3]
    base = rows * width + cols
    idx = (
        base[:, :, None, None]
        + (np.arange(pr) * width)[None, None, :, None]
        + np.arange(pc)[None, None, None, :]
    ).ravel()
    wv = weights[:, None, None, None]
    est *= wv
    np.add.at(num.reshape(-1), idx, est.ravel())
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


# ---------------------------------------------------------------------------
# scale


_SAFE_MAGNITUDE = 2.0**400


def _scale_exponent(data: np.ndarray) -> int:
    """0 when the largest real or imaginary magnitude of the complex array
    ``data`` lies in the safe band [2^-400, 2^400), or ``data`` is zero;
    otherwise its binary exponent e, so that data * 2^-e peaks in [1/2, 1).

    In the band, the squares the filter and the subspace estimate take (mode
    Grams, Wiener powers, band correlations) and their sums stay far from
    float64 underflow and overflow; beyond it they underflow to zero or
    overflow.  Data out of the band is filtered at the scale 2^-e, which is
    exact, and the result scaled back; data in it is left untouched.
    """
    if data.size == 0:
        return 0
    top = max(-data.real.min(), data.real.max(), -data.imag.min(), data.imag.max())
    if top == 0 or 1.0 / _SAFE_MAGNITUDE <= top < _SAFE_MAGNITUDE:
        return 0
    return math.frexp(top)[1]


def _ldexp(data: np.ndarray, e: int, out: np.ndarray | None = None) -> np.ndarray:
    """data * 2^e for a complex array, exact unless a result is subnormal;
    raises ResultOverflow where one exceeds the float64 range."""
    if out is None:
        out = np.empty(data.shape, dtype=np.complex128)
    with np.errstate(over="ignore"):
        np.ldexp(data.real, e, out=out.real)
        np.ldexp(data.imag, e, out=out.imag)
    if e > 0 and not np.all(np.isfinite(out)):
        raise ResultOverflow(f"result scaled by 2^{e} exceeds the float64 range")
    return out


def _ldexp_scalar(x: float, e: int) -> float:
    try:
        return math.ldexp(x, e)
    except OverflowError:
        raise ResultOverflow(f"{x} scaled by 2^{e} exceeds the float64 range") from None


def _rescaled(cfg: DenoiseConfig, e: int) -> DenoiseConfig:
    """``cfg`` for the image scaled by 2^e: ``sigma`` by 2^e and
    ``match_threshold``, a squared distance, by 2^2e; a threshold scaled
    beyond the float64 range cuts nothing, so it becomes None."""
    threshold = cfg.match_threshold
    try:
        threshold = None if threshold is None else math.ldexp(threshold, 2 * e)
    except OverflowError:
        threshold = None
    sigma = None if cfg.sigma is None else _ldexp_scalar(cfg.sigma, e)
    return replace(cfg, sigma=sigma, match_threshold=threshold)


_CHUNK_BYTES = 512 * 1024  # bytes of one chunk's gathered group tensor


_MMAP_THRESHOLD_MAX = 32 * 2**20  # glibc raises its mmap threshold to at most this


def _raise_malloc_thresholds():
    """Allocate a block of 4 * ``_CHUNK_BYTES`` (2 MiB, at most
    ``_MMAP_THRESHOLD_MAX``) and free it untouched.

    glibc serves blocks above its mmap threshold (128 KiB at start) with a
    fresh mapping, whose pages fault in on first use and go back to the
    kernel on free, and trims the top of its heap once more than its trim
    threshold is free.  Both thresholds are dynamic: freeing a mapped block
    raises the mmap threshold to the block's size and the trim threshold to
    twice that, here 2 and 4 MiB.  2 MiB is above the largest block of the
    chunk loop (the (box, tile) distance product, about 0.9 MB at the
    defaults), so after this call a chunk's temporaries come from the heap
    and stay there, chunk after chunk, whatever the process allocated
    before; the cost is one mmap/munmap pair.  Each thread's heap may keep
    up to the trim threshold free, so the block is no larger than needed.
    Allocators without a dynamic threshold are not affected.  ``mallopt`` is
    not used: it would fix the process-wide settings for good.
    """
    np.empty(min(4 * _CHUNK_BYTES, _MMAP_THRESHOLD_MAX), dtype=np.uint8)


def _grouped_cores(match_image: np.ndarray, images, cfg: DenoiseConfig):
    """Match on ``match_image`` and group every image in ``images`` at the
    matched corners.

    Yields the groups bucket by bucket of equal size, in chunks of at most
    ``_CHUNK_BYTES`` of group tensor (at least one group).  Each chunk is
    (rows, cols, factors, cores): the (G, K) member corners, the per-mode
    factors of the first image's groups, and the forward transform of each
    image's groups in those factors.  Groups keep their gather order
    (G, K, patch_rows, patch_cols); under ImRe4D they carry a trailing
    [re, im] mode, whose factor is the identity (None) when every image is
    real.  Every step works per group, so the chunk size does not change a
    bit of the result.
    """
    _raise_malloc_thresholds()
    views = [sliding_window_view(im, (cfg.patch_rows, cfg.patch_cols)) for im in images]
    groups = _collect_groups(match_image, cfg)
    imre = cfg.variant is Variant.IMRE_4D
    real_only = imre and not any(np.any(im.imag) for im in images)
    for indices in _bucket_by_size(groups).values():
        group_bytes = groups[indices[0]][0].size * cfg.patch_rows * cfg.patch_cols * 16
        step = max(1, _CHUNK_BYTES // group_bytes)
        for start in range(0, len(indices), step):
            part = indices[start : start + step]
            rows = np.stack([groups[i][0] for i in part])
            cols = np.stack([groups[i][1] for i in part])
            tensors = [v[rows, cols] for v in views]
            if imre:
                tensors = [to_imre(t) for t in tensors]
            factors, core = _batched_factors(tensors[0], identity_last=real_only)
            cores = [core] + [_batched_transform(t, factors, forward=True) for t in tensors[1:]]
            del tensors, core
            yield rows, cols, factors, cores
            del factors, cores  # freed before the next chunk is gathered


def _collaborative_pass(match_image: np.ndarray, images, cfg: DenoiseConfig, shrink) -> np.ndarray:
    """Shrink every group with ``shrink(*cores) -> (core, weights)``, invert
    and average the weighted patch estimates back into the image.

    Chunks are added straight into the image sums, which ``np.add.at`` sums
    in scatter order, so the chunk size does not change a bit.  The pass
    sets no BLAS thread count: ``denoise_image`` holds OpenBLAS at one thread.
    """
    h, w = match_image.shape
    num = np.zeros((h, w), dtype=np.complex128)
    den = np.zeros((h, w), dtype=np.float64)
    for rows, cols, factors, cores in _grouped_cores(match_image, images, cfg):
        core, weights = shrink(*cores)
        est = _batched_transform(core, factors, forward=False)
        if cfg.variant is Variant.IMRE_4D:
            est = from_imre(est)
        _scatter(num, den, est, rows, cols, weights, w)
        del factors, cores, core, est  # freed before the next chunk is gathered
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
        # 1 / (sigma^2 sum a^2) less the sigma^2 every group shares, which cancels
        return core, 1.0 / (np.einsum("gi,gi->g", energy, energy) + AGG_EPS)

    return _collaborative_pass(pilot, [pilot, image], cfg, shrink)


@_single_threaded_blas()
def denoise_image(image: np.ndarray, cfg: DenoiseConfig) -> np.ndarray:
    """Run the configured stages on one complex image and return the estimate.

    An image whose largest magnitude leaves [2^-400, 2^400) is filtered,
    with its sigma and match threshold, at the power-of-two scale that
    brings it to [1/2, 1), and the estimate is scaled back.
    """
    image = _check_image(image, cfg)
    shift = _scale_exponent(image)
    if shift:
        image = _ldexp(image, -shift)
        cfg = _rescaled(cfg, -shift)
    if cfg.sigma is None:
        cfg = replace(cfg, sigma=estimate_sigma(image, cfg))
    est = threshold_stage(image, cfg)
    if cfg.stages is Stages.THRESHOLD_PLUS_WIENER:
        est = wiener_stage(image, est, cfg)
    return _ldexp(est, shift, out=est) if shift else est


def _tail_mad(image: np.ndarray, probe: DenoiseConfig) -> float:
    """Uncalibrated deviation estimate from the trailing transform content
    (core coefficients whose index sits in the upper half of every mode).
    A real image has real coefficients, whose magnitudes alone give the
    deviation of real noise; a complex image's real and imaginary parts are
    pooled into the total complex deviation."""
    tail = []
    for _, _, factors, (core,) in _grouped_cores(image, [image], probe):
        sl = tuple(slice(d // 2, None) for d in core.shape[1:])
        tail.append(core[(slice(None),) + sl].ravel())
        del factors, core  # freed before the next chunk is gathered
    coeffs = np.concatenate(tail)
    if not np.any(image.imag):
        return float(np.median(np.abs(coeffs)) / 0.6745)
    comps = np.concatenate([coeffs.real, coeffs.imag])
    return float(np.median(np.abs(comps)) / 0.6745 * np.sqrt(2.0))


_SIGMA_CALIBRATION: dict[tuple, float] = {}
_SIGMA_CALIBRATION_LOCK = threading.Lock()


def _sigma_calibration(probe: DenoiseConfig, real: bool) -> float:
    """Expected raw tail estimate on unit noise, real or complex, for the
    probe's tensor geometry.

    The data-adaptive factors soak up part of the noise energy, so the raw
    tail statistic underestimates sigma by a geometry-dependent factor;
    dividing by this seeded unit-noise probe removes the bias.  The cache is
    keyed on the kind of noise and the probe itself, which ``estimate_sigma``
    builds from the fields that shape its groups only.
    """
    key = (real, probe)
    with _SIGMA_CALIBRATION_LOCK:  # pool workers share the cache
        if key not in _SIGMA_CALIBRATION:
            side = max(64, 2 * max(probe.patch_rows, probe.patch_cols))
            rng = np.random.Generator(np.random.Philox(20260808))
            unit = rng.normal(size=(side, side)).astype(np.complex128)
            if not real:
                unit = (unit + 1j * rng.normal(size=(side, side))) / np.sqrt(2)
            _SIGMA_CALIBRATION[key] = _tail_mad(unit, probe)
        return _SIGMA_CALIBRATION[key]


@_single_threaded_blas()
def estimate_sigma(image: np.ndarray, cfg: DenoiseConfig | None = None) -> float:
    """Robust noise estimate from the highest-frequency transform content.

    Groups on a coarse grid are factored and the core coefficients whose
    indices fall in the upper half of every mode, which carry almost no
    signal, feed a median-absolute-deviation estimate; the value is
    calibrated against a unit-noise probe and returned as the total standard
    deviation of the noise: complex noise for a complex image, real noise
    for an image without imaginary part.  A constant image returns exactly
    0.0.  An image out of the safe magnitude band is measured at a
    power-of-two scale, as in ``denoise_image``.  ``cfg.match_threshold`` is
    ignored: a threshold can leave single patches as groups, whose tail
    cores hold only rounding residue.
    """
    base = cfg or DenoiseConfig()
    probe = DenoiseConfig(  # every other field keeps its default
        patch_rows=base.patch_rows,
        patch_cols=base.patch_cols,
        patch_step=max(base.patch_rows, base.patch_cols),
        search_radius=base.search_radius,
        max_group_size=min(base.max_group_size, 8),
        sigma=0.0,
        variant=Variant.COMPLEX_3D,  # the probe works on complex tensors
    )
    image = _check_image(image, probe)
    if np.all(image == image.flat[0]):
        return 0.0
    shift = _scale_exponent(image)  # as in denoise_image
    if shift:
        image = _ldexp(image, -shift)
    sigma = _tail_mad(image, probe) / _sigma_calibration(probe, not np.any(image.imag))
    return _ldexp_scalar(sigma, shift)
