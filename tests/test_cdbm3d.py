import functools
import itertools
import math
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

import hscube as hs
from hscube import cdbm3d
from hscube.cdbm3d import (
    DenoiseConfig,
    Stages,
    Variant,
    block_match,
    denoise_image,
    estimate_sigma,
    hard_threshold_core,
    hosvd,
    inverse_hosvd,
    threshold_stage,
    to_imre,
    wiener_shrink_core,
    wiener_stage,
)
from hscube.errors import DimensionMismatch, InvalidConfig, OutOfBounds, ResultOverflow
from hscube.parallel import run_jobs


def random_field(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def scaled(a, e):
    """a * 2^e, component by component."""
    out = np.empty(np.shape(a), dtype=np.complex128)
    with np.errstate(over="ignore"):
        out.real, out.imag = np.ldexp(np.real(a), e), np.ldexp(np.imag(a), e)
    return out


def peak_exponent(a):
    """e with the largest real or imaginary magnitude of ``a`` in [2^(e-1), 2^e)."""
    return math.frexp(float(np.max(np.abs(np.asarray(a, np.complex128).view(np.float64)))))[1]


def brute_force_members(img, ref, cfg):
    """Group of ``ref`` from the direct sum of |P_ref - P|^2 over its search
    window: the reference, then members by distance, row and column."""
    pr, pc, rad = cfg.patch_rows, cfg.patch_cols, cfg.search_radius
    r, c = ref
    rows = range(max(0, r - rad), min(img.shape[0] - pr, r + rad) + 1)
    cols = range(max(0, c - rad), min(img.shape[1] - pc, c + rad) + 1)
    patches = sliding_window_view(img, (pr, pc))[rows.start : rows.stop, cols.start : cols.stop]
    diff = patches - img[r : r + pr, c : c + pc]
    dist = (diff.real**2 + diff.imag**2).sum(axis=(2, 3)) / (pr * pc)
    candidates = sorted(
        (dist[a, b], i, j)
        for a, i in enumerate(rows)
        for b, j in enumerate(cols)
        if (i, j) != ref and (cfg.match_threshold is None or dist[a, b] <= cfg.match_threshold)
    )
    kept = candidates[: cfg.max_group_size - 1]
    return [r] + [i for _, i, _ in kept], [c] + [j for _, _, j in kept]


def corners(group):
    """The (row, col) corners of a ``block_match`` group, in group order."""
    rows, cols = group
    return list(zip(rows.tolist(), cols.tolist()))


class TestBlockMatch:
    def test_constant_image_scan_order(self):
        img = np.ones((24, 24), complex)
        cfg = DenoiseConfig(sigma=1.0, max_group_size=5)
        group = block_match(img, (0, 0), cfg)
        assert corners(group) == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]

    def test_reference_always_first(self):
        rng = np.random.default_rng(0)
        img = random_field(rng, (32, 32))
        group = block_match(img, (7, 9), DenoiseConfig(sigma=1.0))
        assert corners(group)[0] == (7, 9)
        assert len(corners(group)) == DenoiseConfig().max_group_size

    def test_lonely_reference_under_threshold(self):
        img = np.zeros((20, 20), complex)
        img[4:8, 4:8] = 10.0  # a block nothing else resembles
        cfg = DenoiseConfig(
            patch_rows=4, patch_cols=4, match_threshold=1.0, sigma=1.0
        )
        assert corners(block_match(img, (4, 4), cfg)) == [(4, 4)]

    def test_exact_copy_is_matched(self):
        rng = np.random.default_rng(1)
        texture = random_field(rng, (6, 6))
        img = np.zeros((30, 30), complex)
        img[2:8, 3:9] = texture
        img[14:20, 10:16] = texture
        cfg = DenoiseConfig(
            patch_rows=6, patch_cols=6, match_threshold=1e-9, sigma=1.0
        )
        assert (14, 10) in corners(block_match(img, (2, 3), cfg))

    def test_out_of_bounds_reference(self):
        img = np.zeros((16, 16), complex)
        with pytest.raises(OutOfBounds):
            block_match(img, (10, 0), DenoiseConfig(sigma=1.0))

    def test_non_finite_image_rejected(self):
        img = np.ones((24, 24), complex)
        img[3, 3] = np.nan
        with pytest.raises(DimensionMismatch):
            block_match(img, (0, 0), DenoiseConfig(sigma=1.0))

    def test_group_capped_at_k(self):
        img = np.ones((30, 30), complex)
        group = block_match(img, (5, 5), DenoiseConfig(sigma=1.0, max_group_size=9))
        assert len(corners(group)) == 9

    @pytest.mark.parametrize("match_threshold", [None, 3.5])
    def test_same_groups_as_the_filter(self, match_threshold):
        rng = np.random.default_rng(4)
        img = random_field(rng, (24, 24))
        cfg = DenoiseConfig(sigma=1.0, search_radius=5, match_threshold=match_threshold)
        groups = cdbm3d._collect_groups(img, cfg)
        refs = [(r, c) for r in (0, 3, 6, 9, 12, 15, 16) for c in (0, 3, 6, 9, 12, 15, 16)]
        assert len(groups) == len(refs)
        sizes = set()
        for ref, (rows, cols) in zip(refs, groups):
            got_rows, got_cols = block_match(img, ref, cfg)
            assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)
            sizes.add(rows.size)
        if match_threshold is None:
            assert sizes == {cfg.max_group_size}
        else:
            assert len(sizes) > 1  # the threshold prunes some groups

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_same_groups_as_brute_force(self, data):
        # Samples are small complex integers, so every distance is an exact
        # integer over the patch size in float64 under both formulas: a tie
        # between two candidates is a real tie, never a rounding accident.
        h, w = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24))
        kind = data.draw(st.sampled_from(["random", "constant", "periodic"]))
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        if kind == "random":
            img = rng.integers(-2, 3, (h, w)) + 1j * rng.integers(-2, 3, (h, w))
        elif kind == "constant":
            img = np.full((h, w), complex(*rng.integers(-2, 3, 2)))
        else:
            period = rng.integers(-2, 3, (2, 3)) + 1j * rng.integers(-2, 3, (2, 3))
            img = np.tile(period, (h // 2 + 1, w // 3 + 1))[:h, :w]
        cfg = DenoiseConfig(
            patch_rows=data.draw(st.integers(1, min(h, 5))),
            patch_cols=data.draw(st.integers(1, min(w, 5))),
            patch_step=data.draw(st.integers(1, 5)),
            search_radius=data.draw(st.integers(0, 26)),
            max_group_size=data.draw(st.integers(1, 24)),
            match_threshold=data.draw(st.sampled_from([None, 0.0, 0.5, 1.0, 2.25, 4.0])),
        )
        n_vr, n_vc = h - cfg.patch_rows + 1, w - cfg.patch_cols + 1
        grid = [(r, c)
                for r in cdbm3d._reference_grid(h, cfg.patch_rows, cfg.patch_step)
                for c in cdbm3d._reference_grid(w, cfg.patch_cols, cfg.patch_step)]
        extra = data.draw(st.lists(
            st.tuples(st.integers(0, n_vr - 1), st.integers(0, n_vc - 1)), max_size=6))
        refs = [(int(r), int(c)) for r, c in grid] + extra
        # tile sides in pixels: one, one below the grid step, and the default
        tile = data.draw(st.sampled_from([1, max(1, cfg.patch_step - 1), cdbm3d._MATCH_TILE]))
        with mock.patch.object(cdbm3d, "_MATCH_TILE", tile):
            groups = cdbm3d._match(img, refs, cfg)
        assert len(groups) == len(refs)
        for ref, (rows, cols) in zip(refs, groups):
            expected_rows, expected_cols = brute_force_members(img, ref, cfg)
            assert rows.tolist() == expected_rows and cols.tolist() == expected_cols


def step_tiled_match(match_image, refs, cfg, tile_steps=6):
    """``cdbm3d._match`` as it was when its tiles were ``tile_steps`` grid
    steps wide and it kept the box's patch samples and the distance
    temporaries alive together."""
    pr, pc = cfg.patch_rows, cfg.patch_cols
    n_px = pr * pc
    rad = cfg.search_radius
    keep = cfg.max_group_size - 1
    refs = np.asarray(refs, dtype=np.intp).reshape(-1, 2)
    if keep == 0:
        return [(ref[:1], ref[1:]) for ref in refs]
    norms = cdbm3d._patch_energies(match_image, pr, pc)
    n_vr, n_vc = norms.shape

    side = tile_steps * cfg.patch_step
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
        feats = np.ascontiguousarray(feats).view(np.float64)
        own = (r - br) * bw + (c - bc)
        cross = feats @ feats[own].T
        box_norms = norms[br : br + bh, bc : bc + bw].ravel()
        dist = (box_norms - 2.0 * cross.T + box_norms[own, None]) / n_px
        np.maximum(dist, 0.0, out=dist)

        box_r, box_c = np.arange(br, br + bh), np.arange(bc, bc + bw)
        in_r = (box_r >= r0[:, None]) & (box_r <= r1[:, None])
        in_c = (box_c >= c0[:, None]) & (box_c <= c1[:, None])
        outside = ~(in_r[:, :, None] & in_c[:, None, :]).reshape(dist.shape)
        outside[np.arange(len(members)), own] = True
        if cfg.match_threshold is not None:
            outside |= dist > cfg.match_threshold
        dist[outside] = np.inf

        idx, d = cdbm3d._nearest(dist, keep)
        found = d < np.inf
        flat = idx[found]
        counts = found.sum(axis=1)
        starts = np.cumsum(counts) - counts
        rows = np.insert(br + flat // bw, starts, r)
        cols = np.insert(bc + flat % bw, starts, c)
        splits = np.cumsum(counts + 1)[:-1]
        for gi, rr, cc in zip(members, np.split(rows, splits), np.split(cols, splits)):
            groups[gi] = (rr, cc)
    return groups


@functools.lru_cache(maxsize=None)
def noisy_compound_band(rows, cols):
    """Band 0 of the compound object with complex noise of deviation 1.3."""
    model = hs.bk7()
    spec = hs.compound_spec(rows, cols, model, 400.0)
    truth = hs.generate_truth(spec, model, (rows, cols), np.array([400.0]))
    return hs.add_noise(truth, hs.NoiseSpec(sigma=1.3, seed=7)).band(0)


def noise_probe(cfg):
    """The configuration ``estimate_sigma`` groups with."""
    return replace(cfg, patch_step=max(cfg.patch_rows, cfg.patch_cols),
                   max_group_size=min(cfg.max_group_size, 8), match_threshold=None,
                   sigma=0.0, variant=Variant.COMPLEX_3D)


class TestPixelTiles:
    """Tiles ``_MATCH_TILE`` pixels a side, with the cross product filled a
    slab of box rows at a time and the distances evaluated in place on it,
    against the step-sized tiles with one whole-box product they replaced:
    each slab's rows are the same dot products of the same operands, and the
    distances the same operations, so groups are identical on float images
    too, not only on the small integers of the brute-force comparison."""

    @pytest.mark.parametrize("slab_bytes", [None, 1], ids=["default-slabs", "one-row-slabs"])
    @pytest.mark.parametrize("threshold", [None, 3.0])
    @pytest.mark.parametrize("probe", [False, True], ids=["stage", "probe"])
    @pytest.mark.parametrize("shape", [(64, 64), (128, 128), (20, 90)],
                             ids=["64", "128", "narrower-than-a-window"])
    def test_same_groups_as_step_tiles(self, shape, probe, threshold, slab_bytes, monkeypatch):
        if slab_bytes is not None:  # a budget below one box row: one row per slab
            monkeypatch.setattr(cdbm3d, "_CHUNK_BYTES", slab_bytes)
        img = noisy_compound_band(*shape)
        cfg = DenoiseConfig(match_threshold=threshold)
        if probe:
            cfg = replace(noise_probe(cfg), match_threshold=threshold)
            assert cfg.patch_step == 8 and cfg.max_group_size == 8
        refs = [(int(r), int(c))
                for r in cdbm3d._reference_grid(shape[0], cfg.patch_rows, cfg.patch_step)
                for c in cdbm3d._reference_grid(shape[1], cfg.patch_cols, cfg.patch_step)]
        groups = cdbm3d._match(img, refs, cfg)
        expected = step_tiled_match(img, refs, cfg)
        assert len(groups) == len(expected) == len(refs)
        for (rows, cols), (exp_rows, exp_cols) in zip(groups, expected):
            assert np.array_equal(rows, exp_rows) and np.array_equal(cols, exp_cols)
        sizes = {rows.size for rows, _ in groups}
        if threshold is None:
            assert sizes == {cfg.max_group_size}
        else:
            assert len(sizes) > 1  # the threshold prunes some groups

    def test_probe_box_does_not_grow_with_the_step(self, monkeypatch):
        # the noise probe's grid step is 8: step-sized tiles spanned 48 pixels
        # and matched against boxes of up to 79^2 patch positions
        img = noisy_compound_band(128, 128)
        probe = noise_probe(DenoiseConfig())
        positions = []
        real_view = cdbm3d.sliding_window_view

        def view(box, shape):
            positions.append((box.shape[0] - shape[0] + 1) * (box.shape[1] - shape[1] + 1))
            return real_view(box, shape)

        monkeypatch.setattr(cdbm3d, "sliding_window_view", view)
        cdbm3d._collect_groups(img, probe)
        side = cdbm3d._MATCH_TILE + 2 * probe.search_radius  # a tile, a radius each way
        assert max(positions) <= side * side < 60 * 60


class TestHosvd:
    def test_round_trip_complex(self):
        rng = np.random.default_rng(2)
        g = random_field(rng, (8, 8, 16))
        rec = inverse_hosvd(hosvd(g))
        assert np.linalg.norm(rec - g) <= 1e-10 * np.linalg.norm(g)

    def test_round_trip_real_4d(self):
        rng = np.random.default_rng(3)
        g = to_imre(random_field(rng, (6, 5, 7)))
        rec = inverse_hosvd(hosvd(g))
        assert np.linalg.norm(rec - g) <= 1e-10 * np.linalg.norm(g)

    def test_rank_one_concentrates(self):
        rng = np.random.default_rng(4)
        a = random_field(rng, 5)
        b = random_field(rng, 6)
        c = random_field(rng, 7)
        g = np.einsum("i,j,k->ijk", a, b, c)
        core = hosvd(g).core
        # independent oracle: the only coefficient is the product of norms
        expected = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
        assert abs(core[0, 0, 0]) == pytest.approx(expected, rel=1e-10)
        rest = np.abs(core).ravel()[1:]
        assert np.all(rest <= 1e-10 * np.linalg.norm(g))

    def test_factor_unitarity(self):
        rng = np.random.default_rng(5)
        f = hosvd(random_field(rng, (4, 6, 9)))
        for u in f.factors:
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        g = random_field(rng, (4, 4, 5))
        f = hosvd(g)
        assert np.linalg.norm(f.core) == pytest.approx(np.linalg.norm(g), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_degenerate_groups_round_trip(self, data):
        # K = 1, duplicated members, rank-one and zero tensors have
        # rank-deficient mode Grams, where each factor is only fixed up to a
        # rotation of the Gram's null space
        pr, pc = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, 33))
        kind = data.draw(st.sampled_from(["random", "rank-one", "duplicated", "zero"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        if kind == "random":
            g = random_field(rng, (pr, pc, k))
        elif kind == "rank-one":
            g = np.einsum("i,j,k->ijk", *(random_field(rng, d) for d in (pr, pc, k)))
        elif kind == "duplicated":
            distinct = random_field(rng, (pr, pc, data.draw(st.integers(1, 3))))
            g = distinct[:, :, rng.integers(0, distinct.shape[2], k)]
        else:
            g = np.zeros((pr, pc, k), complex)
        if data.draw(st.booleans()):
            g = to_imre(g)
        norm = np.linalg.norm(g)
        f = hosvd(g)
        rec = inverse_hosvd(f)
        assert np.all(np.isfinite(f.core)) and np.all(np.isfinite(rec))
        assert f.core.shape == g.shape
        for u in f.factors:
            assert np.all(np.isfinite(u))
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12
        assert abs(np.linalg.norm(f.core) - norm) <= 1e-12 * norm
        if kind == "zero":
            assert not np.any(rec)
        else:
            assert np.linalg.norm(rec - g) <= 1e-12 * norm


def unfolding_factors(t, identity_last=False):
    """The unfolding HOSVD the copy-free path replaced, kept as its oracle:
    every mode's Gram and product come from a copy of the stack with that
    mode moved next to the group axis."""
    factors = []
    for mode in range(1, t.ndim):
        a = np.moveaxis(t, mode, 1).reshape(t.shape[0], t.shape[mode], -1)
        _, vecs = np.linalg.eigh(a @ a.conj().swapaxes(1, 2))
        factors.append(np.ascontiguousarray(vecs[:, :, ::-1]))
    if identity_last:
        factors[-1] = None
    return factors, unfolding_transform(t, factors, forward=True)


def unfolding_transform(t, factors, forward):
    out = t
    for mode, u in enumerate(factors, start=1):
        if u is None:
            continue
        mat = u.conj().swapaxes(1, 2) if forward else u
        moved = np.moveaxis(out, mode, 1)
        res = mat @ moved.reshape(moved.shape[0], moved.shape[1], -1)
        out = np.moveaxis(res.reshape(moved.shape), 1, mode)
    return out


@pytest.fixture(scope="module")
def compound_band():
    model = hs.bk7()
    spec = hs.compound_spec(64, 64, model, 400.0)
    truth = hs.generate_truth(spec, model, (64, 64), np.array([400.0]))
    return hs.add_noise(truth, hs.NoiseSpec(sigma=1.3, seed=7)).band(0)


class TestCopyFreeHosvd:
    """The copy-free HOSVD against the unfolding one it replaced.

    Both are exact HOSVDs, so they agree to rounding wherever the filter's
    decisions are well separated.  Where the filter faces a tie they may
    part: a group's membership flips between patches at (nearly) equal
    distance, and a factor turns freely within a degenerate eigenspace.
    Sparse and constant images, and any run with ``match_threshold`` set
    (the Wiener stage then matches on a pilot that moved by rounding, and
    the noise probe's threshold-sized groups leave a tail of rounding
    residue), are full of such ties, so there both paths are only required
    to give finite output.
    """

    @staticmethod
    def run(img, cfg, monkeypatch, oracle):
        with monkeypatch.context() as m:
            m.setattr(cdbm3d, "_SIGMA_CALIBRATION", {})
            if oracle:
                m.setattr(cdbm3d, "_batched_factors", unfolding_factors)
                m.setattr(cdbm3d, "_batched_transform", unfolding_transform)
            return denoise_image(img, cfg)

    @pytest.mark.parametrize("k", [1, 2, 7, 32])
    @pytest.mark.parametrize("imre", [False, True])
    def test_core_matches_unfolding(self, k, imre):
        rng = np.random.default_rng(k)
        t = random_field(rng, (5, k, 8, 8))
        if imre:
            t = to_imre(t)
        factors, core = cdbm3d._batched_factors(t)
        _, expected = unfolding_factors(t)
        norms = np.linalg.norm(t.reshape(5, -1), axis=1)
        gap = np.abs(np.abs(core) - np.abs(expected)).reshape(5, -1).max(axis=1)
        assert np.all(gap <= 1e-10 * norms)
        # the core that comes out of the factor loop is the forward transform
        assert np.array_equal(core, cdbm3d._batched_transform(t, factors, forward=True))
        rec = cdbm3d._batched_transform(core, factors, forward=False)
        assert np.linalg.norm(rec - t) <= 1e-12 * np.linalg.norm(t)

    @pytest.mark.parametrize("sigma", [None, 0.8])
    @pytest.mark.parametrize("stages", list(Stages))
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("source", ["compound", "field"])
    def test_denoise_matches_unfolding(self, source, variant, stages, sigma, monkeypatch, request):
        if source == "compound":
            img = request.getfixturevalue("compound_band")
        else:
            img = random_field(np.random.default_rng(20), (40, 36))
        cfg = DenoiseConfig(variant=variant, stages=stages, sigma=sigma)
        out = self.run(img, cfg, monkeypatch, oracle=False)
        expected = self.run(img, cfg, monkeypatch, oracle=True)
        assert np.max(np.abs(out - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("case", ["sparse", "constant", "match-threshold"])
    def test_tie_prone_inputs_stay_finite(self, case, monkeypatch):
        rng = np.random.default_rng(21)
        cfg = DenoiseConfig(sigma=0.5)
        if case == "sparse":
            img = np.where(rng.random((24, 24)) < 0.05, 1.0 + 0.5j, 0.0)
        elif case == "constant":
            img = np.full((24, 24), 0.3 - 0.1j)
        else:
            img = np.cumsum(random_field(rng, (40, 36)), axis=1) + random_field(rng, (40, 36))
            cfg = DenoiseConfig(match_threshold=0.5)
        for oracle in (False, True):
            assert np.all(np.isfinite(self.run(img, cfg, monkeypatch, oracle)))


def sigma_weighted_wiener_stage(image, pilot, cfg):
    """The second stage as it weighted each group by
    1 / (sigma^2 sum a^2 + AGG_EPS), with the sigma^2 every group shares."""
    sigma = cfg.sigma

    def shrink(core_pilot, core_noisy):
        core, attenuation = wiener_shrink_core(core_noisy, core_pilot, sigma)
        energy = attenuation.reshape(attenuation.shape[0], -1)
        return core, 1.0 / (sigma * sigma * np.einsum("gi,gi->g", energy, energy) + cdbm3d.AGG_EPS)

    image, pilot = np.asarray(image, np.complex128), np.asarray(pilot, np.complex128)
    return cdbm3d._collaborative_pass(pilot, [pilot, image], cfg, shrink)


class TestScaleFreeWeight:
    """The Wiener aggregation weight leaves out sigma^2, which every group of
    an image shares; away from tiny sigma^2, where AGG_EPS flattened the old
    weights, the estimate moves by rounding only (at most 7.2e-13 of its
    largest sample on these inputs)."""

    @pytest.mark.parametrize("sigma", [None, 0.8])
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("source", ["compound", "field"])
    def test_matches_the_old_weight(self, source, variant, sigma, monkeypatch, request):
        if source == "compound":
            img = request.getfixturevalue("compound_band")
        else:
            img = random_field(np.random.default_rng(20), (40, 36))
        cfg = DenoiseConfig(variant=variant, sigma=sigma)
        out = denoise_image(img, cfg)
        monkeypatch.setattr(cdbm3d, "wiener_stage", sigma_weighted_wiener_stage)
        expected = denoise_image(img, cfg)
        assert np.max(np.abs(out - expected)) <= 1e-11 * np.max(np.abs(expected))


class TestShrinkers:
    def test_hard_threshold_keeps_largest(self):
        core = np.array([[0.1, -3.0, 0.5, 0.2]])
        out, kept = hard_threshold_core(core, 10.0)
        assert kept[0] == 1
        assert np.array_equal(out, [[0.0, -3.0, 0.0, 0.0]])

    def test_hard_threshold_strictness(self):
        core = np.array([[1.0, 2.0, 3.0]])
        out, kept = hard_threshold_core(core, 2.0)
        # exactly at the threshold survives, below does not
        assert np.array_equal(out, [[0.0, 2.0, 3.0]])
        assert kept[0] == 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 5.0))
    def test_shrinking_never_grows_magnitudes(self, seed, sigma):
        rng = np.random.default_rng(seed)
        core = random_field(rng, (2, 3, 4))[None]
        out, _ = hard_threshold_core(core, 1.3)
        assert np.all(np.abs(out) <= np.abs(core) + 1e-15)
        pilot = random_field(rng, (2, 3, 4))[None]
        wout, shrink = wiener_shrink_core(core, pilot, sigma)
        assert np.all(np.abs(wout) <= np.abs(core) + 1e-15)
        assert np.all((0.0 <= shrink) & (shrink <= 1.0))

    def test_wiener_zero_pilot_zero_output(self):
        core = np.ones((1, 4), complex)
        out, shrink = wiener_shrink_core(core, np.zeros((1, 4)), 1.0)
        assert not np.any(out)
        assert not np.any(shrink)

    def test_wiener_sigma_zero_identity(self):
        core = np.array([[1.0 + 1j, 0.0, 2.0]])
        out, _ = wiener_shrink_core(core, core, 0.0)
        assert np.allclose(out, core)


class TestStages:
    def test_threshold_stage_sigma_zero_identity(self):
        rng = np.random.default_rng(7)
        img = np.exp(1j * rng.normal(size=(24, 24)))
        out = threshold_stage(img, DenoiseConfig(sigma=0.0))
        assert np.max(np.abs(out - img)) <= 1e-10

    def test_threshold_stage_constant_image(self):
        c = 0.7 - 0.2j
        img = np.full((20, 20), c)
        out = threshold_stage(img, DenoiseConfig(sigma=2.0))
        assert np.max(np.abs(out - c)) <= 1e-10

    def test_wiener_stage_sigma_zero_identity(self):
        rng = np.random.default_rng(8)
        img = random_field(rng, (20, 20))
        out = wiener_stage(img, img.copy(), DenoiseConfig(sigma=0.0))
        assert np.max(np.abs(out - img)) <= 1e-10

    def test_wiener_stage_zero_pilot(self):
        rng = np.random.default_rng(9)
        img = random_field(rng, (16, 16))
        out = wiener_stage(img, np.zeros_like(img), DenoiseConfig(sigma=1.0))
        assert np.max(np.abs(out)) == 0.0

    def test_wiener_pilot_shape_checked(self):
        img = np.zeros((16, 16), complex)
        with pytest.raises(DimensionMismatch):
            wiener_stage(img, np.zeros((8, 8), complex), DenoiseConfig(sigma=1.0))

    def test_wiener_pilot_non_finite_rejected(self):
        img = random_field(np.random.default_rng(16), (16, 16))
        pilot = img.copy()
        pilot[3, 3] = np.nan
        with pytest.raises(DimensionMismatch, match="non-finite"):
            wiener_stage(img, pilot, DenoiseConfig(sigma=1.0))


@pytest.mark.parametrize("field, value", [
    ("patch_rows", 0), ("patch_step", 0), ("search_radius", -1), ("max_group_size", 0),
    ("match_threshold", -0.1), ("hard_threshold_factor", -1.0), ("sigma", -0.5),
    ("patch_rows", 2.5), ("patch_step", 2.0), ("patch_cols", "8"), ("search_radius", True),
    ("max_group_size", None), ("sigma", math.nan), ("sigma", math.inf), ("sigma", "1"),
    ("match_threshold", math.nan), ("hard_threshold_factor", math.inf),
    ("hard_threshold_factor", None), ("hard_threshold_factor", False),
    ("variant", "imre4d"), ("stages", "threshold"),
])
def test_out_of_range_config_is_invalid(field, value):
    with pytest.raises(InvalidConfig, match=f"^{field}: "):
        DenoiseConfig(**{field: value})


def test_config_stores_plain_numbers():
    cfg = DenoiseConfig(patch_rows=np.int64(6), search_radius=np.uint8(4),
                        hard_threshold_factor=3, sigma=np.float64(0.5), match_threshold=1)
    values = (cfg.patch_rows, cfg.search_radius, cfg.hard_threshold_factor, cfg.sigma,
              cfg.match_threshold)
    assert values == (6, 4, 3.0, 0.5, 1.0)
    assert [type(v) for v in values] == [int, int, float, float, float]


class TestDenoiseImage:
    def test_sigma_zero_identity_both_variants(self):
        rng = np.random.default_rng(10)
        img = np.exp(1j * rng.normal(size=(24, 24)))
        for variant in Variant:
            out = denoise_image(img, DenoiseConfig(sigma=0.0, variant=variant))
            assert np.max(np.abs(out - img)) <= 1e-10

    def test_output_shape_matches(self):
        rng = np.random.default_rng(11)
        img = random_field(rng, (21, 17))
        out = denoise_image(img, DenoiseConfig(sigma=0.5))
        assert out.shape == img.shape

    def test_patch_must_fit(self):
        with pytest.raises(DimensionMismatch):
            denoise_image(np.zeros((4, 4), complex), DenoiseConfig(sigma=1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("sigma", [None, 1.0])
    def test_rejects_non_finite_samples(self, bad, sigma):
        img = random_field(np.random.default_rng(14), (16, 16))
        img[3, 5] = bad
        with pytest.raises(DimensionMismatch, match="non-finite"):
            denoise_image(img, DenoiseConfig(sigma=sigma))

    def test_both_variants_reduce_noise(self, two_peak_slice):
        truth, noisy, sigma = two_peak_slice

        def rrmse(est):
            d = hs.wrap_phase(np.angle(est) - np.angle(truth))
            return np.linalg.norm(d) / np.linalg.norm(np.angle(truth))

        base = rrmse(noisy)
        for variant in Variant:
            out = denoise_image(noisy, DenoiseConfig(sigma=sigma, variant=variant))
            assert rrmse(out) < base

    def test_two_stage_beats_threshold_only(self, two_peak_slice):
        truth, noisy, sigma = two_peak_slice

        def rrmse(est):
            d = hs.wrap_phase(np.angle(est) - np.angle(truth))
            return np.linalg.norm(d) / np.linalg.norm(np.angle(truth))

        both = denoise_image(noisy, DenoiseConfig(sigma=sigma))
        thr = denoise_image(noisy, DenoiseConfig(sigma=sigma, stages=Stages.THRESHOLD_ONLY))
        assert rrmse(thr) < rrmse(noisy)
        assert rrmse(both) <= rrmse(thr)

    def test_monotone_in_noise_level(self, two_peak_truth_slice):
        truth = two_peak_truth_slice
        errors = []
        for sigma in (2.5, 1.3, 0.5):
            rng = np.random.default_rng(99)
            noisy = truth + (sigma / np.sqrt(2)) * (
                rng.normal(size=truth.shape) + 1j * rng.normal(size=truth.shape)
            )
            est = denoise_image(noisy, DenoiseConfig(sigma=sigma))
            d = hs.wrap_phase(np.angle(est) - np.angle(truth))
            errors.append(np.linalg.norm(d) / np.linalg.norm(np.angle(truth)))
        assert errors[0] >= errors[1] >= errors[2]

    def test_real_image_stays_real(self):
        rng = np.random.default_rng(12)
        img = rng.normal(size=(20, 20)).astype(np.complex128)
        out = denoise_image(img, DenoiseConfig(sigma=0.3))
        assert np.max(np.abs(out.imag)) == 0.0

    def test_determinism(self, two_peak_slice):
        _, noisy, sigma = two_peak_slice
        a = denoise_image(noisy, DenoiseConfig(sigma=sigma))
        b = denoise_image(noisy, DenoiseConfig(sigma=sigma))
        assert np.array_equal(a, b)


class TestGroupChunks:
    """The collaborative pass takes each size bucket through in chunks of at
    most ``_CHUNK_BYTES`` of group tensor; the chunk size must not change a
    bit."""

    @staticmethod
    def outputs(img):
        out = [
            np.float64(estimate_sigma(img, DenoiseConfig(match_threshold=t)))
            for t in (None, 0.5)
        ]
        for variant, stages, threshold in itertools.product(Variant, Stages, (None, 0.5)):
            cfg = DenoiseConfig(variant=variant, stages=stages, match_threshold=threshold)
            out.append(denoise_image(img, cfg))
        return [a.tobytes() for a in out]

    def test_chunk_size_does_not_change_a_bit(self, monkeypatch):
        rng = np.random.default_rng(18)
        img = np.cumsum(random_field(rng, (36, 36)), axis=0) + 2.0 * random_field(rng, (36, 36))
        inputs = [img, img.real.astype(np.complex128)]
        cfg = DenoiseConfig()
        full_group = cfg.max_group_size * cfg.patch_rows * cfg.patch_cols * 16
        default = cdbm3d._CHUNK_BYTES
        buckets = cdbm3d._bucket_by_size(cdbm3d._collect_groups(img, cfg))
        assert len(buckets[cfg.max_group_size]) > default // full_group
        results = []
        # one group, seven full groups, the default, and whole buckets
        for budget in (1, 7 * full_group, default, 2**40):
            monkeypatch.setattr(cdbm3d, "_CHUNK_BYTES", budget)
            monkeypatch.setattr(cdbm3d, "_SIGMA_CALIBRATION", {})
            results.append([self.outputs(x) for x in inputs])
        assert all(r == results[2] for r in results)

    def test_chunks_are_sized_in_bytes(self, monkeypatch):
        img = random_field(np.random.default_rng(20), (40, 40))
        cfg = DenoiseConfig()
        sizes = {}
        for rows, _, _, (core,) in cdbm3d._grouped_cores(img, [img], cfg):
            sizes.setdefault(rows.shape[1], []).append(rows.shape[0])
            assert core.nbytes <= max(cdbm3d._CHUNK_BYTES, core[:1].nbytes)
        # a full chunk of the largest groups is as large as the budget allows
        full_group = cfg.max_group_size * cfg.patch_rows * cfg.patch_cols * 16
        assert max(sizes[cfg.max_group_size]) == cdbm3d._CHUNK_BYTES // full_group

    def test_chunks_come_bucket_by_bucket(self):
        rng = np.random.default_rng(18)
        img = np.cumsum(random_field(rng, (36, 36)), axis=0) + 2.0 * random_field(rng, (36, 36))
        cfg = DenoiseConfig(match_threshold=20.0)
        buckets = cdbm3d._bucket_by_size(cdbm3d._collect_groups(img, cfg))
        sizes = [rows.shape[1] for rows, _, _, _ in cdbm3d._grouped_cores(img, [img], cfg)]
        assert len(buckets) > 1
        assert [k for k, _ in itertools.groupby(sizes)] == list(buckets)

    @staticmethod
    def bucket_sums_pass(match_image, images, cfg, shrink):
        """The collaborative pass as it summed each bucket of equal-size
        groups from zero before adding it to the image sums."""
        h, w = match_image.shape
        num = np.zeros((h, w), dtype=np.complex128)
        den = np.zeros((h, w), dtype=np.float64)
        chunks = cdbm3d._grouped_cores(match_image, images, cfg)
        for _, bucket in itertools.groupby(chunks, key=lambda chunk: chunk[0].shape[1]):
            bucket_num, bucket_den = np.zeros_like(num), np.zeros_like(den)
            for rows, cols, factors, cores in bucket:
                core, weights = shrink(*cores)
                est = cdbm3d._batched_transform(core, factors, forward=False)
                if cfg.variant is Variant.IMRE_4D:
                    est = cdbm3d.from_imre(est)
                cdbm3d._scatter(bucket_num, bucket_den, est, rows, cols, weights, w)
            num += bucket_num
            den += bucket_den
        return num / den

    @pytest.mark.parametrize("threshold", [16.0, 24.0, 30.0])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_flat_stream_matches_bucket_sums(self, variant, threshold, monkeypatch):
        # groups of several sizes are summed straight into the image, so their
        # buckets meet in another order than when each was summed alone: a
        # few ulps of the largest sample (at most 2.0e-15 of it over three
        # images, both variants and six thresholds).  Each stage is compared
        # on its own; a second stage would re-factor a pilot moved by rounding.
        rng = np.random.default_rng(18)
        img = np.cumsum(random_field(rng, (36, 36)), axis=0) + 2.0 * random_field(rng, (36, 36))
        cfg = DenoiseConfig(variant=variant, match_threshold=threshold, sigma=2.0)
        pilot = threshold_stage(img, cfg)
        for stage, args in ((threshold_stage, (img,)), (wiener_stage, (img, pilot))):
            assert len(cdbm3d._bucket_by_size(cdbm3d._collect_groups(args[-1], cfg))) > 1
            out = stage(*args, cfg)
            with monkeypatch.context() as m:
                m.setattr(cdbm3d, "_collaborative_pass", self.bucket_sums_pass)
                expected = stage(*args, cfg)
            assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_peak_memory_does_not_grow_with_buckets(self):
        img = random_field(np.random.default_rng(19), (64, 64))
        tracemalloc.start()
        try:
            denoise_image(img, DenoiseConfig(sigma=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40e6

    @pytest.mark.parametrize("variant", list(Variant))
    def test_peak_memory_of_a_small_filter(self, variant):
        # byte-sized chunks keep the pass's temporaries to a few MB; chunks
        # of 64 full groups peaked at about 23 MB here
        img = random_field(np.random.default_rng(19), (64, 64))
        estimate_sigma(img)  # fill the calibration cache outside the trace
        tracemalloc.start()
        try:
            denoise_image(img, DenoiseConfig(sigma=1.0, variant=variant))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12e6


class TestResidentMemory:
    """The filter's transient memory, traced and in page faults."""

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_at_128(self):
        # about 14 MB with match tiles 6 grid steps wide, whose box reached
        # 79^2 patch positions at the noise probe's step 8; about 7 MB with
        # tiles 18 pixels wide and the patch samples freed before the distances
        img = noisy_compound_band(128, 128)
        estimate_sigma(img)  # fill the calibration cache outside the trace
        assert self.traced_peak(denoise_image, img, DenoiseConfig()) <= 8e6
        stage = self.traced_peak(threshold_stage, img, DenoiseConfig(sigma=1.3))
        assert self.traced_peak(estimate_sigma, img) <= stage

    # The working set proper: the untouched block that raises glibc's malloc
    # thresholds is not counted.  With the whole box's patch samples copied
    # before one product, and the previous chunk's arrays alive while the
    # next was gathered and factored, matching peaked at 5.9 MB and the call
    # at 7.0 MB; with slabs and one chunk at a time, 3.2 MB and 4.8 MB; with
    # only the kept columns of each tile's partition index held, matching
    # peaks at 3.0 MB.
    def test_matching_working_set_at_128(self, monkeypatch):
        monkeypatch.setattr(cdbm3d, "_raise_malloc_thresholds", lambda: None)
        img = noisy_compound_band(128, 128)
        assert self.traced_peak(cdbm3d._collect_groups, img, DenoiseConfig()) <= 3.5e6

    def test_filter_working_set_at_128(self, monkeypatch):
        monkeypatch.setattr(cdbm3d, "_raise_malloc_thresholds", lambda: None)
        img = noisy_compound_band(128, 128)
        estimate_sigma(img)  # fill the calibration cache outside the trace
        assert self.traced_peak(denoise_image, img, DenoiseConfig()) <= 5e6

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's dynamic malloc thresholds")
    def test_fresh_process_filters_without_faults(self):
        # In a fresh process glibc maps every block over 128 KiB afresh and
        # trims its heap top past 256 KiB, so each chunk of the collaborative
        # pass faulted its temporaries in again: 2,300 to 2,700 minor faults
        # per call on a 2-vCPU Linux VM.  With the thresholds raised first,
        # the pass reuses the same heap pages call after call.  The sigma is
        # given, so no noise probe runs: its calibration image would raise
        # the thresholds too.
        code = textwrap.dedent("""
            import resource
            import numpy as np
            from hscube import DenoiseConfig, denoise_image
            rng = np.random.default_rng(0)
            img = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
            cfg = DenoiseConfig(sigma=1.0)
            denoise_image(img, cfg)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                denoise_image(img, cfg)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
        """)
        src = str(Path(hs.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=300)
        assert res.returncode == 0, res.stderr
        assert float(res.stdout) < 100


class TestEstimateSigma:
    @pytest.mark.parametrize("sigma", [0.4, 1.3])
    def test_pure_noise_level(self, sigma):
        rng = np.random.default_rng(13)
        img = (sigma / np.sqrt(2)) * (
            rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        )
        est = estimate_sigma(img)
        assert est == pytest.approx(sigma, rel=0.15)

    def test_real_noise_level(self):
        # a real image's coefficients have no imaginary part to pool with
        img = np.random.default_rng(1).normal(size=(64, 64))
        assert estimate_sigma(img) == pytest.approx(1.0, rel=0.1)

    def test_real_image_denoised_with_estimated_sigma(self):
        y, x = np.mgrid[0:64, 0:64]
        clean = np.sin(2 * np.pi * x / 16) + np.cos(2 * np.pi * y / 23)
        noisy = clean + 0.5 * np.random.default_rng(3).normal(size=clean.shape)
        out = denoise_image(noisy, DenoiseConfig())
        rmse = lambda est: np.sqrt(np.mean(np.abs(est - clean) ** 2))
        assert rmse(out) <= 0.5 * rmse(noisy)

    @pytest.mark.parametrize("value", [2 + 1j, 5.0, 0.0])
    def test_constant_image_is_noise_free(self, value):
        assert estimate_sigma(np.full((32, 32), value)) == 0.0

    def test_used_when_config_sigma_missing(self, two_peak_slice):
        truth, noisy, _ = two_peak_slice
        out = denoise_image(noisy, DenoiseConfig())

        def rrmse(est):
            d = hs.wrap_phase(np.angle(est) - np.angle(truth))
            return np.linalg.norm(d) / np.linalg.norm(np.angle(truth))

        assert rrmse(out) < rrmse(noisy)

    @pytest.mark.parametrize("threshold", [0.5, 2.0])
    def test_ignores_match_threshold(self, threshold):
        # a threshold would shrink the probe's groups to single patches,
        # whose cores hold only rounding residue in the tail
        img = random_field(np.random.default_rng(17), (40, 36))
        plain = estimate_sigma(img)
        assert estimate_sigma(img, DenoiseConfig(match_threshold=threshold)) == plain
        assert plain == pytest.approx(np.sqrt(2.0), rel=0.1)

    def test_calibration_does_not_depend_on_call_history(self, monkeypatch):
        img = random_field(np.random.default_rng(16), (48, 48))
        monkeypatch.setattr(cdbm3d, "_SIGMA_CALIBRATION", {})
        cold = estimate_sigma(img)
        for other in (DenoiseConfig(search_radius=3), DenoiseConfig(match_threshold=0.0)):
            monkeypatch.setattr(cdbm3d, "_SIGMA_CALIBRATION", {})
            estimate_sigma(img, other)
            assert estimate_sigma(img) == cold

    def test_calibration_keyed_on_the_probe_geometry(self, monkeypatch):
        img = random_field(np.random.default_rng(18), (24, 24))
        monkeypatch.setattr(cdbm3d, "_SIGMA_CALIBRATION", {})
        base = DenoiseConfig()
        shared = [
            replace(base, hard_threshold_factor=1.0),
            replace(base, stages=Stages.THRESHOLD_ONLY),
            replace(base, sigma=0.5),
            replace(base, match_threshold=0.3),
            replace(base, variant=Variant.COMPLEX_3D),
            replace(base, max_group_size=16),  # the probe's groups hold at most 8
        ]
        plain = estimate_sigma(img, base)
        assert [estimate_sigma(img, cfg) for cfg in shared] == [plain] * len(shared)
        assert len(cdbm3d._SIGMA_CALIBRATION) == 1
        for n, cfg in enumerate([replace(base, search_radius=5), replace(base, patch_rows=6),
                                 replace(base, patch_cols=6)], start=2):
            estimate_sigma(img, cfg)
            assert len(cdbm3d._SIGMA_CALIBRATION) == n

    def test_calibration_filled_once_by_pool_workers(self, monkeypatch):
        rng = np.random.default_rng(15)
        images = [random_field(rng, (24, 24)) for _ in range(8)]
        serial = [estimate_sigma(img) for img in images]
        monkeypatch.setattr(cdbm3d, "_SIGMA_CALIBRATION", {})
        calls = []
        tail_mad = cdbm3d._tail_mad

        def counting_tail_mad(image, probe):
            calls.append(image.shape)
            return tail_mad(image, probe)

        monkeypatch.setattr(cdbm3d, "_tail_mad", counting_tail_mad)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_jobs([functools.partial(estimate_sigma, img) for img in images], threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial
        assert len(calls) == len(images) + 1  # one unit-noise probe in all


# peak exponents: inside the safe band [2^-400, 2^400), out of it, and at
# the float64 limits
exponents = st.one_of(
    st.integers(-399, 400), st.integers(-1074, -400), st.integers(401, 1024)
)


class TestScaleSafety:
    """Images out of the safe magnitude band are filtered at the power-of-two
    scale that brings their peak to [1/2, 1); the result is that scale's
    output scaled back, finite, and never a silent zero."""

    @staticmethod
    def in_range(image):
        """The image brought to [1/2, 1) and the exponent that undoes it."""
        e = peak_exponent(image)
        return scaled(image, -e), e

    @staticmethod
    def outputs(image, cfg):
        """(estimate, sigma estimate), each None where it raised ResultOverflow."""
        out = []
        for f in (denoise_image, estimate_sigma):
            try:
                out.append(f(image, cfg))
            except ResultOverflow:
                out.append(None)
        return out

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=exponents, real=st.booleans())
    def test_any_magnitude(self, seed, k, real):
        x = random_field(np.random.default_rng(seed), (16, 16))
        if real:
            x = x.real.astype(np.complex128)
        y = scaled(x, k - peak_exponent(x))
        if not np.any(y):  # scaled below the smallest subnormal
            return
        cfg = DenoiseConfig()
        out, sigma = self.outputs(y, cfg)
        if 2.0**-400 <= np.max(np.abs(y.view(np.float64))) < 2.0**400:
            assert np.all(np.isfinite(out)) and np.any(out) and 0 < sigma < np.inf
            return
        canon, e = self.in_range(y)
        expected = scaled(denoise_image(canon, cfg), e)
        if np.all(np.isfinite(expected)):
            assert out.tobytes() == expected.tobytes()
        else:
            assert out is None
        with np.errstate(over="ignore"):
            expected_sigma = np.ldexp(estimate_sigma(canon, cfg), e)
        assert sigma == (expected_sigma if np.isfinite(expected_sigma) else None)

    @pytest.mark.parametrize("factor", [1e-170, 1e-300, 1e300])
    def test_scales_that_used_to_fail(self, factor):
        # unscaled, the Wiener powers underflowed to an all-zero estimate,
        # or the mode Grams overflowed into DecompositionFailed
        img = random_field(np.random.default_rng(21), (24, 24)) * factor
        out = denoise_image(img, DenoiseConfig())
        canon, e = self.in_range(img)
        assert np.any(out)
        assert out.tobytes() == scaled(denoise_image(canon, DenoiseConfig()), e).tobytes()

    def test_given_sigma_is_scaled_with_the_image(self):
        img = random_field(np.random.default_rng(22), (24, 24))
        canon, _ = self.in_range(img)
        cfg = DenoiseConfig(sigma=0.25)
        for e in (-700, 700):
            out = denoise_image(scaled(canon, e), replace(cfg, sigma=math.ldexp(0.25, e)))
            assert out.tobytes() == scaled(denoise_image(canon, cfg), e).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-100, 100),
        sigma=st.sampled_from([None, 0.8]),
        threshold=st.sampled_from([None, 0.0, 1.0, 4.0]),
        variant=st.sampled_from(list(Variant)),
    )
    def test_units_do_not_matter(self, seed, k, sigma, threshold, variant):
        # sigma is a deviation and match_threshold a squared distance
        x = random_field(np.random.default_rng(seed), (20, 20))
        cfg = DenoiseConfig(sigma=sigma, match_threshold=threshold, variant=variant)
        in_units = replace(
            cfg,
            sigma=None if sigma is None else math.ldexp(sigma, k),
            match_threshold=None if threshold is None else math.ldexp(threshold, 2 * k),
        )
        out = denoise_image(scaled(x, k), in_units)
        assert out.tobytes() == scaled(denoise_image(x, cfg), k).tobytes()

    @pytest.mark.parametrize("k", [-450, 450])
    def test_threshold_is_scaled_with_the_image(self, k):
        img = random_field(np.random.default_rng(24), (24, 24))
        canon, _ = self.in_range(img)
        # at this scale a distance of 0.2 splits the groups into many sizes
        cfg = DenoiseConfig(sigma=0.1, match_threshold=0.2)
        in_units = replace(cfg, sigma=math.ldexp(0.1, k), match_threshold=math.ldexp(0.2, 2 * k))
        out = denoise_image(scaled(canon, k), in_units)
        assert out.tobytes() == scaled(denoise_image(canon, cfg), k).tobytes()

    def test_threshold_beyond_float64_cuts_nothing(self):
        img = scaled(random_field(np.random.default_rng(25), (24, 24)), -600)
        canon, e = self.in_range(img)
        out = denoise_image(img, DenoiseConfig(sigma=math.ldexp(0.5, e), match_threshold=1e300))
        expected = denoise_image(canon, DenoiseConfig(sigma=0.5))
        assert out.tobytes() == scaled(expected, e).tobytes()

    def test_huge_sigma_gives_a_finite_estimate(self):
        # sigma^2 overflows; it used to turn every Wiener weight into NaN
        img = random_field(np.random.default_rng(26), (24, 24))
        assert np.all(np.isfinite(denoise_image(img, DenoiseConfig(sigma=1e300))))

    def test_in_band_images_are_not_rescaled(self, monkeypatch):
        img = random_field(np.random.default_rng(23), (16, 16))
        monkeypatch.setattr(cdbm3d, "_ldexp", mock.Mock(side_effect=AssertionError))
        for e in (-399, 0, 399):
            denoise_image(scaled(img, e - peak_exponent(img) + 1), DenoiseConfig())

    def test_result_beyond_float64_fails_typed(self):
        top = np.full((2, 2), 1.5 + 0j)
        assert np.all(cdbm3d._ldexp(top, 1023) == 1.5 * 2.0**1023)
        with pytest.raises(ResultOverflow):
            cdbm3d._ldexp(top, 1024)
