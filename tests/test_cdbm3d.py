import functools
import itertools
import sys
import tracemalloc
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
from hscube.errors import DimensionMismatch, InvalidConfig, OutOfBounds
from hscube.parallel import run_jobs


def random_field(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


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


class TestBlockMatch:
    def test_constant_image_scan_order(self):
        img = np.ones((24, 24), complex)
        cfg = DenoiseConfig(sigma=1.0, max_group_size=5)
        group = block_match(img, (0, 0), cfg)
        assert group.size == 5
        expected = [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
        assert [tuple(c) for c in group.coords] == expected

    def test_reference_always_first(self):
        rng = np.random.default_rng(0)
        img = random_field(rng, (32, 32))
        group = block_match(img, (7, 9), DenoiseConfig(sigma=1.0))
        assert tuple(group.coords[0]) == (7, 9)
        assert np.array_equal(group.tensor[:, :, 0], img[7:15, 9:17])

    def test_lonely_reference_under_threshold(self):
        img = np.zeros((20, 20), complex)
        img[4:8, 4:8] = 10.0  # a block nothing else resembles
        cfg = DenoiseConfig(
            patch_rows=4, patch_cols=4, match_threshold=1.0, sigma=1.0
        )
        group = block_match(img, (4, 4), cfg)
        assert group.size == 1

    def test_exact_copy_is_matched(self):
        rng = np.random.default_rng(1)
        texture = random_field(rng, (6, 6))
        img = np.zeros((30, 30), complex)
        img[2:8, 3:9] = texture
        img[14:20, 10:16] = texture
        cfg = DenoiseConfig(
            patch_rows=6, patch_cols=6, match_threshold=1e-9, sigma=1.0
        )
        group = block_match(img, (2, 3), cfg)
        assert (14, 10) in {tuple(c) for c in group.coords}

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
        assert group.size == 9

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
            group = block_match(img, ref, cfg)
            assert np.array_equal(group.coords, np.stack([rows, cols], axis=1))
            sizes.add(group.size)
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
        tile = data.draw(st.sampled_from([1, 2, cdbm3d._MATCH_TILE]))
        with mock.patch.object(cdbm3d, "_MATCH_TILE", tile):
            groups = cdbm3d._match(img, refs, cfg)
        assert len(groups) == len(refs)
        for ref, (rows, cols) in zip(refs, groups):
            expected_rows, expected_cols = brute_force_members(img, ref, cfg)
            assert rows.tolist() == expected_rows and cols.tolist() == expected_cols


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

    def test_patch_group_input(self):
        rng = np.random.default_rng(6)
        group = block_match(random_field(rng, (20, 20)), (3, 3), DenoiseConfig(sigma=1.0))
        f = hosvd(group)
        assert f.core.shape == group.tensor.shape

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
])
def test_out_of_range_config_is_invalid(field, value):
    with pytest.raises(InvalidConfig):
        DenoiseConfig(**{field: value})


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
    """The collaborative pass takes each size bucket through in chunks of
    ``_GROUP_CHUNK`` groups; the chunk size must not change a bit."""

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
        default = cdbm3d._GROUP_CHUNK
        buckets = cdbm3d._bucket_by_size(cdbm3d._collect_groups(img, DenoiseConfig()))
        assert max(len(b) for b in buckets.values()) > default
        results = []
        for chunk in (1, 7, default):
            monkeypatch.setattr(cdbm3d, "_GROUP_CHUNK", chunk)
            monkeypatch.setattr(cdbm3d, "_SIGMA_CALIBRATION", {})
            results.append([self.outputs(x) for x in inputs])
        assert results[0] == results[2]
        assert results[1] == results[2]

    def test_peak_memory_does_not_grow_with_buckets(self):
        img = random_field(np.random.default_rng(19), (64, 64))
        tracemalloc.start()
        try:
            denoise_image(img, DenoiseConfig(sigma=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40e6


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
