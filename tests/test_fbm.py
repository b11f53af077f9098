"""Grid, sampler and shift behavior of the fractional Brownian layer."""

import numpy as np
import pytest

from roughwz.fbm import (
    FbmParams,
    FbmSampler,
    GridAlignmentError,
    SamplePath,
    TimeGrid,
    fbm_covariance,
    path_rng,
    wiener_shift,
)


class TestTimeGrid:
    def test_nodes_anchor_zero_exactly(self):
        g = TimeGrid(-1.0, 2.0, 12)
        assert g.h == pytest.approx(0.25)
        assert g.times[g.zero_index] == 0.0
        assert g.n_nodes == 13
        # Zero-anchored construction: every node is an exact multiple of h.
        assert np.array_equal(g.times, (np.arange(13) - g.zero_index) * 0.25)

    def test_index_roundtrip(self):
        g = TimeGrid(-2.0, 2.0, 16)
        for i, t in enumerate(g.times):
            assert g.index_of(t) == i

    def test_off_grid_time_rejected(self):
        g = TimeGrid(-1.0, 1.0, 8)
        with pytest.raises(GridAlignmentError):
            g.index_of(0.3)

    def test_extended_keeps_left_origin_alignment(self):
        g = TimeGrid(0.0, 1.0, 4)
        ext = g.extended(3)
        assert ext.n_steps == 7
        assert ext.t_min == g.t_min
        assert ext.h == pytest.approx(g.h)
        assert ext.index_of(1.0) == 4

    def test_window_and_compatibility(self):
        g = TimeGrid(-1.0, 1.0, 8)
        w = g.window(2, 6)
        assert w.t_min == pytest.approx(-0.5)
        assert w.t_max == pytest.approx(0.5)
        assert g.is_compatible(TimeGrid(-1.0, 1.0, 8))
        assert not g.is_compatible(TimeGrid(-1.0, 1.0, 4))

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)

    @pytest.mark.parametrize("n_steps, ok", [(2.5, False), (True, False), (np.int64(4), True)])
    def test_n_steps_must_be_an_integer(self, n_steps, ok):
        # A grid counts whole steps; a bool is not a count.
        if ok:
            assert np.array_equal(TimeGrid(0.0, 1.0, n_steps).times, TimeGrid(0.0, 1.0, 4).times)
        else:
            with pytest.raises(ValueError, match="n_steps"):
                TimeGrid(0.0, 1.0, n_steps)


class TestSamplePath:
    def test_zero_node_must_vanish(self):
        g = TimeGrid(-1.0, 1.0, 4)
        with pytest.raises(ValueError):
            SamplePath(g, np.ones((5, 1)))

    def test_value_at_and_window(self):
        g = TimeGrid(0.0, 1.0, 4)
        vals = np.arange(10, dtype=float).reshape(5, 2)
        vals[0] = 0.0
        path = SamplePath(g, vals)
        assert path.d == 2
        assert np.array_equal(path.value_at(0.5), vals[2])
        sub = SamplePath(g.window(0, 3), path.values[:4])
        assert sub.grid.t_max == pytest.approx(0.75)
        assert np.array_equal(sub.values, vals[:4])

    @pytest.mark.parametrize("shape", [(5, 2), (5,)])
    def test_values_read_only_and_callers_array_left_writeable(self, shape):
        vals = np.zeros(shape)
        path = SamplePath(TimeGrid(0.0, 1.0, 4), vals)
        assert vals.flags.writeable
        assert not path.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            path.values[1] = 1.0
        vals[1] = 2.0  # the caller may still write its own array, which the path copied
        assert path.values[1, 0] == 0.0
        # A read-only array is copied too: the path always owns its values.
        vals.setflags(write=False)
        assert not np.shares_memory(SamplePath(TimeGrid(0.0, 1.0, 4), vals).values, vals)

    def test_window_must_keep_time_zero(self):
        # Every grid spans 0 so the vanishing-at-zero anchor stays meaningful.
        g = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(GridAlignmentError):
            SamplePath(g.window(1, 3), np.zeros((3, 1)))


def test_covariance_frozen_values():
    # 0.5 * (1 + 2^0.8 - 1) = 2^(-0.2) for H = 0.4 at (s, t) = (1, 2).
    assert fbm_covariance(1.0, 2.0, 0.4) == pytest.approx(0.8705505632961241, abs=1e-15)
    assert fbm_covariance(1.0, 1.0, 0.45) == 1.0
    # Opposite-sign times decorrelate exactly at H = 1/2.
    assert fbm_covariance(-1.0, 1.0, 0.5) == 0.0


def test_covariance_reduces_to_min_kernel_at_half():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s, t = rng.uniform(0.01, 3.0, size=2)
        assert fbm_covariance(s, t, 0.5) == pytest.approx(min(s, t), rel=1e-12)


def test_covariance_symmetry_and_scaling():
    rng = np.random.default_rng(8)
    for _ in range(50):
        s, t = rng.uniform(-2.0, 2.0, size=2)
        H = rng.uniform(0.34, 0.5)
        assert fbm_covariance(s, t, H) == pytest.approx(fbm_covariance(t, s, H), rel=1e-12)
        # Self-similarity: R(cs, ct) = c^{2H} R(s, t) for c > 0.
        c = rng.uniform(0.5, 2.0)
        assert fbm_covariance(c * s, c * t, H) == pytest.approx(
            c ** (2 * H) * fbm_covariance(s, t, H), rel=1e-10, abs=1e-14
        )


@pytest.mark.parametrize("bad_h", [0.2, 1.0 / 3.0, 0.51, 0.75])
def test_hurst_range_enforced(bad_h):
    with pytest.raises(ValueError):
        FbmParams(H=bad_h)


def test_path_rng_streams_are_keyed():
    a = path_rng(3, 5).standard_normal(4)
    b = path_rng(3, 5).standard_normal(4)
    c = path_rng(3, 6).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


class TestSampler:
    def test_sample_is_deterministic_per_counter(self):
        g = TimeGrid(-1.0, 1.0, 32)
        sampler = FbmSampler(g, FbmParams(H=0.4, d=2, seed=11))
        p1 = sampler.sample(4)
        p2 = sampler.sample(4)
        p3 = sampler.sample(5)
        assert np.array_equal(p1.values, p2.values)
        assert not np.array_equal(p1.values, p3.values)
        assert p1.values[g.zero_index].tolist() == [0.0, 0.0]

    def test_sample_values_matches_individual_draws(self):
        g = TimeGrid(0.0, 1.0, 16)
        sampler = FbmSampler(g, FbmParams(H=0.45, d=1, seed=2))
        block = sampler.sample_values(3, start_counter=7)
        for i in range(3):
            assert np.array_equal(block[i], sampler.sample(7 + i).values)

    @pytest.mark.parametrize(
        "grid", [(-1.0, 1.0, 32), (-0.5, 1.5, 128), (0.0, 1.0, 64), (-0.25, 0.0, 1)]
    )
    @pytest.mark.parametrize("H", [0.34, 0.4, 0.45, 0.5])
    def test_linear_map_has_exact_covariance(self, grid, H, monkeypatch):
        # Feed unit vectors for the real and the imaginary normals, one per
        # component: column j of the draw is then column j of the sampler's
        # linear map, and values @ values.T is the covariance it implies.
        g = TimeGrid(*grid)
        m = 2 * g.n_steps
        eye, zero = np.eye(m), np.zeros((m, m))

        class UnitNormals:
            def __init__(self):
                self.blocks = [np.hstack([eye, zero]), np.hstack([zero, eye])]

            def standard_normal(self, shape):
                assert shape == (m, 2 * m)
                return self.blocks.pop(0)

        monkeypatch.setattr("roughwz.fbm.path_rng", lambda seed, counter: UnitNormals())
        vals = FbmSampler(g, FbmParams(H=H, d=2 * m)).sample().values
        t = g.times
        expected = fbm_covariance(t[:, None], t[None, :], H)
        assert np.max(np.abs(vals @ vals.T - expected)) <= 1e-12

    def test_draws_on_fine_grids(self):
        # 2^16 steps: far beyond what a dense covariance factor fits in memory.
        g = TimeGrid(-1.0, 1.0, 2**16)
        sampler = FbmSampler(g, FbmParams(H=0.34, d=1, seed=4))
        vals = sampler.sample(0).values[:, 0]
        assert vals[g.zero_index] == 0.0
        assert np.all(np.isfinite(vals))
        # Seeded: the normalised squared increments average to 1.
        ratio = np.mean(np.diff(vals) ** 2) / g.h**0.68
        assert abs(ratio - 1.0) < 0.05

    def test_components_are_independent_draws(self):
        g = TimeGrid(0.0, 1.0, 8)
        p = FbmSampler(g, FbmParams(H=0.5, d=3, seed=1)).sample(0)
        assert p.values.shape == (9, 3)
        assert not np.allclose(p.values[:, 0], p.values[:, 1])

    def test_empirical_covariance_tracks_kernel(self):
        # Statistical but fully seeded, so the numbers are reproducible.
        g = TimeGrid(-0.5, 1.0, 12)
        sampler = FbmSampler(g, FbmParams(H=0.4, d=1, seed=99))
        vals = sampler.sample_values(4000)[:, :, 0]
        pairs = [(-0.5, 0.25), (0.25, 1.0), (-0.25, -0.125), (1.0, 1.0)]
        for s, t in pairs:
            prod = vals[:, g.index_of(s)] * vals[:, g.index_of(t)]
            se = prod.std(ddof=1) / np.sqrt(len(prod))
            assert abs(prod.mean() - fbm_covariance(s, t, 0.4)) < 5 * se

    def test_half_hurst_increments_are_white(self):
        # H = 1/2 restricted to positive times is standard Brownian motion:
        # disjoint increments are uncorrelated.
        g = TimeGrid(0.0, 1.0, 8)
        sampler = FbmSampler(g, FbmParams(H=0.5, d=1, seed=123))
        vals = sampler.sample_values(6000)[:, :, 0]
        a = vals[:, 2] - vals[:, 0]
        b = vals[:, 6] - vals[:, 4]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4 / np.sqrt(len(a))


class TestWienerShift:
    def test_shift_is_increment_recentring(self):
        g = TimeGrid(-1.0, 1.0, 8)
        p = FbmSampler(g, FbmParams(H=0.45, d=2, seed=5)).sample(3)
        sh = wiener_shift(p, 0.5)
        i0 = g.index_of(0.5)
        assert sh.grid.t_min == pytest.approx(-1.5)
        assert sh.grid.t_max == pytest.approx(0.5)
        assert np.array_equal(sh.values, p.values - p.values[i0])

    def test_zero_shift_is_identity(self):
        g = TimeGrid(-1.0, 1.0, 8)
        p = FbmSampler(g, FbmParams(H=0.4, d=1, seed=6)).sample(0)
        sh = wiener_shift(p, 0.0)
        assert np.array_equal(sh.values, p.values)

    def test_off_grid_shift_rejected(self):
        g = TimeGrid(-1.0, 1.0, 8)
        p = FbmSampler(g, FbmParams(H=0.4, d=1, seed=6)).sample(0)
        with pytest.raises(GridAlignmentError):
            wiener_shift(p, 0.3)

    def test_two_shifts_compose(self):
        g = TimeGrid(-2.0, 2.0, 16)
        p = FbmSampler(g, FbmParams(H=0.45, d=1, seed=9)).sample(0)
        once = wiener_shift(wiener_shift(p, 0.5), 0.25)
        both = wiener_shift(p, 0.75)
        assert once.grid.t_min == pytest.approx(both.grid.t_min)
        assert np.allclose(once.values, both.values, rtol=0, atol=1e-12)
