"""Smoothing operator, difference quotients and the smoothed lift."""

import numpy as np
import pytest

from roughwz.fbm import FbmParams, FbmSampler, SamplePath, TimeGrid
from roughwz.lift import geometricity_residual, lift_left_riemann
from roughwz.wongzakai import g_delta, w_delta, ww_delta

from oracles import fit_slope, smoothed_value


def hand_path():
    grid = TimeGrid(0.0, 0.75, 3)
    return SamplePath(grid, np.array([[0.0], [1.0], [3.0], [2.0]]))


def linear_path(v, n=16, t_max=1.0):
    grid = TimeGrid(0.0, t_max, n)
    return SamplePath(grid, grid.times[:, None] * np.asarray(v, float)[None, :])


def smooth_path(n, extra=0):
    grid = TimeGrid(0.0, 1.0, n).extended(extra)
    t = grid.times
    return SamplePath(grid, np.column_stack([np.sin(t), t**2]))


class TestDeltaParam:
    """The width parameter of g_delta, w_delta and ww_delta: k steps, delta = k * h."""

    def test_width_is_multiple_of_step(self):
        w = w_delta(linear_path([1.0], n=8), 4)
        assert w.grid.n_steps == 4
        assert w.grid.t_max == pytest.approx(0.5)

    def test_rejects_nonpositive_multiple(self):
        for op in (g_delta, w_delta, ww_delta):
            for k in (0, -2):
                with pytest.raises(ValueError, match=">= 1"):
                    op(hand_path(), k)

    def test_rejects_width_above_one(self):
        # The path holds 5 steps of 0.25, but delta = 1.25.
        path = SamplePath(TimeGrid(0.0, 1.5, 6), np.zeros(7))
        with pytest.raises(ValueError, match="exceeds 1"):
            w_delta(path, 5)

    def test_rejects_a_width_the_path_cannot_hold(self):
        with pytest.raises(ValueError, match="extended window"):
            w_delta(hand_path(), 3)

    @pytest.mark.parametrize(
        "multiple, ok",
        [(2.5, False), (True, False), (np.int64(2), True), (2.0, False), ("2", False)],
    )
    def test_multiple_must_be_an_integer(self, multiple, ok):
        # A width counts whole grid steps; a bool is not a count.
        path = hand_path()
        if ok:
            assert np.array_equal(w_delta(path, multiple).values, w_delta(path, 2).values)
            return
        for op in (g_delta, w_delta, ww_delta):
            with pytest.raises(ValueError, match="integer"):
                op(path, multiple)


class TestDifferenceQuotient:
    def test_hand_case(self):
        gd = g_delta(hand_path(), 1)
        assert gd.shape == (3, 1)
        assert np.allclose(gd.ravel(), [4.0, 8.0, -4.0])

    def test_constant_on_linear_paths(self):
        p = linear_path([2.0, -1.0])
        gd = g_delta(p, 4)
        assert np.allclose(gd, np.array([2.0, -1.0])[None, :], atol=1e-12)


class TestSmoothing:
    def test_hand_case(self):
        w = w_delta(hand_path(), 1)
        assert w.grid.t_max == pytest.approx(0.5)
        assert np.allclose(w.values.ravel(), [0.0, 1.5, 2.0], atol=1e-15)

    def test_anchored_at_zero_exactly(self):
        grid = TimeGrid(-0.5, 1.0, 24)
        path = FbmSampler(grid, FbmParams(H=0.4, d=2, seed=21)).sample(0)
        w = w_delta(path, 3)
        assert w.values[w.grid.zero_index].tolist() == [0.0, 0.0]

    def test_linear_paths_are_fixed_points(self):
        # Averaging a line over a moving window reproduces the line.
        p = linear_path([3.0, 0.5])
        for k in (1, 2, 4):
            w = w_delta(p, k)
            expect = w.grid.times[:, None] * np.array([3.0, 0.5])[None, :]
            assert np.allclose(w.values, expect, atol=1e-14)

    def test_matches_quadrature_oracle(self):
        grid = TimeGrid(0.0, 1.0, 64)
        path = FbmSampler(grid, FbmParams(H=0.45, d=2, seed=22)).sample(1)
        w = w_delta(path, 5)
        for node in (3, 17, 40, 59):
            want = smoothed_value(grid.times, path.values, grid.times[node], 5 * grid.h)
            assert np.allclose(w.values[node], want, atol=1e-10)

    def test_domain_shrinks_by_window_width(self):
        grid = TimeGrid(0.0, 1.0, 32)
        path = FbmSampler(grid, FbmParams(H=0.4, d=1, seed=23)).sample(0)
        w = w_delta(path, 8)
        assert w.grid.n_steps == 24
        assert w.grid.t_max == pytest.approx(0.75)

    def test_narrower_windows_track_the_path_closer(self):
        # RMS over nodes and 32 paths: on a single path the node RMS fails
        # to decrease strictly along the ladder for about 3 paths in 10.
        grid = TimeGrid(0.0, 1.0, 256)
        sampler = FbmSampler(grid, FbmParams(H=0.4, d=1, seed=24))
        paths = [sampler.sample(i) for i in range(32)]
        errs = []
        for k in (32, 16, 8, 4, 2):
            sq = []
            for path in paths:
                w = w_delta(path, k)
                n = w.grid.n_steps
                sq.append((w.values[: n + 1] - path.values[: n + 1]) ** 2)
            errs.append(float(np.sqrt(np.mean(sq))))
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestSmoothedLift:
    def test_geometric_to_rounding(self):
        # The antisymmetric quadrature term folds into the prefix sums, so
        # the symmetric defect carries a few ulps rather than exact zeros.
        grid = TimeGrid(0.0, 1.0, 64)
        path = FbmSampler(grid, FbmParams(H=0.45, d=2, seed=25)).sample(0)
        rp = ww_delta(path, 4)
        assert geometricity_residual(rp) < 1e-15

    def test_level1_is_smoothed_path(self):
        grid = TimeGrid(0.0, 1.0, 32)
        path = FbmSampler(grid, FbmParams(H=0.4, d=2, seed=26)).sample(1)
        rp = ww_delta(path, 2)
        w = w_delta(path, 2)
        assert np.allclose(rp.values, w.values, atol=1e-14)

    def test_linear_case_closed_form(self):
        p = linear_path([2.0, 5.0])
        rp = ww_delta(p, 2)
        n = rp.n_steps
        t = rp.grid.t_max
        assert np.allclose(rp.level1(0, n), np.array([2.0, 5.0]) * t, atol=1e-13)
        assert np.allclose(rp.level2(0, n), 0.5 * np.outer([2, 5], [2, 5]) * t**2, atol=1e-13)

    def test_second_level_converges_linearly_on_smooth_input(self):
        # W_delta(t) - omega(t) = (delta/2)(omega'(t) - omega'(0)) + O(delta^2)
        # for twice differentiable input, so first order is the true rate
        # here; only straight lines kill the leading term.
        n = 512
        base = smooth_path(n, extra=64)
        t = TimeGrid(0.0, 1.0, n).times
        from roughwz.lift import lift_smooth_quadrature

        deriv = np.column_stack([np.cos(base.grid.times), 2 * base.grid.times])
        truth = lift_smooth_quadrature(
            SamplePath(TimeGrid(0.0, 1.0, n), np.column_stack([np.sin(t), t**2])),
            derivative=deriv[: n + 1],
        ).level2(0, n)
        deltas, errs = [], []
        for k in (32, 16, 8, 4):
            rp = ww_delta(base, k)
            got = rp.level2(0, n)
            deltas.append(k * base.grid.h)
            errs.append(float(np.abs(got - truth).max()))
        assert 0.9 < fit_slope(deltas, errs) < 1.3

    def test_paired_ladder_shrinks_toward_true_lift(self):
        grid = TimeGrid(0.0, 1.0, 128).extended(16)
        path = FbmSampler(grid, FbmParams(H=0.45, d=2, seed=27)).sample(3)
        truth = lift_left_riemann(path).restrict(0, 128)
        sups = []
        for k in (16, 8, 4, 2, 1):
            rp = ww_delta(path, k).restrict(0, 128)
            sups.append(float(np.abs(rp.values - truth.values).max()))
        assert all(a > b for a, b in zip(sups, sups[1:]))
