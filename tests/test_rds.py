"""Shift operator on lifted drivers and the restart identity for solutions."""

import dataclasses
import itertools

import numpy as np
import pytest

from roughwz.fbm import FbmParams, FbmSampler, GridAlignmentError, TimeGrid, wiener_shift
from roughwz.lift import lift_left_riemann
from roughwz.rde import builtin_vector_field
from roughwz.rds import CocycleProbe, cocycle_residual, shift_rough_path
from roughwz.wongzakai import w_delta


class TestShiftRoughPath:
    def test_translates_window_and_keeps_blocks(self):
        grid = TimeGrid(0.0, 1.0, 16)
        rp = lift_left_riemann(FbmSampler(grid, FbmParams(H=0.4, d=2, seed=91)).sample(0))
        sh = shift_rough_path(rp, 0.5)
        assert sh.grid.t_min == pytest.approx(-0.5)
        assert sh.grid.t_max == pytest.approx(0.5)
        # Increment data is shared, so block reads are bit-identical.
        assert np.array_equal(sh.level1(3, 11), rp.level1(3, 11))
        assert np.array_equal(sh.level2(3, 11), rp.level2(3, 11))

    def test_off_grid_shift_rejected(self):
        grid = TimeGrid(0.0, 1.0, 16)
        rp = lift_left_riemann(FbmSampler(grid, FbmParams(H=0.4, d=1, seed=92)).sample(0))
        with pytest.raises(GridAlignmentError):
            shift_rough_path(rp, 0.03)

    def test_full_shift_puts_zero_at_right_edge(self):
        grid = TimeGrid(0.0, 1.0, 8)
        rp = lift_left_riemann(FbmSampler(grid, FbmParams(H=0.45, d=1, seed=93)).sample(0))
        sh = shift_rough_path(rp, 1.0)
        assert sh.grid.t_max == pytest.approx(0.0)
        assert sh.grid.zero_index == 8


def test_smoothing_commutes_with_shift():
    # Smoothing then recentring equals recentring then smoothing: the window
    # integrals only see increments, so the anchor constants drop out.
    grid = TimeGrid(-0.5, 1.5, 64)
    path = FbmSampler(grid, FbmParams(H=0.45, d=2, seed=94)).sample(2)
    for tau in (0.25, 0.5, 1.0):
        left = w_delta(wiener_shift(path, tau), 4)
        right = wiener_shift(w_delta(path, 4), tau)
        assert left.grid.t_min == pytest.approx(right.grid.t_min)
        assert np.allclose(left.values, right.values, rtol=0, atol=1e-12)


class TestCocycleProbe:
    def test_validation(self):
        fp = FbmParams(H=0.45, d=2, seed=1)
        with pytest.raises(ValueError):
            CocycleProbe(t1=0.0, t2=0.5, y0=np.zeros(2), seed=0, fbm=fp)
        with pytest.raises(ValueError):
            CocycleProbe(t1=0.5, t2=-0.25, y0=np.zeros(2), seed=0, fbm=fp)

    @pytest.mark.parametrize("delta_multiple", [None, 4])
    def test_restart_identity_is_exact(self, delta_multiple):
        vf = builtin_vector_field("sin-g", 2, 2)
        fp = FbmParams(H=0.45, d=2, seed=7)
        for seed in range(4):
            probe = CocycleProbe(
                t1=0.5,
                t2=0.75,
                y0=np.array([0.1, -0.3]),
                seed=seed,
                fbm=fp,
                delta_multiple=delta_multiple,
                steps_per_unit=64,
            )
            assert cocycle_residual(vf, probe) == 0.0

    def test_zero_second_leg(self):
        vf = builtin_vector_field("sin-g", 2, 2)
        probe = CocycleProbe(
            t1=0.5,
            t2=0.0,
            y0=np.zeros(2),
            seed=3,
            fbm=FbmParams(H=0.4, d=2, seed=11),
            steps_per_unit=64,
        )
        assert cocycle_residual(vf, probe) == 0.0

    @pytest.mark.parametrize("delta_multiple", [None, 4])
    def test_residual_sees_a_field_that_changes_between_calls(self, delta_multiple):
        # Negative control for the exact zeros above: a field whose amplitude
        # grows with each evaluation gives the whole solve and the restarted
        # legs other coefficients at the same node, and the residual shows it.
        base = builtin_vector_field("sin-g", 2, 2)
        calls = itertools.count()
        vf = dataclasses.replace(base, g=lambda y: (1.0 + 1e-3 * next(calls)) * base.g(y))
        probe = CocycleProbe(
            t1=0.5,
            t2=0.75,
            y0=np.array([0.1, -0.3]),
            seed=0,
            fbm=FbmParams(H=0.45, d=2, seed=7),
            delta_multiple=delta_multiple,
            steps_per_unit=64,
        )
        assert cocycle_residual(vf, probe) > 1e-6

    def test_restart_comparison_is_sensitive(self):
        # The exact-zero residual is meaningful only if restarting from the
        # wrong state would actually diverge; check that it does.
        from roughwz.rde import solve_rde

        vf = builtin_vector_field("sin-g", 2, 2)
        grid = TimeGrid(0.0, 1.0, 64)
        rp = lift_left_riemann(FbmSampler(grid, FbmParams(H=0.45, d=2, seed=13)).sample(0))
        whole = solve_rde(vf, rp, np.array([0.2, 0.2]))
        n1 = 32
        shifted = shift_rough_path(rp.restrict(n1, 64), 0.5)
        y_mid = whole.values[n1]
        good = solve_rde(vf, shifted, y_mid)
        assert np.array_equal(good.values[-1], whole.values[-1])
        bad = solve_rde(vf, shifted, y_mid + np.array([0.0, 1e-3]))
        assert np.abs(bad.values[-1] - whole.values[-1]).max() > 1e-5
