"""Vector fields, the one-step solver, controlled paths and solution distances."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from roughwz import rde
from roughwz.fbm import FbmParams, FbmSampler, SamplePath, TimeGrid
from roughwz.lift import GridRoughPath, lift_left_riemann, lift_smooth_quadrature
from roughwz.norms import (
    greedy_stopping_times,
    holder_seminorm,
    homogeneous_pvar_norm,
    pvar_level2,
    pvar_level2_distance,
    pvar_seminorm,
    rho_alpha_metric,
    rho_pvar_metric,
)
from roughwz.rde import (
    VECTOR_FIELD_CATALOG,
    ControlledPath,
    SolverBlowUpError,
    VectorField,
    builtin_vector_field,
    solution_distance,
    solve_rde,
)
from roughwz.rds import CocycleProbe

from oracles import fd_jacobian, fit_slope, rk4_path_ode
from test_conformance import ROWS, assert_rows

# Tests that only call assert_rows moved into tests/test_conformance.py; they
# keep their ids and read the result of the rows that hold their cases.


def linear_lift(n, t_max=1.0):
    grid = TimeGrid(0.0, t_max, n)
    return lift_left_riemann(SamplePath(grid, grid.times[:, None].copy()))


def fbm_lift(n, seed, d=2, H=0.45, counter=0):
    grid = TimeGrid(0.0, 1.0, n)
    return lift_left_riemann(FbmSampler(grid, FbmParams(H=H, d=d, seed=seed)).sample(counter))


def smooth_driver(n):
    grid = TimeGrid(0.0, 1.0, n)
    t = grid.times
    path = SamplePath(grid, np.column_stack([np.sin(t), t**2]))
    return lift_smooth_quadrature(path, np.column_stack([np.cos(t), 2 * t])), t


class TestVectorFields:
    def test_catalog_names(self):
        assert set(VECTOR_FIELD_CATALOG) == {"additive", "drift-only", "linear-g", "sin-g"}
        with pytest.raises(ValueError):
            builtin_vector_field("banana")

    @pytest.mark.parametrize(
        "name, params", [("sin-g", {"ampp": 3.0, "rate": 5.0}), ("additive", {"scale": 9.0})]
    )
    def test_unknown_parameters_are_refused(self, name, params):
        with pytest.raises(ValueError) as exc:
            builtin_vector_field(name, 2, 2, **params)
        assert all(repr(key) in str(exc.value) for key in params)

    def test_builtin_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(65)
        pts = rng.standard_normal((20, 2))
        for name in ("sin-g", "linear-g", "additive"):
            vf = builtin_vector_field(name, 2, 2)
            for y in pts:
                ana = vf.dg(y)
                scale = max(1.0, float(np.abs(ana).max()))
                assert np.abs(ana - fd_jacobian(vf.g, y)).max() / scale < 1e-8

    def test_dg_layout_is_partial_by_state(self):
        # dg[a, b, e] must be the e-th state partial of g^{a b}.
        vf = builtin_vector_field("sin-g", 2, 2)
        y = np.array([0.3, -0.7])
        num = fd_jacobian(vf.g, y)
        assert np.allclose(vf.dg(y), num, atol=1e-8)

    def test_lipschitz_data(self):
        vf = builtin_vector_field("sin-g", 2, 2, amp=0.25, drift=0.25)
        y = np.array([0.2, 0.4])
        assert np.allclose(vf.f(y), 0.25 * np.cos(y))

    def test_sin_g_bound_is_respected(self):
        vf = builtin_vector_field("sin-g", 3, 2, amp=0.4)
        rng = np.random.default_rng(67)
        for y in rng.standard_normal((50, 3)) * 5:
            assert np.linalg.norm(vf.g(y)) <= 0.4 * math.sqrt(6) + 1e-12


class TestSolverOracles:
    def test_additive_noise_is_exact(self):
        rp = fbm_lift(32, seed=72)
        vf = builtin_vector_field("additive", 2, 2)
        y0 = np.array([1.0, -2.0])
        cp = solve_rde(vf, rp, y0)
        expect = y0[None, :] + rp.values @ vf.g(np.zeros(2)).T
        assert np.abs(cp.values - expect).max() < 1e-14

    def test_growth_drift_matches_euler_error_law(self):
        # rate=-1 turns the dissipative builtin into dy = y dt; the explicit
        # step then carries the classical e/(2n) global error at t=1.
        for n in (200, 1000):
            vf = builtin_vector_field("drift-only", 1, 1, rate=-1.0)
            cp = solve_rde(vf, linear_lift(n), np.ones(1))
            err = abs(cp.values[-1, 0] - math.e)
            assert err == pytest.approx(math.e / (2 * n), rel=0.02)

    def test_linear_g_is_second_order(self):
        # dy = y dω with ω(t) = t gives e at t=1; the second-level term
        # upgrades the step to second order with error close to e/(6n^2).
        errs = []
        for n in (50, 100, 200):
            vf = builtin_vector_field("linear-g", 1, 1)
            cp = solve_rde(vf, linear_lift(n), np.ones(1))
            errs.append(abs(cp.values[-1, 0] - math.e))
            assert errs[-1] == pytest.approx(math.e / (6 * n * n), rel=0.02)
        assert fit_slope([1 / 50, 1 / 100, 1 / 200], errs) > 1.95

    def test_smooth_driver_tracks_rk4_reference(self):
        vf = builtin_vector_field("sin-g", 2, 2)
        y0 = np.array([0.1, -0.2])
        errs = []
        for n in (128, 256, 512):
            rp, t = smooth_driver(n)
            cp = solve_rde(vf, rp, y0)
            rhs = lambda tt, yy: vf.f(yy) + vf.g(yy) @ np.array([np.cos(tt), 2 * tt])
            ref = rk4_path_ode(rhs, y0, t)
            errs.append(float(np.abs(cp.values - ref).max()))
        # Euler handles the drift term, so order one once drift is on.
        assert errs[-1] < 2e-4
        assert 0.9 < fit_slope([1 / 128, 1 / 256, 1 / 512], errs) < 1.2

    def test_driftless_smooth_driver_is_second_order(self):
        vf = builtin_vector_field("sin-g", 2, 2, drift=0.0)
        y0 = np.array([0.1, -0.2])
        errs = []
        for n in (64, 128, 256):
            rp, t = smooth_driver(n)
            cp = solve_rde(vf, rp, y0)
            rhs = lambda tt, yy: vf.g(yy) @ np.array([np.cos(tt), 2 * tt])
            ref = rk4_path_ode(rhs, y0, t)
            errs.append(float(np.abs(cp.values - ref).max()))
        assert fit_slope([1 / 64, 1 / 128, 1 / 256], errs) > 1.9

    def test_dimension_mismatch_rejected(self):
        vf = builtin_vector_field("sin-g", 2, 2)
        with pytest.raises(ValueError):
            solve_rde(vf, linear_lift(8), np.zeros(2))

    def test_blow_up_is_reported_with_location(self):
        vf = VectorField(
            m=1,
            d=1,
            f=lambda y: 1e300 * y,
            g=lambda y: np.zeros((1, 1)),
            dg=lambda y: np.zeros((1, 1, 1)),
        )
        with pytest.raises(SolverBlowUpError) as exc:
            solve_rde(vf, linear_lift(16), np.ones(1))
        assert exc.value.node_index >= 1
        assert 0.0 < exc.value.time <= 1.0

    def test_non_finite_start_is_a_blow_up_at_node_zero(self):
        # The one blow-up rule: a lone driver raises at the first non-finite
        # node, and every member of a stack is NaN from that node on.
        vf = builtin_vector_field("sin-g", 2, 2)
        y0 = np.array([np.inf, 0.0])
        rp = fbm_lift(16, seed=75)
        with pytest.raises(SolverBlowUpError) as exc:
            solve_rde(vf, rp, y0)
        assert (exc.value.node_index, exc.value.time) == (0, 0.0)
        assert np.isnan(solve_rde(vf, GridRoughPath.stack((rp, rp)), y0).values).all()


def overflowing_lift(n, node, seed=86):
    """An fBm lift whose increment into `node` is so large that its level 2 is infinite."""
    grid = TimeGrid(0.0, 1.0, n)
    vals = FbmSampler(grid, FbmParams(H=0.45, d=2, seed=seed)).sample(0).values.copy()
    vals[node:] += 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        return lift_left_riemann(SamplePath(grid, vals))


class TestBatchedSolver:
    # A lone driver is a stack with no member axes: the step runs the same
    # numpy operations, each contraction one matmul, on stacked states as on
    # one state, so a member is bit-identical to its lone solve at every m and d.
    @pytest.mark.parametrize(
        "name, m", [("additive", 3), ("drift-only", 2), ("linear-g", 2), ("sin-g", 2), ("sin-g", 3)]
    )
    @pytest.mark.parametrize("size", [1, 6])
    def test_batch_matches_per_driver_solves(self, name, m, size):
        vf = builtin_vector_field(name, m, 2)
        y0 = np.linspace(0.4, -0.3, m)
        members = [fbm_lift(64, seed=85, counter=k) for k in range(size)]
        solved = solve_rde(vf, GridRoughPath.stack(members), y0)
        assert solved.values.shape == (65, size, m)
        assert np.isfinite(solved.values).all()
        for k, rp in enumerate(members):
            cp = solved.member(k)
            solo = solve_rde(vf, rp, y0)
            assert np.array_equal(cp.driver.values, rp.values)
            assert np.array_equal(cp.values, solo.values)
            assert np.array_equal(cp.gubinelli, solo.gubinelli)

    @pytest.mark.parametrize("name", VECTOR_FIELD_CATALOG)
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("size", [1, 6])
    def test_batch_matches_per_driver_solves_at_m_equal_d(self, name, m, size):
        vf = builtin_vector_field(name, m, m)
        y0 = np.linspace(0.4, -0.3, m)
        members = [fbm_lift(64, seed=85, d=m, counter=k) for k in range(size)]
        solved = solve_rde(vf, GridRoughPath.stack(members), y0)
        for k, rp in enumerate(members):
            solo = solve_rde(vf, rp, y0)
            assert np.array_equal(solved.member(k).values, solo.values)
            assert np.array_equal(solved.member(k).gubinelli, solo.gubinelli)

    def test_blown_up_member_is_masked_and_located(self):
        vf = builtin_vector_field("linear-g", 2, 2)
        y0 = np.array([1.0, -0.5])
        members = [fbm_lift(32, seed=87, counter=k) for k in range(6)]
        members[3] = overflowing_lift(32, node=12)
        solved = solve_rde(vf, GridRoughPath.stack(members), y0)
        with pytest.raises(SolverBlowUpError) as exc:
            solve_rde(vf, members[3], y0)
        assert exc.value.node_index == 12
        blown = solved.member(3)
        assert np.isnan(blown.values[12:]).all()
        assert np.isnan(blown.gubinelli[12:]).all()
        # Before the blow-up the member is its own solve up to node 11.
        early = solve_rde(vf, members[3].restrict(0, 11), y0)
        assert np.array_equal(blown.values[:12], early.values)
        assert np.array_equal(blown.gubinelli[:12], early.gubinelli)
        for k in (0, 1, 2, 4, 5):
            solo = solve_rde(vf, members[k], y0)
            assert np.array_equal(solved.member(k).values, solo.values)
            assert np.array_equal(solved.member(k).gubinelli, solo.gubinelli)

    def test_members_blow_up_at_their_own_nodes(self):
        # Member 4 leaves the finite range before member 1 does; each is NaN
        # from its own node on, and nothing else is.
        vf = builtin_vector_field("linear-g", 2, 2)
        members = [fbm_lift(32, seed=89, counter=k) for k in range(6)]
        members[1] = overflowing_lift(32, node=20)
        members[4] = overflowing_lift(32, node=9)
        nan = np.isnan(solve_rde(vf, GridRoughPath.stack(members), np.ones(2)).values)
        first = {k: int(np.argmax(nan[:, k].any(axis=-1))) for k in range(6) if nan[:, k].any()}
        assert first == {1: 20, 4: 9}
        for k, node in first.items():
            assert nan[node:, k].all() and not nan[:node, k].any()

    def test_batch_members_must_share_grid_and_dimension(self):
        with pytest.raises(ValueError):
            GridRoughPath.stack(())
        with pytest.raises(ValueError):
            GridRoughPath.stack((fbm_lift(16, seed=88), fbm_lift(32, seed=88)))
        with pytest.raises(ValueError):
            GridRoughPath.stack((fbm_lift(16, seed=88), fbm_lift(16, seed=88, d=1)))
        pair = GridRoughPath.stack((fbm_lift(16, seed=88), fbm_lift(16, seed=88, counter=1)))
        with pytest.raises(ValueError, match="member axes"):
            ControlledPath(np.zeros((17, 3, 2)), np.zeros((17, 3, 2, 2)), driver=pair)
        cp = ControlledPath(np.zeros((17, 2, 3)), np.zeros((17, 2, 3, 2)), driver=pair)
        assert cp.member(slice(1, None)).values.shape == (17, 1, 3)
        assert cp.member(0).driver.inc1.shape == (16, 2)


class TestControlledPaths:
    def test_remainder_block_hand_case(self):
        grid = TimeGrid(0.0, 0.5, 2)
        driver_vals = np.array([[0.0], [1.0], [3.0]])
        driver = lift_left_riemann(SamplePath(grid, driver_vals))
        cp = ControlledPath(np.array([[0.0], [1.0], [3.0]]), np.full((3, 1, 1), 2.0), driver=driver)
        zero = ControlledPath(np.zeros((3, 1)), np.zeros((3, 1, 1)), driver=driver)
        # R_{u,2} = y_{u,2} - 2 x_{u,2} for u = 0, 1, less the zero path's remainder.
        blk = rde._remainder_gaps(cp, zero)(slice(0, 2), 2)
        assert np.allclose(blk.ravel(), [-3.0, -2.0])

    def test_value_shape_is_members_then_one_axis(self):
        # Against a driver the values are (n_nodes, *members, m); an (m, d)
        # array is refused, not broadcast against X1.
        rp = fbm_lift(8, seed=74)
        pair = GridRoughPath.stack((rp, rp))
        for driver, shape in ((rp, (9, 2, 2)), (rp, (9,)), (pair, (9, 2, 3, 2))):
            with pytest.raises(ValueError, match=re.escape(str(shape))):
                ControlledPath(np.zeros(shape), np.zeros(shape + (2,)), driver=driver)

    def test_slice_rows_equal_index_array_rows(self):
        assert_rows("level1,level2,remainder[slices,index arrays]~ints,slices")

    def test_solution_gubinelli_is_g_of_y(self):
        rp = fbm_lift(32, seed=73)
        vf = builtin_vector_field("sin-g", 2, 2)
        cp = solve_rde(vf, rp, np.zeros(2))
        for u in (0, 7, 32):
            assert np.allclose(cp.gubinelli[u], vf.g(cp.values[u]))

class TestDistancesAndBounds:
    def test_solution_distance_zero_on_identical(self):
        rp = fbm_lift(32, seed=76)
        vf = builtin_vector_field("sin-g", 2, 2)
        cp = solve_rde(vf, rp, np.zeros(2))
        dist = solution_distance(cp, cp, 2.8)
        assert (dist.sup, dist.pvar, dist.remainder_qvar) == (0.0, 0.0, 0.0)

    def test_different_state_dimensions_rejected(self):
        rp = fbm_lift(8, seed=79)
        a = solve_rde(builtin_vector_field("sin-g", 2, 2), rp, np.zeros(2))
        b = solve_rde(builtin_vector_field("sin-g", 3, 2), rp, np.zeros(3))
        with pytest.raises(ValueError, match="state dimensions m=2 and m=3"):
            solution_distance(a, b, 2.8)

    def test_constant_offset_moves_only_sup(self):
        rp = fbm_lift(32, seed=77)
        vf = builtin_vector_field("sin-g", 2, 2)
        a = solve_rde(vf, rp, np.zeros(2))
        shift = np.array([0.3, -0.4])
        b = ControlledPath(a.values + shift, a.gubinelli.copy(), driver=rp)
        dist = solution_distance(a, b, 2.8)
        assert dist.sup == pytest.approx(0.5, rel=1e-12)
        assert dist.pvar == pytest.approx(0.0, abs=1e-12)
        assert dist.remainder_qvar == pytest.approx(0.0, abs=1e-12)

    def test_pvar_component_matches_level1_seminorm(self):
        rp = fbm_lift(24, seed=78)
        vf = builtin_vector_field("sin-g", 2, 2)
        a = solve_rde(vf, rp, np.zeros(2))
        b = solve_rde(vf, rp, np.array([0.05, 0.0]))
        dist = solution_distance(a, b, 2.8)
        assert dist.pvar == pytest.approx(pvar_seminorm(a.values - b.values, 2.8), rel=1e-12)

    @pytest.mark.parametrize("i_lo, i_hi", [(0, 8), (2, 6)])
    def test_remainder_distance_matches_enumeration(self, i_lo, i_hi):
        assert_rows("solution_distance~enumeration")

    def test_batched_distances_match_per_member_path(self):
        assert_rows("solution_distance,remainder~einsum_remainder")

    @pytest.mark.parametrize("i_lo, i_hi", [(0, 8), (2, 6)])
    def test_batched_remainder_distance_matches_enumeration(self, i_lo, i_hi):
        assert_rows("solution_distance~enumeration")

    def test_remainder_distance_keeps_per_row_memory(self):
        # The remainder part reads one right end's gaps at a time.  A table of
        # every (i, j) gap of this 1025-node stack of 5 members against 1 would
        # take more than 16 MB of the traced heap.
        stack = GridRoughPath.stack([fbm_lift(1024, seed=80, counter=k) for k in range(6)])
        cp = solve_rde(builtin_vector_field("sin-g", 2, 2), stack, np.zeros(2))
        tracemalloc.start()
        try:
            solution_distance(cp.member(slice(1, None)), cp.member(slice(0, 1)), 2.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestStackMembersEqualLonePaths:
    def test_every_measure_of_a_member_is_its_lone_paths(self):
        # Every row that measures members against lone paths.
        assert_rows(*(row.id for row in ROWS if not row.whole))


# Calls whose exponent, level or time is NaN; each must be
# rejected, not answered with NaN or a count of 1, nor fail later with a
# message about something else.
NAN_CALLS = {
    "pvar_seminorm": lambda rp, cp, vf: pvar_seminorm(rp.values, math.nan),
    "pvar_level2": lambda rp, cp, vf: pvar_level2(rp, math.nan),
    "pvar_level2_distance": lambda rp, cp, vf: pvar_level2_distance(rp, rp, math.nan),
    "homogeneous_pvar_norm": lambda rp, cp, vf: homogeneous_pvar_norm(rp, math.nan),
    "holder_seminorm": lambda rp, cp, vf: holder_seminorm(rp.grid.times, rp.values, math.nan),
    "rho_alpha_metric": lambda rp, cp, vf: rho_alpha_metric(rp, rp, math.nan),
    "rho_pvar_metric": lambda rp, cp, vf: rho_pvar_metric(rp, rp, math.nan),
    "greedy_stopping_times(eta)": lambda rp, cp, vf: greedy_stopping_times(rp, math.nan, 2.5),
    "greedy_stopping_times(p)": lambda rp, cp, vf: greedy_stopping_times(rp, 0.5, math.nan),
    "solution_distance": lambda rp, cp, vf: solution_distance(cp, cp, math.nan),
    "CocycleProbe(t1)": lambda rp, cp, vf: CocycleProbe(
        t1=math.nan, t2=0.5, y0=np.zeros(2), seed=0, fbm=FbmParams(H=0.45, d=2, seed=1)
    ),
    "CocycleProbe(t2)": lambda rp, cp, vf: CocycleProbe(
        t1=0.5, t2=math.nan, y0=np.zeros(2), seed=0, fbm=FbmParams(H=0.45, d=2, seed=1)
    ),
}


@pytest.mark.parametrize("name", sorted(NAN_CALLS))
def test_nan_exponent_level_or_constant_rejected(name):
    rp = fbm_lift(8, seed=96)
    vf = builtin_vector_field("sin-g", 2, 2)
    cp = solve_rde(vf, rp, np.zeros(2))
    with pytest.raises(ValueError, match="nan"):
        NAN_CALLS[name](rp, cp, vf)
