"""Two-level lifts: Chen consistency, geometricity, quadrature accuracy."""

import numpy as np
import pytest

from roughwz.fbm import SamplePath, TimeGrid
from roughwz.lift import (
    GridRoughPath,
    geometricity_residual,
    lift_left_riemann,
    lift_smooth_quadrature,
)

from oracles import fit_slope, level2_ordered_pairs
from test_conformance import assert_rows

# Tests that only call assert_rows moved into tests/test_conformance.py; they
# keep their ids and read the result of the rows that hold their cases.
FORMS = "level1,level2,remainder[slices,index arrays]~ints,slices"


def random_rough_path(rng, n=12, d=2, geometric=False):
    """Generic per-step data; geometric=True builds it from a sampled path."""
    grid = TimeGrid(0.0, 1.0, n)
    if geometric:
        vals = np.vstack([np.zeros(d), rng.standard_normal((n, d)).cumsum(axis=0)])
        return lift_left_riemann(SamplePath(grid, vals))
    inc1 = rng.standard_normal((n, d))
    inc2 = rng.standard_normal((n, d, d))
    return GridRoughPath(grid, inc1, inc2)


def linear_path(velocity, n=8, t_max=1.0):
    grid = TimeGrid(0.0, t_max, n)
    vals = grid.times[:, None] * np.asarray(velocity, float)[None, :]
    return SamplePath(grid, vals)


def monomial_pair_path(n):
    """(r, r^2) on [0, 1]; closed-form iterated integrals 2/3 and 1/3."""
    grid = TimeGrid(0.0, 1.0, n)
    r = grid.times
    return SamplePath(grid, np.column_stack([r, r**2]))


def monomial_pair_derivative(path):
    """(1, 2r) at the nodes of monomial_pair_path."""
    return np.column_stack([np.ones(path.grid.n_nodes), 2 * path.grid.times])


class TestChenReconstruction:
    def test_level2_matches_sequential_fold(self):
        assert_rows("level1,level2~chen_fold")

    def test_split_recombine_identity(self):
        rng = np.random.default_rng(1)
        rp = random_rough_path(rng, n=16, d=3)
        for _ in range(30):
            i, u, j = sorted(rng.choice(17, size=3, replace=False))
            combined = rp.level2(i, u) + rp.level2(u, j) + np.outer(
                rp.level1(i, u), rp.level1(u, j)
            )
            assert np.allclose(rp.level2(i, j), combined, atol=1e-12)

    def test_block_and_gap_views_agree(self):
        assert_rows(FORMS)

    def test_level2_over_index_arrays_matches_block_rows(self):
        assert_rows(FORMS)

    def test_restrict_and_coarsen(self):
        rng = np.random.default_rng(5)
        rp = random_rough_path(rng, n=32, d=2, geometric=True)
        sub = rp.restrict(0, 16)
        assert sub.n_steps == 16
        assert np.array_equal(sub.level2(2, 9), rp.level2(2, 9))
        co = rp.coarsen(4)
        assert co.n_steps == 8
        assert co.grid.h == pytest.approx(0.125)
        # Prefix sums are rebuilt, so agreement is to rounding only.
        assert np.allclose(co.level1(1, 5), rp.level1(4, 20), atol=1e-13)
        assert np.allclose(co.level2(1, 5), rp.level2(4, 20), atol=1e-13)


class TestPairForms:
    def test_slice_rows_equal_index_array_rows(self):
        assert_rows(FORMS)

    def test_coarsen_equals_reference(self):
        assert_rows("coarsen~coarsen_reference")


class TestStacks:
    def test_members_match_their_own_paths(self):
        assert_rows("stack member data~lone paths", "coarsen~coarsen_reference")

    def test_stack_rejects_empty_and_mixed_paths(self):
        rng = np.random.default_rng(7)
        rp = random_rough_path(rng, n=12, d=2)
        other_window = GridRoughPath(TimeGrid(0.0, 2.0, 12), rp.inc1, rp.inc2)
        for paths in ([], [rp, random_rough_path(rng, n=16, d=2)], [rp, other_window],
                      [rp, random_rough_path(rng, n=12, d=1)]):
            with pytest.raises(ValueError):
                GridRoughPath.stack(paths)
        with pytest.raises(ValueError, match="stack"):
            rp.member(0)
        with pytest.raises(ValueError):
            GridRoughPath(rp.grid, rp.inc1[:, None], rp.inc2)


class TestLeftRiemannLift:
    def test_matches_ordered_pair_sum(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            vals = np.vstack([np.zeros(d), rng.standard_normal((10, d)).cumsum(axis=0)])
            rp = lift_left_riemann(SamplePath(TimeGrid(0.0, 1.0, 10), vals))
            for i, j in [(0, 10), (2, 7), (4, 5)]:
                assert np.allclose(rp.level2(i, j), level2_ordered_pairs(vals, i, j), atol=1e-12)

    def test_geometricity_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rp = random_rough_path(rng, n=20, d=3, geometric=True)
            assert geometricity_residual(rp) == 0.0

    def test_generic_blocks_have_nonzero_defect(self):
        rng = np.random.default_rng(8)
        rp = random_rough_path(rng, n=10, d=2)
        assert geometricity_residual(rp) > 0.1
        # Defect of one step recomputed directly.
        a = rp.level2(3, 4)
        x = rp.level1(3, 4)
        direct = np.abs(0.5 * (a + a.T) - 0.5 * np.outer(x, x))
        assert geometricity_residual(rp) >= direct.max() - 1e-14

    def test_left_riemann_is_first_order(self):
        errs = []
        ns = [32, 64, 128, 256]
        for n in ns:
            rp = lift_left_riemann(monomial_pair_path(n))
            errs.append(abs(rp.level2(0, n)[0, 1] - 2.0 / 3.0))
        slope = fit_slope([1.0 / n for n in ns], errs)
        assert 0.9 < slope < 1.1


class TestQuadratureLift:
    def test_exact_on_linear_paths(self):
        path = linear_path([2.0, 5.0])
        rp = lift_smooth_quadrature(path, np.broadcast_to([2.0, 5.0], path.values.shape))
        n = rp.n_steps
        assert np.allclose(rp.level1(0, n), [2.0, 5.0], atol=1e-14)
        # X^{ab} = v^a v^b / 2 for straight lines.
        assert np.allclose(rp.level2(0, n), 0.5 * np.outer([2, 5], [2, 5]), atol=1e-13)

    def test_second_order_on_monomials(self):
        errs12, errs21 = [], []
        ns = [32, 64, 128, 256]
        for n in ns:
            path = monomial_pair_path(n)
            rp = lift_smooth_quadrature(path, monomial_pair_derivative(path))
            errs12.append(abs(rp.level2(0, n)[0, 1] - 2.0 / 3.0))
            errs21.append(abs(rp.level2(0, n)[1, 0] - 1.0 / 3.0))
        assert fit_slope([1.0 / n for n in ns], errs12) > 1.9
        assert fit_slope([1.0 / n for n in ns], errs21) > 1.9
        assert errs12[-1] < 1e-5

    def test_derivative_must_have_the_shape_of_the_values(self):
        path = linear_path([2.0])
        with pytest.raises(ValueError, match="does not match"):
            lift_smooth_quadrature(path, np.full(path.values.shape[0], 2.0))

    def test_exactly_geometric_too(self):
        path = monomial_pair_path(64)
        rp = lift_smooth_quadrature(path, monomial_pair_derivative(path))
        assert geometricity_residual(rp) == 0.0
