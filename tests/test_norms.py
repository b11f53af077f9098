"""Variation norms, metrics and greedy threshold times.

Hand cases, frozen values and properties; every comparison with a reference
program from oracles.py is a row of tests/test_conformance.py.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from roughwz import norms
from roughwz.expcli import ExperimentConfig
from roughwz.fbm import FbmParams, FbmSampler, SamplePath, TimeGrid
from roughwz.lift import GridRoughPath, lift_left_riemann
from roughwz.norms import (
    block_variation,
    euclidean_norms,
    frobenius_norms,
    greedy_stopping_times,
    holder_seminorm,
    homogeneous_pvar_norm,
    partition_sums,
    pvar_level2,
    pvar_level2_distance,
    pvar_seminorm,
    rho_alpha_metric,
    rho_pvar_metric,
)

import oracles
from test_conformance import assert_rows

# Tests that only call assert_rows moved into tests/test_conformance.py; they
# keep their ids and read the result of the rows that hold their cases.
LEVEL2 = "pvar_level2,pvar_level2_distance~pvar2_brute"


def linear_lift(n, t_max=1.0):
    grid = TimeGrid(0.0, t_max, n)
    return lift_left_riemann(SamplePath(grid, grid.times[:, None].copy()))


def level2_norms(rp):
    return lambda i, j: frobenius_norms(rp.level2(i, j))


def random_lift(rng, n, d=2):
    vals = np.vstack([np.zeros(d), rng.standard_normal((n, d)).cumsum(axis=0)])
    return lift_left_riemann(SamplePath(TimeGrid(0.0, 1.0, n), vals))


class TestLevel1Variation:
    def test_monotone_scalar_is_total_increment(self):
        assert pvar_seminorm(np.array([[0.0], [0.3], [1.0]]), 2.0) == pytest.approx(1.0)

    def test_zigzag_values(self):
        zig = np.array([[0.0], [1.0], [0.0]])
        assert pvar_seminorm(zig, 1.0) == pytest.approx(2.0)
        assert pvar_seminorm(zig, 2.0) == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_matches_enumeration(self, p):
        assert_rows("pvar_seminorm~pvar_brute")

    def test_batched_paths_match_their_own_variations(self):
        assert_rows("pvar_seminorm~pvar_brute")
        assert np.array_equal(pvar_seminorm(np.zeros((1, 4, 2)), 2.8), np.zeros(4))
        assert pvar_seminorm(np.zeros((1, 2)), 2.8) == 0.0

    def test_one_axis_of_points_is_refused(self):
        with pytest.raises(ValueError, match="shape"):
            pvar_seminorm(np.arange(4.0), 2.0)
        with pytest.raises(ValueError, match="shape"):
            holder_seminorm(np.linspace(0.0, 1.0, 4), np.arange(4.0), 0.4)

    def test_p_one_is_total_variation(self):
        rng = np.random.default_rng(41)
        vals = rng.standard_normal((12, 3))
        tv = float(np.linalg.norm(np.diff(vals, axis=0), axis=1).sum())
        assert pvar_seminorm(vals, 1.0) == pytest.approx(tv, rel=1e-12)


class TestEuclideanNorms:
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_integer_blocks_measure_as_floats(self, length):
        blocks = np.arange(6 * length).reshape(6, length) - 7
        assert np.array_equal(euclidean_norms(blocks), euclidean_norms(blocks.astype(float)))


def lead_contiguous(a):
    """A copy of a whose first (pair or node) axis is the contiguous one."""
    return np.moveaxis(np.moveaxis(a, 0, -1).copy(), -1, 0)


class TestLayout:
    """The kernel reads pairs along a contiguous pair axis; no bit depends on that."""

    # Last axes of 3 and more components take np.einsum, whose order of
    # summation follows the memory layout.
    @pytest.mark.parametrize("components", [1, 2, 3, 4])
    def test_norms_of_c_order_and_pair_contiguous_blocks_are_equal(self, components):
        blocks = np.random.default_rng(components).standard_normal((400, 3, components))
        pair_major = lead_contiguous(blocks)
        assert pair_major.strides[0] == pair_major.itemsize
        assert np.array_equal(euclidean_norms(blocks), euclidean_norms(pair_major))
        matrix = {1: (1, 1), 2: (1, 2), 3: (3, 1), 4: (2, 2)}[components]
        square = blocks.reshape(400, 3, *matrix)
        assert np.array_equal(frobenius_norms(square), frobenius_norms(lead_contiguous(square)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("table_pairs", [0, norms._TABLE_PAIRS])
    def test_kernels_of_node_contiguous_and_c_order_points_are_equal(
        self, monkeypatch, d, table_pairs
    ):
        monkeypatch.setattr(norms, "_TABLE_PAIRS", table_pairs)
        n, p = 40, 2.5
        rng = np.random.default_rng(83 + d)
        pts = rng.standard_normal((n + 1, 3, d)).cumsum(axis=0)
        times = np.cumsum(rng.uniform(0.01, 0.2, n + 1))

        def measures(points):
            def pair_norms(i, j):
                return euclidean_norms(points[j] - points[i])

            restart, run, sums = None, partition_sums(pair_norms, p, n), []
            for _ in range(n):
                sums.append(np.array(run.send(restart)))
                restart = sums[-1] >= 2.0 * sums[-1].mean()
            return (
                np.array(sums),
                block_variation(pair_norms, p, n),
                norms._holder_sup(pair_norms, times, 0.4),
            )

        for c_order, node_major in zip(measures(pts), measures(lead_contiguous(pts))):
            assert np.array_equal(c_order, node_major)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rough_paths_of_node_contiguous_increments_measure_alike(self, d):
        rp = GridRoughPath.stack([random_lift(np.random.default_rng(k), 30, d) for k in range(3)])
        node_major = GridRoughPath(rp.grid, lead_contiguous(rp.inc1), lead_contiguous(rp.inc2))
        assert node_major.inc2.strides[0] == node_major.inc2.itemsize
        for measure in (
            lambda x: pvar_level2(x, 1.4),
            lambda x: homogeneous_pvar_norm(x, 2.5),
            lambda x: greedy_stopping_times(x, 1.0, 2.5),
            lambda x: rho_pvar_metric(x, x.member(slice(0, 1)), 2.5),
        ):
            assert np.array_equal(measure(rp), measure(node_major))

    def test_the_kernels_copies_stay_private(self):
        # The oracles' einsum_norms reads these arrays; their C order fixes its bits.
        rp, other = (
            GridRoughPath.stack([random_lift(np.random.default_rng(k), 12, 2) for k in ks])
            for ks in ((0, 1, 2), (3, 4, 5))
        )
        homogeneous_pvar_norm(rp, 2.5)
        greedy_stopping_times(rp, 0.5, 2.5)
        rho_alpha_metric(rp, other, 0.3)
        rho_pvar_metric(rp, other, 2.5)
        holder_seminorm(rp.grid.times, rp.values, 0.3)
        i, j = np.array([0, 1, 3]), np.array([2, 5, 12])
        for a in (rp.values, rp._area_prefix, rp.level1(slice(0, 7), 7),
                  rp.level2(slice(0, 7), 7), rp.level1(i, j), rp.level2(i, j)):
            assert a.flags.c_contiguous


class TestRoot:
    @pytest.mark.parametrize("p", [1.2, 1.4, 2.5, 2.8, 2.835, 3.0])
    def test_stack_roots_equal_scalar_roots(self, p):
        assert_rows("norms._root~root_loop")


class TestPartitionSums:
    @pytest.mark.parametrize("level", [1, 2])
    def test_running_sums_match_loop_reference(self, level):
        assert_rows("partition_sums~pvar_running_loop")

    def test_running_sums_are_windowed_variations(self):
        # A window's prefix sums start at its first node, so the running
        # sums are read over the window [3, 20] itself.
        window = random_lift(np.random.default_rng(31), 20).restrict(3, 20)
        running = list(partition_sums(level2_norms(window), 1.4, 17))
        for j, best in enumerate(running, 1):
            prefix = window.restrict(0, j)
            assert block_variation(level2_norms(prefix), 1.4, j) == best ** (1.0 / 1.4)

    def test_batched_sums_match_per_member_programs(self):
        assert_rows("partition_sums~pvar_running_loop", "stack member data~lone paths")

    def test_batched_variation_matches_enumeration(self):
        assert_rows(LEVEL2)

    @pytest.mark.parametrize("window", [(5, 5), (6, 5), (-1, 5), (0, 21)])
    def test_bad_window_rejected(self, window):
        rp = random_lift(np.random.default_rng(37), 20)
        with pytest.raises(ValueError, match="window"):
            pvar_level2(rp.restrict(*window), 1.4)

    def test_negative_step_count_rejected(self):
        pts = np.zeros((3, 1))
        with pytest.raises(ValueError, match="n_steps must be >= 0, got -1"):
            block_variation(lambda i, j: euclidean_norms(pts[j] - pts[i]), 2.5, -1)

    @pytest.mark.parametrize("members", [(), (4,), (2, 3)])
    def test_no_steps_give_zeros_of_the_member_shape(self, members):
        pts = np.ones((1, *members, 2))
        got = block_variation(lambda i, j: euclidean_norms(pts[j] - pts[i]), 2.5, 0)
        want = pvar_seminorm(pts, 2.5)
        assert type(got) is type(want) and np.shape(got) == members
        assert np.array_equal(got, want) and not np.any(got)

    # A PairNorms may return views of its own data: the kernels never write
    # into what it returns.  Cap 0 reads rows, which are views of the matrix
    # here, and the default cap reads a table.
    @pytest.mark.parametrize("writeable", [False, True])
    @pytest.mark.parametrize("members", [(), (3,)])
    @pytest.mark.parametrize("table_pairs", [0, norms._TABLE_PAIRS])
    def test_pair_norms_may_return_views(self, monkeypatch, writeable, members, table_pairs):
        monkeypatch.setattr(norms, "_TABLE_PAIRS", table_pairs)
        n, p = 12, 2.5
        matrix = np.random.default_rng(41).uniform(0.0, 2.0, (n + 1, n + 1, *members))
        matrix.flags.writeable = writeable
        kept = matrix.copy()

        def views(i, j):
            return matrix[i, j]

        def copies(i, j):
            return matrix[i, j].copy()

        def sums(f):
            out, restart, run = [], None, partition_sums(f, p, n)
            for _ in range(n):
                out.append(np.array(run.send(restart)))
                restart = out[-1] >= 4.0
            return np.array(out)

        assert isinstance(views(slice(0, n), n).base, np.ndarray)
        assert np.array_equal(sums(views), sums(copies))
        assert np.array_equal(block_variation(views, p, n), block_variation(copies, p, n))
        assert np.array_equal(matrix, kept)

    # Right end j reads only left ends from lo_j, the earliest of the members'
    # last restart nodes: each member restarted at or after it, so every
    # left end before it is -inf for every member.  Cap 0 reads rows.
    @pytest.mark.parametrize("members", [(), (3,), (2, 3)])
    def test_each_right_end_reads_from_the_earliest_restart(self, monkeypatch, members):
        monkeypatch.setattr(norms, "_TABLE_PAIRS", 0)
        n, p = 24, 2.5
        rng = np.random.default_rng(71)
        matrix = rng.uniform(0.0, 2.0, (n + 1, n + 1, *members))
        # Each member restarts at its own 5 nodes of 1..n-1.
        restarts = np.zeros((n + 1, *members), dtype=bool)
        for idx in np.ndindex(members):
            restarts[(rng.choice(np.arange(1, n), 5, replace=False), *idx)] = True
        reads = []

        def counted(i, j):
            if isinstance(i, slice):
                reads.append((i.start, i.stop, j))
            return matrix[i, j]

        def sums(program, f):
            out, restart, run = [], None, program(f, p, n)
            for j in range(1, n + 1):
                out.append(np.array(run.send(restart)))
                restart = restarts[j] if restarts[j].any() else None
            return np.array(out)

        got = sums(partition_sums, counted)
        last = np.zeros(members, dtype=int)
        lo = []
        for j in range(1, n + 1):
            lo.append(int(last.min()))
            last[restarts[j]] = j
        assert reads == [(lo_j, j, j) for j, lo_j in enumerate(lo, 1)]
        assert len(set(lo)) > 2  # the window moved more than once
        assert np.array_equal(got, sums(oracles.partition_sums_rows, lambda i, j: matrix[i, j]))

    def test_greedy_stopping_reads_each_row_from_the_earliest_stop(self, monkeypatch):
        monkeypatch.setattr(norms, "_TABLE_PAIRS", 0)
        rng = np.random.default_rng(73)
        lones = [random_lift(rng, 64) for _ in range(4)]
        rp = GridRoughPath.stack(lones)
        eta, p = 2.0, 2.5
        pairs = []

        def counted(blocks):
            pairs.append(len(blocks))
            return euclidean_norms(blocks)

        monkeypatch.setattr(norms, "euclidean_norms", counted)
        stops = greedy_stopping_times(rp, eta, p)
        monkeypatch.undo()
        for k, lone in enumerate(lones):
            assert np.flatnonzero(stops[:, k]).tolist() == oracles.greedy_stops_restarting(
                lone, eta, p
            )
        # Both levels read pairs (lo_j..j-1, j) at each right end j, lo_j the
        # earliest of the members' last stops before j.
        lo = [min(np.flatnonzero(col[:j]).max() for col in stops.T) for j in range(1, 65)]
        assert sum(pairs) == 2 * sum(j - lo_j for j, lo_j in enumerate(lo, 1))
        assert max(lo) > 0

    # The calibrated stacks: noise measures its 6 ladder members on the coarse
    # grid, stopping the driver's lift and 5 ladder lifts, solution 5 ladder
    # solutions on the full grid.
    @pytest.mark.parametrize(
        "experiment, n_steps, members, tabled",
        [("noise", 128, 6, True), ("stopping", 512, 6, False), ("solution", 1024, 5, False)],
    )
    def test_only_the_noise_grid_reads_a_table(self, experiment, n_steps, members, tabled):
        cfg = ExperimentConfig(experiment=experiment, n_seeds=30)
        steps = cfg.grid_n if experiment == "solution" else cfg.grid_n // cfg.stride
        assert (steps, len(cfg.delta_ladder) + (experiment == "stopping")) == (n_steps, members)
        pts = np.zeros((n_steps + 1, members, 1))
        reads = []

        def read(i, j):
            out = euclidean_norms(pts[j] - pts[i])
            reads.append((isinstance(i, slice), out.size))
            return out

        next(partition_sums(read, cfg.p, n_steps))
        by_rows, sizes = zip(*reads)
        assert any(by_rows) is not tabled
        # A table is read in runs of at most the run cap, never in one call.
        assert not tabled or (len(reads) > 2 and max(sizes) <= norms._RUN_PAIRS)


class TestLevel2Variation:
    def test_linear_lift_frozen_value(self):
        # Half the square of the increment; q = 1 keeps the coarsest block.
        rp = linear_lift(8)
        assert pvar_level2(rp, 1.0) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("q", [1.0, 1.5])
    def test_matches_enumeration(self, q):
        assert_rows(LEVEL2)

    def test_window_argument(self):
        assert_rows(LEVEL2)


class TestHomogeneousNorm:
    def test_linear_lift_frozen_value(self):
        rp = linear_lift(8)
        assert homogeneous_pvar_norm(rp, 2.0) == pytest.approx(np.sqrt(1.5), rel=1e-12)

    def test_requires_p_at_least_two(self):
        with pytest.raises(ValueError):
            homogeneous_pvar_norm(linear_lift(4), 1.5)

    def test_matches_enumeration(self):
        assert_rows("homogeneous_pvar_norm~homogeneous_brute")

    def test_pth_power_superadditive(self):
        # Concatenation can only grow the p-th power; the stopping-time
        # count bound rests on exactly this inequality.
        rng = np.random.default_rng(31)
        for _ in range(20):
            rp = random_lift(rng, 12)
            p = float(rng.uniform(2.0, 3.5))
            i, j, k = sorted(rng.choice(13, size=3, replace=False))
            whole = homogeneous_pvar_norm(rp.restrict(i, k), p) ** p
            parts = (
                homogeneous_pvar_norm(rp.restrict(i, j), p) ** p
                + homogeneous_pvar_norm(rp.restrict(j, k), p) ** p
            )
            assert whole >= parts - 1e-10


class TestHolderSeminorm:
    def test_single_step(self):
        times = np.array([0.0, 0.1])
        vals = np.array([[0.0], [1.0]])
        assert holder_seminorm(times, vals, 0.4) == pytest.approx(0.1 ** (-0.4), rel=1e-12)
        # A stack of one path gives that path's sup as its one member's.
        stacked = holder_seminorm(times, vals[:, None], 0.4)
        assert stacked.tolist() == [holder_seminorm(times, vals, 0.4)]

    def test_linear_path_attains_at_full_gap(self):
        times = np.linspace(0.0, 1.0, 11)
        vals = 3.0 * times[:, None]
        # sup_{s<t} |v| (t-s)^{1-alpha} sits at the widest pair for alpha < 1.
        assert holder_seminorm(times, vals, 0.5) == pytest.approx(3.0, rel=1e-12)

    def test_dominates_increment_scaling(self):
        rng = np.random.default_rng(37)
        times = np.linspace(0.0, 1.0, 9)
        vals = rng.standard_normal((9, 2))
        c = holder_seminorm(times, vals, 0.45)
        for i in range(9):
            for j in range(i + 1, 9):
                gap = times[j] - times[i]
                assert np.linalg.norm(vals[j] - vals[i]) <= c * gap**0.45 + 1e-12


    def test_nan_propagates(self):
        vals = np.arange(9.0)[:, None]
        vals[5] = np.nan
        assert np.isnan(holder_seminorm(np.linspace(0.0, 1.0, 9), vals, 0.4))

    def test_nan_in_one_member_spoils_only_its_sup(self):
        rng = np.random.default_rng(79)
        times = np.linspace(0.0, 1.0, 9)
        pts = rng.standard_normal((9, 4, 2))
        pts[5, 2, 1] = np.nan
        got = holder_seminorm(times, pts, 0.4)
        assert np.isnan(got).tolist() == [False, False, True, False]
        for k in (0, 1, 3):
            assert got[k] == holder_seminorm(times, pts[:, k], 0.4)
        lifts = [random_lift(rng, 8) for _ in range(3)]
        stack = GridRoughPath.stack(lifts)
        inc2 = stack.inc2.copy()
        inc2[3, 1, 0, 1] = np.nan
        stack = GridRoughPath(stack.grid, stack.inc1, inc2)
        got = rho_alpha_metric(stack, stack.member(slice(0, 1)), 0.4)
        assert np.isnan(got).tolist() == [False, True, False]
        assert got[2] == rho_alpha_metric(lifts[2], lifts[0], 0.4)

    @pytest.mark.parametrize(
        "times, bad",
        [([0.0, 0.5, 0.25, 1.0], "t\\[1\\] = 0.5 then t\\[2\\] = 0.25"),
         ([0.0, 0.5, 0.5, 1.0], "t\\[1\\] = 0.5 then t\\[2\\] = 0.5"),
         ([1.0, 0.75, 0.5, 0.25], "t\\[0\\] = 1.0 then t\\[1\\] = 0.75")],
    )
    def test_non_increasing_times_rejected(self, times, bad):
        with pytest.raises(ValueError, match=f"increase strictly: {bad}"):
            holder_seminorm(np.array(times), np.arange(4.0)[:, None], 0.4)


HOLDER = "holder_seminorm,rho_alpha_metric~holder_sup_loop"
CAPS = {1: "cap=1", 7: "cap=7", norms._RUN_PAIRS: "cap=default"}


class TestHolderPairRuns:
    """The pair-run Hoelder sup against the per-right-end loop it replaced, with ==."""

    @pytest.mark.parametrize("run_pairs", [1, 7, norms._RUN_PAIRS])
    def test_matches_per_right_end_loop(self, run_pairs):
        assert_rows(f"{HOLDER}[{CAPS[run_pairs]}]")

    @pytest.mark.parametrize("run_pairs", [7, norms._RUN_PAIRS])
    def test_grid_with_more_pairs_than_one_run(self, run_pairs):
        assert_rows(f"{HOLDER}[{CAPS[run_pairs]},long]")

    @pytest.mark.parametrize("run_pairs", [1, 7, norms._RUN_PAIRS])
    def test_every_pair_is_read(self, monkeypatch, run_pairs):
        monkeypatch.setattr(norms, "_RUN_PAIRS", run_pairs)
        rng = np.random.default_rng(71)
        for n_nodes in range(1, 9):
            for d in (1, 2, 3):
                times = np.cumsum(rng.uniform(0.01, 0.2, n_nodes))
                pts = rng.standard_normal((n_nodes, d))
                # One-pair arrays: numpy's scalar power may round unlike its array loop.
                ratios = [
                    (euclidean_norms(pts[[j]] - pts[[i]]) / (times[[j]] - times[[i]]) ** 0.4)[0]
                    for i, j in combinations(range(n_nodes), 2)
                ]
                assert holder_seminorm(times, pts, 0.4) == max(ratios, default=0.0)

    @pytest.mark.parametrize("run_pairs", [1, 7, norms._RUN_PAIRS])
    def test_stack_member_sups_do_not_depend_on_the_cap(self, monkeypatch, run_pairs):
        # The cap counts pair x member values, so a stack's pairs are split
        # into other runs than a lone path's; every pass reads at most the
        # cap, or one pair's members.  The members' sups are conformance rows.
        assert_rows(f"{HOLDER}[{CAPS[run_pairs]}]")
        monkeypatch.setattr(norms, "_RUN_PAIRS", run_pairs)
        rng = np.random.default_rng(73)
        for _ in range(8):
            n, d, size = int(rng.integers(1, 30)), int(rng.integers(1, 4)), int(rng.integers(1, 8))
            pts = rng.standard_normal((n + 1, size, d)).cumsum(axis=0)
            read = []

            def counted(i, j):
                read.append(euclidean_norms(pts[j] - pts[i]))
                return read[-1]

            times = np.cumsum(rng.uniform(0.01, 0.2, n + 1))
            assert norms._holder_sup(counted, times, 0.4).shape == (size,)
            assert max(r.size for r in read) <= max(run_pairs, size)


class TestRoughMetrics:
    def make_pair(self, eps=0.25):
        grid = TimeGrid(0.0, 1.0, 6)
        vals = np.linspace(0.0, 1.0, 7)[:, None]
        a = lift_left_riemann(SamplePath(grid, vals))
        inc2 = a.inc2.copy()
        inc2[2] = inc2[2] + np.array([[eps]])
        return a, GridRoughPath(grid, a.inc1.copy(), inc2)

    def test_zero_on_identical(self):
        a, _ = self.make_pair()
        assert rho_alpha_metric(a, a, 0.4) == 0.0
        assert rho_pvar_metric(a, a, 2.0) == 0.0
        assert pvar_level2_distance(a, a, 1.0) == 0.0

    def test_single_block_perturbation(self):
        # Equal first levels make every enclosing Chen block differ by the
        # same matrix, so the variation distance is its Frobenius norm and
        # the alpha distance is that norm over the step width to the 2 alpha.
        a, b = self.make_pair(eps=0.25)
        assert rho_pvar_metric(a, b, 2.0) == pytest.approx(0.25, rel=1e-12)
        assert pvar_level2_distance(a, b, 1.0) == pytest.approx(0.25, rel=1e-12)
        h = 1.0 / 6.0
        assert rho_alpha_metric(a, b, 0.4) == pytest.approx(0.25 / h**0.8, rel=1e-12)

    def test_symmetry(self):
        a, b = self.make_pair()
        assert rho_pvar_metric(a, b, 2.0) == rho_pvar_metric(b, a, 2.0)
        assert rho_alpha_metric(a, b, 0.4) == rho_alpha_metric(b, a, 0.4)

    def test_nan_node_propagates(self):
        grid = TimeGrid(0.0, 1.0, 8)
        vals = np.linspace(0.0, 1.0, 9)[:, None]
        clean = lift_left_riemann(SamplePath(grid, vals))
        vals = vals.copy()
        vals[5] = np.nan
        broken = lift_left_riemann(SamplePath(grid, vals))
        assert np.isnan(rho_alpha_metric(broken, clean, 0.4))
        assert np.isnan(rho_alpha_metric(clean, broken, 0.4))
        assert np.isnan(rho_pvar_metric(broken, clean, 2.0))

    def test_pvar_distance_matches_enumeration(self):
        assert_rows(LEVEL2)


class TestGreedyStopping:
    def test_linear_path_spacing(self):
        # Homogeneous norm of the unit-slope line over a width-w window is
        # w sqrt(1.5), so thresholds land every 0.5/sqrt(1.5) ~ 0.40825.
        rp = linear_lift(1000)
        stops = greedy_stopping_times(rp, 0.5, 2.0)
        assert np.flatnonzero(stops).tolist() == [0, 409, 818, 1000]
        assert stops.sum() - 1 == 3
        assert rp.grid.times[stops][1] == pytest.approx(0.409)

    def test_linear_path_even_eta(self):
        stops = greedy_stopping_times(linear_lift(100), 0.3, 2.0)
        assert np.flatnonzero(stops).tolist() == [0, 25, 50, 75, 100]
        assert stops.sum() - 1 == 4

    def test_threshold_above_total_norm(self):
        stops = greedy_stopping_times(linear_lift(16), 10.0, 2.0)
        assert np.flatnonzero(stops).tolist() == [0, 16]
        assert stops.sum() - 1 == 1

    def test_a_sum_equal_to_eta_to_the_p_stops(self):
        # A stop is the first node whose running sum reaches eta ** p, ties
        # included.  For d = 1 and p = 2 the sum over one step x is
        # x^2 + x^2 / 2, which is 1 at x = sqrt(2/3); search the last ulps of
        # x for a sum of exactly 1.0 = eta ** p, then add only zero steps.
        eta, p = 1.0, 2.0
        x = math.sqrt(2.0 / 3.0)
        for _ in range(32):
            x = math.nextafter(x, 0.0)
        for _ in range(64):
            path = SamplePath(TimeGrid(0.0, 1.0, 3), np.array([[0.0], [x], [x], [x]]))
            rp = lift_left_riemann(path)
            if next(norms._homogeneous_sums(rp, p)) == eta**p:
                break
            x = math.nextafter(x, 1.0)
        else:
            pytest.fail("no increment within 32 ulps of sqrt(2/3) sums to exactly 1")
        assert np.flatnonzero(greedy_stopping_times(rp, eta, p)).tolist() == [0, 1, 3]

    def test_matches_brute_force(self):
        assert_rows("greedy_stopping_times~greedy_stops_brute")

    def test_matches_restarting_program_over_the_whole_path(self):
        assert_rows("greedy_stopping_times~greedy_stops_restarting")

    def test_count_bound_holds(self):
        grid = TimeGrid(0.0, 1.0, 64)
        sampler = FbmSampler(grid, FbmParams(H=0.4, d=2, seed=13))
        for counter in range(25):
            rp = lift_left_riemann(sampler.sample(counter))
            for eta in (0.3, 0.6, 1.0):
                count = greedy_stopping_times(rp, eta, 2.5).sum() - 1
                whole = homogeneous_pvar_norm(rp, 2.5)
                assert count <= 1 + eta ** (-2.5) * whole**2.5 + 1e-9

    def test_stack_members_match_restarting_program(self):
        assert_rows("greedy_stopping_times~greedy_stops_restarting")

    def test_two_member_axes_give_each_members_lone_mask(self):
        # Any member shape: a (2, 3) stack's mask has the stack's member
        # axes, and each member's column is its lone path's mask.
        rng = np.random.default_rng(67)
        lones = [random_lift(rng, 20) for _ in range(6)]
        rp = GridRoughPath.stack(
            [GridRoughPath.stack(lones[:3]), GridRoughPath.stack(lones[3:])]
        )
        stops = greedy_stopping_times(rp, 1.5, 2.5)
        assert stops.shape == (21, 2, 3)
        for k, lone in enumerate(lones):
            assert np.array_equal(stops[:, k // 3, k % 3], greedy_stopping_times(lone, 1.5, 2.5))
        assert stops[1:-1].any()

    def test_window_and_structure(self):
        rng = np.random.default_rng(59)
        rp = random_lift(rng, 32)
        window = rp.restrict(4, 28)
        stops = greedy_stopping_times(window, 0.8, 2.0)
        assert stops.dtype == bool and stops.shape == (25,)
        idx = np.flatnonzero(stops)
        assert idx[0] == 0
        assert idx[-1] == 24
        assert np.array_equal(window.grid.times[stops], rp.grid.times[idx + 4])

    def test_each_stop_first_to_reach_eta(self):
        rng = np.random.default_rng(61)
        rp = random_lift(rng, 24)
        eta, p = 1.0, 2.0
        idx = np.flatnonzero(greedy_stopping_times(rp, eta, p))
        for lo, hi in zip(idx[:-1], idx[1:]):
            if hi < rp.n_steps:
                assert homogeneous_pvar_norm(rp.restrict(lo, hi), p) >= eta
            if hi - lo > 1:
                assert homogeneous_pvar_norm(rp.restrict(lo, hi - 1), p) < eta
