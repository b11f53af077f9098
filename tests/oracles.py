"""Independent reference implementations used to derive test expectations.

Everything here is deliberately written the slow, obvious way: sequential
folds instead of prefix sums, exhaustive partition enumeration instead of
dynamic programming, quadrature over fine slices instead of closed forms.
Agreement between these and the library is the point of the tests, so none
of this may import from roughwz internals beyond plain data access.  The
per-rung experiment loops at the end call public layer functions and the
programs above only: they are the loops that the experiments' stacked
ladder replaced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from roughwz.fbm import SamplePath
from roughwz.lift import GridRoughPath, lift_left_riemann, lift_smooth_quadrature
from roughwz.norms import (
    euclidean_norms,
    frobenius_norms,
    homogeneous_pvar_norm,
    rho_alpha_metric,
    rho_pvar_metric,
)
from roughwz.wongzakai import ww_delta


def chen_fold(inc1: np.ndarray, inc2: np.ndarray, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Compose per-step signature blocks sequentially over steps [i, j).

    Returns (level-1 increment, level-2 matrix) built by the two-level
    multiplication rule one step at a time.
    """
    d = inc1.shape[1]
    x = np.zeros(d)
    a = np.zeros((d, d))
    for k in range(i, j):
        a = a + inc2[k] + np.outer(x, inc1[k])
        x = x + inc1[k]
    return x, a


def coarsen_reference(rp, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval (inc1, inc2) of rp restricted to every stride-th node.

    The prefix-difference formula GridRoughPath.coarsen used before it read
    its blocks through level1 and level2: node values and level-2 prefixes
    at the kept nodes, then Chen's relation between neighbours.  Stride 1
    keeps rp's own increments.
    """
    if stride == 1:
        return rp.inc1, rp.inc2
    nodes = np.arange(0, rp.n_steps + 1, stride)
    v = rp.values[nodes]
    a = rp._area_prefix[nodes]
    inc1 = np.diff(v, axis=0)
    inc2 = a[1:] - a[:-1] - v[:-1, ..., :, None] * inc1[..., None, :]
    return inc1, inc2


def level2_ordered_pairs(values: np.ndarray, i: int, j: int) -> np.ndarray:
    """Left-Riemann second level over nodes [i, j] directly from values.

    Cross terms sum increments over ordered step pairs k < l; the within-step
    completion puts the full product below the diagonal and half of it on it,
    which is the unique choice making the symmetric part one half the outer
    square of the increment.
    """
    inc = np.diff(values[i : j + 1], axis=0)
    d = inc.shape[1]
    out = np.zeros((d, d))
    for k in range(len(inc)):
        for l in range(k + 1, len(inc)):
            out += np.outer(inc[k], inc[l])
    for k in range(len(inc)):
        w = np.outer(inc[k], inc[k])
        out += np.tril(w, -1) + 0.5 * np.diag(np.diag(w))
    return out


def partitions_between(i: int, j: int):
    """Yield every partition i = u_0 < ... < u_m = j as an index tuple."""
    interior = range(i + 1, j)
    for r in range(0, j - i):
        for mid in combinations(interior, r):
            yield (i, *mid, j)


def pvar_brute(values: np.ndarray, p: float, i: int = 0, j: int | None = None) -> float:
    """Level-1 p-variation by exhaustive partition enumeration. O(2^n)."""
    if j is None:
        j = len(values) - 1
    if j <= i:
        return 0.0
    best = 0.0
    for part in partitions_between(i, j):
        total = 0.0
        for a, b in zip(part[:-1], part[1:]):
            total += float(np.linalg.norm(values[b] - values[a])) ** p
        best = max(best, total)
    return best ** (1.0 / p)


def pvar2_brute(block, q: float, i: int, j: int) -> float:
    """Level-2 q-variation via a block callable (i, j) -> matrix. O(2^n)."""
    if j <= i:
        return 0.0
    best = 0.0
    for part in partitions_between(i, j):
        total = 0.0
        for a, b in zip(part[:-1], part[1:]):
            total += float(np.linalg.norm(block(a, b))) ** q
        best = max(best, total)
    return best ** (1.0 / q)


def root_loop(total, p: float):
    """total ** (1/p) one member at a time, by numpy's scalar power."""
    roots = [x ** (1.0 / p) for x in np.ravel(total)]
    return np.array(roots).reshape(np.shape(total))[()]


def pvar_running_loop(block, p: float, i: int, j: int) -> list[float]:
    """Best partition sums over [i, k] for k = i+1..j, by the plain O(n^2) loop.

    block(a, b) returns the single block over the node pair (a, b).  Meant
    for grids too long to enumerate.
    """
    best = [0.0]
    for k in range(i + 1, j + 1):
        best.append(
            max(best[a - i] + float(np.linalg.norm(block(a, k))) ** p for a in range(i, k))
        )
    return best[1:]


def partition_sums_rows(norms, p: float, n_steps: int):
    """Running partition sums reading one row norms(slice(0, j), j) per right end.

    The program norms.partition_sums ran on every grid before it read small
    grids from a table of every pair; restart masks sent back act as there.
    """
    for j in range(1, n_steps + 1):
        terms = norms(slice(0, j), j) ** p
        if j == 1:
            best = np.zeros((n_steps + 1,) + terms.shape[1:])
        best[j] = (best[:j] + terms).max(axis=0)
        restart = yield best[j]
        if restart is not None:
            best[:j, restart] = -np.inf
            best[j, restart] = 0.0


def holder_sup_loop(block_norms, times: np.ndarray, alpha: float) -> float:
    """sup over node pairs i < j of |block_{i,j}| / (t_j - t_i)^alpha, one right end at a time.

    block_norms(slice(0, j), j) returns the norms over (i, j) for i in [0, j).
    This is the per-right-end loop the pair-run sup replaced; Python's max
    skips a NaN ratio, so it is a reference for finite inputs only.
    """
    out = 0.0
    for j in range(1, len(times)):
        ratio = block_norms(slice(0, j), j) / (times[j] - times[:j]) ** alpha
        out = max(out, float(ratio.max()))
    return out


@lru_cache(maxsize=None)
def _partition_block_arrays(n: int):
    """All blocks of all partitions of [0, n], flattened with partition ids."""
    starts, ends, pid = [], [], []
    count = 0
    for part in partitions_between(0, n):
        for a, b in zip(part[:-1], part[1:]):
            starts.append(a)
            ends.append(b)
            pid.append(count)
        count += 1
    return np.array(starts), np.array(ends), np.array(pid), count


def table_pvar_brute(table: np.ndarray, p: float) -> float:
    """Exhaustive p-variation from a precomputed block-norm table.

    table[i, j] holds the norm of the block over nodes (i, j).  Same
    enumeration as pvar_brute, vectorized so large case counts stay cheap.
    """
    n = table.shape[0] - 1
    if n < 1:
        return 0.0
    starts, ends, pid, count = _partition_block_arrays(n)
    sums = np.bincount(pid, weights=table[starts, ends] ** p, minlength=count)
    return float(sums.max() ** (1.0 / p))


def homogeneous_brute(values: np.ndarray, block, p: float, i: int, j: int) -> float:
    v1 = pvar_brute(values, p, i, j)
    v2 = pvar2_brute(block, p / 2.0, i, j)
    return (v1**p + v2 ** (p / 2.0)) ** (1.0 / p)


def greedy_stops_brute(values: np.ndarray, block, p: float, eta: float) -> list[int]:
    """Greedy threshold nodes by recomputing the brute norm from scratch."""
    n = len(values) - 1
    stops = [0]
    while stops[-1] < n:
        lo = stops[-1]
        nxt = n
        for j in range(lo + 1, n + 1):
            if homogeneous_brute(values, block, p, lo, j) >= eta:
                nxt = j
                break
        stops.append(nxt)
    return stops


def greedy_stops_restarting(rp: GridRoughPath, eta: float, p: float) -> list[int]:
    """Greedy stopping nodes by restarting the node-range program on the whole path.

    The program greedy_stopping_times ran before it restarted on the
    restricted path: from each stopping node `start` it runs the two
    partition-sum programs over nodes [start, j] of rp itself, reading rp's
    blocks (prefix sums from rp's first node), and stops at the first j
    where their sum reaches eta^p.
    """
    return _restarting_pass(rp, eta, p)[0]


def restarting_margin(rp: GridRoughPath, eta: float, p: float) -> float:
    """The least |sum - eta^p| / eta^p over the sums greedy_stops_restarting compares.

    A stop can flip under rounding only where this margin is a few ulps.
    """
    return _restarting_pass(rp, eta, p)[1]


def _restarting_pass(rp: GridRoughPath, eta: float, p: float) -> tuple[list[int], float]:
    """The stops of greedy_stops_restarting and the margin of restarting_margin."""

    def running(norms, q, start, n):
        best = np.zeros(n - start + 1)
        for r in range(1, n - start + 1):
            terms = norms(slice(start, start + r), start + r) ** q
            best[r] = (best[:r] + terms).max(axis=0)
            yield best[r]

    v = rp.values
    level1 = lambda i, j: euclidean_norms(v[j] - v[i])
    level2 = lambda i, j: frobenius_norms(rp.level2(i, j))
    n, thresh = rp.n_steps, eta**p
    stops, margin = [0], np.inf
    while stops[-1] < n:
        start = stops[-1]
        sums = zip(running(level1, p, start, n), running(level2, p / 2.0, start, n))
        stop = n
        for j, (a, b) in enumerate(sums, start + 1):
            margin = min(margin, abs(a + b - thresh) / thresh)
            if a + b >= thresh:
                stop = j
                break
        stops.append(stop)
    return stops, margin


def dilate(rp: GridRoughPath, lam: float) -> GridRoughPath:
    """The dilation delta_lam of a rough path: X1 -> lam X1 and X2 -> lam^2 X2 on every step.

    Chen's relation is bilinear, so every block over a node pair scales the
    same way: level-1 measures are 1-homogeneous and level-2 ones 2-homogeneous.
    """
    return GridRoughPath(rp.grid, lam * rp.inc1, lam * lam * rp.inc2)


def reverse(rp: GridRoughPath) -> GridRoughPath:
    """Time reversal on the same grid: the steps in reverse order, inc1 -> -inc1, inc2 -> inc2^T.

    Chen's relation composes transposed steps in reverse order to the
    transposed block, so over the node pair (n - j, n - i) the reversal
    carries -X1_{i,j} and (X2_{i,j})^T, which for a geometric path is the
    inverse block.  Every norm of a pair's blocks is kept.
    """
    return GridRoughPath(rp.grid, -rp.inc1[::-1], np.swapaxes(rp.inc2[::-1], -1, -2))


def loop_remainder(cp, i, j) -> np.ndarray:
    """R_{i,j} = y_{i,j} - y'_i X1_{i,j}, node pairs (i, j) in the forms of GridRoughPath.level2.

    The program ControlledPath.remainder ran before solution_distance read
    every remainder gap of a right end from one matrix product: both node
    values differenced per pair, y'_i X1_{i,j} summed over the driver axis
    in index order, one ufunc pass per component.
    """
    x = cp.driver.values[..., None, :]  # X1 broadcast over the value axis m
    w1 = x[j] - x[i]
    gub = cp.gubinelli[i]
    lin = gub[..., 0] * w1[..., 0]
    for e in range(1, w1.shape[-1]):
        lin += gub[..., e] * w1[..., e]
    out = cp.values[j] - cp.values[i]
    out -= lin
    return out


def einsum_remainder(cp, i, j) -> np.ndarray:
    """R_{i,j} = y_{i,j} - y'_i X1_{i,j} of a lone controlled path, by one einsum.

    The formula the remainder had before it summed over the driver axis in
    the loop of loop_remainder.
    """
    x = cp.driver.values
    lin = np.einsum("i...d,id->i...", cp.gubinelli[i], x[j] - x[i])
    return cp.values[j] - cp.values[i] - lin


def einsum_solve(vf, rp: GridRoughPath, y0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and Gubinelli derivatives of the one-step scheme on a lone driver.

    The step solve_rde took before its second-order term became one matmul:
    (Dg(y) g(y) X2)^a = sum_{c,e} dg[a, c, e] (g X2)[e, c], by einsum.
    """
    y = np.asarray(y0, dtype=float)
    values, gub = [y], []
    for u in range(rp.n_steps):
        gy = vf.g(y)
        gub.append(gy)
        second = np.einsum("ace,ec->a", vf.dg(y), gy @ rp.inc2[u])
        y = y + vf.f(y) * rp.grid.h + (gy @ rp.inc1[u][:, None])[:, 0] + second
        values.append(y)
    gub.append(vf.g(y))
    return np.array(values), np.array(gub)


def base_step_smoothing(path: SamplePath, k: int, h: float) -> tuple[np.ndarray, ...]:
    """Values of W_delta and the data of its lift, from a width of k steps of spacing h.

    The program w_delta and ww_delta ran when a width carried its own
    spacing h, that of the base grid which the path's grid extends: the
    trapezoid sums use the path's own spacing, but the window integrals and
    the difference quotient are divided by k * h.
    """
    g, v = path.grid, path.values
    cum = np.zeros_like(v)
    np.cumsum(0.5 * g.h * (v[1:] + v[:-1]), axis=0, out=cum[1:])
    k0 = g.zero_index
    vals = ((cum[k:] - cum[:-k]) - (cum[k0 + k] - cum[k0])) / (k * h)
    rp = lift_smooth_quadrature(SamplePath(g.window(0, g.n_steps - k), vals),
                                (v[k:] - v[:-k]) / (k * h))
    return vals, rp.inc1, rp.inc2


def quadratic_path_lift(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval (inc1, inc2) that trapezoid quadrature gives the path X_t = (t, t^2).

    On [s, u] the area integrands  f_01(r) = (r - s) 2r  and
    f_10(r) = r^2 - s^2  are quadratic, so the trapezoid rule gives their
    exact integrals plus h^3 f''/12 with h = u - s (f''_01 = 4, f''_10 = 2).
    inc2 is inc (x) inc / 2 plus half the difference of the two, all in
    exact rationals from the float node times.
    """
    inc1, inc2 = [], []
    for s, u in zip(map(Fraction, times[:-1]), map(Fraction, times[1:])):
        h = u - s
        x = (h, u * u - s * s)
        f01 = 2 * (u**3 - s**3) / 3 - s * (u * u - s * s) + h**3 * 4 / 12
        f10 = (u**3 - s**3) / 3 - s * s * h + h**3 * 2 / 12
        area = (f01 - f10) / 2
        inc1.append([float(v) for v in x])
        inc2.append([[float(x[a] * x[b] / 2 + (a < b) * area - (a > b) * area) for b in range(2)]
                     for a in range(2)])
    return np.array(inc1), np.array(inc2)


def smoothed_value(times: np.ndarray, values: np.ndarray, t: float, delta: float) -> np.ndarray:
    """One node of the width-delta smoothing, by trapezoid quadrature.

    Computes (1/delta) (int_t^{t+delta} omega - int_0^delta omega) on the
    piecewise-linear interpolant of the sampled path, refining each grid
    slice so the quadrature is exact for the interpolant.
    """

    def integral(a: float, b: float) -> np.ndarray:
        fine = np.linspace(a, b, 4097)
        cols = [np.interp(fine, times, values[:, c]) for c in range(values.shape[1])]
        return np.stack([np.trapezoid(col, fine) for col in cols])

    return (integral(t, t + delta) - integral(0.0, delta)) / delta


def fd_jacobian(func, y: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian, one column per component of y."""
    base = np.asarray(func(y), dtype=float)
    out = np.zeros(base.shape + y.shape)
    for k in range(y.size):
        e = np.zeros_like(y)
        e[k] = step
        out[..., k] = (np.asarray(func(y + e)) - np.asarray(func(y - e))) / (2 * step)
    return out


def rk4_path_ode(rhs, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Classical RK4 for dy/dt = rhs(t, y) on the given time nodes."""
    out = np.empty((len(times), len(y0)))
    out[0] = y0
    for k in range(len(times) - 1):
        t, h = times[k], times[k + 1] - times[k]
        y = out[k]
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        out[k + 1] = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


def fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Ordinary least squares slope of log y against log x."""
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])


def sampled_window(path: SamplePath, n: int) -> SamplePath:
    """The sampled path on nodes [0, n], built with the public constructor.

    The per-rung loops below restrict the sampled path and then lift it, the
    order the experiments used before they restricted the lift instead.
    """
    return SamplePath(path.grid.window(0, n), path.values[: n + 1])


def noise_ladder_loop(cfg, path) -> np.ndarray:
    """One noise seed's (metric, delta) table, one ladder rung at a time.

    Rows: level-1 error at cfg.fixed_time, rho_alpha and rho_pvar metrics of
    the coarsened approximant against the coarsened canonical lift.
    """
    n = cfg.grid_n
    coarse_true = lift_left_riemann(sampled_window(path, n)).coarsen(cfg.stride)
    out = np.empty((3, len(cfg.delta_ladder)))
    for col, k in enumerate(cfg.delta_ladder):
        wz = ww_delta(path, k)
        w_fixed = wz.level1(wz.grid.zero_index, wz.grid.index_of(cfg.fixed_time))
        out[0, col] = float(np.linalg.norm(path.value_at(cfg.fixed_time) - w_fixed))
        coarse_wz = wz.restrict(0, n).coarsen(cfg.stride)
        out[1, col] = rho_alpha_metric(coarse_wz, coarse_true, cfg.beta)
        out[2, col] = rho_pvar_metric(coarse_wz, coarse_true, cfg.p)
    return out


def noise_member_loop(cfg, path) -> np.ndarray:
    """One noise seed's (metric, delta) table, one metric call per ladder member.

    The measure that the stacked metrics replaced: the fine stack of the
    canonical lift and every approximant, coarsened as a whole, then each
    member against member 0.
    """
    n = cfg.grid_n
    lifts = GridRoughPath.stack(
        [lift_left_riemann(sampled_window(path, n))]
        + [ww_delta(path, k).restrict(0, n) for k in cfg.delta_ladder]
    )
    w_fixed = lifts.level1(cfg.grid.zero_index, cfg.grid.index_of(cfg.fixed_time))
    coarse = lifts.coarsen(cfg.stride)
    truth = coarse.member(0)
    out = np.empty((3, len(cfg.delta_ladder)))
    for col in range(len(cfg.delta_ladder)):
        wz = coarse.member(col + 1)
        out[0, col] = np.linalg.norm(path.value_at(cfg.fixed_time) - w_fixed[col + 1])
        out[1, col] = rho_alpha_metric(wz, truth, cfg.beta)
        out[2, col] = rho_pvar_metric(wz, truth, cfg.p)
    return out


def stopping_ladder_loop(cfg, path) -> np.ndarray:
    """One stopping seed's (metric, delta) table, one ladder rung at a time.

    Rows: displacement of the greedy stopping times, interval-count bound
    margin and interval count of the coarsened approximant.  The stopping
    nodes come from greedy_stops_restarting, not from the library.
    """
    n = cfg.grid_n
    p = cfg.p
    coarse_true = lift_left_riemann(sampled_window(path, n)).coarsen(cfg.stride)
    times = coarse_true.grid.times
    t_true = times[greedy_stops_restarting(coarse_true, cfg.eta, p)]
    out = np.empty((3, len(cfg.delta_ladder)))
    for col, k in enumerate(cfg.delta_ladder):
        coarse_wz = ww_delta(path, k).restrict(0, n).coarsen(cfg.stride)
        t_wz = times[greedy_stops_restarting(coarse_wz, cfg.eta, p)]
        count = len(t_wz) - 1
        m_common = min(len(t_true), len(t_wz))
        out[0, col] = float(np.max(np.abs(t_true[:m_common] - t_wz[:m_common])))
        total = homogeneous_pvar_norm(coarse_wz, p) ** p
        out[1, col] = 1.0 + total / cfg.eta**p - count
        out[2, col] = count
    return out
