"""Independent reference implementations used to derive test expectations.

Everything here is deliberately written the slow, obvious way: sequential
folds instead of prefix sums, exhaustive partition enumeration instead of
dynamic programming, quadrature over fine slices instead of closed forms.
Agreement between these and the library is the point of the tests, so none
of this may import from roughwz internals beyond plain data access.  The
per-rung experiment loops at the end call public layer functions only: they
are the loops that the experiments' stacked ladder replaced.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from roughwz.lift import lift_left_riemann
from roughwz.norms import (
    greedy_stopping_times,
    homogeneous_pvar_norm,
    rho_alpha_metric,
    rho_pvar_metric,
)
from roughwz.wongzakai import DeltaParam, ww_delta


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


def holder_sup_loop(block_norms, times: np.ndarray, alpha: float) -> float:
    """sup over node pairs i < j of |block_{i,j}| / (t_j - t_i)^alpha, one right end at a time.

    block_norms(i_lo, j) returns the norms over (i, j) for i in [i_lo, j).
    This is the per-right-end loop the pair-run sup replaced; Python's max
    skips a NaN ratio, so it is a reference for finite inputs only.
    """
    out = 0.0
    for j in range(1, len(times)):
        ratio = block_norms(0, j) / (times[j] - times[:j]) ** alpha
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


def noise_ladder_loop(cfg, path) -> np.ndarray:
    """One noise seed's (metric, delta) table, one ladder rung at a time.

    Rows: level-1 error at cfg.fixed_time, rho_alpha and rho_pvar metrics of
    the coarsened approximant against the coarsened canonical lift.
    """
    n = cfg.grid_n
    coarse_true = lift_left_riemann(path.restrict(0, n)).coarsen(cfg.stride)
    out = np.empty((3, len(cfg.delta_ladder)))
    for col, k in enumerate(cfg.delta_ladder):
        wz = ww_delta(path, DeltaParam.for_grid(cfg.grid, k))
        w_fixed = wz.level1(wz.grid.zero_index, wz.grid.index_of(cfg.fixed_time))
        out[0, col] = float(np.linalg.norm(path.value_at(cfg.fixed_time) - w_fixed))
        coarse_wz = wz.restrict(0, n).coarsen(cfg.stride)
        out[1, col] = rho_alpha_metric(coarse_wz, coarse_true, cfg.beta)
        out[2, col] = rho_pvar_metric(coarse_wz, coarse_true, cfg.p)
    return out


def stopping_ladder_loop(cfg, path) -> np.ndarray:
    """One stopping seed's (metric, delta) table, one ladder rung at a time.

    Rows: displacement of the greedy stopping times, interval-count bound
    margin and interval count of the coarsened approximant.
    """
    n = cfg.grid_n
    p = cfg.p
    coarse_true = lift_left_riemann(path.restrict(0, n)).coarsen(cfg.stride)
    st_true = greedy_stopping_times(coarse_true, cfg.eta, p)
    out = np.empty((3, len(cfg.delta_ladder)))
    for col, k in enumerate(cfg.delta_ladder):
        dp = DeltaParam.for_grid(cfg.grid, k)
        coarse_wz = ww_delta(path, dp).restrict(0, n).coarsen(cfg.stride)
        st_wz = greedy_stopping_times(coarse_wz, cfg.eta, p)
        m_common = min(len(st_true.times), len(st_wz.times))
        out[0, col] = float(np.max(np.abs(st_true.times[:m_common] - st_wz.times[:m_common])))
        total = homogeneous_pvar_norm(coarse_wz, p) ** p
        out[1, col] = 1.0 + total / cfg.eta**p - st_wz.count
        out[2, col] = st_wz.count
    return out
