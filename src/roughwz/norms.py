"""Variation norms, Hoelder-type metrics and greedy stopping times.

Every variation here is measured through one kind of object, a pair-norm
function: norms(i, j) returns the norms of the blocks over node pairs
(i, j), i a slice of left ends with one int right end j or i and j
equal-length index arrays, along a leading pair axis.  The code that
builds a block also takes its norm: euclidean_norms of the level-1
increments  pts[j] - pts[i]  and of the solution remainders
ControlledPath.remainder, frobenius_norms of the level-2 blocks
GridRoughPath.level2, and the same norm of the difference of two such
blocks.  Blocks of stacked paths, and their norms, carry member axes
right after the pair axis.

Two kernels consume pair norms.  partition_sums is the exact O(n^2)
p-variation program: over nodes i_lo..j the maximal partition sum
satisfies

    best[j] = max_{i < j} ( best[i] + |block_{i,j}|^p ),

because an optimal partition of [i_lo, j] ends with some block [i, j].  It
reads one row, norms(slice(i_lo, j), j), per right end and yields best[j]
for one right end after another, so greedy stopping can exit early;
block_variation runs it over a whole node window.  Over member axes the
same program runs one variation per member.  The Hoelder sup takes
max |block_{i,j}| / (t_j - t_i)^alpha  over the same pairs in no particular
order, so it reads runs of whole and split rows as index arrays, at most
_RUN_PAIRS pairs per run (a whole 129-node grid is one run).

The homogeneous rough-path norm combines the levels as

    |||X|||_{p-var}^p = ||X1||_{p-var}^p + ||X2||_{q-var}^q,   q = p / 2,

and the greedy stopping times  tau_{i+1} = first node past tau_i where it
reaches eta over [tau_i, .]  read the same running sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .lift import GridRoughPath

__all__ = [
    "PairNorms",
    "StoppingTimes",
    "block_variation",
    "euclidean_norms",
    "frobenius_norms",
    "greedy_stopping_times",
    "holder_seminorm",
    "homogeneous_pvar_norm",
    "partition_sums",
    "pvar_level2",
    "pvar_level2_distance",
    "pvar_seminorm",
    "rho_alpha_metric",
    "rho_pvar_metric",
]

# norms(i, j) -> block norms over node pairs (i, j), shape (pairs, *members).
PairNorms = Callable[[slice | np.ndarray, int | np.ndarray], np.ndarray]

# Most node pairs one pass of the Hoelder sup reads (about 0.5 MB per float64 array).
_RUN_PAIRS = 1 << 14


# ---------------------------------------------------------------------------
# pair-norm kernels
# ---------------------------------------------------------------------------


def euclidean_norms(blocks: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: level-1 blocks and remainders."""
    return np.sqrt(np.einsum("...j,...j->...", blocks, blocks))


def frobenius_norms(blocks: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes: level-2 blocks."""
    return euclidean_norms(blocks.reshape(blocks.shape[:-2] + (-1,)))


def partition_sums(
    norms: PairNorms, p: float, i_lo: int, i_hi: int
) -> Iterator[float | np.ndarray]:
    """Yield max over partitions of [i_lo, j] of sum |block|^p for j = i_lo+1, ..., i_hi.

    Each yield is a float, or an array over the member axes of the norms.
    """
    for r in range(1, i_hi - i_lo + 1):
        terms = norms(slice(i_lo, i_lo + r), i_lo + r) ** p
        if r == 1:
            best = np.zeros((i_hi - i_lo + 1,) + terms.shape[1:])
        best[r] = (best[:r] + terms).max(axis=0)
        yield best[r]


def _resolve_window(n_steps: int, i_lo: int, i_hi: int | None) -> tuple[int, int]:
    if i_hi is None:
        i_hi = n_steps
    if not 0 <= i_lo < i_hi <= n_steps:
        raise ValueError(f"bad node window [{i_lo}, {i_hi}] for {n_steps} steps")
    return i_lo, i_hi


def block_variation(
    norms: PairNorms, p: float, n_steps: int, i_lo: int = 0, i_hi: int | None = None
) -> float | np.ndarray:
    """Exact p-variation of the blocks behind a pair-norm function over [i_lo, i_hi]."""
    i_lo, i_hi = _resolve_window(n_steps, i_lo, i_hi)
    for best in partition_sums(norms, p, i_lo, i_hi):
        pass
    return best ** (1.0 / p)


def _holder_sup(norms: PairNorms, times: np.ndarray, alpha: float) -> float:
    """sup over node pairs i < j of |block_{i,j}| / (t_j - t_i)^alpha; NaN if any ratio is.

    The pairs, ordered by right end and then left end, are read as index
    arrays in runs of at most _RUN_PAIRS.
    """
    nodes = np.arange(len(times))
    row_start = nodes * (nodes - 1) // 2  # position of pair (0, j) in that order
    n_pairs = len(times) * (len(times) - 1) // 2
    out = np.float64(0.0)
    for k0 in range(0, n_pairs, _RUN_PAIRS):
        k1 = min(k0 + _RUN_PAIRS, n_pairs)
        j0, j1 = np.searchsorted(row_start, [k0, k1 - 1], side="right") - 1
        rows = nodes[j0 : j1 + 1, None]
        j, i = np.nonzero(nodes[:j1] < rows)
        skip = k0 - row_start[j0]
        i, j = i[skip : skip + k1 - k0], j[skip : skip + k1 - k0] + j0
        ratio = norms(i, j) / (times[j] - times[i]) ** alpha
        out = np.maximum(out, ratio.max())
    return float(out)


def _as_points(values: np.ndarray) -> np.ndarray:
    """Points as (n, *members, d); a 1-D array is one scalar path."""
    pts = np.asarray(values, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim < 2:
        raise ValueError(f"expected points of shape (n,) or (n, *members, d), got {pts.shape}")
    return pts


def _increment_norms(pts: np.ndarray) -> PairNorms:
    return lambda i, j: euclidean_norms(pts[j] - pts[i])


def _level2_norms(rp: GridRoughPath) -> PairNorms:
    return lambda i, j: frobenius_norms(rp.level2(i, j))


def _level2_gap_norms(a: GridRoughPath, b: GridRoughPath) -> PairNorms:
    return lambda i, j: frobenius_norms(a.level2(i, j) - b.level2(i, j))


def _homogeneous_sums(rp: GridRoughPath, p: float, i_lo: int, i_hi: int) -> Iterator[float]:
    """Yield ||X1||_{p-var}^p + ||X2||_{q-var}^q over [i_lo, j] for j = i_lo+1, ..., i_hi."""
    lvl1 = partition_sums(_increment_norms(rp.values), p, i_lo, i_hi)
    lvl2 = partition_sums(_level2_norms(rp), p / 2.0, i_lo, i_hi)
    for best1, best2 in zip(lvl1, lvl2):
        yield best1 + best2


# ---------------------------------------------------------------------------
# seminorms and metrics
# ---------------------------------------------------------------------------


def pvar_seminorm(values: np.ndarray, p: float) -> float | np.ndarray:
    """Exact p-variation of a discrete path, any dimension.

    Axes between the node axis and the last one are member axes: an
    (n, B, d) array holds B paths on the same nodes and gives the array of
    their B variations.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    pts = _as_points(values)
    if len(pts) < 2:
        return np.zeros(pts.shape[1:-1])[()]
    return block_variation(_increment_norms(pts), p, len(pts) - 1)


def pvar_level2(rp: GridRoughPath, q: float, i_lo: int = 0, i_hi: int | None = None) -> float:
    """Exact q-variation of the level-2 blocks (Frobenius norm)."""
    if q <= 0.0:
        raise ValueError(f"q must be positive, got {q}")
    return block_variation(_level2_norms(rp), q, rp.n_steps, i_lo, i_hi)


def homogeneous_pvar_norm(
    rp: GridRoughPath, p: float, i_lo: int = 0, i_hi: int | None = None
) -> float:
    """(||X1||_{p-var}^p + ||X2||_{q-var}^q)^{1/p} with q = p/2 over a node window."""
    if p < 2.0:
        raise ValueError(f"homogeneous norm needs p >= 2 so that q = p/2 >= 1, got p={p}")
    i_lo, i_hi = _resolve_window(rp.n_steps, i_lo, i_hi)
    for total in _homogeneous_sums(rp, p, i_lo, i_hi):
        pass
    return total ** (1.0 / p)


def holder_seminorm(times: np.ndarray, values: np.ndarray, alpha: float) -> float:
    """sup over node pairs of |y_t - y_s| / (t - s)^alpha."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    pts = _as_points(values)
    if pts.ndim != 2:
        raise ValueError(f"expected one path of shape (n,) or (n, d), got {pts.shape}")
    times = np.asarray(times, dtype=float)
    if len(times) != len(pts):
        raise ValueError(f"{len(times)} times for {len(pts)} values")
    steps = np.diff(times)
    if not (steps > 0.0).all():
        k = int(np.argmin(steps > 0.0))
        raise ValueError(
            f"times must increase strictly: t[{k}] = {times[k]} then t[{k + 1}] = {times[k + 1]}"
        )
    return _holder_sup(_increment_norms(pts), times, alpha)


def _check_same_layout(a: GridRoughPath, b: GridRoughPath) -> None:
    if a.d != b.d or not a.grid.is_compatible(b.grid):
        raise ValueError("rough paths live on different grids or dimensions")


def rho_alpha_metric(a: GridRoughPath, b: GridRoughPath, alpha: float) -> float:
    """Inhomogeneous alpha-Hoelder distance on a common grid.

    sup |X1 - Y1|_{s,t} / (t-s)^alpha  +  sup ||X2 - Y2||_{s,t} / (t-s)^{2 alpha},
    both sups over all node pairs.
    """
    _check_same_layout(a, b)
    times = a.grid.times
    lvl1 = holder_seminorm(times, a.values - b.values, alpha)
    return lvl1 + _holder_sup(_level2_gap_norms(a, b), times, 2.0 * alpha)


def pvar_level2_distance(
    a: GridRoughPath, b: GridRoughPath, q: float, i_lo: int = 0, i_hi: int | None = None
) -> float:
    """Exact q-variation of the level-2 difference X2 - Y2 over a node window."""
    if q < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    _check_same_layout(a, b)
    return block_variation(_level2_gap_norms(a, b), q, a.n_steps, i_lo, i_hi)


def rho_pvar_metric(a: GridRoughPath, b: GridRoughPath, p: float) -> float:
    """p-variation distance: ||X1 - Y1||_{p-var} + ||X2 - Y2||_{q-var}, q = p/2."""
    if p < 2.0:
        raise ValueError(f"need p >= 2 so that q = p/2 >= 1, got p={p}")
    _check_same_layout(a, b)
    lvl1 = pvar_seminorm(a.values - b.values, p)
    return lvl1 + pvar_level2_distance(a, b, p / 2.0)


# ---------------------------------------------------------------------------
# greedy stopping times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoppingTimes:
    """Greedy exhaustion times of the homogeneous norm at level eta.

    times[0] is the window start; afterwards times[i+1] is the first node
    past times[i] where the homogeneous p-variation norm over
    [times[i], times[i+1]] reaches eta, the final time being capped at the
    window end.  count = len(times) - 1 is the interval count N.
    """

    times: np.ndarray
    indices: np.ndarray
    eta: float
    p: float

    @property
    def count(self) -> int:
        return len(self.times) - 1


def greedy_stopping_times(
    rp: GridRoughPath, eta: float, p: float, i_lo: int = 0, i_hi: int | None = None
) -> StoppingTimes:
    """Greedy stopping nodes of a rough path over a node window.

    Grid convention: each stopping node is the first node where the norm
    is >= eta, so the norm over every interval except possibly the last
    is at least eta and N <= 1 + eta^{-p} |||X|||_{p-var}^p holds on the
    window by superadditivity of the p-th power.
    """
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if p < 2.0:
        raise ValueError(f"homogeneous norm needs p >= 2, got {p}")
    i_lo, i_hi = _resolve_window(rp.n_steps, i_lo, i_hi)
    thresh = eta**p
    indices = [i_lo]
    while indices[-1] < i_hi:
        start = indices[-1]
        sums = enumerate(_homogeneous_sums(rp, p, start, i_hi), start + 1)
        indices.append(next((j for j, total in sums if total >= thresh), i_hi))
    idx = np.asarray(indices, dtype=int)
    return StoppingTimes(times=rp.grid.times[idx], indices=idx, eta=eta, p=p)
