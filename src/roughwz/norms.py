"""Variation norms, Hoelder-type metrics and greedy stopping times.

Every variation here is measured through one kind of object, a pair-norm
function: norms(i, j) returns the norms of the blocks over node pairs
(i, j), i a slice of left ends with one int right end j or i and j
equal-length index arrays, along a leading pair axis.  The code that
builds a block also takes its norm: euclidean_norms of the level-1
increments  pts[j] - pts[i]  and of the gaps between two solutions'
remainders that rde.solution_distance reads, frobenius_norms of the
level-2 blocks GridRoughPath.level2, and the same norm of the difference
of two such blocks.  Blocks of stacked paths, and their norms, carry
member axes right after the pair axis.

Two kernels consume pair norms.  partition_sums is the exact O(n^2)
p-variation program: over nodes 0..j the maximal partition sum satisfies

    best[j] = max_{i < j} ( best[i] + |block_{i,j}|^p ),

because an optimal partition of [0, j] ends with some block [i, j].  It
yields best[j] for one right end after another, so greedy stopping can
restart members between right ends; block_variation runs it over the
whole grid.  Over member axes the same program, and the final root, run
per member, so a stack member's variation is that path's own bit for bit.

Both kernels read pairs through _pair_runs: every pair, ordered by right
end and then left end, as index arrays in runs of whole and split rows,
each run at most _RUN_PAIRS pair x member values (a lone 129-node path is
one run, a 6-member stack of it four).  The Hoelder sup takes
max |block_{i,j}| / (t_j - t_i)^alpha  over each run and reduces over the
pair axis only, per member.  partition_sums reads the runs into one table
of |block|^p when the grid's pairs x members fit _TABLE_PAIRS (the
129-node noise grid with its 6 members does), and each right end then
reads its row of the table; on larger grids (513-node stopping, 1025-node
solution) it reads one row, norms(slice(0, j), j), per right end.  Such a
right end costs one row of norms, its p-th power, one add and one max, so
both steps stay lean: euclidean_norms sums a last axis of length 1 or 2 as
plain products, bit for bit the einsum that longer axes keep, and
partition_sums adds the running sums into the row of p-th powers, a fresh
array or the table's row, which only this right end reads, and never into
the array norms returned, which may be a view.  Every
norm is taken over the whole grid of its path; over nodes [i, j] it is
the norm of rp.restrict(i, j), the one window taker, and no measure
takes a node range.

The homogeneous rough-path norm combines the levels as

    |||X|||_{p-var}^p = ||X1||_{p-var}^p + ||X2||_{q-var}^q,   q = p / 2,

and the greedy stopping times  tau_{i+1} = first node past tau_i where it
reaches eta over [tau_i, .]  read the same running sums, in one pass over
right ends for every member of a stack; each member restarts at its own
stopping nodes through the restart mask partition_sums takes.  Like every
other measure they come back with the member axes of the path: a bool
mask over (node, *members) that is True at each member's stopping nodes.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterator

import numpy as np

from .lift import GridRoughPath

__all__ = [
    "PairNorms",
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

# Running partition sums, one per right end; a caller may send back a boolean
# mask of members to restart (see partition_sums).
_RunningSums = Generator[float | np.ndarray, np.ndarray | None, None]

# Most pair x member values one run of _pair_runs reads (0.13 MB per float64
# array of them).
_RUN_PAIRS = 1 << 14
# Most pair x member values partition_sums keeps as one table of |block|^p
# (0.5 MB of float64): the 129-node noise grid fits, the 513- and 1025-node
# grids, where a table measured no faster than per-row reads, do not.
_TABLE_PAIRS = 1 << 16


# ---------------------------------------------------------------------------
# pair-norm kernels
# ---------------------------------------------------------------------------


def euclidean_norms(blocks: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: level-1 blocks and remainders.

    Float blocks with a last axis of length 1 or 2, which the d = 1 and
    d = m = 2 experiments read at every right end, sum their squares as
    plain elementwise products, first component first: bit for bit the
    einsum, and 11 against 18 us on a 512 x 5 x 2 row (2-core x86 VM,
    numpy 2.4).  A square that overflows gives inf quietly, as in the
    einsum.  Longer axes keep np.einsum: its order of summation there is
    not the sequential one, and a Python loop over the components would
    grow with d (up to 2^10, and d^2 for a level-2 block).  Other dtypes
    keep it too.
    """
    if blocks.dtype != np.float64 or not 1 <= blocks.shape[-1] <= 2:
        return np.sqrt(np.einsum("...j,...j->...", blocks, blocks))
    with np.errstate(over="ignore"):
        squares = blocks[..., 0] * blocks[..., 0]
        if blocks.shape[-1] == 2:
            squares += blocks[..., 1] * blocks[..., 1]
    return np.sqrt(squares, out=squares)


def frobenius_norms(blocks: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes: level-2 blocks."""
    *lead, rows, cols = blocks.shape  # spelt out: a reshape of no pairs cannot infer -1
    return euclidean_norms(blocks.reshape(*lead, rows * cols))


def partition_sums(norms: PairNorms, p: float, n_steps: int) -> _RunningSums:
    """Yield max over partitions of [0, j] of sum |block|^p for j = 1, ..., n_steps.

    Each yield is a float, or an array over the member axes of the norms.
    A caller may send back a boolean mask over the members (a 0-d one for a
    lone path) after the yield for j: the masked members restart at node j,
    and from then on yield the sums over partitions of [j, .].  Their sums
    before j become -inf and their sum at j becomes 0, so a left end before
    j never wins the max.  A plain for loop sends nothing.

    A grid whose pair x member values fit _TABLE_PAIRS has every |block|^p
    read first, run by run, into one table; a larger one has one row,
    norms(slice(0, j), j), read per right end.
    """
    members = _member_shape(norms)
    best = np.zeros((n_steps + 1,) + members)
    n_pairs = n_steps * (n_steps + 1) // 2
    table = None
    if n_pairs * int(np.prod(members)) <= _TABLE_PAIRS:
        table, k = np.empty((n_pairs,) + members), 0
        for i, j in _pair_runs(n_steps + 1, members):
            table[k : k + len(i)] = norms(i, j) ** p
            k += len(i)
    for j in range(1, n_steps + 1):
        if table is None:
            # A fresh array: norms may return a view, which is never written.
            terms = np.power(norms(slice(0, j), j), p)
        else:
            k = j * (j - 1) // 2  # position of pair (0, j) in the table
            terms = table[k : k + j]  # read at this right end only, so written over
        np.add(best[:j], terms, out=terms)
        best[j] = np.maximum.reduce(terms, axis=0)
        restart = yield best[j]
        if restart is not None:
            best[:j, restart] = -np.inf
            best[j, restart] = 0.0


def _root(total: float | np.ndarray, p: float) -> float | np.ndarray:
    """total ** (1/p) per member, bit for bit the scalar power (np.power may round an ulp off)."""
    return np.float_power(total, 1.0 / p)


def block_variation(norms: PairNorms, p: float, n_steps: int) -> float | np.ndarray:
    """Exact p-variation of the blocks behind a pair-norm function over nodes 0..n_steps."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if n_steps == 0:
        return np.zeros(_member_shape(norms))[()]
    for best in partition_sums(norms, p, n_steps):
        pass
    return _root(best, p)


def _member_shape(norms: PairNorms) -> tuple[int, ...]:
    """The member axes of a pair-norm function, read off an empty run of pairs."""
    none = np.arange(0)
    return norms(none, none).shape[1:]


def _pair_runs(n_nodes: int, members: tuple[int, ...]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Node pairs i < j as index arrays (i, j), in runs of at most _RUN_PAIRS pair x member values.

    The pairs are ordered by right end and then left end; a run holds at
    least one pair.
    """
    nodes = np.arange(n_nodes)
    run = max(_RUN_PAIRS // int(np.prod(members)), 1)
    row_start = nodes * (nodes - 1) // 2  # position of pair (0, j) in that order
    n_pairs = n_nodes * (n_nodes - 1) // 2
    for k0 in range(0, n_pairs, run):
        k1 = min(k0 + run, n_pairs)
        j0, j1 = np.searchsorted(row_start, [k0, k1 - 1], side="right") - 1
        rows = nodes[j0 : j1 + 1, None]
        j, i = np.nonzero(nodes[:j1] < rows)
        skip = k0 - row_start[j0]
        yield i[skip : skip + k1 - k0], j[skip : skip + k1 - k0] + j0


def _holder_sup(norms: PairNorms, times: np.ndarray, alpha: float) -> float | np.ndarray:
    """sup over node pairs i < j of |block_{i,j}| / (t_j - t_i)^alpha, per member.

    The pairs are read in the runs of _pair_runs.  A member is NaN if any
    of its ratios is.
    """
    members = _member_shape(norms)
    out = np.zeros(members)
    for i, j in _pair_runs(len(times), members):
        gaps = (times[j] - times[i]) ** alpha
        ratio = norms(i, j) / gaps.reshape(gaps.shape + (1,) * len(members))
        out = np.maximum(out, ratio.max(axis=0))
    return out[()]


def _as_points(values: np.ndarray) -> np.ndarray:
    """Points as (n, *members, d), a float array of at least two axes."""
    pts = np.asarray(values, dtype=float)
    if pts.ndim < 2:
        raise ValueError(f"expected points of shape (n, *members, d), got {pts.shape}")
    return pts


def _increment_norms(pts: np.ndarray) -> PairNorms:
    return lambda i, j: euclidean_norms(pts[j] - pts[i])


def _level2_norms(rp: GridRoughPath) -> PairNorms:
    return lambda i, j: frobenius_norms(rp.level2(i, j))


def _level2_gap_norms(a: GridRoughPath, b: GridRoughPath) -> PairNorms:
    return lambda i, j: frobenius_norms(a.level2(i, j) - b.level2(i, j))


def _homogeneous_sums(rp: GridRoughPath, p: float) -> _RunningSums:
    """Yield ||X1||_{p-var}^p + ||X2||_{q-var}^q over [0, j] for j = 1, ..., n_steps.

    A restart mask sent back goes to both levels' partition_sums.
    """
    lvl1 = partition_sums(_increment_norms(rp.values), p, rp.n_steps)
    lvl2 = partition_sums(_level2_norms(rp), p / 2.0, rp.n_steps)
    restart = None
    for _ in range(rp.n_steps):
        restart = yield lvl1.send(restart) + lvl2.send(restart)


# ---------------------------------------------------------------------------
# seminorms and metrics
# ---------------------------------------------------------------------------


def pvar_seminorm(values: np.ndarray, p: float) -> float | np.ndarray:
    """Exact p-variation of a discrete path, any dimension.

    Axes between the node axis and the last one are member axes: an
    (n, B, d) array holds B paths on the same nodes and gives the array of
    their B variations.
    """
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    pts = _as_points(values)
    if len(pts) < 2:
        return np.zeros(pts.shape[1:-1])[()]
    return block_variation(_increment_norms(pts), p, len(pts) - 1)


def pvar_level2(rp: GridRoughPath, q: float) -> float | np.ndarray:
    """Exact q-variation of the level-2 blocks (Frobenius norm)."""
    if not q > 0.0:
        raise ValueError(f"q must be positive, got {q}")
    return block_variation(_level2_norms(rp), q, rp.n_steps)


def homogeneous_pvar_norm(rp: GridRoughPath, p: float) -> float | np.ndarray:
    """(||X1||_{p-var}^p + ||X2||_{q-var}^q)^{1/p} with q = p/2."""
    if not p >= 2.0:
        raise ValueError(f"homogeneous norm needs p >= 2 so that q = p/2 >= 1, got p={p}")
    for total in _homogeneous_sums(rp, p):
        pass
    return _root(total, p)


def holder_seminorm(times: np.ndarray, values: np.ndarray, alpha: float) -> float | np.ndarray:
    """sup over node pairs of |y_t - y_s| / (t - s)^alpha.

    Axes between the node axis and the last one are member axes, as for
    pvar_seminorm: a stack gives the array of its members' sups.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    pts = _as_points(values)
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


def rho_alpha_metric(a: GridRoughPath, b: GridRoughPath, alpha: float) -> float | np.ndarray:
    """Inhomogeneous alpha-Hoelder distance on a common grid.

    sup |X1 - Y1|_{s,t} / (t-s)^alpha  +  sup ||X2 - Y2||_{s,t} / (t-s)^{2 alpha},
    both sups over all node pairs, per member of the stacks a and b broadcast.
    """
    _check_same_layout(a, b)
    times = a.grid.times
    lvl1 = holder_seminorm(times, a.values - b.values, alpha)
    return lvl1 + _holder_sup(_level2_gap_norms(a, b), times, 2.0 * alpha)


def pvar_level2_distance(a: GridRoughPath, b: GridRoughPath, q: float) -> float | np.ndarray:
    """Exact q-variation of the level-2 difference X2 - Y2."""
    if not q >= 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    _check_same_layout(a, b)
    return block_variation(_level2_gap_norms(a, b), q, a.n_steps)


def rho_pvar_metric(a: GridRoughPath, b: GridRoughPath, p: float) -> float | np.ndarray:
    """p-variation distance: ||X1 - Y1||_{p-var} + ||X2 - Y2||_{q-var}, q = p/2."""
    if not p >= 2.0:
        raise ValueError(f"need p >= 2 so that q = p/2 >= 1, got p={p}")
    _check_same_layout(a, b)
    lvl1 = pvar_seminorm(a.values - b.values, p)
    return lvl1 + pvar_level2_distance(a, b, p / 2.0)


# ---------------------------------------------------------------------------
# greedy stopping times
# ---------------------------------------------------------------------------


def greedy_stopping_times(rp: GridRoughPath, eta: float, p: float) -> np.ndarray:
    """Greedy stopping nodes of a rough path, or of each member of a stack.

    Returns a bool array of shape (n_steps + 1, *members), True at node 0,
    at node n_steps and at every stopping node: the first node j past the
    previous stop s where the homogeneous p-variation norm over [s, j]
    reaches eta.  So the norm over every interval except possibly the last
    is at least eta, and the interval count N = stops.sum(axis=0) - 1
    satisfies N <= 1 + eta^{-p} |||X|||_{p-var}^p by superadditivity of
    the p-th power.  One pass of the homogeneous running sums over right
    ends serves every member: a member whose sum reaches eta^p at node j
    restarts there.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not p >= 2.0:
        raise ValueError(f"homogeneous norm needs p >= 2, got {p}")
    n = rp.n_steps
    thresh = eta**p
    stops = np.zeros((n + 1,) + rp.inc1.shape[1:-1], dtype=bool)
    stops[[0, n]] = True
    sums = _homogeneous_sums(rp, p)
    total = next(sums)
    for j in range(1, n):
        stops[j] = total >= thresh
        # None skips the mask writes at the many right ends where no member stops.
        total = sums.send(stops[j] if stops[j].any() else None)
    return stops
