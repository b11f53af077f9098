"""Grid rough paths: level-2 enhancements of sampled paths.

A grid rough path stores, per grid interval, the level-1 increment and a
level-2 matrix; values over arbitrary node pairs are rebuilt with Chen's
relation

    X2_{s,t} = X2_{s,u} + X2_{u,t} + X1_{s,u} (x) X1_{u,t},

which the prefix-sum representation below evaluates in O(1) per pair.
Node pairs (i, j) are ints, a slice of left ends with one int right end,
or equal-length index arrays; level1 and level2 read each form by the same
arithmetic per pair, with a leading pair axis for a slice or arrays.
One GridRoughPath holds one rough path or a stack of them on one grid: the
member axes sit right after the interval axis, and everything built from
the increments carries them along.

Two constructions are provided.  The canonical lift of a sampled path uses
left-point Riemann sums for the upper-triangle entries at the path's own
resolution and completes diagonal and lower triangle by the geometric
conventions  X2^{ii} = (X1^i)^2 / 2  and  X2^{ji} = -X2^{ij} + X1^i X1^j,
so its symmetric part equals the square of the increment exactly.  The
quadrature lift of a continuously differentiable path keeps that exact
symmetric part and estimates the antisymmetric (area) part by trapezoid
quadrature of  int X_{s,r} (x) dX_r,  which is second-order in the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fbm import SamplePath, TimeGrid

__all__ = [
    "GridRoughPath",
    "Level2Value",
    "chen_combine",
    "geometricity_residual",
    "lift_left_riemann",
    "lift_smooth_quadrature",
]

_TIME_TOL = 1e-9


@dataclass(frozen=True)
class Level2Value:
    """One level-2 block over [s, t]."""

    s: float
    t: float
    matrix: np.ndarray  # (d, d)


@dataclass(frozen=True)
class GridRoughPath:
    """Per-interval increments and level-2 blocks on a uniform grid.

    A stack has member axes after the interval axis; one path has none.
    """

    grid: TimeGrid
    inc1: np.ndarray  # (n_steps, *members, d)
    inc2: np.ndarray  # (n_steps, *members, d, d)

    def __post_init__(self) -> None:
        inc1 = np.asarray(self.inc1, dtype=float)
        inc2 = np.asarray(self.inc2, dtype=float)
        n = self.grid.n_steps
        if inc1.ndim < 2 or inc1.shape[0] != n:
            raise ValueError(f"inc1 must have shape ({n}, *members, d), got {inc1.shape}")
        if inc2.shape != inc1.shape + inc1.shape[-1:]:
            raise ValueError(f"inc2 must have shape {inc1.shape} + (d,), got {inc2.shape}")
        object.__setattr__(self, "inc1", inc1)
        object.__setattr__(self, "inc2", inc2)

    @property
    def d(self) -> int:
        return self.inc1.shape[-1]

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    @staticmethod
    def stack(paths) -> "GridRoughPath":
        """Rough paths of one grid and shape as one stack; member k is paths[k]."""
        paths = tuple(paths)
        if not paths:
            raise ValueError("a stack needs at least one rough path")
        first = paths[0]
        if any(
            rp.inc1.shape != first.inc1.shape or not rp.grid.is_compatible(first.grid)
            for rp in paths
        ):
            raise ValueError("stacked rough paths live on different grids or dimensions")
        return GridRoughPath(
            first.grid,
            np.stack([rp.inc1 for rp in paths], axis=1),
            np.stack([rp.inc2 for rp in paths], axis=1),
        )

    def member(self, k: int | slice) -> "GridRoughPath":
        """Member k of a stack, k an index or a slice of the first member axis (views)."""
        if self.inc1.ndim < 3:
            raise ValueError("member() needs a stack of rough paths")
        return GridRoughPath(self.grid, self.inc1[:, k], self.inc2[:, k])

    # -- prefix representation -------------------------------------------

    @cached_property
    def values(self) -> np.ndarray:
        """Level-1 partial sums from the first node, shape (n_nodes, *members, d)."""
        out = np.zeros_like(self.inc1, shape=(self.grid.n_nodes,) + self.inc1.shape[1:])
        np.cumsum(self.inc1, axis=0, out=out[1:])
        out.setflags(write=False)
        return out

    @cached_property
    def _area_prefix(self) -> np.ndarray:
        """A[k] = X2 over [node 0, node k], shape (n_nodes, *members, d, d)."""
        # Chen fold left to right: A[k+1] = A[k] + inc2[k] + X1_{0,k} (x) inc1[k].
        cross = self.values[:-1, ..., :, None] * self.inc1[..., None, :]
        out = np.zeros_like(self.inc2, shape=(self.grid.n_nodes,) + self.inc2.shape[1:])
        np.cumsum(self.inc2 + cross, axis=0, out=out[1:])
        out.setflags(write=False)
        return out

    def level1(self, i, j) -> np.ndarray:
        """X1 over node pairs (i, j), shape (*pairs, *members, d)."""
        return self.values[j] - self.values[i]

    def level2(self, i, j) -> np.ndarray:
        """X2 over node pairs (i, j) by Chen's relation, shape (*pairs, *members, d, d)."""
        a = self._area_prefix
        v = self.values
        left = v[i]
        return a[j] - a[i] - left[..., :, None] * (v[j] - left)[..., None, :]

    # -- derived grids -----------------------------------------------------

    def restrict(self, i_lo: int, i_hi: int) -> "GridRoughPath":
        """Window onto node indices [i_lo, i_hi]; per-interval data is shared."""
        return GridRoughPath(
            self.grid.window(i_lo, i_hi),
            self.inc1[i_lo:i_hi],
            self.inc2[i_lo:i_hi],
        )

    def coarsen(self, stride: int) -> "GridRoughPath":
        """Chen-exact restriction to every stride-th node."""
        n = self.n_steps
        if stride < 1 or n % stride != 0:
            raise ValueError(f"stride {stride} does not divide {n} steps")
        if stride == 1:
            return self
        nodes = np.arange(0, n + 1, stride)
        i, j = nodes[:-1], nodes[1:]
        coarse = TimeGrid(self.grid.t_min, self.grid.t_max, n // stride)
        return GridRoughPath(coarse, self.level1(i, j), self.level2(i, j))


# ---------------------------------------------------------------------------
# Chen algebra
# ---------------------------------------------------------------------------


def chen_combine(
    a: Level2Value, b: Level2Value, x_su: np.ndarray, x_ut: np.ndarray
) -> Level2Value:
    """Combine blocks over [s, u] and [u, t] into the block over [s, t]."""
    if abs(a.t - b.s) > _TIME_TOL * max(1.0, abs(a.t)):
        raise ValueError(f"blocks do not abut: [{a.s}, {a.t}] then [{b.s}, {b.t}]")
    return Level2Value(a.s, b.t, a.matrix + b.matrix + np.outer(x_su, x_ut))


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------


def lift_left_riemann(path: SamplePath) -> GridRoughPath:
    """Canonical lift of a sampled path at its own resolution.

    Reconstruction over any node pair yields left-point Riemann sums over
    the finest sub-grid in the upper triangle, (X1^i)^2 / 2 on the diagonal
    and -X2^{ij} + X1^i X1^j in the lower triangle, all exactly: per
    interval the upper triangle is zero (a single left-point term vanishes)
    and diagonal plus lower triangle carry the geometric completion.
    """
    inc1 = np.diff(path.values, axis=0)
    outer = inc1[:, :, None] * inc1[:, None, :]
    inc2 = np.tril(outer, -1) + 0.5 * (
        np.eye(path.d, dtype=bool) * outer
    )
    return GridRoughPath(path.grid, inc1, inc2)


def lift_smooth_quadrature(path: SamplePath, derivative: np.ndarray) -> GridRoughPath:
    """Lift of a C^1 path from derivative samples at the nodes.

    The symmetric part of each per-interval block is the exact geometric
    identity inc (x) inc / 2; the antisymmetric part is the trapezoid rule
    for int_{t_k}^{t_{k+1}} X_{t_k, r} (x) dX_r, whose integrand vanishes
    at the left endpoint.  Exact for linear paths, second order in the mesh
    for smooth ones.
    """
    v = path.values
    h = path.grid.h
    derivative = np.asarray(derivative, dtype=float)
    if derivative.shape != v.shape:
        raise ValueError(f"derivative shape {derivative.shape} does not match values {v.shape}")
    inc1 = np.diff(v, axis=0)
    trap = 0.5 * h * (inc1[:, :, None] * derivative[1:, None, :])
    area = 0.5 * (trap - np.swapaxes(trap, 1, 2))
    return GridRoughPath(path.grid, inc1, 0.5 * inc1[:, :, None] * inc1[:, None, :] + area)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def geometricity_residual(rp: GridRoughPath) -> float | np.ndarray:
    """max over node pairs and entries of |Sym(X2)_{s,t} - (X1 (x) X1)_{s,t} / 2|.

    The per-interval symmetric defects add over node pairs, so every pair's
    defect is a difference of their prefix sums; a stack gives one per member.
    """
    sym = 0.5 * (rp.inc2 + np.swapaxes(rp.inc2, -1, -2))
    defect = sym - 0.5 * rp.inc1[..., :, None] * rp.inc1[..., None, :]
    prefix = np.zeros((rp.grid.n_nodes,) + defect.shape[1:])
    np.cumsum(defect, axis=0, out=prefix[1:])
    return (prefix.max(axis=0) - prefix.min(axis=0)).max(axis=(-2, -1))
