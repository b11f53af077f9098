"""Two-sided fractional Brownian motion on uniform grids.

The driving noise is a d-dimensional fractional Brownian motion with Hurst
index H, each component an independent centred Gaussian path with

    R(s, t) = 0.5 * (|t|^{2H} + |s|^{2H} - |t - s|^{2H}),

valid for arbitrary real s, t, so windows may extend to negative times.
Sampling is exact: on a uniform grid the increments form stationary
fractional Gaussian noise, whose covariance embeds in a circulant of twice
the step count (Davies & Harte, 1987).  Its eigenvalues are non-negative
for H <= 1/2 (Craigmile, 2003), so one FFT of complex normals scaled by
their square roots gives exact increments in O(n log n).  Paths are the
cumulative sums, re-anchored to zero at time 0, which every grid that
spans 0 must contain as a node.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TimeGrid",
    "SamplePath",
    "FbmParams",
    "FbmSampler",
    "CovarianceFactorizationError",
    "GridAlignmentError",
    "fbm_covariance",
    "path_rng",
    "wiener_shift",
]

# Relative slack (in units of one grid cell) when matching times to nodes.
_ALIGN_RTOL = 1e-8


class GridAlignmentError(ValueError):
    """A time does not sit on a grid node, or a grid misses the origin."""


class CovarianceFactorizationError(RuntimeError):
    """The circulant embedding of the increment covariance is not non-negative."""


# ---------------------------------------------------------------------------
# grids and paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_steps + 1 nodes on [t_min, t_max].

    Whenever the window spans time 0, the origin must land exactly on a
    node; node times are then generated as integer multiples of the spacing
    so that 0.0 is hit without rounding error.
    """

    t_min: float
    t_max: float
    n_steps: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_steps, numbers.Integral) or isinstance(self.n_steps, bool):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.t_max > self.t_min:
            raise ValueError(f"need t_max > t_min, got [{self.t_min}, {self.t_max}]")
        if self.spans_zero:
            k0 = -self.t_min / self.h
            if abs(k0 - round(k0)) > _ALIGN_RTOL * max(1.0, abs(k0)):
                raise GridAlignmentError(
                    f"grid [{self.t_min}, {self.t_max}] with {self.n_steps} steps "
                    "spans time 0 but does not contain it as a node"
                )

    @property
    def h(self) -> float:
        return (self.t_max - self.t_min) / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def spans_zero(self) -> bool:
        return self.t_min <= 0.0 <= self.t_max

    @cached_property
    def zero_index(self) -> int:
        if not self.spans_zero:
            raise GridAlignmentError(f"grid [{self.t_min}, {self.t_max}] does not span 0")
        return int(round(-self.t_min / self.h))

    @cached_property
    def times(self) -> np.ndarray:
        idx = np.arange(self.n_nodes, dtype=float)
        if self.spans_zero:
            # Anchor at the origin: node k0 is exactly 0.0.
            t = (idx - self.zero_index) * self.h
        else:
            t = self.t_min + idx * self.h
        t.setflags(write=False)
        return t

    def index_of(self, t: float) -> int:
        """Node index of time t; raises if t is not grid aligned."""
        pos = (t - self.t_min) / self.h
        i = int(round(pos))
        if i < 0 or i > self.n_steps or abs(pos - i) > _ALIGN_RTOL * max(1.0, abs(pos)):
            raise GridAlignmentError(
                f"time {t} is not a node of grid [{self.t_min}, {self.t_max}] "
                f"with spacing {self.h}"
            )
        return i

    def extended(self, extra_steps: int) -> "TimeGrid":
        """Same spacing and left endpoint, extra_steps more nodes on the right."""
        if extra_steps < 0:
            raise ValueError(f"extra_steps must be >= 0, got {extra_steps}")
        return TimeGrid(self.t_min, self.t_max + extra_steps * self.h, self.n_steps + extra_steps)

    def window(self, i_lo: int, i_hi: int) -> "TimeGrid":
        """Sub-grid between node indices i_lo < i_hi (same spacing)."""
        if not 0 <= i_lo < i_hi <= self.n_steps:
            raise ValueError(f"bad window [{i_lo}, {i_hi}] for {self.n_steps} steps")
        return TimeGrid(float(self.times[i_lo]), float(self.times[i_hi]), i_hi - i_lo)

    def is_compatible(self, other: "TimeGrid") -> bool:
        """Same node set up to rounding."""
        return (
            self.n_steps == other.n_steps
            and abs(self.t_min - other.t_min) <= _ALIGN_RTOL * max(1.0, abs(self.h))
            and abs(self.t_max - other.t_max) <= _ALIGN_RTOL * max(1.0, abs(self.h))
        )


@dataclass(frozen=True)
class SamplePath:
    """Path values on the nodes of a grid spanning time 0, zero at the origin."""

    grid: TimeGrid
    values: np.ndarray  # (n_nodes, d)

    def __post_init__(self) -> None:
        # Always a copy, so no later write to the caller's array reaches the path.
        v = np.array(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.grid.n_nodes:
            raise ValueError(
                f"values have {v.shape[0]} rows, grid has {self.grid.n_nodes} nodes"
            )
        if np.any(v[self.grid.zero_index] != 0.0):
            raise ValueError("path must vanish at the time-0 node")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def value_at(self, t: float) -> np.ndarray:
        return self.values[self.grid.index_of(t)]


# ---------------------------------------------------------------------------
# covariance and exact sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FbmParams:
    """Hurst index, path dimension and master seed of the noise ensemble."""

    H: float
    d: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (1.0 / 3.0 < self.H <= 0.5):
            raise ValueError(f"H must lie in (1/3, 1/2], got {self.H}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")


def fbm_covariance(s, t, H: float):
    """E[w(s) w(t)] for one fBm component; s, t may be arrays and negative."""
    if not 0.0 < H < 1.0:
        raise ValueError(f"H must lie in (0, 1), got {H}")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    two_h = 2.0 * H
    out = 0.5 * (
        np.abs(s) ** two_h + np.abs(t) ** two_h - np.abs(t - s) ** two_h
    )
    return out if out.ndim else float(out)


def path_rng(seed: int, counter: int) -> np.random.Generator:
    """Independent stream no. `counter` of the master seed.

    Uses the same child construction as SeedSequence.spawn, so stream
    identity depends only on (seed, counter), never on draw order.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(counter,)))


class FbmSampler:
    """Exact circulant-embedding sampler for one (grid, params).

    The constructor takes one FFT of the embedded fractional Gaussian noise
    autocovariance, O(n log n) time and O(n) memory; each path costs one
    FFT of length 2 n_steps per component.  Path no. `counter` depends only
    on (seed, counter), whether drawn alone or inside `sample_values`.
    """

    def __init__(self, grid: TimeGrid, params: FbmParams):
        self.grid = grid
        self.params = params
        self._zero = grid.zero_index
        n = grid.n_steps
        two_h = 2.0 * params.H
        k = np.arange(n + 1, dtype=float)
        # Autocovariance of the increments w(t_{k+1}) - w(t_k), lags 0..n.
        gamma = 0.5 * grid.h**two_h * (
            (k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h
        )
        circulant_row = np.concatenate([gamma, gamma[-2:0:-1]])
        lam = np.fft.fft(circulant_row).real
        if lam.min() < -1e-12 * lam.max():
            raise CovarianceFactorizationError(
                f"circulant embedding of the fBm increments on {grid.n_nodes} nodes of "
                f"[{grid.t_min}, {grid.t_max}] with H={params.H} has eigenvalue "
                f"{lam.min():.3g} < 0"
            )
        self._scale = np.sqrt(np.clip(lam, 0.0, None) / len(lam))

    def _values(self, counter: int) -> np.ndarray:
        g = path_rng(self.params.seed, counter)
        shape = (len(self._scale), self.params.d)
        z = g.standard_normal(shape) + 1j * g.standard_normal(shape)
        inc = np.fft.fft(self._scale[:, None] * z, axis=0).real[: self.grid.n_steps]
        out = np.zeros((self.grid.n_nodes, self.params.d))
        np.cumsum(inc, axis=0, out=out[1:])
        return out - out[self._zero]

    def sample(self, counter: int = 0) -> SamplePath:
        """Path no. `counter` of the ensemble."""
        return SamplePath(self.grid, self._values(counter))

    def sample_values(self, n_paths: int, start_counter: int = 0) -> np.ndarray:
        """Value array (n_paths, n_nodes, d); row i is path no. start_counter + i."""
        out = np.empty((n_paths, self.grid.n_nodes, self.params.d))
        for i in range(n_paths):
            out[i] = self._values(start_counter + i)
        return out


# ---------------------------------------------------------------------------
# Wiener shift
# ---------------------------------------------------------------------------


def wiener_shift(path: SamplePath, tau: float) -> SamplePath:
    """Shifted path  t -> w(t + tau) - w(tau)  on the translated window.

    tau must be a node of the path's grid.  The output lives on
    [t_min - tau, t_max - tau], keeps the spacing, and is re-anchored so
    that its value at time 0 (the old node tau) is exactly zero.  Shifts
    compose: applying tau1 then tau2 equals applying tau1 + tau2 up to
    rounding.
    """
    g = path.grid
    k = g.index_of(tau)
    shifted = TimeGrid(g.t_min - tau, g.t_max - tau, g.n_steps)
    return SamplePath(shifted, path.values - path.values[k])
