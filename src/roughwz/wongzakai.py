"""Smooth stationary approximation of a sampled noise path.

For a window width delta = k * h the approximant integrates the stationary
difference quotient  G_delta(t) = (w(t + delta) - w(t)) / delta:

    W_delta(t) = int_0^t G_delta(s) ds
               = ( int_t^{t+delta} w(s) ds - int_0^delta w(s) ds ) / delta,

evaluated by trapezoid quadrature on the grid, which is exact for piecewise
linear w, vanishes at t = 0 and needs the path on the extended window
[t_min, t_max + delta].  Its level-2 enhancement is the quadrature lift
driven by the derivative samples G_delta.

All widths are exact grid multiples so that every delta of a ladder acts
on one shared sampled path and comparisons across deltas are paired.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .fbm import SamplePath
from .lift import GridRoughPath, lift_smooth_quadrature

__all__ = [
    "DeltaParam",
    "g_delta",
    "w_delta",
    "ww_delta",
]


@dataclass(frozen=True)
class DeltaParam:
    """Approximation width delta = multiple * h, an exact grid multiple in (0, 1]."""

    multiple: int
    h: float

    def __post_init__(self) -> None:
        if not isinstance(self.multiple, numbers.Integral) or isinstance(self.multiple, bool):
            raise ValueError(f"multiple must be an integer, got {self.multiple!r}")
        if not self.multiple >= 1:
            raise ValueError(f"multiple must be >= 1, got {self.multiple}")
        if not self.h > 0.0:
            raise ValueError(f"h must be positive, got {self.h}")
        if not self.delta <= 1.0 + 1e-12:
            raise ValueError(f"delta = {self.delta} exceeds 1")

    @property
    def delta(self) -> float:
        return self.multiple * self.h


def _check_width(path: SamplePath, dp: DeltaParam) -> int:
    k = dp.multiple
    g = path.grid
    if not abs(g.h - dp.h) <= 1e-9 * g.h:
        raise ValueError(f"delta spacing {dp.h} does not match grid spacing {g.h}")
    if k >= g.n_steps:
        raise ValueError(
            f"delta = {k} cells needs a path on at least {k + 1} cells, "
            f"got {g.n_steps}; sample on the extended window"
        )
    return k


def g_delta(path: SamplePath, dp: DeltaParam) -> np.ndarray:
    """Difference quotient (w(t + delta) - w(t)) / delta at every valid node.

    Row i is the value at node i of the path's grid, covering nodes
    0 .. n_steps - multiple, i.e. the grid of w_delta(path, dp).
    """
    k = _check_width(path, dp)
    v = path.values
    return (v[k:] - v[:-k]) / dp.delta


def w_delta(path: SamplePath, dp: DeltaParam) -> SamplePath:
    """Integrated approximant W_delta on [t_min, t_max - delta].

    Uses the closed-form window representation above with a cumulative
    trapezoid rule, so the result is exact when w is piecewise linear on
    the grid and W_delta(0) = 0 holds exactly.
    """
    k = _check_width(path, dp)
    g = path.grid
    v = path.values
    # I[j] = trapezoid integral of w from node 0 to node j.
    cum = np.zeros_like(v)
    np.cumsum(0.5 * g.h * (v[1:] + v[:-1]), axis=0, out=cum[1:])
    k0 = g.zero_index
    base = cum[k0 + k] - cum[k0]  # int_0^delta w ds
    vals = ((cum[k:] - cum[:-k]) - base) / dp.delta
    return SamplePath(g.window(0, g.n_steps - k), vals)


def ww_delta(path: SamplePath, dp: DeltaParam) -> GridRoughPath:
    """Level-2 enhancement of W_delta: quadrature lift with derivative G_delta."""
    w = w_delta(path, dp)
    return lift_smooth_quadrature(w, g_delta(path, dp))
