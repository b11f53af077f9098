"""Smooth stationary approximation of a sampled noise path.

For a window of k grid steps, delta = k * h with h the spacing of the
sampled path's grid, the approximant integrates the stationary difference
quotient  G_delta(t) = (w(t + delta) - w(t)) / delta:

    W_delta(t) = int_0^t G_delta(s) ds
               = ( int_t^{t+delta} w(s) ds - int_0^delta w(s) ds ) / delta,

evaluated by trapezoid quadrature on the grid, which is exact for piecewise
linear w, vanishes at t = 0 and needs the path on the extended window
[t_min, t_max + delta].  Its level-2 enhancement is the quadrature lift
driven by the derivative samples G_delta.

A width is a whole number k of grid steps, so that every delta of a
ladder acts on one shared sampled path and comparisons across deltas are
paired.
"""

from __future__ import annotations

import numbers

import numpy as np

from .fbm import SamplePath
from .lift import GridRoughPath, lift_smooth_quadrature

__all__ = [
    "g_delta",
    "w_delta",
    "ww_delta",
]


def _check_width(path: SamplePath, k: int) -> None:
    """Refuse k unless it is a whole number >= 1 of steps, k * h <= 1 and the path holds k + 1."""
    if not isinstance(k, numbers.Integral) or isinstance(k, bool):
        raise ValueError(f"width k must be an integer number of steps, got {k!r}")
    g = path.grid
    if not k >= 1:
        raise ValueError(f"width k must be >= 1, got {k}")
    if not k * g.h <= 1.0 + 1e-12:
        raise ValueError(f"delta = {k} * {g.h} = {k * g.h} exceeds 1")
    if k >= g.n_steps:
        raise ValueError(
            f"delta = {k} cells needs a path on at least {k + 1} cells, "
            f"got {g.n_steps}; sample on the extended window"
        )


def g_delta(path: SamplePath, k: int) -> np.ndarray:
    """Difference quotient (w(t + delta) - w(t)) / delta, delta = k * path.grid.h.

    Row i is the value at node i of the path's grid, covering nodes
    0 .. n_steps - k, i.e. the grid of w_delta(path, k).
    """
    _check_width(path, k)
    v = path.values
    return (v[k:] - v[:-k]) / (k * path.grid.h)


def w_delta(path: SamplePath, k: int) -> SamplePath:
    """Integrated approximant W_delta on [t_min, t_max - delta], delta = k * path.grid.h.

    Uses the closed-form window representation above with a cumulative
    trapezoid rule, so the result is exact when w is piecewise linear on
    the grid and W_delta(0) = 0 holds exactly.
    """
    _check_width(path, k)
    g = path.grid
    v = path.values
    # I[j] = trapezoid integral of w from node 0 to node j.
    cum = np.zeros_like(v)
    np.cumsum(0.5 * g.h * (v[1:] + v[:-1]), axis=0, out=cum[1:])
    k0 = g.zero_index
    base = cum[k0 + k] - cum[k0]  # int_0^delta w ds
    vals = ((cum[k:] - cum[:-k]) - base) / (k * g.h)
    return SamplePath(g.window(0, g.n_steps - k), vals)


def ww_delta(path: SamplePath, k: int) -> GridRoughPath:
    """Level-2 enhancement of W_delta: quadrature lift with derivative G_delta."""
    return lift_smooth_quadrature(w_delta(path, k), g_delta(path, k))
