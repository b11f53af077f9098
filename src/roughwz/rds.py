"""Cocycle checks for the discrete solution flow.

The solution operator of the one-step scheme is a cocycle over the shift
on noise space: solving over [0, t1 + t2] equals solving over [0, t1] and
restarting from the endpoint with the time-shifted driver,

    phi(t1 + t2, w, y0) = phi(t2, theta_{t1} w, phi(t1, w, y0)).

Shifting a grid rough path translates its window and leaves the
per-interval data untouched (increments and areas are translation
covariant), so both sides of the check consume identical floats and the
residual isolates restart and rounding effects only.
"""

from __future__ import annotations

import math

import numpy as np

from .fbm import TimeGrid
from .lift import GridRoughPath
from .rde import VectorField, solve_rde

__all__ = [
    "cocycle_residual",
    "shift_rough_path",
]


def shift_rough_path(rp: GridRoughPath, tau: float) -> GridRoughPath:
    """Driver of the shifted noise: window translated by -tau, same data.

    tau must be a node.  The output's node at time t carries the increments
    the input carried at t + tau, so lifting a shifted path and shifting a
    lifted path agree (exactly here; up to rounding when the path values
    themselves are re-anchored first).
    """
    g = rp.grid
    g.index_of(tau)  # validates alignment
    shifted = TimeGrid(g.t_min - tau, g.t_max - tau, g.n_steps)
    return GridRoughPath(shifted, rp.inc1, rp.inc2)


def cocycle_residual(vf: VectorField, driver: GridRoughPath, t1: float, y0: np.ndarray) -> float:
    """|phi(t1 + t2, w, y0) - phi(t2, theta_{t1} w, phi(t1, w, y0))| for one driver.

    The driver is one rough path, not a stack, on [0, t1 + t2]: t1 must be
    a node of its grid after the first, and t2 runs on to the last node.
    Both sides run the scheme on the same grid; t1 at the last node leaves
    an empty second leg and returns an exact zero by construction.  A solve
    that blows up ends in NaN, and the residual is then math.inf, so no
    comparison or max can pass it over.
    """
    if driver.inc1.ndim != 2:
        raise ValueError("cocycle_residual takes one rough path, not a stack")
    n1 = driver.grid.index_of(t1)
    if n1 == 0:
        raise ValueError(f"t1 = {t1} is the first node of the driver's grid")
    n = driver.n_steps

    whole = solve_rde(vf, driver, y0)
    first = solve_rde(vf, driver.restrict(0, n1), y0)
    if n1 == n:
        gap = whole.values[n1] - first.values[-1]
    else:
        shifted = shift_rough_path(driver, t1).restrict(n1, n)
        gap = whole.values[-1] - solve_rde(vf, shifted, first.values[-1]).values[-1]
    residual = float(np.linalg.norm(gap))
    return residual if math.isfinite(residual) else math.inf
