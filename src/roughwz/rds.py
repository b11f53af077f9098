"""Cocycle checks for the discrete solution flow.

The solution operator of the one-step scheme is a cocycle over the shift
on noise space: solving over [0, t1 + t2] equals solving over [0, t1] and
restarting from the endpoint with the time-shifted driver,

    phi(t1 + t2, w, y0) = phi(t2, theta_{t1} w, phi(t1, w, y0)).

Shifting a grid rough path translates its window and leaves the
per-interval data untouched (increments and areas are translation
covariant), so both sides of a probe consume identical floats and the
residual isolates restart and rounding effects only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import FbmParams, FbmSampler, TimeGrid
from .lift import GridRoughPath, lift_left_riemann
from .rde import VectorField, solve_rde
from .wongzakai import ww_delta

__all__ = [
    "CocycleProbe",
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


@dataclass(frozen=True)
class CocycleProbe:
    """One cocycle test case: split point, horizon, seed and driver choice.

    delta_multiple selects a Wong-Zakai driver of that width; None takes
    the canonical lift of the sampled noise itself.  steps_per_unit fixes
    the grid resolution; t1 and t2 must be multiples of the step.
    """

    t1: float
    t2: float
    y0: np.ndarray
    seed: int
    fbm: FbmParams
    delta_multiple: int | None = None
    steps_per_unit: int = 256

    def __post_init__(self) -> None:
        if not (self.t1 > 0.0 and self.t2 >= 0.0):
            raise ValueError(f"need t1 > 0 and t2 >= 0, got t1={self.t1}, t2={self.t2}")
        object.__setattr__(self, "y0", np.asarray(self.y0, dtype=float))


def _probe_driver(probe: CocycleProbe) -> GridRoughPath:
    horizon = probe.t1 + probe.t2
    n = round(horizon * probe.steps_per_unit)
    if abs(n - horizon * probe.steps_per_unit) > 1e-9 * probe.steps_per_unit:
        raise ValueError(f"t1 + t2 = {horizon} is not a multiple of the step")
    grid = TimeGrid(0.0, horizon, n)
    extra = probe.delta_multiple or 0
    sampler = FbmSampler(grid.extended(extra), probe.fbm)
    path = sampler.sample(probe.seed)
    if probe.delta_multiple is None:
        return lift_left_riemann(path)
    return ww_delta(path, probe.delta_multiple)


def cocycle_residual(vf: VectorField, probe: CocycleProbe) -> float:
    """|phi(t1 + t2, w, y0) - phi(t2, theta_{t1} w, phi(t1, w, y0))|.

    Both sides run the scheme on the same grid; a t2 of zero returns an
    exact zero by construction.  A solve that blows up ends in NaN, and the
    residual is then math.inf, so no comparison or max can pass it over.
    """
    driver = _probe_driver(probe)
    grid = driver.grid
    n1 = grid.index_of(probe.t1)
    n = grid.n_steps

    whole = solve_rde(vf, driver, probe.y0)
    first = solve_rde(vf, driver.restrict(0, n1), probe.y0)
    if probe.t2 == 0.0:
        gap = whole.values[n1] - first.values[-1]
    else:
        shifted = shift_rough_path(driver, probe.t1).restrict(n1, n)
        gap = whole.values[-1] - solve_rde(vf, shifted, first.values[-1]).values[-1]
    residual = float(np.linalg.norm(gap))
    return residual if math.isfinite(residual) else math.inf
