"""Rough differential equations driven by grid rough paths.

Solves  dy = (A y + f(y)) dt + g(y) dX  with the explicit one-step scheme

    y_v = y_u + (A y_u + f(y_u)) (v - u) + g(y_u) X1_{u,v}
        + Dg(y_u)[g(y_u)] X2_{u,v},

whose driver terms are the degree-2 local expansion of the rough integral;
the scheme restarts exactly at grid nodes, which is what makes discrete
cocycle checks exact.  Solutions are controlled paths with Gubinelli
derivative g(y); their remainder is  R^y_{s,t} = y_{s,t} - g(y_s) X1_{s,t}
(the drift sits inside the remainder).

Index conventions, pinned by the scalar chain-rule test dy = y dX: the
level-2 block is  X2^{b,c} = int X1^b dX1^c, and the second-order term
contracts as

    ( Dg(y) g(y) X2 )^a = sum_{b,c,e}  d_e g^{a,c}(y)  g^{e,b}(y)  X2^{b,c}.

Integrands of rough integrals are controlled paths whose value array
carries a trailing driver axis; compensated sums contract that axis with
X1 and the last two Gubinelli axes (value-component axis c, then direction
axis b) with X2.

A driver may be a stack of grid rough paths on one grid (GridRoughPath
with member axes).  solve_rde advances all of its members in one step
loop, the builtin fields acting on states of shape (*members, m), and the
solution carries the same member axes right after the node axis;
solution_distance broadcasts the member axes of its two solutions and
measures every pair through one variation program per part.

Every norm, distance, integral and bound is taken over the whole grid of
its arguments; over nodes [i, j] it is taken of cp.restrict(i, j), which
restricts the declared driver with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fbm import TimeGrid
from .lift import GridRoughPath
from .norms import (
    block_variation,
    euclidean_norms,
    greedy_stopping_times,
    homogeneous_pvar_norm,
    pvar_level2_distance,
    pvar_seminorm,
)

__all__ = [
    "AprioriBoundReport",
    "ControlledPath",
    "IntegralDistanceReport",
    "SolutionDistance",
    "SolverBlowUpError",
    "VECTOR_FIELD_CATALOG",
    "VectorField",
    "apriori_bound_check",
    "builtin_vector_field",
    "controlled_integrand",
    "integral_distance_bound",
    "remainder_norm",
    "rough_integral",
    "solution_distance",
    "solve_rde",
]


class SolverBlowUpError(RuntimeError):
    """The explicit scheme produced a non-finite state."""

    def __init__(self, node_index: int, time: float):
        self.node_index = node_index
        self.time = time
        super().__init__(
            f"solution became non-finite at node {node_index} (t = {time}); "
            "reduce the step, the field size or the window"
        )


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """Coefficients of dy = (A y + f(y)) dt + g(y) dX with declared constants.

    f must be globally Lipschitz with constant c_f; g maps R^m to R^{m x d}
    with derivative tensor dg(y)[a, b, e] = d g^{a,b} / d y^e and bound
    c_g >= max of the sup norms of g and its first three derivatives
    (math.nan when unbounded; such fields only feed the solver, not the
    bound evaluators).

    The builtin fields, and drift, also take states with leading member
    axes, shape (..., m), and return (..., m), (..., m, d) and
    (..., m, d, m).  A custom field needs that only to be solved against a
    stacked driver; single-state callables serve every other use.
    """

    m: int
    d: int
    a_mat: np.ndarray
    f: Callable[[np.ndarray], np.ndarray]
    c_f: float
    g: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]
    c_g: float
    name: str = "custom"

    def __post_init__(self) -> None:
        a = np.asarray(self.a_mat, dtype=float)
        if a.shape != (self.m, self.m):
            raise ValueError(f"A must be ({self.m}, {self.m}), got {a.shape}")
        object.__setattr__(self, "a_mat", a)

    @property
    def L(self) -> float:
        """Drift growth constant ||A|| + c_f."""
        return float(np.linalg.norm(self.a_mat, 2)) + self.c_f

    def drift(self, y: np.ndarray) -> np.ndarray:
        return y @ self.a_mat.T + self.f(y)


def _sin_g_field(m: int, d: int, amp: float, drift: float) -> VectorField:
    phase = 2.0 * math.pi * np.arange(m * d).reshape(m, d) / (m * d + 1)
    eye = np.eye(m)

    def g(y: np.ndarray) -> np.ndarray:
        return amp * np.sin(y[..., :, None] + phase)

    def dg(y: np.ndarray) -> np.ndarray:
        # g^{ab} depends on y^a alone: dg[..., a, b, e] = [a == e] amp cos(y^a + phase_ab).
        return (amp * np.cos(y[..., :, None] + phase))[..., None] * eye[:, None, :]

    def f(y: np.ndarray) -> np.ndarray:
        return drift * np.cos(y)

    # Entrywise bounds give ||g||, ||Dg||, ||D2g||, ||D3g|| <= amp sqrt(m d).
    return VectorField(
        m=m,
        d=d,
        a_mat=np.zeros((m, m)),
        f=f,
        c_f=drift,
        g=g,
        dg=dg,
        c_g=amp * math.sqrt(m * d),
        name="sin-g",
    )


def _additive_field(m: int, d: int, sigma: np.ndarray | None) -> VectorField:
    sig = np.eye(m, d) if sigma is None else np.asarray(sigma, dtype=float)
    if sig.shape != (m, d):
        raise ValueError(f"sigma must be ({m}, {d}), got {sig.shape}")

    return VectorField(
        m=m,
        d=d,
        a_mat=np.zeros((m, m)),
        f=np.zeros_like,
        c_f=0.0,
        g=lambda y: np.broadcast_to(sig, y.shape[:-1] + (m, d)),
        dg=lambda y: np.zeros(y.shape[:-1] + (m, d, m)),
        c_g=float(np.linalg.norm(sig)),
        name="additive",
    )


def _drift_only_field(m: int, d: int, rate: float) -> VectorField:
    return VectorField(
        m=m,
        d=d,
        a_mat=np.zeros((m, m)),
        f=lambda y: -rate * y,
        c_f=abs(rate),
        g=lambda y: np.zeros(y.shape[:-1] + (m, d)),
        dg=lambda y: np.zeros(y.shape[:-1] + (m, d, m)),
        c_g=0.0,
        name="drift-only",
    )


def _linear_g_field(m: int, d: int, scale: float) -> VectorField:
    if m != d:
        raise ValueError(f"linear-g needs m == d, got m={m}, d={d}")
    eye = np.eye(m)
    dg_const = scale * (eye[:, :, None] * eye[:, None, :])

    def g(y: np.ndarray) -> np.ndarray:
        return scale * (y[..., :, None] * eye)

    def dg(y: np.ndarray) -> np.ndarray:
        return np.broadcast_to(dg_const, y.shape[:-1] + dg_const.shape)

    return VectorField(
        m=m,
        d=d,
        a_mat=np.zeros((m, m)),
        f=np.zeros_like,
        c_f=0.0,
        g=g,
        dg=dg,
        c_g=math.nan,  # unbounded; oracle use only
        name="linear-g",
    )


VECTOR_FIELD_CATALOG = ("additive", "drift-only", "linear-g", "sin-g")


def builtin_vector_field(name: str, m: int = 2, d: int = 2, **params) -> VectorField:
    """Named coefficient sets used by tests and the experiment CLI.

    additive:   g constant (default eye), no drift; solutions are y0 + g X1.
    drift-only: g = 0, f(y) = -rate y (rate=1); solutions ignore the driver.
    linear-g:   g(y) = scale diag(y) (scale=1, m == d); unbounded, for the
                exponential chain-rule oracle.
    sin-g:      g^{ab}(y) = amp sin(y^a + phase_ab) (amp=0.25) with drift
                f(y) = drift cos(y) (drift=0.25); bounded with explicit c_g.
    """
    if name == "sin-g":
        return _sin_g_field(m, d, params.pop("amp", 0.25), params.pop("drift", 0.25))
    if name == "additive":
        return _additive_field(m, d, params.pop("sigma", None))
    if name == "drift-only":
        return _drift_only_field(m, d, params.pop("rate", 1.0))
    if name == "linear-g":
        return _linear_g_field(m, d, params.pop("scale", 1.0))
    raise ValueError(f"unknown vector field {name!r}; catalog: {VECTOR_FIELD_CATALOG}")


# ---------------------------------------------------------------------------
# controlled paths and rough integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlledPath:
    """Node values with a Gubinelli derivative against a declared driver.

    values has shape (n_nodes, *value_shape); gubinelli appends one driver
    axis, shape (n_nodes, *value_shape, d).  Solutions store value_shape
    (m,); integrands of rough integrals store (m, d), the trailing axis
    being the one contracted with the driver.  Against a stacked driver the
    value shape starts with the driver's member axes: B solutions store
    (B, m).
    """

    grid: TimeGrid
    values: np.ndarray
    gubinelli: np.ndarray
    driver: GridRoughPath | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        gub = np.asarray(self.gubinelli, dtype=float)
        if v.shape[0] != self.grid.n_nodes:
            raise ValueError(f"values rows {v.shape[0]} != grid nodes {self.grid.n_nodes}")
        if gub.shape[:-1] != v.shape:
            raise ValueError(
                f"gubinelli shape {gub.shape} must be values shape {v.shape} plus a driver axis"
            )
        if self.driver is not None:
            if gub.shape[-1] != self.driver.d:
                raise ValueError(
                    f"gubinelli driver axis {gub.shape[-1]} != driver dimension {self.driver.d}"
                )
            members = self.driver.inc1.shape[1:-1]
            if v.shape[1 : 1 + len(members)] != members:
                raise ValueError(f"values shape {v.shape} lacks the member axes {members}")
            if not self.grid.is_compatible(self.driver.grid):
                raise ValueError("controlled path and driver live on different grids")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "gubinelli", gub)

    def member(self, k: int | slice) -> "ControlledPath":
        """Member k of a path against a stacked driver, k an index or a slice (views)."""
        if self.driver is None:
            raise ValueError("member() needs the stacked driver; this controlled path has none")
        return ControlledPath(
            self.grid, self.values[:, k], self.gubinelli[:, k], driver=self.driver.member(k)
        )

    def restrict(self, i_lo: int, i_hi: int) -> "ControlledPath":
        """Window onto node indices [i_lo, i_hi] (views), the driver restricted with it."""
        return ControlledPath(
            self.grid.window(i_lo, i_hi),
            self.values[i_lo : i_hi + 1],
            self.gubinelli[i_lo : i_hi + 1],
            driver=None if self.driver is None else self.driver.restrict(i_lo, i_hi),
        )

    def remainder(self, i, j) -> np.ndarray:
        """R_{i,j} = y_{i,j} - y'_i X1_{i,j}, node pairs (i, j) as in GridRoughPath.level2."""
        if self.driver is None:
            raise ValueError("remainders need a declared driver")
        x = self.driver.values
        # A stacked driver's member axes pair with the first value axes; the
        # remaining value axes broadcast against X1.
        x = x.reshape(x.shape[:-1] + (1,) * (self.gubinelli.ndim - x.ndim) + x.shape[-1:])
        w1 = x[j] - x[i]
        gub = self.gubinelli[i]
        # y'_i X1_{i,j}, summed over the driver axis in index order: one
        # ufunc pass per component stays fast on the strided member views of
        # a stack, where einsum is several times slower.
        lin = gub[..., 0] * w1[..., 0]
        for e in range(1, w1.shape[-1]):
            lin += gub[..., e] * w1[..., e]
        out = self.values[j] - self.values[i]
        out -= lin
        return out


def controlled_integrand(vf: VectorField, cp: ControlledPath) -> ControlledPath:
    """The integrand g(y) of the rough integral as a controlled path.

    Values are g(y_t), shape (n, m, d); the Gubinelli derivative composes
    the chain rule with y' = g(y):  G'[a, c, b] = sum_e d_e g^{a,c} g^{e,b}.
    """
    n = cp.grid.n_nodes
    vals = np.empty((n, vf.m, vf.d))
    gub = np.empty((n, vf.m, vf.d, vf.d))
    for i in range(n):
        y = cp.values[i]
        gy = vf.g(y)
        vals[i] = gy
        gub[i] = np.einsum("ace,eb->acb", vf.dg(y), gy)
    return ControlledPath(cp.grid, vals, gub, driver=cp.driver)


def rough_integral(cp: ControlledPath, rp: GridRoughPath) -> np.ndarray:
    """Compensated-sum rough integral of a controlled integrand over its grid.

    Sum over grid intervals [u, v] of  y_u X1_{u,v} + y'_u X2_{u,v}  with
    the contractions described in the module docstring.
    """
    if not cp.grid.is_compatible(rp.grid):
        raise ValueError("integrand and driver live on different grids")
    if cp.values.shape[-1] != rp.d:
        raise ValueError(
            f"integrand value axis {cp.values.shape[-1]} does not match driver dimension {rp.d}"
        )
    term1 = np.einsum("u...c,uc->...", cp.values[:-1], rp.inc1)
    term2 = np.einsum("u...cb,ubc->...", cp.gubinelli[:-1], rp.inc2)
    return term1 + term2


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def solve_rde(vf: VectorField, rp: GridRoughPath, y0: np.ndarray) -> ControlledPath:
    """Explicit one-step solution over the driver's whole window.

    A single driver raises SolverBlowUpError at the first non-finite state.
    A stacked driver advances every member from y0 in one step loop, the
    field's callables seeing states of shape (*members, m); a member whose
    state leaves the finite range is NaN from that node on while the others
    carry on, so its first NaN node locates its blow-up.
    """
    if vf.d != rp.d:
        raise ValueError(f"field expects d={vf.d} driver components, driver has {rp.d}")
    members = rp.inc1.shape[1:-1]
    y = np.broadcast_to(np.asarray(y0, dtype=float).reshape(vf.m), members + (vf.m,))
    n = rp.n_steps
    h = rp.grid.h
    values = np.empty((n + 1, *members, vf.m))
    gub = np.empty((n + 1, *members, vf.m, vf.d))
    values[0] = y
    inc1 = rp.inc1
    inc2 = rp.inc2
    # Escaping iterates surface as blow-ups or NaN, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for u in range(n):
            gy = vf.g(y)
            gub[u] = gy
            gw = gy @ inc2[u]  # gw[..., e, c] = sum_b g^{e,b} X2^{b,c}
            y = (
                y
                + vf.drift(y) * h
                + (gy @ inc1[u][..., None])[..., 0]
                + np.einsum("...ace,...ec->...a", vf.dg(y), gw)
            )
            if not members and not np.isfinite(y).all():
                raise SolverBlowUpError(u + 1, float(rp.grid.times[u + 1]))
            values[u + 1] = y
        gub[n] = vf.g(y)
    if members:
        dead = np.logical_or.accumulate(~np.isfinite(values).all(axis=-1), axis=0)
        values[dead] = np.nan
        gub[dead] = np.nan
    return ControlledPath(rp.grid, values, gub, driver=rp)


# ---------------------------------------------------------------------------
# norms of solutions and bound evaluators
# ---------------------------------------------------------------------------


def remainder_norm(cp: ControlledPath, rp: GridRoughPath, q: float) -> float:
    """Exact q-variation of the remainder blocks y_{s,t} - y'_s X1_{s,t}."""
    if not q >= 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    # Rebind to the given driver; the constructor checks grid compatibility.
    ref = ControlledPath(cp.grid, cp.values, cp.gubinelli, driver=rp)
    return block_variation(lambda i, j: euclidean_norms(ref.remainder(i, j)), q, rp.n_steps)


@dataclass(frozen=True)
class SolutionDistance:
    """Three-part distance between two solutions on one grid.

    Each part is a float, or an array over the member axes of stacked
    solutions.
    """

    sup: float | np.ndarray
    pvar: float | np.ndarray
    remainder_qvar: float | np.ndarray


def solution_distance(a: ControlledPath, b: ControlledPath, p: float) -> SolutionDistance:
    """Sup distance, p-variation distance and q-variation of R^a - R^b.

    The remainders are taken against each path's own declared driver, so
    the third part also sees the difference of the drivers.  The member
    axes of stacked solutions broadcast against each other (a stack of
    one, member(slice(0, 1)), against any stack), and one variation
    program per part measures every pair.
    """
    if a.driver is None or b.driver is None:
        raise ValueError("both controlled paths must declare their drivers")
    if not a.grid.is_compatible(b.grid):
        raise ValueError("controlled paths live on different grids")

    rem = block_variation(
        lambda i, j: euclidean_norms(a.remainder(i, j) - b.remainder(i, j)), p / 2.0, b.grid.n_steps
    )
    diff = a.values - b.values
    return SolutionDistance(euclidean_norms(diff).max(axis=0), pvar_seminorm(diff, p), rem)


@dataclass(frozen=True)
class AprioriBoundReport:
    """Both a-priori estimates against the realised solution norms.

    bound_sup majorises ||y||_inf; bound_var majorises
    ||y_start|| + |||y|||_{p-var} + |||R^y|||_{q-var}.  Ratios are
    bound / actual, so a ratio below 1 flags a falsification candidate.
    """

    bound_sup: float
    actual_sup: float
    bound_var: float
    actual_var: float
    n_intervals: int
    eta: float
    c_p: float
    L: float
    T: float

    @property
    def ratio_sup(self) -> float:
        return self.bound_sup / self.actual_sup if self.actual_sup > 0 else math.inf

    @property
    def ratio_var(self) -> float:
        return self.bound_var / self.actual_var if self.actual_var > 0 else math.inf

    @property
    def falsified(self) -> bool:
        return self.ratio_sup < 1.0 or self.ratio_var < 1.0


def apriori_bound_check(
    vf: VectorField,
    cp: ControlledPath,
    p: float,
    c_p: float = 1.0,
    eta: float | None = None,
) -> AprioriBoundReport:
    """Evaluate the exponential a-priori bounds for a solved trajectory.

    The interval count N uses the greedy stopping times of the declared
    driver at level eta, defaulting to the proof's choice 1/(4 c_p c_g).
    c_p is the unknown sewing constant, surfaced as configuration.
    """
    if cp.driver is None:
        raise ValueError("controlled path must declare its driver")
    if not c_p >= 1.0:
        raise ValueError(f"c_p must be >= 1, got {c_p}")
    if eta is None:
        if not math.isfinite(vf.c_g) or vf.c_g <= 0.0:
            raise ValueError("field has no usable c_g; pass eta explicitly")
        eta = 1.0 / (4.0 * c_p * vf.c_g)
    rp = cp.driver
    n_int = greedy_stopping_times(rp, eta, p).count
    g = cp.grid
    big_t = g.t_max - g.t_min
    L = vf.L
    f0 = float(np.linalg.norm(vf.f(np.zeros(vf.m))))
    if L > 0.0:
        drift_term = f0 / L
    else:
        drift_term = 0.0 if f0 == 0.0 else math.inf
    y_start = float(np.linalg.norm(cp.values[0]))
    bracket = y_start + (drift_term + 1.0 / c_p) * n_int
    grow = math.exp(4.0 * L * big_t)
    bound_sup = bracket * grow
    bound_var = bracket * grow * n_int ** ((p - 1.0) / p)
    actual_sup = float(np.sqrt(np.einsum("id,id->i", cp.values, cp.values)).max())
    actual_var = (
        y_start + pvar_seminorm(cp.values, p) + remainder_norm(cp, rp, p / 2.0)
    )
    return AprioriBoundReport(
        bound_sup=bound_sup,
        actual_sup=actual_sup,
        bound_var=bound_var,
        actual_var=actual_var,
        n_intervals=n_int,
        eta=eta,
        c_p=c_p,
        L=L,
        T=big_t,
    )


@dataclass(frozen=True)
class IntegralDistanceReport:
    """Explicit integral-distance bound against the measured distance."""

    lhs: float
    rhs: float
    term_pair: float
    term_level1: float
    term_level2: float

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs


def integral_distance_bound(
    vf: VectorField, cp_true: ControlledPath, cp_delta: ControlledPath, p: float, c_p: float = 1.0
) -> IntegralDistanceReport:
    """Distance of the two rough integrals of g(y) against its explicit bound.

    The left side is || int g(y) dX - int g(y^delta) dX^delta || over the
    grid, both by compensated sums against each solution's own driver.
    The right side is the explicit three-term estimate: a product term in
    the solution distances, a level-1 driver distance term and a level-2
    driver distance term, with the sewing constant c_p supplied by the
    caller.
    """
    if cp_true.driver is None or cp_delta.driver is None:
        raise ValueError("both controlled paths must declare their drivers")
    if not math.isfinite(vf.c_g):
        raise ValueError("bound evaluation needs a finite c_g")
    rp = cp_true.driver
    rp_d = cp_delta.driver
    q = p / 2.0

    z_true = rough_integral(controlled_integrand(vf, cp_true), rp)
    z_delta = rough_integral(controlled_integrand(vf, cp_delta), rp_d)
    lhs = float(np.linalg.norm(z_true - z_delta))

    omega_hom = homogeneous_pvar_norm(rp, p)
    y_pv = pvar_seminorm(cp_true.values, p)
    yd_pv = pvar_seminorm(cp_delta.values, p)
    ry_q = remainder_norm(cp_true, rp, q)
    ryd_q = remainder_norm(cp_delta, rp_d, q)
    dist = solution_distance(cp_true, cp_delta, p)

    cg = vf.c_g
    term_pair = (
        15.0
        * c_p
        * max(cg**2 * omega_hom**2, cg * omega_hom)
        * (yd_pv + y_pv + ry_q + 1.0)
        * (dist.pvar + dist.sup + dist.remainder_qvar)
    )
    w1_pv = pvar_seminorm(rp.values, p)
    wd_pv = pvar_seminorm(rp_d.values, p)
    lvl1_dist = pvar_seminorm(rp.values - rp_d.values, p)
    term_level1 = (yd_pv * (wd_pv + w1_pv) + ryd_q + 1.0) * max(cg**2, cg) * lvl1_dist
    lvl2_dist = pvar_level2_distance(rp, rp_d, q)
    term_level2 = 2.0 * cg**2 * c_p * (yd_pv + 1.0) * lvl2_dist

    return IntegralDistanceReport(
        lhs=lhs,
        rhs=term_pair + term_level1 + term_level2,
        term_pair=term_pair,
        term_level1=term_level1,
        term_level2=term_level2,
    )
