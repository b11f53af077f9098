"""Rough differential equations driven by grid rough paths.

Solves  dy = f(y) dt + g(y) dX  with the explicit one-step scheme

    y_v = y_u + f(y_u) (v - u) + g(y_u) X1_{u,v} + Dg(y_u)[g(y_u)] X2_{u,v},

whose driver terms are the degree-2 local expansion of the rough integral;
the scheme restarts exactly at grid nodes, which is what makes discrete
cocycle checks exact.  Solutions are controlled paths with Gubinelli
derivative g(y); their remainder is  R^y_{s,t} = y_{s,t} - g(y_s) X1_{s,t}
(the drift sits inside the remainder).

Index conventions, pinned by the scalar chain-rule test dy = y dX: the
level-2 block is  X2^{b,c} = int X1^b dX1^c, and the second-order term
contracts as

    ( Dg(y) g(y) X2 )^a = sum_{b,c,e}  d_e g^{a,c}(y)  g^{e,b}(y)  X2^{b,c}.

A driver may be a stack of grid rough paths on one grid (GridRoughPath
with member axes).  solve_rde advances all of its members in one step
loop, the builtin fields acting on states of shape (*members, m), and the
solution carries the same member axes right after the node axis;
solution_distance broadcasts the member axes of its two solutions and
measures every pair through one variation program per part; its
remainder part reads the gaps R^a - R^b of one right end at a time, as one
matrix-vector product per member (_remainder_gaps).

Every norm and distance is taken over the whole grid of its arguments.
Over nodes [i, j], solve on rp.restrict(i, j) from the state at node i:
the scheme restarts at nodes, so that is the window up to rounding.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fbm import TimeGrid
from .lift import GridRoughPath
from .norms import block_variation, euclidean_norms, pvar_seminorm

__all__ = [
    "ControlledPath",
    "SolutionDistance",
    "VECTOR_FIELD_CATALOG",
    "VectorField",
    "builtin_vector_field",
    "solution_distance",
    "solve_rde",
]


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """Coefficients of dy = f(y) dt + g(y) dX.

    f maps R^m to R^m; g maps R^m to R^{m x d} with derivative tensor
    dg(y)[a, b, e] = d g^{a,b} / d y^e.  A linear drift A y is one more
    term of f.

    The builtin fields also take states with leading member axes, shape
    (..., m), and return (..., m), (..., m, d) and (..., m, d, m).  A
    custom field needs that only to be solved against a stacked driver;
    single-state callables serve every other use.
    """

    m: int
    d: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]


def _sin_g_field(m: int, d: int) -> VectorField:
    amp = drift = 0.25
    phase = 2.0 * math.pi * np.arange(m * d).reshape(m, d) / (m * d + 1)
    eye = np.eye(m)

    def g(y: np.ndarray) -> np.ndarray:
        return amp * np.sin(y[..., :, None] + phase)

    def dg(y: np.ndarray) -> np.ndarray:
        # g^{ab} depends on y^a alone: dg[..., a, b, e] = [a == e] amp cos(y^a + phase_ab).
        return (amp * np.cos(y[..., :, None] + phase))[..., None] * eye[:, None, :]

    def f(y: np.ndarray) -> np.ndarray:
        return drift * np.cos(y)

    return VectorField(m=m, d=d, f=f, g=g, dg=dg)


def _additive_field(m: int, d: int) -> VectorField:
    sig = np.eye(m, d)
    return VectorField(
        m=m,
        d=d,
        f=np.zeros_like,
        g=lambda y: np.broadcast_to(sig, y.shape[:-1] + (m, d)),
        dg=lambda y: np.zeros(y.shape[:-1] + (m, d, m)),
    )


def _drift_only_field(m: int, d: int, rate: float) -> VectorField:
    return VectorField(
        m=m,
        d=d,
        f=lambda y: -rate * y,
        g=lambda y: np.zeros(y.shape[:-1] + (m, d)),
        dg=lambda y: np.zeros(y.shape[:-1] + (m, d, m)),
    )


def _linear_g_field(m: int, d: int) -> VectorField:
    if m != d:
        raise ValueError(f"linear-g needs m == d, got m={m}, d={d}")
    eye = np.eye(m)
    dg_const = eye[:, :, None] * eye[:, None, :]

    def g(y: np.ndarray) -> np.ndarray:
        return y[..., :, None] * eye

    def dg(y: np.ndarray) -> np.ndarray:
        return np.broadcast_to(dg_const, y.shape[:-1] + dg_const.shape)

    return VectorField(m=m, d=d, f=np.zeros_like, g=g, dg=dg)


# name -> (builder, its parameters with their defaults)
_BUILTIN_FIELDS = {
    "additive": (_additive_field, {}),
    "drift-only": (_drift_only_field, {"rate": 1.0}),
    "linear-g": (_linear_g_field, {}),
    "sin-g": (_sin_g_field, {}),
}
VECTOR_FIELD_CATALOG = tuple(_BUILTIN_FIELDS)


def builtin_vector_field(name: str, m: int = 2, d: int = 2, **params) -> VectorField:
    """Named coefficient sets used by tests and the experiment CLI.

    additive:   g = eye(m, d), no drift; solutions are y0 + g X1.
    drift-only: g = 0, f(y) = -rate y (rate=1); solutions ignore the driver.
    linear-g:   g(y) = diag(y) (m == d); unbounded, for the exponential
                chain-rule oracle.
    sin-g:      g^{ab}(y) = 0.25 sin(y^a + phase_ab) with drift
                f(y) = 0.25 cos(y); bounded with its derivatives.
    A parameter the field does not take raises ValueError.
    """
    if name not in _BUILTIN_FIELDS:
        raise ValueError(
            f"unknown vector field {reprlib.repr(name)}; catalog: {VECTOR_FIELD_CATALOG}"
        )
    build, defaults = _BUILTIN_FIELDS[name]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(
            f"vector field {name!r} takes {sorted(defaults)}, not {reprlib.repr(unknown)}"
        )
    return build(m, d, **{**defaults, **params})


# ---------------------------------------------------------------------------
# controlled paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlledPath:
    """Node values with a Gubinelli derivative against a declared driver.

    values has shape (n_nodes, *members, m), members being the declared
    driver's member axes (none for a single driver, (B,) for a stack of
    B); gubinelli appends one driver axis, shape (n_nodes, *members, m, d).
    """

    values: np.ndarray
    gubinelli: np.ndarray
    driver: GridRoughPath = field(compare=False)

    @property
    def grid(self) -> TimeGrid:
        """The declared driver's grid."""
        return self.driver.grid

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        gub = np.asarray(self.gubinelli, dtype=float)
        if v.shape[0] != self.grid.n_nodes:
            raise ValueError(f"values rows {v.shape[0]} != grid nodes {self.grid.n_nodes}")
        if gub.shape[:-1] != v.shape:
            raise ValueError(
                f"gubinelli shape {gub.shape} must be values shape {v.shape} plus a driver axis"
            )
        if gub.shape[-1] != self.driver.d:
            raise ValueError(
                f"gubinelli driver axis {gub.shape[-1]} != driver dimension {self.driver.d}"
            )
        members = self.driver.inc1.shape[1:-1]
        if v.ndim != len(members) + 2 or v.shape[1:-1] != members:
            raise ValueError(
                f"values shape {v.shape} must be (n_nodes, *member axes {members}, m)"
            )
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "gubinelli", gub)

    def member(self, k: int | slice) -> "ControlledPath":
        """Member k of a path against a stacked driver, k an index or a slice (views)."""
        return ControlledPath(self.values[:, k], self.gubinelli[:, k], self.driver.member(k))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def solve_rde(vf: VectorField, rp: GridRoughPath, y0: np.ndarray) -> ControlledPath:
    """Explicit one-step solution over the driver's whole window.

    A lone driver is a stack with no member axes: one step loop advances
    every member from y0, the field's callables seeing states of shape
    (*members, m), and each member sums as its lone driver does.  One rule
    handles blow-ups, for a lone driver as for a stack: a member is dead
    from the first node where its state is not finite, and its values and
    derivatives are NaN from that node on while the others carry on, so a
    member's first NaN node locates its blow-up.
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
    # Escaping iterates surface as NaN blow-ups, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for u in range(n):
            gy = vf.g(y)
            gub[u] = gy
            # gw[..., c*m + e] = sum_b g^{e,b} X2^{b,c}, in the (c, e) order of dg[..., a, c, e].
            gw = np.swapaxes(gy @ inc2[u], -1, -2).reshape(members + (vf.d * vf.m, 1))
            y = (
                y
                + vf.f(y) * h
                + (gy @ inc1[u][..., None])[..., 0]
                + (vf.dg(y).reshape(members + (vf.m, vf.d * vf.m)) @ gw)[..., 0]
            )
            values[u + 1] = y
        gub[n] = vf.g(y)
    dead = np.logical_or.accumulate(~np.isfinite(values).all(axis=-1), axis=0)
    values[dead] = np.nan
    gub[dead] = np.nan
    return ControlledPath(values, gub, rp)


# ---------------------------------------------------------------------------
# distances between solutions
# ---------------------------------------------------------------------------


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
    if not a.grid.is_compatible(b.grid):
        raise ValueError("controlled paths live on different grids")
    ma, mb = a.values.shape[-1], b.values.shape[-1]
    if ma != mb:
        raise ValueError(f"controlled paths have state dimensions m={ma} and m={mb}")
    gaps = _remainder_gaps(a, b)
    rem = block_variation(lambda i, j: euclidean_norms(gaps(i, j)), p / 2.0, b.grid.n_steps)
    del gaps  # its matrices go before the p-variation's temporaries come
    diff = a.values - b.values
    return SolutionDistance(euclidean_norms(diff).max(axis=0), pvar_seminorm(diff, p), rem)


def _remainder_gaps(a: ControlledPath, b: ControlledPath) -> Callable[..., np.ndarray]:
    """R^a_{i,j} - R^b_{i,j} over node pairs i < j, in the forms of GridRoughPath.level2.

    A remainder splits as  R_{i,j} = y_j - c_i - y'_i X_j  with intercepts
    c_i = y_i - y'_i X_i,  X the node values of the path's declared driver
    (0 at its first node).  So one matrix G, whose row (i, r) holds
    [y'^a_i | -y'^b_i | c^a_i - c^b_i] at value component r, gives every gap
    of a right end j as  y^a_j - y^b_j - G[:j] [X^a_j; X^b_j; 1]:  one
    matrix-vector product per member.  The member axes of a and b broadcast
    and come first in G and the vectors.  Every form reads the gaps of a
    pair from the row of its right end, so it gets the same bits whichever
    form asks.
    """
    members = np.broadcast_shapes(a.values.shape[1:-1], b.values.shape[1:-1])
    n_nodes, m = a.values.shape[0], a.values.shape[-1]
    xa, xb = a.driver.values, b.driver.values
    da = xa.shape[-1]
    c = [cp.values - (cp.gubinelli @ cp.driver.values[..., None])[..., 0] for cp in (a, b)]
    g = np.empty(members + (n_nodes, m, da + xb.shape[-1] + 1))
    g[..., :da] = np.moveaxis(a.gubinelli, 0, -3)
    g[..., da:-1] = np.moveaxis(-b.gubinelli, 0, -3)
    g[..., -1] = np.moveaxis(c[0] - c[1], 0, -2)
    g = g.reshape(members + (n_nodes * m, g.shape[-1]))
    z = np.ones(members + (g.shape[-1], 1))  # [X^a_j; X^b_j; 1] of one right end j
    # A row's axes (*members, pairs, m) in the order (pairs, *members, m).
    pairs_first = (len(members), *range(len(members)), len(members) + 1)

    def row(j: int) -> np.ndarray:
        """The gaps of the pairs (i, j), i < j, shape (*members, j, m)."""
        z[..., :da, 0] = xa[j]
        z[..., da:-1, 0] = xb[j]
        out = (g[..., : j * m, :] @ z).reshape(members + (j, m))
        return np.subtract((a.values[j] - b.values[j])[..., None, :], out, out=out)

    def gaps(i, j) -> np.ndarray:
        if isinstance(i, slice):
            return row(j)[..., i, :].transpose(pairs_first)
        if np.ndim(j) == 0:
            return row(j)[..., i, :]
        out = np.empty(np.shape(i) + members + (m,))
        for k in set(np.ravel(j).tolist()):
            at = j == k
            out[at] = row(k)[..., i[at], :].transpose(pairs_first)
        return out

    return gaps
