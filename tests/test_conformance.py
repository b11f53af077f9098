"""One conformance table: every fast path against its reference program.

A row names a fast path, the reference program from oracles.py that it must
agree with, and how: `==` bit for bit, or a relative tolerance of at most
1e-12 with its reason written in the row, for the whole result or for each
of its parts.  Every row runs on the cases that one seeded generator,
`draw`, makes for it: n, d, a member shape, exponents, eta, a window
restrict(i, j), a coarsening stride and a shift node.  A fast path that
replaces a slower program adds one row here.

A row's fast side measures the case's path, a stack in one call, and gives
results with the member axes first.  Unless the row compares whole cases,
the reference measures each member's lone path; where the reference is
not bit for bit, each member must also measure as its lone path does.
"""

from __future__ import annotations

import dataclasses
import functools
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import pytest

import oracles
from roughwz import lift, norms, rde, wongzakai
from roughwz.fbm import SamplePath, TimeGrid
from roughwz.rds import shift_rough_path

SEED = 20261019


@dataclass(frozen=True)
class Cases:
    """How many lone paths and stacks a row draws, and the ranges it draws from.

    The first case takes the largest n and the second the smallest; stacks
    draw n from stack_n when it is given.  p takes its lowest value in a
    quarter of the cases.  A stack has one member axis of 1 to 7 members or,
    in a third of the stacks, the two axes (2, 3).
    """

    lone: int
    stacks: int
    n: tuple[int, int]
    stack_n: tuple[int, int] | None = None
    p: tuple[float, float] = (2.0, 3.5)
    d: tuple[int, int] = (1, 3)


@dataclass(frozen=True, eq=False)
class Case:
    """One drawn case; its repr shows the draws a failure message needs."""

    n: int
    d: int
    members: tuple[int, ...]
    p: float
    alpha: float
    eta_share: float  # eta over the homogeneous norm of the window of eta_path
    window: tuple[int, int]
    stride: int
    shift: int  # node whose time the shift rows translate the path by
    seed: int  # of the times, start states and data that do not depend on the members
    lones: tuple = field(repr=False)  # each member's lone GridRoughPath, in member order
    eta_path: lift.GridRoughPath = field(repr=False)  # lones[0], also in the lone cases
    other_lone: lift.GridRoughPath = field(repr=False)  # independent, on the same grid

    @property
    def q(self) -> float:
        return self.p / 2.0

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    @property
    def times(self) -> np.ndarray:
        """Strictly increasing node times that are not uniform."""
        return np.cumsum(self.rng().uniform(0.01, 0.2, self.n + 1))

    @cached_property
    def rp(self) -> lift.GridRoughPath:
        """The lone path, or the members stacked with GridRoughPath.stack."""
        paths = list(self.lones)
        for size in reversed(self.members):
            chunks = range(0, len(paths), size)
            paths = [lift.GridRoughPath.stack(paths[k : k + size]) for k in chunks]
        return paths[0]

    @cached_property
    def other(self) -> lift.GridRoughPath:
        """other_lone with one-member axes, which broadcast against the stack."""
        o, ones = self.other_lone, (1,) * len(self.members)
        shape = (self.n, *ones, self.d)
        return lift.GridRoughPath(o.grid, o.inc1.reshape(shape), o.inc2.reshape(shape + (self.d,)))

    @cached_property
    def eta(self) -> float:
        norm = norms.homogeneous_pvar_norm(self.win(self.eta_path), self.p)
        return self.eta_share * float(norm)

    def win(self, path):
        """path on the nodes of the window; a controlled path's driver is restricted with it."""
        i, j = self.window
        if isinstance(path, rde.ControlledPath):
            return rde.ControlledPath(path.values[i : j + 1], path.gubinelli[i : j + 1],
                                      path.driver.restrict(i, j))
        return path.restrict(i, j)

    def first(self, x: np.ndarray) -> np.ndarray:
        """x with its leading pair or node axis moved behind the member axes."""
        return np.moveaxis(x, 0, len(self.members))

    def lone_cases(self) -> list[Case]:
        """One case per member; they take over eta once the stack has it."""
        out = [dataclasses.replace(self, members=(), lones=(rp,)) for rp in self.lones]
        if "eta" in vars(self):  # a cached_property once computed
            for lone in out:
                vars(lone)["eta"] = self.eta
        return out


def _lift(rng, grid, d, geometric):
    walk = np.vstack([np.zeros(d), rng.standard_normal((grid.n_steps, d)).cumsum(axis=0)])
    rp = lift.lift_left_riemann(SamplePath(grid, walk))
    if geometric:
        return rp
    return lift.GridRoughPath(grid, rp.inc1, rp.inc2 + rng.standard_normal(rp.inc2.shape))


def draw(row_id: str, spec: Cases) -> list[Case]:
    """The cases of one row, from SEED and the row id."""
    rng = np.random.default_rng([SEED, zlib.crc32(row_id.encode())])
    cases = []
    for k, stacked in enumerate([False] * spec.lone + [True] * spec.stacks):
        n_range = spec.stack_n if stacked and spec.stack_n else spec.n
        n = (n_range[1], n_range[0])[k] if k < 2 else int(rng.integers(*n_range, endpoint=True))
        d = int(rng.integers(*spec.d, endpoint=True))
        members = ()
        if stacked:
            members = (2, 3) if rng.random() < 1 / 3 else (int(rng.integers(1, 8)),)
        p = spec.p[0] if rng.random() < 0.25 else float(rng.uniform(*spec.p))
        i, j = 0, n  # half the cases measure the whole path
        if rng.random() < 0.5:
            i = int(rng.integers(0, n))
            j = int(rng.integers(i + 1, n + 1))
        grid, geometric = TimeGrid(0.0, 1.0, n), rng.random() < 0.5
        alpha, eta_share = float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.05, 1.2))
        stride = int(rng.choice([s for s in range(1, n + 1) if n % s == 0]))
        shift, seed = int(rng.integers(0, n + 1)), int(rng.integers(2**32))
        lones = tuple(_lift(rng, grid, d, geometric) for _ in range(int(np.prod(members))))
        other = _lift(rng, grid, d, geometric)
        cases.append(Case(n, d, members, p, alpha, eta_share, (i, j), stride, shift, seed,
                          lones, lones[0], other))
    return cases


@dataclass(frozen=True)
class Tol:
    """|fast - reference| <= rel max(|reference|, floor) in every entry, for `reason`."""

    rel: float
    reason: str
    floor: float = 0.0

    def __post_init__(self) -> None:
        assert self.rel <= 1e-12 and self.reason, "a tolerance is at most 1e-12, with its reason"


EXACT = "=="


@dataclass(frozen=True)
class Row:
    """fast(case) against oracle(lone case) for each member, or oracle(case) if `whole`.

    With no oracle, a row only compares each member of a stack with its lone path.
    """

    id: str
    fast: Callable[[Case], object]
    oracle: Callable[[Case], object] | None
    comparison: str | Tol | tuple  # a tuple holds one comparison per part of a result
    cases: Cases
    whole: bool = False
    run_pairs: int | None = None  # norms._RUN_PAIRS while the row runs
    table_pairs: int | None = None  # norms._TABLE_PAIRS while the row runs


def agree(got, want, comparison) -> bool:
    """got and want hold the same entries: nested tuples and lists of arrays.

    A tuple of comparisons is taken apart with the first tuple of want, one
    comparison per part; a list, such as one entry per member, keeps it whole.
    """
    if isinstance(want, (tuple, list)) and isinstance(got, (tuple, list)):
        each = [comparison] * len(want)
        if isinstance(comparison, tuple) and isinstance(want, tuple):
            each = comparison
        return len(got) == len(want) == len(each) and all(
            agree(g, w, c) for g, w, c in zip(got, want, each)
        )
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    if comparison == EXACT:
        return np.array_equal(got, want)
    scale = np.maximum(np.abs(want), comparison.floor)
    return bool(np.all(np.abs(got - want) <= comparison.rel * scale))


def member_of(path, idx):
    """Member idx of a stack, reached through a slice of the first axis, then ints."""
    if idx:
        path = path.member(slice(idx[0], None)).member(0)
    for k in idx[1:]:
        path = path.member(k)
    return path


def path_data(path):
    g = path.grid
    if isinstance(path, rde.ControlledPath):
        return (g.t_min, g.t_max, g.n_steps), path.values, path.gubinelli
    return (g.t_min, g.t_max, g.n_steps), path.inc1, path.inc2


def split(result, c: Case) -> list:
    """One entry per member of a fast result: a list is one already, a path splits by member_of."""
    if isinstance(result, list):
        return result
    if isinstance(result, tuple):
        return list(zip(*(split(part, c) for part in result)))
    if isinstance(result, (lift.GridRoughPath, rde.ControlledPath)):
        return [path_data(member_of(result, idx)) for idx in np.ndindex(c.members)]
    a = np.asarray(result)
    return list(a.reshape((int(np.prod(c.members)),) + a.shape[len(c.members) :]))


def increments(pts):
    return lambda i, j: norms.euclidean_norms(pts[j] - pts[i])


def level2s(a, b=None):
    """Frobenius norms of the level-2 blocks of a, or of a - b."""
    if b is None:
        return lambda i, j: norms.frobenius_norms(a.level2(i, j))
    return lambda i, j: norms.frobenius_norms(a.level2(i, j) - b.level2(i, j))


def running_sums(c):
    w = c.win(c.rp)
    levels = ((increments(w.values), c.p), (level2s(w), c.q))
    return tuple(c.first(np.array(list(norms.partition_sums(f, q, w.n_steps)))) for f, q in levels)


def table_sums(c, program, variation):
    """Over both levels of the window: the running sums of program, the same
    with each member restarted wherever its sum reaches eta_share of its last
    plain one, and variation(norms, p, n_steps)."""
    w = c.win(c.rp)
    out = []
    for f, q in ((increments(w.values), c.p), (level2s(w), c.q)):
        plain = np.array(list(program(f, q, w.n_steps)))
        sums, restart, again = [], None, program(f, q, w.n_steps)
        for _ in range(w.n_steps):
            sums.append(np.array(again.send(restart)))  # a copy: a restart rewrites the yield
            restart = sums[-1] >= c.eta_share * plain[-1]
        out += [c.first(plain), c.first(np.array(sums)), variation(f, q, w.n_steps)]
    return tuple(out)


def rows_variation(f, q, n_steps):
    *_, last = oracles.partition_sums_rows(f, q, n_steps)
    return oracles.root_loop(last, q)


def roots(c, root):
    """root(x, p) and its type, x the case's totals, their first row and one float."""
    totals = 10.0 ** c.rng().uniform(-300.0, 300.0, (c.n, *c.members))
    xs = (totals, totals[0], float(totals.flat[0]))
    return [(root(x, c.p), type(root(x, c.p)).__name__) for x in xs]


def holder(c):
    a, t = c.win(c.rp), c.times[c.window[0] : c.window[1] + 1]
    return (norms.holder_seminorm(t, a.values, c.alpha),
            norms.rho_alpha_metric(a, c.win(c.other), c.alpha))


def holder_loops(c):
    a, b, t = c.win(c.rp), c.win(c.other), c.times[c.window[0] : c.window[1] + 1]
    rho = oracles.holder_sup_loop(increments(a.values - b.values), a.grid.times, c.alpha)
    rho += oracles.holder_sup_loop(level2s(a, b), a.grid.times, 2.0 * c.alpha)
    return oracles.holder_sup_loop(increments(a.values), t, c.alpha), rho


def stops(c, rp):
    """Each member's stopping nodes and times, in member order."""
    mask = c.first(norms.greedy_stopping_times(rp, c.eta, c.p))
    return [(np.flatnonzero(col), rp.grid.times[col]) for col in mask.reshape(-1, rp.n_steps + 1)]


def restarting_stops(c):
    idx = oracles.greedy_stops_restarting(c.win(c.rp), c.eta, c.p)
    return idx, c.win(c.rp).grid.times[idx]


def controlled(c):
    """Controlled paths of generic values with one m (1 to 3) on the case's path and on other."""
    rng = c.rng()
    m = int(rng.integers(1, 4))

    def on(path):
        shape = (c.n + 1, *path.inc1.shape[1:-1], m)
        return rde.ControlledPath(rng.standard_normal(shape), rng.standard_normal(shape + (c.d,)),
                                  path)

    return on(c.rp), on(c.other)


def all_pairs(c):
    """Every pair by right end and then left end, then 5 picked pairs again."""
    j, i = np.nonzero(np.arange(c.n + 1)[None, :] < np.arange(c.n + 1)[:, None])
    pick = c.rng().integers(0, len(i), size=5)
    return np.concatenate([i, i[pick]]), np.concatenate([j, j[pick]])


def pair_forms(c, loop):
    """Blocks of a slice row and of all_pairs; with loop, the same from ints and slice rows."""
    i, j = c.window
    out = []
    for block in (c.rp.level1, c.rp.level2, rde._remainder_gaps(*controlled(c))):
        if not loop:
            out += [block(slice(i, j), j), block(*all_pairs(c))]
            continue
        rows = np.concatenate([block(slice(0, k), k) for k in range(1, c.n + 1)])
        pick = c.rng().integers(0, len(rows), size=5)
        out += [np.stack([block(k, j) for k in range(i, j)]), np.concatenate([rows, rows[pick]])]
    return tuple(out)


def sin_g(c):
    """The sin-g field and a start state, m (1 to 3) and y0 drawn from the case's seed."""
    rng = c.rng()
    m = int(rng.integers(1, 4))
    return rde.builtin_vector_field("sin-g", m, c.d), 0.5 * rng.standard_normal(m)


def solve(c, driver):
    vf, y0 = sin_g(c)
    return rde.solve_rde(vf, driver, y0)


def einsum_solved(c):
    vf, y0 = sin_g(c)
    return ((0.0, 1.0, c.n), *oracles.einsum_solve(vf, c.rp, y0))


def distance(c, a, b):
    """Parts of the distance of the windows of solutions a and b."""
    dist = rde.solution_distance(c.win(a), c.win(b), c.p)
    parts = (dist.sup, dist.pvar, dist.remainder_qvar)
    assert c.members or all(isinstance(part, float) for part in parts)
    return parts


def loop_gaps(a, b):
    return lambda i, j: oracles.loop_remainder(a, i, j) - oracles.loop_remainder(b, i, j)


def enumerated_distance(c):
    a, b = solve(c, c.rp), solve(c, c.other)
    (i, j), diff = c.window, a.values - b.values
    sup = max(np.linalg.norm(diff[k]) for k in range(i, j + 1))
    return sup, oracles.pvar_brute(diff, c.p, i, j), oracles.pvar2_brute(loop_gaps(a, b), c.q, i, j)


def solved_windows(c):
    """The windows of the solutions driven by the case's path and by other."""
    return c.win(solve(c, c.rp)), c.win(solve(c, c.other))


def einsum_distance(c):
    """Distance parts with the remainders of einsum_remainder."""
    a, b = solved_windows(c)
    gap = lambda i, j: oracles.einsum_remainder(a, i, j) - oracles.einsum_remainder(b, i, j)
    rem = norms.block_variation(lambda i, j: norms.euclidean_norms(gap(i, j)), c.q, a.grid.n_steps)
    diff = a.values - b.values
    sup = float(np.sqrt(np.einsum("id,id->i", diff, diff)).max())
    return sup, norms.pvar_seminorm(diff, c.p), rem


def gap_rows(c, gaps):
    """gaps(a, b)(slice(0, j), j) of the solved windows for every right end j, in one array."""
    a, b = solved_windows(c)
    rows = [gaps(a, b)(slice(0, j), j) for j in range(1, a.grid.n_steps + 1)]
    return c.first(np.concatenate(rows))


def member_views(c):
    """Each member's data and values, and whether its arrays are views of the stack's."""
    out = []
    for idx in np.ndindex(c.members):
        m = member_of(c.rp, idx)
        views = np.shares_memory(m.inc1, c.rp.inc1) and np.shares_memory(m.inc2, c.rp.inc2)
        out.append((path_data(m), m.values, views))
    return out


def member_data(c):
    """Member views, node values, the window, level-2 rows, running sums, pvar_seminorm."""
    w = c.win(c.rp)
    return (member_views(c), c.first(c.rp.values), w,
            c.first(c.rp.level2(slice(*c.window), c.window[1])), *running_sums(c),
            norms.pvar_seminorm(w.values, c.p))


def member_measures(c):
    """Level-2 and homogeneous variations, geometricity, solutions and their distances."""
    w, o, a = c.win(c.rp), c.win(c.other), solve(c, c.rp)
    return (norms.pvar_level2(w, c.q), norms.pvar_level2_distance(w, o, c.q),
            norms.homogeneous_pvar_norm(w, c.p), norms.rho_pvar_metric(w, o, c.p),
            lift.geometricity_residual(w), a, *distance(c, a, solve(c, c.other)))


def smoothing_input(c, same_spacing):
    """A walk on the case's grid extended by k steps, k, and the case grid's spacing h.

    k is drawn among the widths 1..n for which the extended grid's spacing
    equals h bit for bit (same_spacing) or differs from it.
    """
    rng, base = c.rng(), TimeGrid(0.0, 1.0, c.n)
    widths = [k for k in range(1, c.n + 1) if (base.extended(k).h == base.h) == same_spacing]
    k = int(rng.choice(widths))
    grid = base.extended(k)
    walk = np.vstack([np.zeros(c.d), rng.standard_normal((grid.n_steps, c.d)).cumsum(axis=0)])
    return SamplePath(grid, walk), k, base.h


def smoothed(c, same_spacing):
    """Values of w_delta and the data of ww_delta, over the width of smoothing_input."""
    path, k, _ = smoothing_input(c, same_spacing)
    rp = wongzakai.ww_delta(path, k)
    return wongzakai.w_delta(path, k).values, rp.inc1, rp.inc2


def quadratic_lift(c):
    """inc1 and inc2 of lift_smooth_quadrature for X_t = (t, t^2) on the case's grid."""
    grid = TimeGrid(0.0, 1.0, c.n)
    t = grid.times
    path = SamplePath(grid, np.column_stack([t, t * t]))
    rp = lift.lift_smooth_quadrature(path, np.column_stack([np.ones_like(t), 2.0 * t]))
    return rp.inc1, rp.inc2


def sampled_lift(c, restrict_first):
    """The canonical lift on the case's grid of a walk on that grid extended by K >= 1 steps.

    The walk is lifted and the lift restricted, or (restrict_first) the walk
    is windowed with the SamplePath constructor and then lifted.
    """
    rng = c.rng()
    grid = TimeGrid(0.0, 1.0, c.n).extended(int(rng.integers(1, c.n + 1)))
    walk = np.vstack([np.zeros(c.d), rng.standard_normal((grid.n_steps, c.d)).cumsum(axis=0)])
    path = SamplePath(grid, walk)
    if restrict_first:
        return path_data(lift.lift_left_riemann(oracles.sampled_window(path, c.n)))
    return path_data(lift.lift_left_riemann(path).restrict(0, c.n))


def level2_twin(c):
    """The window with other's level 2 on its own level 1.

    Its rho_alpha_metric to the window is the level-2 Hoelder part alone:
    the level-1 gaps are 0 exactly.
    """
    a, o = c.win(c.rp), c.win(c.other)
    return lift.GridRoughPath(a.grid, a.inc1, np.broadcast_to(o.inc2, a.inc2.shape))


# The degree of homogeneity under dilation of each part of homogeneous_measures.
SUP_DEGREES = (1, 2)
VARIATION_DEGREES = (1, 2, 1, 1, 2)


def homogeneous_measures(c, move, sups):
    """Measures of the case's windows after move, each level on its own.

    sups: the level-1 Hoelder sup and the level-2 part of rho_alpha_metric.
    Otherwise: the level-1 and level-2 variations, the homogeneous norm and
    the level-1 and level-2 variation distances to other.
    """
    a, b = move(c.win(c.rp)), move(c.win(c.other))
    if sups:
        t = c.times[c.window[0] : c.window[1] + 1]
        return (norms.holder_seminorm(t, a.values, c.alpha),
                norms.rho_alpha_metric(a, move(level2_twin(c)), c.alpha))
    return (norms.pvar_seminorm(a.values, c.p), norms.pvar_level2(a, c.q),
            norms.homogeneous_pvar_norm(a, c.p), norms.pvar_seminorm(a.values - b.values, c.p),
            norms.pvar_level2_distance(a, b, c.q))


def dilated_by(lam):
    return lambda rp: oracles.dilate(rp, lam)


def unmoved(rp):
    return rp


def scaled(measures, lam, degrees):
    """Each measure times lam to its degree."""
    return tuple(lam**k * m for m, k in zip(measures, degrees))


NEAR_TIE = 1e-12


def dilated_stops(c, lam):
    """Each member's stopping nodes of the window dilated by lam, at eta times lam.

    A member whose oracle sums come within NEAR_TIE of eta^p, relatively,
    reads "near tie": rounding may flip its stops.
    """
    clear = [oracles.restarting_margin(c.win(lone), c.eta, c.p) > NEAR_TIE for lone in c.lones]
    mask = c.first(norms.greedy_stopping_times(oracles.dilate(c.win(c.rp), lam), lam * c.eta, c.p))
    cols = mask.reshape(-1, mask.shape[-1])
    return [np.flatnonzero(col) if ok else "near tie" for col, ok in zip(cols, clear)]


def reversal_measures(c, move):
    """Variations, the homogeneous norm, both metrics and the Hoelder sup of the moved windows."""
    a, b = move(c.win(c.rp)), move(c.win(c.other))
    return (norms.pvar_seminorm(a.values, c.p), norms.pvar_level2(a, c.q),
            norms.homogeneous_pvar_norm(a, c.p), norms.rho_pvar_metric(a, b, c.p),
            norms.rho_alpha_metric(a, b, c.alpha),
            norms.holder_seminorm(a.grid.times, a.values, c.alpha))


def shifted(c, path):
    """path translated by the time of node c.shift, then restricted to the window."""
    return c.win(shift_rough_path(path, path.grid.times[c.shift]))


def shift_measures(c, move, sups):
    """Of move(c, path): the Hoelder sups, or the variations and stopping nodes."""
    a, b = move(c, c.rp), move(c, c.other)
    if sups:
        return (norms.holder_seminorm(a.grid.times, a.values, c.alpha),
                norms.rho_alpha_metric(a, b, c.alpha))
    return (norms.pvar_seminorm(a.values, c.p), norms.pvar_level2(a, c.q),
            norms.pvar_level2_distance(a, b, c.q), norms.homogeneous_pvar_norm(a, c.p),
            norms.rho_pvar_metric(a, b, c.p), [idx for idx, _ in stops(c, a)])


WINDOWED = (
    "the fast side reads the window's blocks, whose prefix sums start at its first "
    "node; the reference reads the whole path's, and adds in another order"
)
CHEN = (
    "chen_fold adds the blocks one step at a time, level1 and level2 difference prefix "
    "sums; an entry that chen_fold gives as 0, such as the upper triangle of a geometric "
    "step, is held to 1e-12 absolute"
)
STEPPED = (
    "einsum sums the second-order term's (c, e) pairs in another order than one matmul, "
    "and each step carries the rounding on; an entry near 0 is held to 1e-12 absolute"
)
GAP_TOL = Tol(1e-12, (
    "a remainder gap is read as y_j - c_i - y'_i X_j with c_i = y_i - y'_i X_i, so its "
    "rounding is a few ulps of |y| + |y'||X|, not of |R|; an entry near 0 is held to "
    "1e-12 absolute"
), floor=1.0)
QUADRATURE = (
    "the reference is exact in rationals from the float node times; the lift differences "
    "rounded values t^2, which carries about n ulps, weighs each interval by the grid "
    "spacing rather than t_{k+1} - t_k, and rounds inc (x) inc / 2 and the trapezoid terms"
)
SHIFTED = "the Hoelder gaps t_j - t_i are differences of translated node times"
DILATED = (
    "a power-of-two scale is exact through the blocks and their norms, but (2 x)^p and "
    "2^p x^p round apart, so a sum of p-th powers and its root move by a few ulps"
)
REVERSED = (
    "the reversal's prefix sums add the steps in the other order, its partition sums "
    "add the blocks in the other order, and its Hoelder gaps are differences of other "
    "node times"
)
OFF_SPACING = (
    "w_delta divides by k times the spacing of the path's grid, the reference by k "
    "times that of the base grid, one ulp away; the lift's increments are differences "
    "of such quotients, so an entry near 0 is held to 1e-12 absolute"
)
# (cap, norms._RUN_PAIRS, cases) of the Hoelder rows; the long grid, n = 200 with
# 20100 node pairs, holds more pairs than one run of the default cap.
SHORT = Cases(lone=12, stacks=8, n=(1, 40), stack_n=(1, 30))
LONG = Cases(lone=1, stacks=0, n=(1, 200))
HOLDER_RUNS = [("cap=1", 1, SHORT), ("cap=7", 7, SHORT), ("cap=7,long", 7, LONG),
               ("cap=default", None, SHORT), ("cap=default,long", None, LONG)]
# (cap, norms._TABLE_PAIRS) of the table rows: 0 reads every grid by rows, 1
# reads a table of a lone path's one pair only, and at the default cap every
# case reads a table, stacks of 64 to 128 steps too (the noise grid has 128).
TABLE_CAPS = [("cap=0", 0), ("cap=1", 1), ("cap=default", None)]

ROWS = [
    Row("pvar_seminorm~pvar_brute",
        lambda c: norms.pvar_seminorm(c.win(c.rp).values, c.p),
        lambda c: oracles.pvar_brute(c.rp.values, c.p, *c.window),
        Tol(1e-12, WINDOWED), Cases(lone=100, stacks=6, n=(1, 8), p=(1.0, 3.5))),
    Row("pvar_level2,pvar_level2_distance~pvar2_brute",
        lambda c: (norms.pvar_level2(c.win(c.rp), c.q),
                   norms.pvar_level2_distance(c.win(c.rp), c.win(c.other), c.q)),
        lambda c: (oracles.pvar2_brute(c.rp.level2, c.q, *c.window),
                   oracles.pvar2_brute(lambda i, j: c.rp.level2(i, j) - c.other.level2(i, j),
                                       c.q, *c.window)),
        Tol(1e-12, WINDOWED), Cases(lone=21, stacks=4, n=(1, 9))),
    Row("homogeneous_pvar_norm~homogeneous_brute",
        lambda c: norms.homogeneous_pvar_norm(c.win(c.rp), c.p),
        lambda c: oracles.homogeneous_brute(c.rp.values, c.rp.level2, c.p, *c.window),
        Tol(1e-12, WINDOWED), Cases(lone=8, stacks=4, n=(1, 7))),
    Row("partition_sums~pvar_running_loop", running_sums,
        lambda c: (oracles.pvar_running_loop(c.rp.level1, c.p, *c.window),
                   oracles.pvar_running_loop(c.rp.level2, c.q, *c.window)),
        Tol(1e-12, WINDOWED), Cases(lone=4, stacks=4, n=(2, 64))),
    *(Row(f"partition_sums[table]~partition_sums_rows[{cap}]",
          lambda c: table_sums(c, norms.partition_sums, norms.block_variation),
          lambda c: table_sums(c, oracles.partition_sums_rows, rows_variation),
          EXACT, Cases(lone=12, stacks=12, n=(1, 40), stack_n=(64, 128)), table_pairs=table_pairs)
      for cap, table_pairs in TABLE_CAPS),
    Row("norms._root~root_loop", lambda c: roots(c, norms._root),
        lambda c: roots(c, oracles.root_loop), EXACT,
        Cases(lone=6, stacks=12, n=(1, 12), p=(1.0, 3.5)), whole=True),
    *(Row(f"holder_seminorm,rho_alpha_metric~holder_sup_loop[{cap}]", holder, holder_loops,
          EXACT, cases, run_pairs=run_pairs) for cap, run_pairs, cases in HOLDER_RUNS),
    Row("greedy_stopping_times~greedy_stops_brute",
        lambda c: [idx for idx, _ in stops(c, c.win(c.rp))],
        lambda c: oracles.greedy_stops_brute(c.win(c.rp).values, c.win(c.rp).level2, c.p, c.eta),
        EXACT, Cases(lone=10, stacks=6, n=(1, 8))),
    Row("greedy_stopping_times~greedy_stops_restarting", lambda c: stops(c, c.win(c.rp)),
        restarting_stops, EXACT, Cases(lone=300, stacks=60, n=(4, 80))),
    Row("level1,level2~chen_fold", lambda c: (c.rp.level1(*c.window), c.rp.level2(*c.window)),
        lambda c: oracles.chen_fold(c.rp.inc1, c.rp.inc2, *c.window),
        Tol(1e-12, CHEN, floor=1.0), Cases(lone=20, stacks=10, n=(1, 24))),
    Row("level1,level2,remainder[slices,index arrays]~ints,slices",
        lambda c: pair_forms(c, loop=False), lambda c: pair_forms(c, loop=True),
        EXACT, Cases(lone=24, stacks=24, n=(1, 30)), whole=True),
    Row("coarsen~coarsen_reference", lambda c: c.rp.coarsen(c.stride),
        lambda c: ((0.0, 1.0, c.n // c.stride), *oracles.coarsen_reference(c.rp, c.stride)),
        EXACT, Cases(lone=12, stacks=12, n=(1, 30))),
    Row("solve_rde~einsum_solve", lambda c: solve(c, c.rp), einsum_solved,
        Tol(1e-12, STEPPED, floor=1.0), Cases(lone=12, stacks=6, n=(1, 40))),
    Row("solution_distance~enumeration",
        lambda c: distance(c, solve(c, c.rp), solve(c, c.other)),
        enumerated_distance,
        Tol(1e-12, WINDOWED + "; np.linalg.norm rounds otherwise than euclidean_norms"),
        Cases(lone=2, stacks=2, n=(1, 8))),
    Row("remainder gaps~loop_remainder", lambda c: gap_rows(c, rde._remainder_gaps),
        lambda c: gap_rows(c, loop_gaps), GAP_TOL,
        Cases(lone=12, stacks=12, n=(1, 30))),
    # The distance swapped has the same parts: a - b and b - a have the same norms.
    Row("solution_distance,remainder~einsum_remainder",
        lambda c: (*distance(c, solve(c, c.rp), solve(c, c.other)),
                   *distance(c, solve(c, c.other), solve(c, c.rp))),
        lambda c: (*einsum_distance(c), *einsum_distance(c)),
        (EXACT, EXACT, GAP_TOL, EXACT, EXACT, GAP_TOL),
        Cases(lone=1, stacks=4, n=(1, 40))),
    # No reference program: each member of a stack measures as its lone path.
    Row("stack member data~lone paths", member_data, None, EXACT,
        Cases(lone=0, stacks=12, n=(1, 40))),
    Row("stack member measures~lone paths", member_measures, None, EXACT,
        Cases(lone=0, stacks=6, n=(1, 30))),
    Row("variations,greedy_stopping_times[shift_rough_path]~unshifted",
        lambda c: shift_measures(c, shifted, False), lambda c: shift_measures(c, Case.win, False),
        EXACT, Cases(lone=6, stacks=3, n=(1, 40)), whole=True),
    # Every grid of 33 to 58 steps has widths of both kinds; powers of two have
    # no width off the base spacing.
    Row("w_delta,ww_delta~base_step_smoothing[same spacing]", lambda c: smoothed(c, True),
        lambda c: oracles.base_step_smoothing(*smoothing_input(c, True)),
        EXACT, Cases(lone=40, stacks=0, n=(1, 160)), whole=True),
    Row("w_delta,ww_delta~base_step_smoothing[off spacing]", lambda c: smoothed(c, False),
        lambda c: oracles.base_step_smoothing(*smoothing_input(c, False)),
        Tol(1e-12, OFF_SPACING, floor=1.0), Cases(lone=40, stacks=0, n=(33, 58)), whole=True),
    # The areas are h^3 / 4 an interval, so an area scaled by 1 + 1e-9 moves
    # inc2 by more than 1e-12 of itself on every grid up to 64 steps.
    Row("lift_smooth_quadrature[t, t^2]~quadratic_path_lift", quadratic_lift,
        lambda c: oracles.quadratic_path_lift(TimeGrid(0.0, 1.0, c.n).times),
        Tol(1e-12, QUADRATURE), Cases(lone=24, stacks=0, n=(1, 64)), whole=True),
    Row("holder_seminorm,rho_alpha_metric[shift_rough_path]~unshifted",
        lambda c: shift_measures(c, shifted, True), lambda c: shift_measures(c, Case.win, True),
        Tol(1e-12, SHIFTED), Cases(lone=6, stacks=3, n=(1, 40)), whole=True),
    # The one window taker on a sampled path's lift: restricting the lift of
    # the whole path is restricting the path and then lifting it.
    Row("lift_left_riemann(path).restrict~lift of the SamplePath window",
        lambda c: sampled_lift(c, False), lambda c: sampled_lift(c, True),
        EXACT, Cases(lone=40, stacks=0, n=(1, 64)), whole=True),
    # Metamorphic rows: no reference program, but the relation between the
    # measures of a path and of its dilation or time reversal.
    Row("holder_seminorm,rho_alpha_metric[level 2][dilate 2]~scaled",
        lambda c: homogeneous_measures(c, dilated_by(2.0), True),
        lambda c: scaled(homogeneous_measures(c, unmoved, True), 2.0, SUP_DEGREES),
        EXACT, Cases(lone=24, stacks=12, n=(1, 40)), whole=True),
    Row("variations,homogeneous_pvar_norm[dilate 2]~scaled",
        lambda c: homogeneous_measures(c, dilated_by(2.0), False),
        lambda c: scaled(homogeneous_measures(c, unmoved, False), 2.0, VARIATION_DEGREES),
        Tol(1e-12, DILATED), Cases(lone=24, stacks=8, n=(1, 30)), whole=True),
    Row("greedy_stopping_times[dilate 2, eta 2 eta]~undilated",
        lambda c: dilated_stops(c, 2.0), lambda c: dilated_stops(c, 1.0),
        EXACT, Cases(lone=60, stacks=20, n=(4, 60)), whole=True),
    Row("variations,metrics,holder_seminorm[reverse]~forward",
        lambda c: reversal_measures(c, oracles.reverse), lambda c: reversal_measures(c, unmoved),
        Tol(1e-12, REVERSED), Cases(lone=24, stacks=8, n=(1, 30)), whole=True),
]
ROW_IDS = {row.id: row for row in ROWS}
assert len(ROW_IDS) == len(ROWS), "row ids are unique"


@functools.cache
def failures(row_id: str) -> tuple[str, ...]:
    """The disagreements of a row's cases; each row runs once per test session."""
    row, out = ROW_IDS[row_id], []
    with pytest.MonkeyPatch.context() as mp:
        if row.run_pairs is not None:
            mp.setattr(norms, "_RUN_PAIRS", row.run_pairs)
        if row.table_pairs is not None:
            mp.setattr(norms, "_TABLE_PAIRS", row.table_pairs)
        for k, case in enumerate(draw(row.id, row.cases)):
            if row.whole:
                checks = [(row.fast(case), row.oracle(case), row.comparison)]
            else:
                got, lones = split(row.fast(case), case), case.lone_cases()
                checks = []
                if row.oracle is not None:
                    checks.append((got, [row.oracle(lc) for lc in lones], row.comparison))
                if case.members and (row.oracle is None or row.comparison != EXACT):
                    checks.append((got, [split(row.fast(lc), lc)[0] for lc in lones], EXACT))
            out += [f"case {k} {case}: got {got!r:.300}, want {want!r:.300}"
                    for got, want, comparison in checks if not agree(got, want, comparison)]
    return tuple(out)


def assert_rows(*row_ids: str) -> None:
    """Every case of each row agrees; tests elsewhere name the rows that hold their cases."""
    for row_id in row_ids:
        bad = failures(row_id)
        assert not bad, f"{row_id}: {len(bad)} disagreement(s), first {bad[0]}"


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_row(row):
    assert_rows(row.id)


def test_dilated_stops_leave_few_near_ties():
    # The greedy dilation row compares a member's stops only away from a near tie.
    row = ROW_IDS["greedy_stopping_times[dilate 2, eta 2 eta]~undilated"]
    stops = [s for c in draw(row.id, row.cases) for s in dilated_stops(c, 1.0)]
    assert sum(isinstance(s, str) for s in stops) <= len(stops) // 20


def test_draw_is_seeded_and_spans_its_ranges():
    spec = Cases(lone=30, stacks=30, n=(1, 30), p=(1.0, 3.0))
    cases = draw("a row", spec)
    assert [repr(c) for c in draw("a row", spec)] == [repr(c) for c in cases]
    assert [repr(c) for c in draw("another row", spec)] != [repr(c) for c in cases]
    assert (cases[0].n, cases[1].n) == (30, 1) and {c.d for c in cases} == {1, 2, 3}
    assert min(c.p for c in cases) == 1.0 and max(c.p for c in cases) < 3.0
    assert {(), (1,), (7,), (2, 3)} <= {c.members for c in cases}
    assert any(c.window != (0, c.n) for c in cases) and any(c.stride > 1 for c in cases)
