"""Convergence experiments and their command-line runner.

Three experiments, all Monte-Carlo over a seeded fBm ensemble and all
paired: every width delta of a ladder acts on the same sampled path, so
per-seed comparisons across the ladder cancel most of the sampling noise.
One driver serves all three.  Per seed it samples the path and hands the
experiment the canonical lift (member 0) and the smooth approximants
(W_delta, WW_delta), member k for the k-th width of the ladder, on the base
window, one lift at a time; each experiment stacks them, measures the stack
and gates the (seed, delta) tables.

noise      level-1 and metric distances between each approximant and the
           canonical lift of the noise.
           Gates: fitted log-log slope of the fixed-time RMS within
           [0.8 H, 1.2 H]; strict per-seed decrease of the Hoelder-type
           metric along the ladder in >= 90% of seeds.
solution   distances between the RDE solution driven by the true lift and
           by each approximant: one solve of the whole stack and one
           distance program per part.  Gates: per-seed decrease of all
           three distance components in >= 90% of seeds (a metric that is
           identically zero passes as degenerate); RMS sup distance at the
           smallest delta below the fixed sup_ceiling; no solver blow-ups.
stopping   displacement of the greedy stopping times of each approximant
           against those of the true lift.  Gates: per-seed non-increase of
           the displacement in >= 90% of seeds; the interval-count bound
           N <= 1 + eta^{-p} |||X|||^p on every run.

A config sets sizes, H, the ladder, the vector field and the seeding; the
window [0, 1], fixed_time, eta and sup_ceiling are constants of
ExperimentConfig, and the exponents beta and beta_prime follow H.

The noise and stopping experiments compare lifts on a coarsened stack
(every metric_stride-th node, level 2 rebuilt through Chen's relation, so
the restriction is exact).  Each lift is coarsened before it is stacked, so
no seed holds its whole fine stack.  noise measures all approximants
against member 0 in one call per metric; stopping finds the greedy
stopping times of the whole stack in one call and the homogeneous norms
of all its approximants in another.  The solution experiment ignores
metric_stride: its distances run on the full grid_n grid, where its gates
(the sup ceiling above all) are calibrated.

Seeds run one after another, each from its own stream
(master_seed, seed_index).  Reports: a CSV with one row per seed x delta x
metric (columns seed, delta, metric, value, floats via repr), byte-identical
across re-runs, and a shorter run's CSV is a prefix of a longer one's; and a
JSON summary (per-delta moments, slopes, gates with their tolerance bands,
sample sizes and, for the monotone gates, the failing seeds; the seed,
delta, node and time of every caught solver blow-up, delta 0.0 standing
for the true driver, whose blow-up leaves its seed's rows NaN; config
echo).
Wall time lives under the JSON "runtime" key, the single key excluded from
the reproducibility guarantee.  The JSON is strict: NaN and infinite values
are written as null.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import reprlib
import sys
import textwrap
import time
import typing
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .fbm import (
    CovarianceFactorizationError,
    FbmParams,
    FbmSampler,
    GridAlignmentError,
    TimeGrid,
)
from .lift import GridRoughPath, lift_left_riemann
from .norms import (
    greedy_stopping_times,
    homogeneous_pvar_norm,
    rho_alpha_metric,
    rho_pvar_metric,
)
from .rde import (
    VECTOR_FIELD_CATALOG,
    builtin_vector_field,
    solution_distance,
    solve_rde,
)
# perfbench/spans.py wraps the layer calls by their names in this module (w_delta
# too, which no experiment calls), so the experiments look them up as globals.
from .wongzakai import w_delta, ww_delta

__all__ = [
    "EXPERIMENTS",
    "ConfigError",
    "ConvergenceReport",
    "ExperimentConfig",
    "GateResult",
    "MetricSummary",
    "fit_loglog_slope",
    "main",
    "run_noise_convergence",
    "run_solution_convergence",
    "run_stopping_time_convergence",
    "run_suite",
]

EXPERIMENTS = ("noise", "solution", "stopping")

_DECREASE_FRACTION = 0.9
# Error messages echo a bad value through this, which cuts a long one short.
_short = reprlib.repr


class ConfigError(ValueError):
    """Invalid experiment configuration; names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field {field_name!r}: {message}")


# Values that fit each scalar field type (bool fits none of them).
_SCALARS = {int: numbers.Integral, float: numbers.Real, str: str}


def _as_field_type(value, hint):
    """value as the ExperimentConfig field type hint; TypeError if it does not fit.

    Integral values (numpy ones too) fit int fields, real values fit float
    fields, and lists or arrays fit tuple fields.  A float that is NaN or
    infinite raises ValueError (OverflowError for an int too large for one).
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple, np.ndarray)):
            return tuple(_as_field_type(v, args[0]) for v in value)
    elif args:  # X | None
        return None if value is None else _as_field_type(value, args[0])
    elif isinstance(value, _SCALARS[hint]) and not isinstance(value, bool):
        value = hint(value)
        if hint is float and not math.isfinite(value):
            raise ValueError(value)
        return value
    raise TypeError(value)


# grid_n above this is refused before any array is built.  The sampler's
# FFT alone holds 2 grid_n complex values per driver component (half a GiB
# at 2**24), the distance programs are quadratic in grid_n, and sizes near
# 2**63 make numpy fail with a traceback rather than a config error.
_MAX_GRID_N = 2**24

# d and m above this are refused before the field check builds the vector
# field, whose coefficient tables hold m x d values (14.9 GiB at m = 2 and
# d = 10**9).  A lift holds d**2 level-2 values per node and member, 50 GB
# for a 6-member ladder on 1025 nodes at the bound, so the bound refuses
# no size a calibrated run could hold.
_MAX_DIM = 2**10

# n_seeds above this is refused before the first seed runs.  The seeds run
# one after another and every seed's row of the table is kept until the
# reports are written: one seed of the calibrated solution run takes about
# 0.16 s on a 2-core x86 VM, so 2**20 seeds, ten thousand times the seeds
# of an acceptance run, take about two days.
_MAX_SEEDS = 2**20


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: problem sizes, ladder, vector field and seeding.

    The window [t_min, t_max], the noise's error time fixed_time, the
    stopping level eta and the solution ceiling sup_ceiling are class
    constants, the same for every run.  beta = 1/3 + (H - 1/3)/6 and
    beta_prime = 1/3 + (H - 1/3)/2 follow H, keeping the chain
    1/3 < beta < beta_prime < H, and the level-1 variation exponent is
    p = 1/beta throughout.
    grid_n = 0 picks the experiment's calibrated size: 4096 for the noise
    rates, 1024 for the solution and stopping runs (whose distance programs
    are quadratic in the node count); at most 2**24.  An empty delta_ladder
    likewise picks the calibrated one: step multiples 64..2 for noise,
    32..2 for solution and stopping, where the coarsest smoothing windows
    otherwise sit on the error plateau and per-seed monotonicity is
    noise-dominated.  metric_stride = 0 picks
    max(grid_n/128, 1) node spacing (grid_n/512 for the stopping runs,
    whose greedy times need a finer grid to move smoothly); the noise and
    stopping comparisons then run on a manageable sub-grid, which measured
    cleanest for per-seed monotonicity; a negative metric_stride is refused.
    The solution experiment uses metric_stride no further: it measures its
    distances on the full grid.  field_name, y0 and m only shape the solution runs.
    d and m are at most 2**10, n_seeds at most 2**20.
    out_dir, when set, is where run_suite writes its reports.
    Values are checked against the field types and stored as them: integral
    values for int fields, finite real ones for float fields (y0 entries
    too), never bool; lists and arrays for tuple fields.
    """

    experiment: str
    H: float = 0.45
    d: int = 1
    m: int = 2
    grid_n: int = 0
    delta_ladder: tuple[int, ...] = ()
    n_seeds: int = 100
    field_name: str = "sin-g"
    y0: tuple[float, ...] = (0.0, 0.0)
    metric_stride: int = 0
    master_seed: int = 20260814
    out_dir: str | None = None

    # Fixed for every run: read as attributes, never set.
    t_min = 0.0
    t_max = 1.0
    fixed_time = 1.0
    eta = 0.5
    sup_ceiling = 0.05

    def __post_init__(self) -> None:
        for name, hint in typing.get_type_hints(ExperimentConfig).items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, _as_field_type(value, hint))
            except TypeError:
                kind = self.__dataclass_fields__[name].type
                raise ConfigError(name, f"expected {kind}, got {_short(value)}") from None
            except (ValueError, OverflowError):
                raise ConfigError(name, f"floats must be finite, got {_short(value)}") from None
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                "experiment", f"unknown name {_short(self.experiment)}; choose from {EXPERIMENTS}"
            )
        if not (1.0 / 3.0 < self.H <= 0.5):
            raise ConfigError("H", f"H must lie in (1/3, 1/2], got {self.H}")
        if not 1.0 / 3.0 < self.beta < self.beta_prime < self.H:
            raise ConfigError(
                "H",
                f"H = {self.H!r} is too close to 1/3 for 1/3 < beta < beta_prime < H "
                f"in floating point (beta = {self.beta!r}, beta_prime = {self.beta_prime!r})",
            )
        if not 1 <= self.d <= _MAX_DIM:
            raise ConfigError(
                "d", f"driver dimension must be 1 to {_MAX_DIM}, got {_short(self.d)}"
            )
        if not 1 <= self.m <= _MAX_DIM:
            raise ConfigError(
                "m", f"state dimension must be 1 to {_MAX_DIM}, got {_short(self.m)}"
            )
        if self.grid_n == 0:
            default_n = 4096 if self.experiment == "noise" else 1024
            object.__setattr__(self, "grid_n", default_n)
        if not 2 <= self.grid_n <= _MAX_GRID_N:
            raise ConfigError(
                "grid_n", f"need 2 to {_MAX_GRID_N} grid steps, got {_short(self.grid_n)}"
            )
        if not self.delta_ladder:
            default_top = 64 if self.experiment == "noise" else 32
            object.__setattr__(
                self, "delta_ladder", tuple(2**k for k in range(default_top.bit_length() - 1, 0, -1))
            )
        ladder = tuple(sorted(set(self.delta_ladder), reverse=True))
        if ladder != tuple(self.delta_ladder):
            raise ConfigError(
                "delta_ladder",
                f"multiples must be distinct and decreasing, got {_short(self.delta_ladder)}",
            )
        if ladder[-1] < 1:
            raise ConfigError("delta_ladder", f"multiples must be >= 1, got {_short(ladder)}")
        if ladder[0] >= self.grid_n:
            raise ConfigError(
                "delta_ladder",
                f"largest multiple {_short(ladder[0])} must be < grid_n = {self.grid_n}",
            )
        if not 1 <= self.n_seeds <= _MAX_SEEDS:
            raise ConfigError(
                "n_seeds", f"need 1 to {_MAX_SEEDS} seeds, got {_short(self.n_seeds)}"
            )
        if self.experiment == "noise" and self.n_seeds < 30:
            raise ConfigError(
                "n_seeds", f"rate fits need n_seeds >= 30, got {self.n_seeds}"
            )
        try:
            builtin_vector_field(self.field_name, m=self.m, d=self.d)
        except ValueError as exc:
            raise ConfigError("field_name", str(exc)) from exc
        if len(self.y0) != self.m:
            raise ConfigError("y0", f"y0 has {len(self.y0)} entries for m = {self.m}")
        if self.metric_stride < 0:
            raise ConfigError(
                "metric_stride",
                "must be >= 0, where 0 picks the calibrated stride; "
                f"got {_short(self.metric_stride)}",
            )
        stride = self.stride
        if self.experiment != "solution" and self.grid_n % stride != 0:
            if self.metric_stride:
                raise ConfigError(
                    "metric_stride", f"stride {_short(stride)} must divide grid_n = {self.grid_n}"
                )
            div = self._stride_divisor
            raise ConfigError(
                "grid_n",
                f"the calibrated metric stride grid_n // {div} = {stride} does not divide "
                f"grid_n = {self.grid_n}; pick a grid_n that it divides, such as a multiple "
                f"of {div}, or set metric_stride",
            )
        if self.master_seed < 0:
            raise ConfigError("master_seed", f"seed must be >= 0, got {_short(self.master_seed)}")
        object.__setattr__(self, "delta_ladder", ladder)

    @property
    def beta(self) -> float:
        return 1.0 / 3.0 + (self.H - 1.0 / 3.0) / 6.0

    @property
    def beta_prime(self) -> float:
        return 1.0 / 3.0 + (self.H - 1.0 / 3.0) / 2.0

    @property
    def p(self) -> float:
        return 1.0 / self.beta

    @property
    def stride(self) -> int:
        return self.metric_stride or max(self.grid_n // self._stride_divisor, 1)

    @property
    def _stride_divisor(self) -> int:
        # Stopping times flip whole cells at threshold crossings, so that
        # experiment needs a finer comparison grid than the distance metrics.
        return 512 if self.experiment == "stopping" else 128

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.t_min, self.t_max, self.grid_n)


@dataclass(frozen=True)
class MetricSummary:
    """Per-delta moments and the fitted rate of one measured distance.

    The moments leave out non-finite values; n_nonfinite counts them per
    delta.
    """

    metric: str
    deltas: tuple[float, ...]
    mean: tuple[float, ...]
    rms: tuple[float, ...]
    n_nonfinite: tuple[int, ...]
    slope: float | None
    slope_se: float | None
    predicted_exponent: float | None
    note: str = ""


@dataclass(frozen=True)
class GateResult:
    """One gated claim with its tolerance band and sample size."""

    name: str
    passed: bool
    value: float
    tolerance: str
    sample_size: int
    failing_seeds: tuple[int, ...] = ()


@dataclass(frozen=True)
class ConvergenceReport:
    """Everything one experiment produced; table holds the raw per-seed data."""

    experiment: str
    config: ExperimentConfig
    metrics: tuple[MetricSummary, ...]
    gates: tuple[GateResult, ...]
    # Read-only (seed, delta, metric) values, axes ordered as rows reads them.
    table: np.ndarray = field(compare=False)
    # (seed, delta, node, time) of each caught solver blow-up, in run order;
    # delta 0.0 is the true driver.
    blowups: tuple[tuple[int, float, int, float], ...] = ()
    runtime_seconds: float = 0.0

    @property
    def rows(self) -> tuple[tuple[int, float, str, float], ...]:
        """(seed, delta, metric, value) per table entry: seed-major, then delta, then metric."""
        names = [m.metric for m in self.metrics]
        return tuple(
            (seed, delta, name, value)
            for seed, by_delta in enumerate(self.table.tolist())
            for delta, by_metric in zip(self.metrics[0].deltas, by_delta)
            for name, value in zip(names, by_metric)
        )

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    @property
    def n_blowups(self) -> int:
        return len(self.blowups)

    def to_json_dict(self) -> dict:
        """The JSON report body; NaN and infinite floats become None (JSON null)."""
        cfg = asdict(self.config)
        cfg.pop("out_dir")
        return _finite_or_none({
            "experiment": self.experiment,
            "config": cfg,
            "metrics": [asdict(m) for m in self.metrics],
            "gates": [asdict(g) for g in self.gates],
            "blowups": [dict(zip(("seed", "delta", "node", "time"), b)) for b in self.blowups],
            "n_blowups": self.n_blowups,
            "passed": self.passed,
            "runtime": {"seconds": self.runtime_seconds},
        })


def _finite_or_none(obj):
    """obj with each NaN or infinite float, in dicts, lists and tuples too, as None."""
    if isinstance(obj, dict):
        return {key: _finite_or_none(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_finite_or_none, obj))
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


# ---------------------------------------------------------------------------
# small numeric helpers
# ---------------------------------------------------------------------------


def fit_loglog_slope(deltas, values) -> tuple[float, float] | None:
    """Least-squares slope of log(value) against log(delta), with its SE.

    None when fewer than two positive points exist; the SE is nan for an
    exact two-point fit.
    """
    x = np.log(np.asarray(deltas, dtype=float))
    y = np.asarray(values, dtype=float)
    if len(x) < 2 or np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        return None
    y = np.log(y)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean())) / sxx
    n = len(x)
    if n == 2:
        return slope, math.nan
    resid = y - y.mean() - slope * xc
    se = math.sqrt(float(resid @ resid) / (n - 2) / sxx)
    return slope, se


def _monotone_gate(name: str, table: np.ndarray, strict: bool) -> GateResult:
    """Fraction of seeds (rows of a seed x delta table) falling along the ladder.

    A strict gate on an all-zero table passes as degenerate; a seed with a
    NaN or infinite entry fails.
    """
    with np.errstate(invalid="ignore"):  # inf - inf
        steps = np.diff(table, axis=1)
    ok = np.all(steps < 0.0 if strict else steps <= 0.0, axis=1)
    kind = "strictly decreasing" if strict else "non-increasing"
    tolerance = f"fraction of seeds {kind} >= {_DECREASE_FRACTION}"
    if strict and np.all(table == 0.0):
        ok[:] = True
        tolerance += "; identically zero, passes as degenerate"
    frac = float(np.mean(ok))
    return GateResult(
        name=name,
        passed=frac >= _DECREASE_FRACTION,
        value=frac,
        tolerance=tolerance,
        sample_size=len(table),
        failing_seeds=tuple(int(seed) for seed in np.flatnonzero(~ok)),
    )


def _moments(values: np.ndarray) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    if len(finite) == 0:
        return math.nan, math.nan
    return float(np.mean(finite)), float(np.sqrt(np.mean(finite**2)))


def _summary(
    name: str, table: np.ndarray, deltas: tuple, predicted: float | None, note: str
) -> MetricSummary:
    """Per-delta moments and rate fit of one metric's (seed, delta) table."""
    means, rmss = zip(*(_moments(table[:, col]) for col in range(len(deltas))))
    fit = None if len(deltas) < 2 else fit_loglog_slope(deltas, rmss)
    if len(deltas) < 2:
        note = (note + "; " if note else "") + "insufficient ladder: no rate fit"
    elif fit is None:
        note = (note + "; " if note else "") + "degenerate values: no rate fit"
    return MetricSummary(
        metric=name,
        deltas=deltas,
        mean=means,
        rms=rmss,
        n_nonfinite=tuple(int(k) for k in np.count_nonzero(~np.isfinite(table), axis=0)),
        slope=None if fit is None else fit[0],
        slope_se=None if fit is None else fit[1],
        predicted_exponent=predicted,
        note=note,
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _run_ladder(
    cfg: ExperimentConfig, metrics: dict, measure, gates, blowups=()
) -> ConvergenceReport:
    """Run one experiment over every seed's delta ladder and report it.

    Per seed the fBm path is sampled on the grid extended by the largest
    width.  measure(idx, path, lifts) gets an iterator over the canonical
    lift (member 0) and the smoothed lift of each ladder width (member k
    for the k-th), on the base window.  Each smoothed lift is built only
    as it is read, so measure can shrink one before the next is made.
    measure returns the seed's (metric, delta) array, in the order of
    `metrics`, which maps each metric name to its (predicted exponent,
    note).  gates(tables, summaries) returns the experiment's gates from
    the (seed, delta) table and the MetricSummary of each name.
    blowups, which measure fills while the seeds run, goes into the report.
    """
    t0 = time.perf_counter()
    grid = cfg.grid
    n = cfg.grid_n
    sampler = FbmSampler(
        grid.extended(cfg.delta_ladder[0]), FbmParams(H=cfg.H, d=cfg.d, seed=cfg.master_seed)
    )

    def one_seed(idx: int) -> np.ndarray:
        path = sampler.sample(idx)
        lifts = chain(
            [lift_left_riemann(path).restrict(0, n)],
            (ww_delta(path, k).restrict(0, n) for k in cfg.delta_ladder),
        )
        return measure(idx, path, lifts)

    stacked = np.stack([one_seed(idx) for idx in range(cfg.n_seeds)])
    stacked.setflags(write=False)
    tables = {name: stacked[:, i, :] for i, name in enumerate(metrics)}
    deltas = tuple(k * grid.h for k in cfg.delta_ladder)
    summaries = {
        name: _summary(name, tables[name], deltas, predicted, note)
        for name, (predicted, note) in metrics.items()
    }
    return ConvergenceReport(
        experiment=cfg.experiment,
        config=cfg,
        metrics=tuple(summaries.values()),
        gates=tuple(gates(tables, summaries)),
        table=stacked.transpose(0, 2, 1),
        blowups=tuple(blowups),
        runtime_seconds=time.perf_counter() - t0,
    )


def run_noise_convergence(cfg: ExperimentConfig) -> ConvergenceReport:
    """Distances between the smooth approximant and the canonical lift."""
    fixed = cfg.grid.index_of(cfg.fixed_time)
    zero = cfg.grid.zero_index
    n_delta = len(cfg.delta_ladder)

    def measure(idx: int, path, lifts) -> np.ndarray:
        x_fixed = path.value_at(cfg.fixed_time)
        out = np.empty((3, n_delta))
        coarse = []
        for k, rp in enumerate(lifts):
            # The fixed-time error is read off the fine lift before it is dropped.
            if k:
                out[0, k - 1] = np.linalg.norm(x_fixed - rp.level1(zero, fixed))
            coarse.append(rp.coarsen(cfg.stride))
        coarse = GridRoughPath.stack(coarse)
        wz, truth = coarse.member(slice(1, None)), coarse.member(slice(0, 1))
        out[1] = rho_alpha_metric(wz, truth, cfg.beta)
        out[2] = rho_pvar_metric(wz, truth, cfg.p)
        return out

    def gates(tables, summaries) -> list[GateResult]:
        lo, hi = 0.8 * cfg.H, 1.2 * cfg.H
        slope = summaries["level1_fixed_time"].slope
        out = [
            GateResult(
                name="level1_slope_band",
                passed=slope is not None and lo <= slope <= hi,
                value=math.nan if slope is None else slope,
                tolerance=f"fitted RMS slope in [{lo:.4g}, {hi:.4g}] (0.8H..1.2H)",
                sample_size=cfg.n_seeds,
            )
        ]
        if n_delta >= 2:
            out.append(_monotone_gate("rho_beta_strict_decrease", tables["rho_beta"], strict=True))
        return out

    rate_gap = cfg.H - cfg.beta_prime
    gated = "gated on strict per-seed decrease" if n_delta >= 2 else "not gated"
    metrics = {
        "level1_fixed_time": (cfg.H, ""),
        "rho_beta": (rate_gap, f"rate reported only; {gated}"),
        "rho_pvar": (rate_gap, "reported only, not gated"),
    }
    return _run_ladder(cfg, metrics, measure, gates)


def run_solution_convergence(cfg: ExperimentConfig) -> ConvergenceReport:
    """Distances between solutions under the true and approximant drivers."""
    vf = builtin_vector_field(cfg.field_name, m=cfg.m, d=cfg.d)
    y0 = np.asarray(cfg.y0)
    # Member 0 of a seed's stack is the true driver, recorded as delta 0.0.
    h = cfg.grid.h
    member_deltas = [0.0] + [k * h for k in cfg.delta_ladder]
    blowups: list[tuple[int, float, int, float]] = []

    def measure(idx: int, path, lifts) -> np.ndarray:
        solved = solve_rde(vf, GridRoughPath.stack(lifts), y0)
        # A member that blew up is NaN from its blow-up node on, and its start
        # state is finite; record each onset in (node, member) order.
        nan = np.isnan(solved.values).any(axis=-1)
        nodes, ks = np.nonzero(np.diff(nan, axis=0, prepend=False))
        times = solved.grid.times
        blowups.extend(
            (idx, member_deltas[k], int(node), float(times[node])) for node, k in zip(nodes, ks)
        )
        if nan[:, 0].any():
            return np.full((3, len(cfg.delta_ladder)), np.nan)
        # A blown-up approximant's distances are NaN.
        dist = solution_distance(solved.member(slice(1, None)), solved.member(slice(0, 1)), cfg.p)
        return np.array([dist.sup, dist.pvar, dist.remainder_qvar])

    def gates(tables, summaries) -> list[GateResult]:
        out = []
        if len(cfg.delta_ladder) >= 2:
            out.extend(
                _monotone_gate(f"{name}_decrease", table, strict=True)
                for name, table in tables.items()
            )
        rms_small = summaries["sup"].rms[-1]
        out.append(
            GateResult(
                name="smallest_delta_sup_ceiling",
                passed=bool(rms_small < cfg.sup_ceiling),
                value=rms_small,
                tolerance=f"RMS sup distance at smallest delta < {cfg.sup_ceiling}",
                sample_size=cfg.n_seeds,
            )
        )
        out.append(
            GateResult(
                name="no_blowups",
                passed=not blowups,
                value=float(len(blowups)),
                tolerance="solver blow-up count == 0",
                sample_size=cfg.n_seeds * len(member_deltas),
            )
        )
        return out

    rate_gap = cfg.H - cfg.beta_prime
    metrics = {name: (rate_gap, "") for name in ("sup", "pvar", "remainder_qvar")}
    return _run_ladder(cfg, metrics, measure, gates, blowups)


def run_stopping_time_convergence(cfg: ExperimentConfig) -> ConvergenceReport:
    """Greedy stopping times of the approximant against the true lift's."""
    n_delta = len(cfg.delta_ladder)
    p = cfg.p
    thresh = cfg.eta**p

    def measure(idx: int, path, lifts) -> np.ndarray:
        coarse = GridRoughPath.stack(rp.coarsen(cfg.stride) for rp in lifts)
        stops = greedy_stopping_times(coarse, cfg.eta, p)
        norms_wz = homogeneous_pvar_norm(coarse.member(slice(1, None)), p)
        times = coarse.grid.times
        counts = stops.sum(axis=0) - 1
        t_true = times[stops[:, 0]]
        out = np.empty((3, n_delta))
        for col in range(n_delta):
            t_wz = times[stops[:, col + 1]]
            m = min(len(t_true), len(t_wz))
            out[0, col] = np.abs(t_true[:m] - t_wz[:m]).max()
            # A scalar power per member: numpy's array power may round an ulp off.
            total = norms_wz[col] ** p
            out[1, col] = 1.0 + total / thresh - counts[col + 1]
            out[2, col] = counts[col + 1]
        return out

    def gates(tables, summaries) -> list[GateResult]:
        out = []
        if n_delta >= 2:
            out.append(
                _monotone_gate("displacement_non_increase", tables["displacement"], strict=False)
            )
        min_margin = float(np.min(tables["count_bound_margin"]))
        out.append(
            GateResult(
                name="count_bound",
                passed=bool(min_margin >= 0.0),
                value=min_margin,
                tolerance="min over runs of 1 + eta^-p |||X|||^p - N >= 0",
                sample_size=cfg.n_seeds * n_delta,
            )
        )
        return out

    gated = "gated on per-seed non-increase along the ladder" if n_delta >= 2 else "not gated"
    metrics = {
        "displacement": (None, gated),
        "count_bound_margin": (None, "1 + eta^-p |||X|||^p - N; must stay >= 0"),
        "count": (None, "interval count of the approximant's stopping times"),
    }
    return _run_ladder(cfg, metrics, measure, gates)


_RUNNERS = {
    "noise": run_noise_convergence,
    "solution": run_solution_convergence,
    "stopping": run_stopping_time_convergence,
}


# ---------------------------------------------------------------------------
# report emission and CLI
# ---------------------------------------------------------------------------


def run_suite(cfg: ExperimentConfig) -> ConvergenceReport:
    """Run the configured experiment and write reports when out_dir is set.

    out_dir is created before the first seed is sampled; ConfigError if
    that fails.
    """
    if cfg.out_dir is None:
        return _RUNNERS[cfg.experiment](cfg)
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = f"cannot create {_short(str(out))}: {_os_reason(exc)}"
        raise ConfigError("out_dir", reason) from None
    report = _RUNNERS[cfg.experiment](cfg)
    with open(out / f"{report.experiment}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "delta", "metric", "value"])
        writer.writerows(
            [seed, repr(float(delta)), metric, repr(float(value))]
            for seed, delta, metric, value in report.rows
        )
    with open(out / f"{report.experiment}.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return report


def _os_reason(exc: OSError) -> str:
    """The reason of an OSError without the file names its text repeats."""
    return exc.strerror or type(exc).__name__


def _config_from_file(path: str) -> dict:
    """Read a JSON config file mirroring ExperimentConfig field names."""
    where = _short(path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {where}: {_os_reason(exc)}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{where} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise ConfigError("config", f"{where} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError("config", f"{where} nests too deeply to read") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", f"{where} must hold a JSON object")
    allowed = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError("config", f"unknown keys {_short(sorted(unknown))} in {where}")
    return raw


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors print one short `error:` line, without the usage block, and exit 2."""

    def error(self, message: str):
        # argparse echoes a bad value or flag whole; shorten drops a long one.
        self.exit(2, f"error: {textwrap.shorten(message, 200)}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="roughwz",
        description="Convergence experiments for the smooth-noise approximation.",
    )
    parser.add_argument("--experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", metavar="FILE", help="JSON config mirroring ExperimentConfig")
    parser.add_argument("--H", type=float, dest="H", help="Hurst index in (1/3, 1/2]")
    parser.add_argument("--seeds", type=int, help="Monte-Carlo sample size")
    parser.add_argument(
        "--grid-n", type=int, help="grid steps on the base window (0: the calibrated size)"
    )
    parser.add_argument(
        "--delta-ladder", metavar="K1,K2,...", help="decreasing grid multiples, comma separated"
    )
    parser.add_argument("--out", metavar="DIR", help="directory for CSV and JSON reports")
    parser.add_argument(
        "--list", action="store_true", help="list experiments and vector fields, then exit"
    )
    return parser


def _parse_ladder(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        message = f"expected comma-separated integers, got {_short(text)}"
        raise ConfigError("delta_ladder", message) from exc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print("experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("vector fields:")
        for name in VECTOR_FIELD_CATALOG:
            print(f"  {name}")
        return 0
    try:
        fields: dict = {}
        if args.config:
            fields.update(_config_from_file(args.config))
        if args.experiment:
            fields["experiment"] = args.experiment
        if "experiment" not in fields:
            raise ConfigError("experiment", "no experiment selected (flag or config file)")
        if args.H is not None:
            fields["H"] = args.H
        if args.seeds is not None:
            fields["n_seeds"] = args.seeds
        if args.grid_n is not None:
            fields["grid_n"] = args.grid_n
        if args.delta_ladder is not None:
            fields["delta_ladder"] = _parse_ladder(args.delta_ladder)
        if args.out is not None:
            fields["out_dir"] = args.out
        cfg = ExperimentConfig(**fields)
        report = run_suite(cfg)
    except (ConfigError, CovarianceFactorizationError, GridAlignmentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        given = [k for k in ("d", "m", "grid_n", "n_seeds") if k in fields]
        sizes = ", ".join(f"{k} = {fields[k]}" for k in given)
        print(
            f"error: out of memory at {sizes or 'the default sizes'} "
            f"({exc or 'MemoryError'}); reduce the sizes",
            file=sys.stderr,
        )
        return 2
    for gate in report.gates:
        status = "pass" if gate.passed else "FAIL"
        seeds = ""
        if not gate.passed and gate.failing_seeds:
            seeds = f" failing seeds {', '.join(map(str, gate.failing_seeds))}"
        print(
            f"[{status}] {report.experiment}/{gate.name}: value={gate.value:.6g} "
            f"({gate.tolerance}; n={gate.sample_size}){seeds}"
        )
    for metric in report.metrics:
        if metric.slope is not None:
            se = "nan" if metric.slope_se is None or math.isnan(metric.slope_se) else f"{metric.slope_se:.3g}"
            pred = "-" if metric.predicted_exponent is None else f"{metric.predicted_exponent:.4g}"
            print(
                f"  {metric.metric}: slope={metric.slope:.4g} (se={se}, predicted={pred})"
            )
        elif metric.note:
            print(f"  {metric.metric}: {metric.note}")
    return 0 if report.passed else 1
