"""Convergence experiments and their command-line runner.

Three experiments, all Monte-Carlo over a seeded fBm ensemble and all
paired: every width delta of a ladder acts on the same sampled path, so
per-seed comparisons across the ladder cancel most of the sampling noise.
One driver serves all three.  Per seed it samples the path and stacks the
canonical lift (member 0) with the smooth approximants (W_delta, WW_delta),
member k for the k-th width of the ladder, on the base window; each
experiment only measures that stack and gates the (seed, delta) tables.

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
           smallest delta below a configured ceiling; no solver blow-ups.
stopping   displacement of the greedy stopping times of each approximant
           against those of the true lift.  Gates: per-seed non-increase of
           the displacement in >= 90% of seeds; the interval-count bound
           N <= 1 + eta^{-p} |||X|||^p on every run.

The noise and stopping experiments compare lifts on a coarsened stack
(every metric_stride-th node, level 2 rebuilt through Chen's relation, so
the restriction is exact), one member against member 0 at a time.  The
solution experiment ignores metric_stride: its distances run on the full
grid_n grid, where its gates (the sup ceiling above all) are calibrated.

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
the reproducibility guarantee.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
import time
import typing
from dataclasses import asdict, dataclass
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
from .wongzakai import DeltaParam, w_delta, ww_delta

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


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: problem sizes, exponents, ladder and seeding.

    beta and beta_prime default to 1/3 + (H - 1/3)/6 and 1/3 + (H - 1/3)/2,
    which keeps the chain 1/3 < beta < beta_prime < H at every admissible H.
    grid_n = 0 picks the experiment's calibrated size: 4096 for the noise
    rates, 1024 for the solution and stopping runs (whose distance programs
    are quadratic in the node count).  An empty delta_ladder likewise picks
    the calibrated one: step multiples 64..2 for noise, 32..2 for solution
    and stopping, where the coarsest smoothing windows otherwise sit on the
    error plateau and per-seed monotonicity is noise-dominated.
    metric_stride = 0 picks
    max(grid_n/128, 1) node spacing (grid_n/512 for the stopping runs,
    whose greedy times need a finer grid to move smoothly); the noise and
    stopping comparisons then run on a manageable sub-grid, which measured
    cleanest for per-seed monotonicity.  The solution experiment neither
    uses nor checks metric_stride: it measures its distances on the full
    grid.  The level-1 variation exponent is p = 1/beta throughout.
    For noise, fixed_time must be a node of the base grid other than 0.
    out_dir, when set, is where run_suite writes its reports.
    Values are checked against the field types and stored as them: integral
    values for int fields, finite real ones for float fields (y0 entries
    too), never bool; lists and arrays for tuple fields.
    """

    experiment: str
    H: float = 0.45
    d: int = 1
    m: int = 2
    t_min: float = 0.0
    t_max: float = 1.0
    grid_n: int = 0
    delta_ladder: tuple[int, ...] = ()
    beta: float | None = None
    beta_prime: float | None = None
    q_moment: float = 2.0
    n_seeds: int = 100
    field_name: str = "sin-g"
    y0: tuple[float, ...] = (0.0, 0.0)
    eta: float = 0.5
    metric_stride: int = 0
    fixed_time: float = 1.0
    sup_ceiling: float = 0.05
    master_seed: int = 20260814
    out_dir: str | None = None

    def __post_init__(self) -> None:
        for name, hint in typing.get_type_hints(ExperimentConfig).items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, _as_field_type(value, hint))
            except TypeError:
                kind = self.__dataclass_fields__[name].type
                raise ConfigError(name, f"expected {kind}, got {value!r}") from None
            except (ValueError, OverflowError):
                raise ConfigError(name, f"floats must be finite, got {value!r}") from None
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                "experiment", f"unknown name {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if not (1.0 / 3.0 < self.H <= 0.5):
            raise ConfigError("H", f"H must lie in (1/3, 1/2], got {self.H}")
        if self.beta is None:
            object.__setattr__(self, "beta", 1.0 / 3.0 + (self.H - 1.0 / 3.0) / 6.0)
        if self.beta_prime is None:
            object.__setattr__(self, "beta_prime", 1.0 / 3.0 + (self.H - 1.0 / 3.0) / 2.0)
        if not 1.0 / 3.0 < self.beta:
            raise ConfigError("beta", f"need beta > 1/3, got {self.beta}")
        if not self.beta < self.beta_prime:
            raise ConfigError(
                "beta_prime", f"need beta < beta_prime, got {self.beta} >= {self.beta_prime}"
            )
        if not self.beta_prime < self.H:
            raise ConfigError(
                "beta_prime", f"need beta_prime < H, got {self.beta_prime} >= {self.H}"
            )
        if self.q_moment < 2.0:
            raise ConfigError("q_moment", f"moment order must be >= 2, got {self.q_moment}")
        if self.d < 1:
            raise ConfigError("d", f"driver dimension must be >= 1, got {self.d}")
        if self.m < 1:
            raise ConfigError("m", f"state dimension must be >= 1, got {self.m}")
        if not self.t_min <= 0.0 <= self.t_max or not self.t_min < self.t_max:
            raise ConfigError(
                "t_min", f"window [{self.t_min}, {self.t_max}] must contain 0 and be nonempty"
            )
        if self.grid_n == 0:
            default_n = 4096 if self.experiment == "noise" else 1024
            object.__setattr__(self, "grid_n", default_n)
        if self.grid_n < 2:
            raise ConfigError("grid_n", f"need at least 2 grid steps, got {self.grid_n}")

        if not self.delta_ladder:
            default_top = 64 if self.experiment == "noise" else 32
            object.__setattr__(
                self, "delta_ladder", tuple(2**k for k in range(default_top.bit_length() - 1, 0, -1))
            )
        ladder = tuple(sorted(set(self.delta_ladder), reverse=True))
        if ladder != tuple(self.delta_ladder):
            raise ConfigError(
                "delta_ladder",
                f"multiples must be distinct and strictly decreasing, got {self.delta_ladder}",
            )
        h = (self.t_max - self.t_min) / self.grid_n
        if ladder[-1] < 1:
            raise ConfigError("delta_ladder", f"multiples must be >= 1, got {ladder}")
        if ladder[0] >= self.grid_n:
            raise ConfigError(
                "delta_ladder", f"largest multiple {ladder[0]} must be < grid_n = {self.grid_n}"
            )
        if ladder[0] * h > 1.0 + 1e-12:
            raise ConfigError(
                "delta_ladder", f"largest delta {ladder[0] * h} exceeds the admissible 1"
            )
        if self.n_seeds < 1:
            raise ConfigError("n_seeds", f"need at least one seed, got {self.n_seeds}")
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
        if self.eta <= 0.0:
            raise ConfigError("eta", f"eta must be positive, got {self.eta}")
        try:
            threshold = self.eta**self.p
        except OverflowError:
            threshold = math.inf
        if not 0.0 < threshold < math.inf:
            raise ConfigError(
                "eta", f"threshold eta ** p = {self.eta} ** {self.p:.4g} is not a positive float"
            )
        stride = self.stride
        if self.experiment != "solution" and (stride < 1 or self.grid_n % stride != 0):
            raise ConfigError(
                "metric_stride", f"stride {stride} must divide grid_n = {self.grid_n}"
            )
        if self.experiment == "noise":
            try:
                fixed = self.grid.index_of(self.fixed_time)
            except GridAlignmentError as exc:
                raise ConfigError("fixed_time", str(exc)) from None
            if fixed == self.grid.zero_index:
                raise ConfigError("fixed_time", "the level-1 error at time 0 is identically 0")
        if self.sup_ceiling <= 0.0:
            raise ConfigError("sup_ceiling", f"ceiling must be positive, got {self.sup_ceiling}")
        if self.master_seed < 0:
            raise ConfigError("master_seed", f"seed must be >= 0, got {self.master_seed}")
        object.__setattr__(self, "delta_ladder", ladder)

    @property
    def p(self) -> float:
        return 1.0 / self.beta

    @property
    def stride(self) -> int:
        if self.metric_stride:
            return self.metric_stride
        # Stopping times flip whole cells at threshold crossings, so that
        # experiment needs a finer comparison grid than the distance metrics.
        divisor = 512 if self.experiment == "stopping" else 128
        return max(self.grid_n // divisor, 1)

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
    moment_q: tuple[float, ...]
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
    """Everything one experiment produced; rows carry the raw per-seed data."""

    experiment: str
    config: ExperimentConfig
    metrics: tuple[MetricSummary, ...]
    gates: tuple[GateResult, ...]
    rows: tuple[tuple[int, float, str, float], ...]
    # (seed, delta, node, time) of each caught solver blow-up, in run order;
    # delta 0.0 is the true driver.
    blowups: tuple[tuple[int, float, int, float], ...] = ()
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    @property
    def n_blowups(self) -> int:
        return len(self.blowups)

    def to_json_dict(self) -> dict:
        cfg = asdict(self.config)
        cfg.pop("out_dir")
        return {
            "experiment": self.experiment,
            "config": cfg,
            "metrics": [asdict(m) for m in self.metrics],
            "gates": [asdict(g) for g in self.gates],
            "blowups": [dict(zip(("seed", "delta", "node", "time"), b)) for b in self.blowups],
            "n_blowups": self.n_blowups,
            "passed": self.passed,
            "runtime": {"seconds": self.runtime_seconds},
        }


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


def _moments(values: np.ndarray, q: float) -> tuple[float, float, float]:
    finite = values[np.isfinite(values)]
    if len(finite) == 0:
        return math.nan, math.nan, math.nan
    mean = float(np.mean(finite))
    rms = float(np.sqrt(np.mean(finite**2)))
    lq = float(np.mean(np.abs(finite) ** q) ** (1.0 / q))
    return mean, rms, lq


def _summary(
    name: str, table: np.ndarray, deltas: tuple, q: float, predicted: float | None, note: str
) -> MetricSummary:
    """Per-delta moments and rate fit of one metric's (seed, delta) table."""
    means, rmss, lqs = zip(*(_moments(table[:, col], q) for col in range(len(deltas))))
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
        moment_q=lqs,
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
    width, and the canonical lift (member 0) and the smoothed lift of the
    k-th ladder width (member k) are stacked on the base window.
    measure(idx, path, lifts) returns the seed's (metric, delta) array, in
    the order of `metrics`, which maps each metric name to its (predicted
    exponent, note).  gates(tables, summaries) returns the experiment's
    gates from the (seed, delta) table and the MetricSummary of each name.
    blowups, which measure fills while the seeds run, goes into the report.
    """
    t0 = time.perf_counter()
    grid = cfg.grid
    n = cfg.grid_n
    sampler = FbmSampler(
        grid.extended(cfg.delta_ladder[0]), FbmParams(H=cfg.H, d=cfg.d, seed=cfg.master_seed)
    )
    dps = [DeltaParam.for_grid(grid, k) for k in cfg.delta_ladder]

    def one_seed(idx: int) -> np.ndarray:
        path = sampler.sample(idx)
        lifts = GridRoughPath.stack(
            [lift_left_riemann(path.restrict(0, n))]
            + [ww_delta(path, dp).restrict(0, n) for dp in dps]
        )
        return measure(idx, path, lifts)

    stacked = np.stack([one_seed(idx) for idx in range(cfg.n_seeds)])
    tables = {name: stacked[:, i, :] for i, name in enumerate(metrics)}
    deltas = tuple(dp.delta for dp in dps)
    summaries = {
        name: _summary(name, tables[name], deltas, cfg.q_moment, predicted, note)
        for name, (predicted, note) in metrics.items()
    }
    rows = tuple(
        (seed, delta, name, float(tables[name][seed, col]))
        for seed in range(cfg.n_seeds)
        for col, delta in enumerate(deltas)
        for name in metrics
    )
    return ConvergenceReport(
        experiment=cfg.experiment,
        config=cfg,
        metrics=tuple(summaries.values()),
        gates=tuple(gates(tables, summaries)),
        rows=rows,
        blowups=tuple(blowups),
        runtime_seconds=time.perf_counter() - t0,
    )


def run_noise_convergence(cfg: ExperimentConfig) -> ConvergenceReport:
    """Distances between the smooth approximant and the canonical lift."""
    fixed = cfg.grid.index_of(cfg.fixed_time)
    zero = cfg.grid.zero_index
    n_delta = len(cfg.delta_ladder)

    def measure(idx: int, path, lifts: GridRoughPath) -> np.ndarray:
        x_fixed = path.value_at(cfg.fixed_time)
        w_fixed = lifts.level1(zero, fixed)
        coarse = lifts.coarsen(cfg.stride)
        truth = coarse.member(0)
        out = np.empty((3, n_delta))
        for col in range(n_delta):
            wz = coarse.member(col + 1)
            out[0, col] = np.linalg.norm(x_fixed - w_fixed[col + 1])
            out[1, col] = rho_alpha_metric(wz, truth, cfg.beta)
            out[2, col] = rho_pvar_metric(wz, truth, cfg.p)
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
    metrics = {
        "level1_fixed_time": (cfg.H, ""),
        "rho_beta": (rate_gap, "rate reported only; gated on strict per-seed decrease"),
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

    def measure(idx: int, path, drivers: GridRoughPath) -> np.ndarray:
        solved = solve_rde(vf, drivers, y0)
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

    def measure(idx: int, path, lifts: GridRoughPath) -> np.ndarray:
        coarse = lifts.coarsen(cfg.stride)
        st_true = greedy_stopping_times(coarse.member(0), cfg.eta, p)
        out = np.empty((3, n_delta))
        for col in range(n_delta):
            wz = coarse.member(col + 1)
            st_wz = greedy_stopping_times(wz, cfg.eta, p)
            m = min(len(st_true.times), len(st_wz.times))
            out[0, col] = np.abs(st_true.times[:m] - st_wz.times[:m]).max()
            total = homogeneous_pvar_norm(wz, p) ** p
            out[1, col] = 1.0 + total / thresh - st_wz.count
            out[2, col] = st_wz.count
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

    metrics = {
        "displacement": (None, "gated on per-seed non-increase along the ladder"),
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
        raise ConfigError("out_dir", f"cannot create {out}: {exc}") from None
    report = _RUNNERS[cfg.experiment](cfg)
    with open(out / f"{report.experiment}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "delta", "metric", "value"])
        writer.writerows(
            [seed, repr(float(delta)), metric, repr(float(value))]
            for seed, delta, metric, value in report.rows
        )
    with open(out / f"{report.experiment}.json", "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _config_from_file(path: str) -> dict:
    """Read a JSON config file mirroring ExperimentConfig field names."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config", f"{path} must hold a JSON object")
    allowed = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError("config", f"unknown keys {sorted(unknown)} in {path}")
    return raw


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors print one `error:` line, without the usage block, and exit 2."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="roughwz",
        description="Convergence experiments for the smooth-noise approximation.",
    )
    parser.add_argument("--experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", metavar="FILE", help="JSON config mirroring ExperimentConfig")
    parser.add_argument("--H", type=float, dest="H", help="Hurst index in (1/3, 1/2]")
    parser.add_argument("--seeds", type=int, help="Monte-Carlo sample size")
    parser.add_argument("--grid-n", type=int, help="grid steps on the base window")
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
        raise ConfigError("delta_ladder", f"expected comma-separated integers, got {text!r}") from exc


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
