"""Convergence experiments and their command-line runner.

Three experiments, all Monte-Carlo over a seeded fBm ensemble and all
paired: every width delta of a ladder acts on the same sampled path, so
per-seed comparisons across the ladder cancel most of the sampling noise.

noise      level-1 and metric distances between the smooth approximant
           (W_delta, WW_delta) and the canonical lift of the noise.
           Gates: fitted log-log slope of the fixed-time RMS within
           [0.8 H, 1.2 H]; strict per-seed decrease of the Hoelder-type
           metric along the ladder in >= 90% of seeds.
solution   distances between the RDE solution driven by the true lift and
           by the smooth approximant, same noise.  Gates: per-seed decrease
           of all three distance components in >= 90% of seeds (a metric
           that is identically zero passes as degenerate); RMS sup distance
           at the smallest delta below a configured ceiling.
stopping   displacement of the greedy stopping times of the approximant
           against those of the true lift.  Gates: per-seed non-increase of
           the displacement in >= 90% of seeds; the interval-count bound
           N <= 1 + eta^{-p} |||X|||^p on every run.

Metric evaluation runs on a coarsened comparison grid (every stride-th
node, level 2 rebuilt through Chen's relation, so the restriction is
exact).  The default stride is the largest ladder multiple: node gaps then
start at the largest delta, the regime where the distances separate
cleanly by delta.

Reports: a CSV with one row per seed x delta x metric (columns seed,
delta, metric, value, floats via repr, byte-reproducible for any thread
count) and a JSON summary (per-delta moments, slopes, gates with their
tolerance bands and sample sizes, config echo).  Wall time and thread
count live under the JSON "runtime" key, the single key excluded from the
reproducibility guarantee.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
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
    SolverBlowUpError,
    builtin_vector_field,
    solution_distance,
    solve_rde,
)
# No experiment calls w_delta directly any more; the name stays importable
# here because perfbench/spans.py wraps expcli.w_delta.
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
    whose greedy times need a finer grid to move smoothly); the distance
    comparisons then run on a manageable sub-grid, which measured cleanest
    for per-seed monotonicity.
    The level-1 variation exponent is p = 1/beta throughout.
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
    threads: int = 1

    def __post_init__(self) -> None:
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
        ladder = tuple(sorted({int(k) for k in self.delta_ladder}, reverse=True))
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
        stride = self.stride
        if stride < 1 or self.grid_n % stride != 0:
            raise ConfigError(
                "metric_stride", f"stride {stride} must divide grid_n = {self.grid_n}"
            )
        if self.sup_ceiling <= 0.0:
            raise ConfigError("sup_ceiling", f"ceiling must be positive, got {self.sup_ceiling}")
        if self.threads < 1:
            raise ConfigError("threads", f"thread count must be >= 1, got {self.threads}")
        object.__setattr__(self, "delta_ladder", ladder)
        object.__setattr__(self, "y0", tuple(float(v) for v in self.y0))

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
    """Per-delta moments and the fitted rate of one measured distance."""

    metric: str
    deltas: tuple[float, ...]
    mean: tuple[float, ...]
    rms: tuple[float, ...]
    moment_q: tuple[float, ...]
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


@dataclass(frozen=True)
class ConvergenceReport:
    """Everything one experiment produced; rows carry the raw per-seed data."""

    experiment: str
    config: ExperimentConfig
    metrics: tuple[MetricSummary, ...]
    gates: tuple[GateResult, ...]
    rows: tuple[tuple[int, float, str, float], ...]
    n_blowups: int = 0
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    def to_json_dict(self, include_runtime: bool = True) -> dict:
        cfg = asdict(self.config)
        cfg.pop("threads")
        cfg.pop("out_dir")
        out = {
            "experiment": self.experiment,
            "config": cfg,
            "metrics": [asdict(m) for m in self.metrics],
            "gates": [asdict(g) for g in self.gates],
            "n_blowups": self.n_blowups,
            "passed": self.passed,
        }
        if include_runtime:
            out["runtime"] = {
                "seconds": self.runtime_seconds,
                "threads": self.config.threads,
            }
        return out


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


def _strict_decrease_fraction(per_seed: np.ndarray) -> tuple[float, bool]:
    """Fraction of rows strictly decreasing left to right; flags all-zero."""
    if np.all(per_seed == 0.0):
        return 1.0, True
    ok = np.all(np.diff(per_seed, axis=1) < 0.0, axis=1)
    return float(np.mean(ok)), False


def _non_increase_fraction(per_seed: np.ndarray) -> float:
    ok = np.all(np.diff(per_seed, axis=1) <= 0.0, axis=1)
    return float(np.mean(ok))


def _moments(values: np.ndarray, q: float) -> tuple[float, float, float]:
    finite = values[np.isfinite(values)]
    if len(finite) == 0:
        return math.nan, math.nan, math.nan
    mean = float(np.mean(finite))
    rms = float(np.sqrt(np.mean(finite**2)))
    lq = float(np.mean(np.abs(finite) ** q) ** (1.0 / q))
    return mean, rms, lq


def _run_parallel(n_seeds: int, threads: int, fn) -> list:
    if threads <= 1:
        return [fn(i) for i in range(n_seeds)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_seeds)))


def _summarize(
    cfg: ExperimentConfig,
    metric_names: list[str],
    per_seed: dict[str, np.ndarray],
    deltas: list[float],
    predicted: dict[str, float | None],
    notes: dict[str, str] | None = None,
) -> tuple[list[MetricSummary], list[tuple[int, float, str, float]]]:
    """Moments, slopes and CSV rows from the (seed, delta) value tables."""
    notes = notes or {}
    summaries = []
    rows: list[tuple[int, float, str, float]] = []
    short_ladder = len(deltas) < 2
    for name in metric_names:
        table = per_seed[name]
        means, rmss, lqs = [], [], []
        for col in range(table.shape[1]):
            mean, rms, lq = _moments(table[:, col], cfg.q_moment)
            means.append(mean)
            rmss.append(rms)
            lqs.append(lq)
        fit = None if short_ladder else fit_loglog_slope(deltas, rmss)
        note = notes.get(name, "")
        if short_ladder:
            note = (note + "; " if note else "") + "insufficient ladder: no rate fit"
        elif fit is None:
            note = (note + "; " if note else "") + "degenerate values: no rate fit"
        summaries.append(
            MetricSummary(
                metric=name,
                deltas=tuple(deltas),
                mean=tuple(means),
                rms=tuple(rmss),
                moment_q=tuple(lqs),
                slope=None if fit is None else fit[0],
                slope_se=None if fit is None else fit[1],
                predicted_exponent=predicted.get(name),
                note=note,
            )
        )
    for seed in range(cfg.n_seeds):
        for col, delta in enumerate(deltas):
            for name in metric_names:
                rows.append((seed, delta, name, float(per_seed[name][seed, col])))
    return summaries, rows


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _sampler_for(cfg: ExperimentConfig, d: int) -> tuple[FbmSampler, list[DeltaParam]]:
    grid = cfg.grid
    ext = grid.extended(cfg.delta_ladder[0])
    sampler = FbmSampler(ext, FbmParams(H=cfg.H, d=d, seed=cfg.master_seed))
    dps = [DeltaParam.for_grid(grid, k) for k in cfg.delta_ladder]
    return sampler, dps


def run_noise_convergence(cfg: ExperimentConfig) -> ConvergenceReport:
    """Distances between the smooth approximant and the canonical lift."""
    t0 = time.perf_counter()
    sampler, dps = _sampler_for(cfg, cfg.d)
    n = cfg.grid_n
    stride = cfg.stride
    n_delta = len(dps)

    def one_seed(idx: int) -> np.ndarray:
        path = sampler.sample(idx)
        true_lift = lift_left_riemann(path.restrict(0, n))
        coarse_true = true_lift.coarsen(stride)
        out = np.empty((3, n_delta))
        for col, dp in enumerate(dps):
            wz = ww_delta(path, dp)
            w_fixed = wz.level1(wz.grid.zero_index, wz.grid.index_of(cfg.fixed_time))
            out[0, col] = float(np.linalg.norm(path.value_at(cfg.fixed_time) - w_fixed))
            coarse_wz = wz.restrict(0, n).coarsen(stride)
            out[1, col] = rho_alpha_metric(coarse_wz, coarse_true, cfg.beta)
            out[2, col] = rho_pvar_metric(coarse_wz, coarse_true, cfg.p)
        return out

    stacked = np.stack(_run_parallel(cfg.n_seeds, cfg.threads, one_seed))
    names = ["level1_fixed_time", "rho_beta", "rho_pvar"]
    per_seed = {name: stacked[:, i, :] for i, name in enumerate(names)}
    deltas = [dp.delta for dp in dps]
    rate_gap = cfg.H - cfg.beta_prime
    predicted = {
        "level1_fixed_time": cfg.H,
        "rho_beta": rate_gap,
        "rho_pvar": rate_gap,
    }
    notes = {
        "rho_beta": "rate reported only; gated on strict per-seed decrease",
        "rho_pvar": "reported only, not gated",
    }
    summaries, rows = _summarize(cfg, names, per_seed, deltas, predicted, notes)

    gates: list[GateResult] = []
    lo, hi = 0.8 * cfg.H, 1.2 * cfg.H
    slope = summaries[0].slope
    gates.append(
        GateResult(
            name="level1_slope_band",
            passed=slope is not None and lo <= slope <= hi,
            value=math.nan if slope is None else slope,
            tolerance=f"fitted RMS slope in [{lo:.4g}, {hi:.4g}] (0.8H..1.2H)",
            sample_size=cfg.n_seeds,
        )
    )
    if len(deltas) >= 2:
        frac, _ = _strict_decrease_fraction(per_seed["rho_beta"])
        gates.append(
            GateResult(
                name="rho_beta_strict_decrease",
                passed=frac >= _DECREASE_FRACTION,
                value=frac,
                tolerance=f"fraction of seeds strictly decreasing >= {_DECREASE_FRACTION}",
                sample_size=cfg.n_seeds,
            )
        )
    return ConvergenceReport(
        experiment="noise",
        config=cfg,
        metrics=tuple(summaries),
        gates=tuple(gates),
        rows=tuple(rows),
        runtime_seconds=time.perf_counter() - t0,
    )


def run_solution_convergence(cfg: ExperimentConfig) -> ConvergenceReport:
    """Distances between solutions under the true and approximant drivers."""
    t0 = time.perf_counter()
    vf = builtin_vector_field(cfg.field_name, m=cfg.m, d=cfg.d)
    sampler, dps = _sampler_for(cfg, cfg.d)
    n = cfg.grid_n
    n_delta = len(dps)
    y0 = np.asarray(cfg.y0)

    def one_seed(idx: int) -> np.ndarray:
        path = sampler.sample(idx)
        true_lift = lift_left_riemann(path.restrict(0, n))
        sol_true = solve_rde(vf, true_lift, y0)
        out = np.full((3, n_delta), np.nan)
        for col, dp in enumerate(dps):
            wz_lift = ww_delta(path, dp).restrict(0, n)
            try:
                sol_wz = solve_rde(vf, wz_lift, y0)
            except SolverBlowUpError:
                continue
            dist = solution_distance(sol_wz, sol_true, cfg.p)
            out[:, col] = (dist.sup, dist.pvar, dist.remainder_qvar)
        return out

    stacked = np.stack(_run_parallel(cfg.n_seeds, cfg.threads, one_seed))
    names = ["sup", "pvar", "remainder_qvar"]
    per_seed = {name: stacked[:, i, :] for i, name in enumerate(names)}
    deltas = [dp.delta for dp in dps]
    n_blowups = int(np.sum(~np.isfinite(stacked[:, 0, :])))
    rate_gap = cfg.H - cfg.beta_prime
    predicted = {name: rate_gap for name in names}
    summaries, rows = _summarize(cfg, names, per_seed, deltas, predicted)

    gates: list[GateResult] = []
    for name in names:
        if len(deltas) < 2:
            continue
        frac, degenerate = _strict_decrease_fraction(per_seed[name])
        gates.append(
            GateResult(
                name=f"{name}_decrease",
                passed=frac >= _DECREASE_FRACTION,
                value=frac,
                tolerance=(
                    f"fraction of seeds strictly decreasing >= {_DECREASE_FRACTION}"
                    + ("; identically zero, passes as degenerate" if degenerate else "")
                ),
                sample_size=cfg.n_seeds,
            )
        )
    _, rms_small, _ = _moments(per_seed["sup"][:, -1], cfg.q_moment)
    gates.append(
        GateResult(
            name="smallest_delta_sup_ceiling",
            passed=bool(rms_small < cfg.sup_ceiling),
            value=rms_small,
            tolerance=f"RMS sup distance at smallest delta < {cfg.sup_ceiling}",
            sample_size=cfg.n_seeds,
        )
    )
    gates.append(
        GateResult(
            name="no_blowups",
            passed=n_blowups == 0,
            value=float(n_blowups),
            tolerance="solver blow-up count == 0",
            sample_size=cfg.n_seeds * n_delta,
        )
    )
    return ConvergenceReport(
        experiment="solution",
        config=cfg,
        metrics=tuple(summaries),
        gates=tuple(gates),
        rows=tuple(rows),
        n_blowups=n_blowups,
        runtime_seconds=time.perf_counter() - t0,
    )


def run_stopping_time_convergence(cfg: ExperimentConfig) -> ConvergenceReport:
    """Greedy stopping times of the approximant against the true lift's."""
    t0 = time.perf_counter()
    sampler, dps = _sampler_for(cfg, cfg.d)
    n = cfg.grid_n
    stride = cfg.stride
    n_delta = len(dps)
    p = cfg.p
    thresh = cfg.eta**p

    def one_seed(idx: int) -> np.ndarray:
        path = sampler.sample(idx)
        coarse_true = lift_left_riemann(path.restrict(0, n)).coarsen(stride)
        st_true = greedy_stopping_times(coarse_true, cfg.eta, p)
        out = np.empty((3, n_delta))
        for col, dp in enumerate(dps):
            coarse_wz = ww_delta(path, dp).restrict(0, n).coarsen(stride)
            st_wz = greedy_stopping_times(coarse_wz, cfg.eta, p)
            m_common = min(len(st_true.times), len(st_wz.times))
            out[0, col] = float(
                np.max(np.abs(st_true.times[:m_common] - st_wz.times[:m_common]))
            )
            total = homogeneous_pvar_norm(coarse_wz, p) ** p
            out[1, col] = 1.0 + total / thresh - st_wz.count
            out[2, col] = st_wz.count
        return out

    stacked = np.stack(_run_parallel(cfg.n_seeds, cfg.threads, one_seed))
    names = ["displacement", "count_bound_margin", "count"]
    per_seed = {name: stacked[:, i, :] for i, name in enumerate(names)}
    deltas = [dp.delta for dp in dps]
    predicted = {name: None for name in names}
    notes = {
        "displacement": "gated on per-seed non-increase along the ladder",
        "count_bound_margin": "1 + eta^-p |||X|||^p - N; must stay >= 0",
        "count": "interval count of the approximant's stopping times",
    }
    summaries, rows = _summarize(cfg, names, per_seed, deltas, predicted, notes)

    gates: list[GateResult] = []
    if len(deltas) >= 2:
        frac = _non_increase_fraction(per_seed["displacement"])
        gates.append(
            GateResult(
                name="displacement_non_increase",
                passed=frac >= _DECREASE_FRACTION,
                value=frac,
                tolerance=f"fraction of seeds non-increasing >= {_DECREASE_FRACTION}",
                sample_size=cfg.n_seeds,
            )
        )
    min_margin = float(np.min(per_seed["count_bound_margin"]))
    gates.append(
        GateResult(
            name="count_bound",
            passed=bool(min_margin >= 0.0),
            value=min_margin,
            tolerance="min over runs of 1 + eta^-p |||X|||^p - N >= 0",
            sample_size=cfg.n_seeds * n_delta,
        )
    )
    return ConvergenceReport(
        experiment="stopping",
        config=cfg,
        metrics=tuple(summaries),
        gates=tuple(gates),
        rows=tuple(rows),
        runtime_seconds=time.perf_counter() - t0,
    )


_RUNNERS = {
    "noise": run_noise_convergence,
    "solution": run_solution_convergence,
    "stopping": run_stopping_time_convergence,
}


# ---------------------------------------------------------------------------
# report emission and CLI
# ---------------------------------------------------------------------------


def _write_reports(report: ConvergenceReport, out_dir: str) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{report.experiment}.csv"
    json_path = out / f"{report.experiment}.json"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "delta", "metric", "value"])
        for seed, delta, metric, value in report.rows:
            writer.writerow([seed, repr(float(delta)), metric, repr(float(value))])
    with open(json_path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def run_suite(cfg: ExperimentConfig) -> ConvergenceReport:
    """Run the configured experiment and write reports when out_dir is set."""
    report = _RUNNERS[cfg.experiment](cfg)
    if cfg.out_dir is not None:
        _write_reports(report, cfg.out_dir)
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
    for key in ("delta_ladder", "y0"):
        if key in raw:
            raw[key] = tuple(raw[key])
    return raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser.add_argument("--threads", type=int, help="worker threads (results identical)")
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
        if args.threads is not None:
            fields["threads"] = args.threads
        cfg = ExperimentConfig(**fields)
        report = run_suite(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CovarianceFactorizationError, GridAlignmentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for gate in report.gates:
        status = "pass" if gate.passed else "FAIL"
        print(
            f"[{status}] {report.experiment}/{gate.name}: value={gate.value:.6g} "
            f"({gate.tolerance}; n={gate.sample_size})"
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
