"""The benchmark's workloads and the checks run on their outputs.

Each workload is one convergence experiment at a fixed size, driven through
the public API (`ExperimentConfig`, `run_suite`, `FbmSampler`).  Sizes are
written out here rather than left to the experiments' calibrated defaults,
so the workloads stay the same if those defaults move.

The checks test properties every correct run has, plus one independent
recomputation; none compares against a stored copy of earlier output.  An
operation is one (seed, delta) evaluation of an experiment; it fails when
one of its rows is non-finite (a solver blow-up gives NaN rows) or breaks a
property below.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from roughwz import ExperimentConfig, FbmParams, FbmSampler, builtin_vector_field

# Relative slack on inequalities whose two sides are computed along different
# routes from the same data (e.g. a p-variation rebuilt from cumulative sums
# against a plain increment), so they may differ by a few roundings.
_ROUNDING_SLACK = 1e-12

METRIC_NAMES = {
    "noise": ("level1_fixed_time", "rho_beta", "rho_pvar"),
    "solution": ("sup", "pvar", "remainder_qvar"),
    "stopping": ("displacement", "count_bound_margin", "count"),
}


@dataclass(frozen=True)
class Workload:
    """One experiment at one size; `config` holds ExperimentConfig fields."""

    name: str
    why: str
    config: dict

    def experiment_config(self, master_seed: int, out_dir: str, **sizes) -> ExperimentConfig:
        """Validated config; `sizes` override fields (the self-test shrinks runs)."""
        return ExperimentConfig(
            **{**self.config, **sizes}, master_seed=master_seed, out_dir=out_dir
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "noise_default",
            "noise experiment at its defaults; the only workload where the O(n^3) "
            "fbm set-up dominates, plus Hoelder sups and short variation DPs",
            dict(
                experiment="noise",
                H=0.45,
                d=1,
                grid_n=4096,
                delta_ladder=(64, 32, 16, 8, 4, 2),
                metric_stride=32,
                n_seeds=30,
            ),
        ),
        Workload(
            "solution_d2",
            "solution experiment, criterion-08 setting with d = m = 2; rde solver and "
            "full-grid remainder DPs over matrix blocks dominate",
            dict(
                experiment="solution",
                H=0.45,
                d=2,
                m=2,
                field_name="sin-g",
                y0=(0.0, 0.0),
                grid_n=1024,
                delta_ladder=(32, 16, 8, 4, 2),
                n_seeds=4,
            ),
        ),
        Workload(
            "stopping_d1",
            "stopping experiment at its defaults; greedy stopping DPs that restart and "
            "exit early, beside full homogeneous norms",
            dict(
                experiment="stopping",
                H=0.45,
                d=1,
                grid_n=1024,
                delta_ladder=(32, 16, 8, 4, 2),
                metric_stride=2,
                n_seeds=10,
            ),
        ),
    )
}


def build_setup(cfg: ExperimentConfig):
    """What every run builds before its first seed: the sampler on the grid
    extended by the widest delta, and the vector field where there is one."""
    grid = cfg.grid.extended(cfg.delta_ladder[0])
    sampler = FbmSampler(grid, FbmParams(H=cfg.H, d=cfg.d, seed=cfg.master_seed))
    field_ = None
    if cfg.experiment == "solution":
        field_ = builtin_vector_field(cfg.field_name, m=cfg.m, d=cfg.d)
    return sampler, field_


def _deltas(cfg: ExperimentConfig) -> list[float]:
    h = (cfg.t_max - cfg.t_min) / cfg.grid_n
    return [k * h for k in cfg.delta_ladder]


def operation_count(cfg: ExperimentConfig) -> int:
    return cfg.n_seeds * len(cfg.delta_ladder)


def layout_problems(csv_text: str, cfg: ExperimentConfig) -> list[str]:
    """The CSV must hold n_seeds x ladder x metrics rows, seed-major, ladder
    descending, metrics in the experiment's order."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != ["seed", "delta", "metric", "value"]:
        return [f"bad CSV header {rows[:1]}"]
    body = rows[1:]
    names = METRIC_NAMES[cfg.experiment]
    expected = [
        (seed, delta, name)
        for seed in range(cfg.n_seeds)
        for delta in _deltas(cfg)
        for name in names
    ]
    if len(body) != len(expected):
        return [f"CSV has {len(body)} rows, expected {len(expected)}"]
    for row, (seed, delta, name) in zip(body, expected):
        if (
            len(row) != 4
            or int(row[0]) != seed
            or not math.isclose(float(row[1]), delta, rel_tol=1e-12)
            or row[2] != name
        ):
            return [f"CSV row {row} out of order; expected seed {seed}, delta {delta}, {name}"]
    return []


def _by_operation(rows) -> dict[tuple[int, float], dict[str, float]]:
    ops: dict[tuple[int, float], dict[str, float]] = {}
    for seed, delta, metric, value in rows:
        ops.setdefault((seed, delta), {})[metric] = value
    return ops


def _at_least(big: float, small: float) -> bool:
    return big >= small * (1.0 - _ROUNDING_SLACK)


def _level1_recomputed(values: np.ndarray, cfg: ExperimentConfig) -> list[tuple[float, float]]:
    """|w(T) - W_delta(T)| per delta by separate trapezoid quadrature, with its tolerance.

    W_delta(T) = (int_T^{T+delta} w - int_0^delta w) / delta.  The program
    takes both windowed integrals as differences of one running trapezoid
    sum; here each is summed on its own.  Rounding in either route is at
    most (k + 2) unit roundoffs of the largest running integral per window,
    amplified by 1/delta; the tolerance is four times that bound plus the
    rounding of the final subtraction.
    """
    h = (cfg.t_max - cfg.t_min) / cfg.grid_n
    i0 = int(round(-cfg.t_min / h))
    it = int(round((cfg.fixed_time - cfg.t_min) / h))
    eps = np.finfo(float).eps
    scale = h * float(np.sum(np.abs(values)))  # bounds every running integral
    out = []
    for k, delta in zip(cfg.delta_ladder, _deltas(cfg)):
        late = np.trapezoid(values[it : it + k + 1], dx=h, axis=0)
        early = np.trapezoid(values[i0 : i0 + k + 1], dx=h, axis=0)
        level1 = float(np.linalg.norm(values[it] - (late - early) / delta))
        w_t = float(np.linalg.norm(values[it]))
        tol = 4.0 * eps * ((k + 2) * scale / delta + w_t + level1)
        out.append((level1, tol))
    return out


def failed_operations(rows, cfg: ExperimentConfig, sampler=None, recheck_seeds=()) -> set:
    """(seed, delta) operations whose rows are non-finite or break a property.

    noise      rho_beta >= level1_fixed_time and rho_pvar >= level1_fixed_time,
               since the [0, T] block is one term of both metrics; for
               `recheck_seeds`, level1_fixed_time agrees with an independent
               quadrature of the sampler's path.
    solution   pvar >= sup, since both solutions start at y0 and the
               partition {0, t, T} bounds the p-variation below by |diff_t|.
    stopping   count_bound_margin >= 0 (N <= 1 + eta^-p |||X|||^p), count a
               positive integer, 0 <= displacement <= 1.
    """
    ops = _by_operation(rows)
    failed = set()
    for (seed, delta), m in ops.items():
        if not all(math.isfinite(v) for v in m.values()):
            failed.add((seed, delta))
            continue
        if cfg.experiment == "noise":
            ok = _at_least(m["rho_beta"], m["level1_fixed_time"]) and _at_least(
                m["rho_pvar"], m["level1_fixed_time"]
            )
        elif cfg.experiment == "solution":
            ok = _at_least(m["pvar"], m["sup"])
        else:
            count = m["count"]
            ok = (
                m["count_bound_margin"] >= 0.0
                and count >= 1.0
                and count == int(count)
                and 0.0 <= m["displacement"] <= 1.0
            )
        if not ok:
            failed.add((seed, delta))
    if cfg.experiment == "noise" and sampler is not None:
        for seed in recheck_seeds:
            expected = _level1_recomputed(sampler.sample(seed).values, cfg)
            reported = [(op, m) for op, m in ops.items() if op[0] == seed]
            for (op, m), (level1, tol) in zip(reported, expected):
                if not abs(m["level1_fixed_time"] - level1) <= tol:
                    failed.add(op)
    return failed
