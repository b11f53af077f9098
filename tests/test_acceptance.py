"""Acceptance gate: eleven checks with pinned tolerances and budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one summary line per
criterion.  Each check prints its line before asserting, so the verdicts are
visible even when something fails.
"""

import math
import time

import numpy as np

from roughwz.expcli import ExperimentConfig, run_noise_convergence, run_suite
from roughwz.fbm import FbmParams, FbmSampler, SamplePath, TimeGrid, fbm_covariance, wiener_shift
from roughwz.lift import geometricity_residual, lift_left_riemann, lift_smooth_quadrature
from roughwz.norms import greedy_stopping_times, homogeneous_pvar_norm, pvar_level2, pvar_seminorm
from roughwz.rde import builtin_vector_field, solve_rde
from roughwz.rds import cocycle_residual
from roughwz.wongzakai import w_delta, ww_delta

from oracles import fit_slope, table_pvar_brute


def _verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _smooth_path(rng, d, n=96):
    """Random trig or polynomial path with its exact derivative."""
    grid = TimeGrid(0.0, 1.0, n)
    t = grid.times
    vals = np.zeros((n + 1, d))
    deriv = np.zeros((n + 1, d))
    if rng.random() < 0.5:
        for c in range(d):
            for k in range(1, 5):
                a, b = rng.standard_normal(2)
                vals[:, c] += a * np.sin(k * np.pi * t) + b * (np.cos(k * np.pi * t) - 1.0)
                deriv[:, c] += k * np.pi * (a * np.cos(k * np.pi * t) - b * np.sin(k * np.pi * t))
    else:
        coef = rng.standard_normal((5, d))
        for k in range(1, 6):
            vals += coef[k - 1] * t[:, None] ** k
            deriv += coef[k - 1] * k * t[:, None] ** (k - 1)
    return SamplePath(grid, vals), deriv


def test_criterion_01_chen_geometry_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_chen, worst_geo, worst_anti = 0.0, 0.0, 0.0
    for case in range(100):
        d = 2 if case % 2 == 0 else 3
        path, deriv = _smooth_path(rng, d)
        rp = lift_smooth_quadrature(path, derivative=deriv)
        n = rp.n_steps
        for _ in range(5):
            i, u, j = sorted(rng.choice(n + 1, size=3, replace=False))
            direct = rp.level2(i, j)
            combined = rp.level2(i, u) + rp.level2(u, j) + np.outer(
                rp.level1(i, u), rp.level1(u, j)
            )
            scale = max(1.0, float(np.abs(direct).max()))
            worst_chen = max(worst_chen, float(np.abs(direct - combined).max()) / scale)
        worst_geo = max(worst_geo, geometricity_residual(rp))
        s = rp.level2(0, n)
        x = rp.level1(0, n)
        anti = np.abs(s + s.T - np.outer(x, x)).max() / max(1.0, float(np.abs(np.outer(x, x)).max()))
        worst_anti = max(worst_anti, float(anti))
    elapsed = time.perf_counter() - t0
    ok = worst_chen <= 1e-12 and worst_geo <= 1e-10 and worst_anti <= 1e-12 and elapsed < 10
    _verdict(
        1,
        ok,
        f"chen split-recombine {worst_chen:.2e} (<=1e-12), geometricity {worst_geo:.2e} "
        f"(<=1e-10), antisymmetry {worst_anti:.2e} (<=1e-12), {elapsed:.1f}s (<10s)",
    )


def test_criterion_02_levy_area_oracle():
    t0 = time.perf_counter()
    errs, hs = [], []
    for exp in range(5, 13):
        n = 2**exp
        grid = TimeGrid(0.0, 1.0, n)
        r = grid.times
        rp = lift_left_riemann(SamplePath(grid, np.column_stack([r, r**2])))
        errs.append(abs(rp.level2(0, n)[0, 1] - 2.0 / 3.0))
        hs.append(1.0 / n)
    order = fit_slope(hs, errs)
    elapsed = time.perf_counter() - t0
    ok = order >= 1.0 and errs[-1] <= 1e-3 and elapsed < 1
    _verdict(
        2,
        ok,
        f"area -> 2/3 order {order:.3f} (>=1), final err {errs[-1]:.2e} (<=1e-3), "
        f"{elapsed:.2f}s (<1s)",
    )


def test_criterion_03_dp_vs_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(500):
        steps = int(rng.integers(3, 12))  # at most 12 nodes
        vals = np.vstack([np.zeros(2), rng.standard_normal((steps, 2)).cumsum(axis=0)])
        grid = TimeGrid(0.0, 1.0, steps)
        rp = lift_left_riemann(SamplePath(grid, vals))
        m = steps + 1
        t1 = np.zeros((m, m))
        t2 = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                t1[i, j] = np.linalg.norm(vals[j] - vals[i])
                t2[i, j] = np.linalg.norm(rp.level2(i, j))
        for p in (1.0, 1.5, 2.0, 3.0):
            lvl1 = pvar_seminorm(vals, p)
            ref1 = table_pvar_brute(t1, p)
            lvl2 = pvar_level2(rp, p)
            ref2 = table_pvar_brute(t2, p)
            worst = max(
                worst,
                abs(lvl1 - ref1) / max(1.0, ref1),
                abs(lvl2 - ref2) / max(1.0, ref2),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30
    _verdict(
        3,
        ok,
        f"DP vs enumeration, 500 paths x p in {{1,1.5,2,3}} x 2 levels: worst "
        f"{worst:.2e} (<=1e-12), {elapsed:.1f}s (<30s)",
    )


def test_criterion_04_partition_sandwich_and_count_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    grid64 = TimeGrid(0.0, 1.0, 64)
    samplers = [
        FbmSampler(grid64, FbmParams(H=H, d=d, seed=104))
        for H, d in ((0.35, 1), (0.45, 2), (0.5, 2))
    ]
    violations = 0
    for case in range(1000):
        if case % 10 < 7:
            steps = int(rng.integers(8, 49))
            d = int(rng.integers(1, 4))
            vals = np.vstack([np.zeros(d), rng.standard_normal((steps, d)).cumsum(axis=0)])
            rp = lift_left_riemann(SamplePath(TimeGrid(0.0, 1.0, steps), vals))
        else:
            rp = lift_left_riemann(samplers[case % 3].sample(case))
        n = rp.n_steps
        i = int(rng.integers(0, n - 4))
        j = int(rng.integers(i + 4, n + 1))
        interior = [k for k in range(i + 1, j) if rng.random() < 0.3]
        cuts = [i, *interior, j]
        p = float(rng.uniform(1.05, 3.5))
        whole = pvar_seminorm(rp.values[i : j + 1], p) ** p
        parts = sum(
            pvar_seminorm(rp.values[a : b + 1], p) ** p for a, b in zip(cuts[:-1], cuts[1:])
        )
        blocks = len(cuts) - 1
        if parts > whole * (1 + 1e-9) or whole > blocks ** (p - 1) * parts * (1 + 1e-9):
            violations += 1
        p2 = float(rng.uniform(2.0, 3.5))
        sub = rp.restrict(i, j)
        whole_h = homogeneous_pvar_norm(sub, p2)
        if whole_h > 0:
            eta = float(rng.uniform(0.25, 1.0)) * whole_h
            count = greedy_stopping_times(sub, eta, p2).sum() - 1
            if count > 1 + eta ** (-p2) * whole_h**p2 + 1e-9:
                violations += 1
    lin = lift_left_riemann(
        SamplePath(TimeGrid(0.0, 1.0, 1000), TimeGrid(0.0, 1.0, 1000).times[:, None].copy())
    )
    stops = greedy_stopping_times(lin, 0.5, 2.0)
    spacing = 0.5 / math.sqrt(1.5)
    gaps = np.diff(lin.grid.times[stops])[:-1]  # terminal gap is the capped leftover
    spacing_ok = bool(np.all(np.abs(gaps - spacing) <= lin.grid.h))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and spacing_ok
    _verdict(
        4,
        ok,
        f"partition sandwich + count bound: {violations} violations in 1000 cases, "
        f"linear spacing within one cell of {spacing:.5f}: {spacing_ok}, {elapsed:.1f}s",
    )


def test_criterion_05_sampler_covariance():
    t0 = time.perf_counter()
    grid = TimeGrid(-1.0, 1.0, 32)
    pairs = [(-1.0, 0.5), (-0.5, -0.25), (0.25, 1.0), (0.5, 0.5), (-0.75, 0.75)]
    worst_z = 0.0
    for H in (0.35, 0.4, 0.45, 0.5):
        sampler = FbmSampler(grid, FbmParams(H=H, d=1, seed=20260814))
        vals = sampler.sample_values(10_000)[:, :, 0]
        for s, t in pairs:
            prod = vals[:, grid.index_of(s)] * vals[:, grid.index_of(t)]
            se = prod.std(ddof=1) / math.sqrt(len(prod))
            z = abs(prod.mean() - fbm_covariance(s, t, H)) / se
            worst_z = max(worst_z, float(z))
    elapsed = time.perf_counter() - t0
    ok = worst_z <= 4.0 and elapsed < 120
    _verdict(
        5,
        ok,
        f"10^4-path covariance at 5 pairs x 4 Hurst values: worst |z| {worst_z:.2f} "
        f"(<=4 SE), {elapsed:.1f}s (<2min)",
    )


def test_criterion_06_level1_noise_rate():
    t0 = time.perf_counter()
    details, ok = [], True
    for H in (0.4, 0.5):
        cfg = ExperimentConfig(experiment="noise", H=H, n_seeds=200)
        rep = run_noise_convergence(cfg)
        gates = {g.name: g for g in rep.gates}
        slope_gate = gates["level1_slope_band"]
        mono_gate = gates["rho_beta_strict_decrease"]
        ok = ok and slope_gate.passed and mono_gate.passed
        rho = next(m for m in rep.metrics if m.metric == "rho_beta")
        details.append(
            f"H={H}: slope {slope_gate.value:.3f} in [{0.8*H:.2f},{1.2*H:.2f}], "
            f"rho_beta decrease {mono_gate.value:.2f} (>=0.9), "
            f"rho_beta fit {rho.slope:.3f} vs H-beta' {rho.predicted_exponent:.3f}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600
    _verdict(6, ok, "; ".join(details) + f"; {elapsed:.0f}s (<10min)")


def test_criterion_07_solver_oracles():
    t0 = time.perf_counter()
    grid = TimeGrid(0.0, 1.0, 32)
    w = FbmSampler(grid, FbmParams(H=0.45, d=2, seed=107)).sample(0)
    rp = lift_left_riemann(w)
    vf_add = builtin_vector_field("additive", 2, 2)
    y0 = np.array([1.0, -2.0])
    cp = solve_rde(vf_add, rp, y0)
    additive_err = float(
        np.abs(cp.values - (y0[None, :] + w.values @ vf_add.g(np.zeros(2)).T)).max()
    )

    def lin_lift(n):
        g = TimeGrid(0.0, 1.0, n)
        return lift_left_riemann(SamplePath(g, g.times[:, None].copy()))

    vf_drift = builtin_vector_field("drift-only", 1, 1, rate=-1.0)
    drift_err = abs(solve_rde(vf_drift, lin_lift(1000), np.ones(1)).values[-1, 0] - math.e)
    vf_lin = builtin_vector_field("linear-g", 1, 1)
    ns = (250, 500, 1000)
    errs = [
        abs(solve_rde(vf_lin, lin_lift(n), np.ones(1)).values[-1, 0] - math.e) for n in ns
    ]
    order = fit_slope([1 / n for n in ns], errs)
    # The iterate has the closed form (1 + h + h^2/2)^n, whose error is
    # e*h^2/6*(1 + O(h)); a finite-mesh fit therefore reads 2 - Theta(h).
    # Matching the e/(6n^2) law per rung pins the exact order and constant.
    law_dev = max(abs(err * 6 * n**2 / math.e - 1.0) for n, err in zip(ns, errs))
    elapsed = time.perf_counter() - t0
    ok = (
        additive_err <= 1e-12
        and drift_err <= 2e-3
        and errs[-1] <= 1e-4
        and order >= 1.99
        and law_dev <= 0.02
    )
    _verdict(
        7,
        ok,
        f"additive {additive_err:.1e} (<=1e-12), drift e-err {drift_err:.2e} (<=2e-3), "
        f"driver e-err {errs[-1]:.2e} (<=1e-4), order {order:.4f} (>=2 within fit "
        f"tolerance 0.01, e/(6n^2) law dev {law_dev:.1e} <=0.02), {elapsed:.1f}s",
    )


def test_criterion_08_solution_convergence():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="solution", H=0.45, d=2, m=2, n_seeds=100)
    rep = run_suite(cfg)
    gates = {g.name: g for g in rep.gates}
    fr = [gates[k].value for k in ("sup_decrease", "pvar_decrease", "remainder_qvar_decrease")]
    ceiling = gates["smallest_delta_sup_ceiling"]
    elapsed = time.perf_counter() - t0
    ok = rep.passed
    _verdict(
        8,
        ok,
        f"paired decrease fractions sup/pvar/remainder {fr[0]:.2f}/{fr[1]:.2f}/{fr[2]:.2f} "
        f"(>=0.9), smallest-delta sup RMS {ceiling.value:.4f} (<{cfg.sup_ceiling}), "
        f"blowups {rep.n_blowups}, {elapsed:.0f}s",
    )


def test_criterion_09_cocycle_suite():
    t0 = time.perf_counter()
    vf = builtin_vector_field("sin-g", 2, 2)
    rng = np.random.default_rng(109)
    worst = 0.0
    hursts = (0.35, 0.4, 0.45, 0.5)
    for k in range(100):
        t1 = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        t2 = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
        y0 = rng.standard_normal(2) * 0.3
        width = None if k % 2 == 0 else int(rng.choice([2, 4, 8]))
        grid = TimeGrid(0.0, t1 + t2, round((t1 + t2) * 128))
        sampler = FbmSampler(grid.extended(width or 0), FbmParams(H=hursts[k % 4], d=2, seed=909))
        path = sampler.sample(k)
        driver = lift_left_riemann(path) if width is None else ww_delta(path, width)
        worst = max(worst, cocycle_residual(vf, driver, t1, y0))
    grid = TimeGrid(-0.5, 1.5, 128)
    path = FbmSampler(grid, FbmParams(H=0.45, d=2, seed=910)).sample(0)
    worst_shift = 0.0
    for tau in (0.25, 0.5):
        for mult in (2, 4):
            left = w_delta(wiener_shift(path, tau), mult)
            right = wiener_shift(w_delta(path, mult), tau)
            worst_shift = max(worst_shift, float(np.abs(left.values - right.values).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and worst_shift <= 1e-12
    _verdict(
        9,
        ok,
        f"100 restart probes worst residual {worst:.1e} (<=1e-10), smoothing shift "
        f"covariance {worst_shift:.1e} (<=1e-12), {elapsed:.0f}s",
    )


def test_criterion_10_stopping_time_convergence():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="stopping", H=0.45, n_seeds=100)
    rep = run_suite(cfg)
    gates = {g.name: g for g in rep.gates}
    mono = gates["displacement_non_increase"]
    elapsed = time.perf_counter() - t0
    ok = rep.passed
    _verdict(
        10,
        ok,
        f"displacement non-increase fraction {mono.value:.2f} (>=0.9), count-bound "
        f"margin min {gates['count_bound'].value:.2f} (>=0), {elapsed:.0f}s",
    )


def test_criterion_11_byte_identical_reruns(tmp_path):
    # Seeds are independent streams run in order, so a run with fewer seeds
    # (another execution layout of the same ensemble) must write a strict
    # byte prefix of the longer run's CSV.
    t0 = time.perf_counter()
    configs = [
        (dict(experiment="noise", H=0.45, n_seeds=40), 30),
        (dict(experiment="solution", H=0.45, n_seeds=15), 7),
        (dict(experiment="stopping", H=0.45, n_seeds=20), 10),
    ]
    identical = True
    for kw, short_seeds in configs:
        a_dir = tmp_path / f"{kw['experiment']}_full"
        b_dir = tmp_path / f"{kw['experiment']}_short"
        run_suite(ExperimentConfig(**kw, out_dir=str(a_dir)))
        run_suite(ExperimentConfig(**{**kw, "n_seeds": short_seeds}, out_dir=str(b_dir)))
        name = f"{kw['experiment']}.csv"
        full, short = (a_dir / name).read_bytes(), (b_dir / name).read_bytes()
        identical = identical and len(short) < len(full) and full.startswith(short)
    elapsed = time.perf_counter() - t0
    _verdict(
        11,
        identical,
        "noise/solution/stopping CSVs of 30/7/10 seeds are byte prefixes of the "
        f"40/15/20-seed runs, {elapsed:.0f}s",
    )
