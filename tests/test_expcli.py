"""Config validation, report structure, reproducibility and the CLI shell."""

import csv
import importlib.util
import json
import math
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from roughwz.expcli import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    fit_loglog_slope,
    main,
    run_noise_convergence,
    run_solution_convergence,
    run_stopping_time_convergence,
    run_suite,
)
from roughwz.fbm import CovarianceFactorizationError, FbmParams, FbmSampler, TimeGrid
from roughwz.lift import GridRoughPath
from roughwz.norms import greedy_stopping_times, homogeneous_pvar_norm
from roughwz.rde import ControlledPath, builtin_vector_field, solution_distance, solve_rde
from roughwz.wongzakai import ww_delta

import oracles

BLOW_UP_CONFIG = {
    "experiment": "solution",
    "field_name": "linear-g",
    "d": 2,
    "m": 2,
    "y0": [1e308, 1e308],
    "n_seeds": 2,
    "grid_n": 64,
    "delta_ladder": [4, 2],
}

TINY_STOPPING = dict(experiment="stopping", n_seeds=6, grid_n=256, delta_ladder=(8, 4, 2))

# Layer spans of perfbench/spans.py that each experiment must reach, on a
# 32-step grid.
TRACED = {
    "noise": (
        dict(n_seeds=30),
        ("lift.s", "wongzakai.s", "norms.holder_s", "norms.pvar_s", "norms.level2_s"),
    ),
    "solution": (dict(n_seeds=1), ("rde.solve_s", "rde.distance_s", "norms.pvar_s")),
    "stopping": (dict(n_seeds=2), ("norms.stopping_s", "norms.homogeneous_s")),
}


class TestConfigValidation:
    def test_experiment_names(self):
        assert EXPERIMENTS == ("noise", "solution", "stopping")
        with pytest.raises(ConfigError, match="experiment"):
            ExperimentConfig(experiment="nope")

    def test_defaults_resolve_per_experiment(self):
        noise = ExperimentConfig(experiment="noise")
        assert noise.grid_n == 4096
        assert noise.delta_ladder == (64, 32, 16, 8, 4, 2)
        assert noise.stride == 32
        sol = ExperimentConfig(experiment="solution")
        assert sol.grid_n == 1024
        assert sol.delta_ladder == (32, 16, 8, 4, 2)
        assert sol.stride == 8
        stop = ExperimentConfig(experiment="stopping")
        assert stop.grid_n == 1024
        assert stop.stride == 2

    def test_exponent_chain_defaults(self):
        cfg = ExperimentConfig(experiment="solution", H=0.45)
        assert 1.0 / 3.0 < cfg.beta < cfg.beta_prime < cfg.H
        assert cfg.p == pytest.approx(1.0 / cfg.beta)

    # Row ids are fixed, so a row keeps its id when rows are added or removed.
    @pytest.mark.parametrize(
        "field,kwargs",
        [
            pytest.param("H", {"H": 0.6}, id="H-kwargs0"),
            pytest.param("H", {"H": 1.0 / 3.0}, id="H-kwargs1"),
            pytest.param("d", {"d": 0}, id="d-kwargs5"),
            pytest.param("grid_n", {"grid_n": 1}, id="grid_n-kwargs7"),
            pytest.param("delta_ladder", {"delta_ladder": (4, 8)}, id="delta_ladder-kwargs8"),
            pytest.param("delta_ladder", {"delta_ladder": (4, 4, 2)}, id="delta_ladder-kwargs9"),
            pytest.param("delta_ladder", {"delta_ladder": (2048,)}, id="delta_ladder-kwargs10"),
            pytest.param("n_seeds", {"n_seeds": 0}, id="n_seeds-kwargs11"),
            pytest.param("field_name", {"field_name": "nope"}, id="field_name-kwargs12"),
            pytest.param("y0", {"y0": (1.0, 2.0, 3.0)}, id="y0-kwargs13"),
            pytest.param(
                "metric_stride",
                {"experiment": "stopping", "metric_stride": 7},
                id="metric_stride-kwargs15",
            ),
            pytest.param("n_seeds", {"n_seeds": 2.5}, id="n_seeds-kwargs17"),
            pytest.param(
                "field_name",
                {"field_name": "linear-g", "d": 1, "m": 2},
                id="field_name-kwargs18",
            ),
            pytest.param("H", {"experiment": "stopping", "H": "0.4"}, id="H-kwargs19"),
            pytest.param("n_seeds", {"n_seeds": True}, id="n_seeds-kwargs20"),
            pytest.param("y0", {"y0": (math.nan, 0.0)}, id="y0-kwargs22"),
            # Sizes no run could allocate, refused before any array is built.
            pytest.param("grid_n", {"grid_n": 10**21}, id="grid_n-kwargs35"),
            pytest.param(
                "grid_n", {"experiment": "noise", "grid_n": 10**30}, id="grid_n-kwargs36"
            ),
            # beta rounds to 1/3, so the exponent chain fails in floating point.
            pytest.param("H", {"H": float(np.nextafter(1.0 / 3.0, 1.0))}, id="H-kwargs37"),
            # An int too large for a float.
            pytest.param("H", {"H": 10**400}, id="H-kwargs38"),
            # The calibrated stride (1000 // 128 = 7, 2000 // 512 = 3) does not
            # divide grid_n: the field the user set is to blame.
            pytest.param("grid_n", {"experiment": "noise", "grid_n": 1000}, id="grid_n-kwargs39"),
            pytest.param(
                "grid_n", {"experiment": "stopping", "grid_n": 2000}, id="grid_n-kwargs40"
            ),
            # A negative stride is refused by every experiment, solution too.
            pytest.param("metric_stride", {"metric_stride": -2}, id="metric_stride-kwargs41"),
            # Dimensions past the bound, refused before the field is built.
            pytest.param("d", {"d": 2**10 + 1}, id="d-kwargs42"),
            pytest.param("m", {"m": 2**10 + 1}, id="m-kwargs43"),
            pytest.param("m", {"m": 0}, id="m-kwargs44"),
            # More seeds than a run could finish, refused before the first seed.
            pytest.param("n_seeds", {"n_seeds": 2**20 + 1}, id="n_seeds-kwargs45"),
            pytest.param(
                "n_seeds", {"experiment": "stopping", "n_seeds": 10**9}, id="n_seeds-kwargs46"
            ),
        ],
    )
    def test_each_field_is_guarded(self, field, kwargs):
        base = dict(experiment="solution", H=0.45)
        base.update(kwargs)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**base)
        assert exc.value.field == field

    def test_field_values_are_stored_as_field_types(self):
        cfg = ExperimentConfig(
            experiment="stopping",
            H=np.float64(0.45),
            n_seeds=np.int64(6),
            delta_ladder=[8, 4, 2],
            y0=np.array([0, 1]),
        )
        assert type(cfg.n_seeds) is int and type(cfg.H) is float
        assert cfg.delta_ladder == (8, 4, 2) and cfg.y0 == (0.0, 1.0)
        json.dumps(asdict(cfg))

    def test_solution_ignores_metric_stride(self):
        ExperimentConfig(experiment="solution", grid_n=1024, metric_stride=3)

    def test_seed_count_is_bounded(self, capsys, tmp_path):
        assert ExperimentConfig(experiment="stopping", n_seeds=2**20).n_seeds == 2**20
        assert main(["--experiment", "stopping", "--seeds", str(10**400),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "n_seeds" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_noise_needs_thirty_seeds(self):
        with pytest.raises(ConfigError, match="n_seeds"):
            ExperimentConfig(experiment="noise", n_seeds=10)
        ExperimentConfig(experiment="solution", n_seeds=10)

    def test_noise_needs_two_rungs(self, capsys, tmp_path):
        # One rung fits no slope, so the rate gates could only fail.
        argv = ["--experiment", "noise", "--grid-n", "16", "--seeds", "30", "--out", str(tmp_path)]
        assert main([*argv, "--delta-ladder", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: config field 'delta_ladder': rate fits need at least 2 multiples, "
                       "got (1,)"]
        assert list(tmp_path.iterdir()) == []
        ExperimentConfig(experiment="noise", grid_n=16, n_seeds=30, delta_ladder=(2, 1))

    def test_fixed_settings_are_constants_not_fields(self):
        cfg = ExperimentConfig(experiment="noise", H=0.4)
        assert list(asdict(cfg)) == [
            "experiment", "H", "d", "m", "grid_n", "delta_ladder", "n_seeds",
            "field_name", "y0", "metric_stride", "master_seed", "out_dir",
        ]
        assert (cfg.t_min, cfg.t_max, cfg.fixed_time) == (0.0, 1.0, 1.0)
        assert (cfg.eta, cfg.sup_ceiling) == (0.5, 0.05)
        assert cfg.beta == 1.0 / 3.0 + (0.4 - 1.0 / 3.0) / 6.0
        assert cfg.beta_prime == 1.0 / 3.0 + (0.4 - 1.0 / 3.0) / 2.0
        constants = ("t_min", "t_max", "fixed_time", "eta", "sup_ceiling", "beta", "beta_prime")
        for name in constants + ("q_moment",):
            with pytest.raises(TypeError, match=name):
                ExperimentConfig(experiment="noise", **{name: 0.4})


class TestSlopeFit:
    def test_recovers_exact_power(self):
        x = np.array([0.5, 0.25, 0.125, 0.0625])
        fit = fit_loglog_slope(x, x**1.5)
        assert fit is not None
        slope, se = fit
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-10)

    def test_single_point_gives_none(self):
        assert fit_loglog_slope(np.array([0.5]), np.array([1.0])) is None
        assert fit_loglog_slope(np.array([0.5, 0.25]), np.array([0.0, 0.0])) is None

    def test_two_points_have_no_standard_error(self):
        fit = fit_loglog_slope(np.array([0.5, 0.25]), np.array([1.0, 0.5]))
        slope, se = fit
        assert slope == pytest.approx(1.0)
        assert math.isnan(se)


class TestReports:
    def test_stopping_report_structure(self):
        cfg = ExperimentConfig(**TINY_STOPPING)
        rep = run_stopping_time_convergence(cfg)
        assert rep.experiment == "stopping"
        assert [m.metric for m in rep.metrics] == ["displacement", "count_bound_margin", "count"]
        assert {g.name for g in rep.gates} == {"displacement_non_increase", "count_bound"}
        assert len(rep.rows) == 6 * 3 * 3
        assert rep.passed

    def test_rows_are_seed_major_and_ladder_ordered(self):
        cfg = ExperimentConfig(**TINY_STOPPING)
        rep = run_stopping_time_convergence(cfg)
        seeds = [r[0] for r in rep.rows]
        assert seeds == sorted(seeds)
        first_seed = [r for r in rep.rows if r[0] == 0]
        deltas = [r[1] for r in first_seed]
        assert deltas == sorted(deltas, reverse=True)

    def test_solution_report_counts_blowups(self):
        cfg = ExperimentConfig(
            experiment="solution", n_seeds=4, grid_n=128, delta_ladder=(8, 4, 2)
        )
        rep = run_solution_convergence(cfg)
        assert rep.n_blowups == 0
        names = {g.name for g in rep.gates}
        assert "no_blowups" in names and "smallest_delta_sup_ceiling" in names
        assert [m.metric for m in rep.metrics] == ["sup", "pvar", "remainder_qvar"]

    def test_solution_report_records_blowups(self, monkeypatch, tmp_path):
        # Per seed the runner solves one stack: the true lift, then one driver
        # per delta.  Seed 1's first-delta member (member 1) is made NaN from
        # node 7 on, as the solver leaves a member that blows up there.
        calls = []

        def solve_and_blow_up(vf, drivers, y0):
            calls.append(drivers)
            solved = solve_rde(vf, drivers, y0)
            if len(calls) != 2:
                return solved
            values, gub = solved.values.copy(), solved.gubinelli.copy()
            values[7:, 1] = gub[7:, 1] = np.nan
            return ControlledPath(values, gub, driver=drivers)

        monkeypatch.setattr("roughwz.expcli.solve_rde", solve_and_blow_up)
        cfg = ExperimentConfig(
            experiment="solution", n_seeds=2, grid_n=64, delta_ladder=(4, 2), out_dir=str(tmp_path)
        )
        rep = run_suite(cfg)
        delta = 4 * cfg.grid.h
        assert [drivers.inc1.shape[1] for drivers in calls] == [3, 3]
        assert rep.blowups == ((1, delta, 7, cfg.grid.times[7]),)
        assert rep.n_blowups == 1
        gate = next(g for g in rep.gates if g.name == "no_blowups")
        assert not gate.passed and gate.value == 1.0
        doc = json.loads((tmp_path / "solution.json").read_text())
        record = {"seed": 1, "delta": delta, "node": 7, "time": cfg.grid.times[7]}
        assert doc["blowups"] == [record]
        assert doc["n_blowups"] == 1
        lines = (tmp_path / "solution.csv").read_text().splitlines()[1:]
        blown = [ln for ln in lines if ln.startswith(f"1,{delta!r},")]
        assert [ln.rsplit(",", 1)[1] for ln in blown] == ["nan", "nan", "nan"]
        assert sum(ln.endswith(",nan") for ln in lines) == 3

    def test_true_driver_blow_up_fails_the_gate_without_traceback(self, capsys, tmp_path):
        # y0 near the float limit makes the linear field overflow under the
        # true lift of seed 1 and under both of its approximants.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BLOW_UP_CONFIG, "out_dir": str(tmp_path / "out")}))
        assert main(["--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "[FAIL] solution/no_blowups" in captured.out
        doc = json.loads((tmp_path / "out" / "solution.json").read_text())
        # (seed, delta, node) in run order: by node, then member.
        h = 1.0 / 64
        assert [(b["seed"], b["delta"], b["node"], b["time"]) for b in doc["blowups"]] == [
            (1, 2 * h, 7, 7 * h),
            (1, 0.0, 9, 9 * h),
            (1, 4 * h, 12, 12 * h),
        ]
        assert doc["n_blowups"] == 3
        gate = next(g for g in doc["gates"] if g["name"] == "no_blowups")
        assert not gate["passed"] and gate["sample_size"] == 2 * 3
        lines = (tmp_path / "out" / "solution.csv").read_text().splitlines()[1:]
        seed1 = [ln for ln in lines if ln.startswith("1,")]
        assert len(seed1) == 6 and all(ln.endswith(",nan") for ln in seed1)

    def test_nonfinite_values_are_counted(self):
        # In the near-overflow run seed 0 solves without a blow-up, but its
        # distances overflow to inf; seed 1's rows are NaN.  The moments
        # leave both out and n_nonfinite counts them per delta.
        rep = run_solution_convergence(ExperimentConfig(**BLOW_UP_CONFIG))
        rows = {(seed, delta, name): value for seed, delta, name, value in rep.rows}
        for m in rep.metrics:
            assert all(math.isinf(rows[0, delta, m.metric]) for delta in m.deltas)
            assert all(math.isnan(rows[1, delta, m.metric]) for delta in m.deltas)
            assert m.n_nonfinite == (2, 2)
            assert all(math.isnan(v) for v in m.mean + m.rms)
        doc = rep.to_json_dict()
        assert [m["n_nonfinite"] for m in doc["metrics"]] == [(2, 2)] * 3
        finite = run_solution_convergence(
            ExperimentConfig(experiment="solution", n_seeds=2, grid_n=32, delta_ladder=(4, 2))
        )
        assert all(m.n_nonfinite == (0, 0) for m in finite.metrics)

    def test_blowup_records_follow_node_then_member_order(self, monkeypatch):
        # In every seed the third delta's driver overflows at node 5 and the
        # second delta's at node 9: records come by seed, then node, not in
        # member order, and only the blown-up rows are NaN.
        cfg = ExperimentConfig(
            experiment="solution",
            field_name="linear-g",
            d=2,
            m=2,
            y0=(0.1, 0.1),
            n_seeds=2,
            grid_n=32,
            delta_ladder=(8, 4, 2),
        )
        h = cfg.grid.h
        overflow_node = {4: 9, 2: 5}

        def overflowing_ww_delta(path, k):
            rp = ww_delta(path, k)
            if k not in overflow_node:
                return rp
            inc2 = rp.inc2.copy()
            inc2[overflow_node[k] - 1] = np.inf
            return GridRoughPath(rp.grid, rp.inc1, inc2)

        monkeypatch.setattr("roughwz.expcli.ww_delta", overflowing_ww_delta)
        rep = run_solution_convergence(cfg)
        assert rep.blowups == tuple(
            (seed, k * h, node, node * h) for seed in (0, 1) for k, node in ((2, 5), (4, 9))
        )
        nan_rows = {(seed, delta) for seed, delta, _, value in rep.rows if math.isnan(value)}
        assert nan_rows == {(seed, k * h) for seed in (0, 1) for k in (4, 2)}
        assert all(math.isfinite(value) for _, delta, _, value in rep.rows if delta == 8 * h)

    def test_layer_calls_that_the_benchmark_traces_are_reached(self, monkeypatch):
        # The benchmark's tracer wraps expcli.solve_rde and
        # expcli.solution_distance by name and counts solver steps from the
        # n_steps of solve_rde's second argument.
        seen = {"solve": [], "distance": 0}

        def counting_solve(vf, drivers, y0):
            seen["solve"].append(drivers.n_steps)
            return solve_rde(vf, drivers, y0)

        def counting_distance(*args, **kwargs):
            seen["distance"] += 1
            return solution_distance(*args, **kwargs)

        monkeypatch.setattr("roughwz.expcli.solve_rde", counting_solve)
        monkeypatch.setattr("roughwz.expcli.solution_distance", counting_distance)
        cfg = ExperimentConfig(experiment="solution", n_seeds=2, grid_n=32, delta_ladder=(4, 2))
        rep = run_suite(cfg)
        assert seen == {"solve": [32, 32], "distance": 2}
        assert all(np.isfinite(value) for *_, value in rep.rows)

    def test_stopping_makes_one_greedy_and_one_homogeneous_call_per_seed(self, monkeypatch):
        # The benchmark's tracer also wraps expcli.greedy_stopping_times and
        # expcli.homogeneous_pvar_norm by name.  Greedy stopping takes each
        # seed's whole coarse stack at once, the homogeneous norm the stack
        # of its approximants.
        seen = {"greedy": [], "homogeneous": []}

        def counting_greedy(rp, eta, p):
            seen["greedy"].append(rp.inc1.shape[1:-1])
            return greedy_stopping_times(rp, eta, p)

        def counting_homogeneous(rp, p):
            seen["homogeneous"].append(rp.inc1.shape[1:-1])
            return homogeneous_pvar_norm(rp, p)

        monkeypatch.setattr("roughwz.expcli.greedy_stopping_times", counting_greedy)
        monkeypatch.setattr("roughwz.expcli.homogeneous_pvar_norm", counting_homogeneous)
        ladder = (8, 4, 2)
        cfg = ExperimentConfig(experiment="stopping", n_seeds=3, grid_n=64, delta_ladder=ladder)
        rep = run_suite(cfg)
        assert seen == {"greedy": [(1 + len(ladder),)] * 3, "homogeneous": [(len(ladder),)] * 3}
        assert all(np.isfinite(value) for *_, value in rep.rows)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_benchmark_span_targets_resolve(self, experiment):
        # perfbench/spans.py wraps program attributes by name and reads the
        # solver's step count from solve_rde's second argument; a renamed or
        # deleted target, or a layer call that no longer goes through it,
        # breaks the traced benchmark runs.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for owner, attr, _, _ in spans._layer_calls():
            assert callable(getattr(owner, attr)), f"{owner}.{attr}"
        vf = builtin_vector_field("sin-g", 2, 2)
        rp = GridRoughPath(TimeGrid(0.0, 1.0, 16), np.zeros((16, 3, 2)), np.zeros((16, 3, 2, 2)))
        assert spans._solver_steps(vf, rp, np.zeros(2)) == 16
        tracer = spans.Tracer()
        sizes, reached = TRACED[experiment]
        cfg = ExperimentConfig(experiment=experiment, grid_n=32, delta_ladder=(4, 2), **sizes)
        with spans.instrument(tracer):
            run_suite(cfg)
        metrics = tracer.layer_metrics()
        assert [name for name in reached if not metrics[name] > 0.0] == []
        assert metrics["rde.steps"] == (32 if experiment == "solution" else 0)

    @pytest.mark.parametrize("experiment", ["noise", "stopping"])
    @pytest.mark.parametrize(
        "d, stride, ladder", [(1, 1, (4,)), (1, 4, (8, 4, 2)), (2, 1, (8, 4, 2)), (2, 4, (4,))]
    )
    def test_ladder_tables_equal_the_per_rung_loops(self, experiment, d, stride, ladder):
        # The stacked ladder must give every (seed, delta) value bit for bit
        # as the per-rung loops that measured one approximant at a time.
        if experiment == "noise" and len(ladder) == 1:
            ladder = (ladder[0], ladder[0] // 2)  # noise's rate fits need two rungs
        cfg = ExperimentConfig(
            experiment=experiment,
            d=d,
            grid_n=64,
            delta_ladder=ladder,
            metric_stride=stride,
            n_seeds=30 if experiment == "noise" else 3,
        )
        loop = oracles.noise_ladder_loop if experiment == "noise" else oracles.stopping_ladder_loop
        sampler = FbmSampler(
            cfg.grid.extended(ladder[0]), FbmParams(H=cfg.H, d=d, seed=cfg.master_seed)
        )
        expected = [
            float(value)
            for idx in range(cfg.n_seeds)
            for value in loop(cfg, sampler.sample(idx)).T.ravel()
        ]
        assert [value for *_, value in run_suite(cfg).rows] == expected

    def test_calibrated_stopping_rows_equal_the_per_rung_loop(self):
        # At the calibrated grid (1024 steps, stride 2, ladder 32..2) the
        # norms run far enough for a power that rounds an ulp off to show in
        # the rows; the 64-step ladder tables above miss such a change.  The
        # loop's stopping nodes come from oracles.greedy_stops_restarting.
        cfg = ExperimentConfig(experiment="stopping", n_seeds=2)
        sampler = FbmSampler(
            cfg.grid.extended(cfg.delta_ladder[0]),
            FbmParams(H=cfg.H, d=cfg.d, seed=cfg.master_seed),
        )
        expected = [
            float(value)
            for idx in range(cfg.n_seeds)
            for value in oracles.stopping_ladder_loop(cfg, sampler.sample(idx)).T.ravel()
        ]
        assert [value for *_, value in run_suite(cfg).rows] == expected

    def test_noise_table_equals_the_per_member_loop(self):
        # One metric call per seed on the coarsened stack must give the
        # table of one call per member, bit for bit.
        rng = np.random.default_rng(97)
        for _ in range(4):
            grid_n = int(rng.choice([32, 64, 128]))
            rungs = rng.choice([16, 8, 4, 2], size=int(rng.integers(2, 4)), replace=False)
            cfg = ExperimentConfig(
                experiment="noise",
                H=float(rng.uniform(0.36, 0.5)),
                d=int(rng.integers(1, 3)),
                grid_n=grid_n,
                delta_ladder=tuple(sorted(int(k) for k in rungs)[::-1]),
                metric_stride=int(rng.choice([2, 4])),
                n_seeds=30,
                master_seed=int(rng.integers(2**31)),
            )
            sampler = FbmSampler(
                cfg.grid.extended(cfg.delta_ladder[0]),
                FbmParams(H=cfg.H, d=cfg.d, seed=cfg.master_seed),
            )
            want = [oracles.noise_member_loop(cfg, sampler.sample(idx)) for idx in range(30)]
            got = run_noise_convergence(cfg).table
            assert np.array_equal(got, np.stack(want).transpose(0, 2, 1)), cfg

    def test_noise_report_predictions(self):
        cfg = ExperimentConfig(experiment="noise", n_seeds=30, grid_n=256, delta_ladder=(8, 4, 2))
        rep = run_noise_convergence(cfg)
        by_name = {m.metric: m for m in rep.metrics}
        assert by_name["level1_fixed_time"].predicted_exponent == pytest.approx(cfg.H)
        assert by_name["rho_beta"].predicted_exponent == pytest.approx(cfg.H - cfg.beta_prime)
        assert by_name["rho_pvar"].predicted_exponent == pytest.approx(cfg.H - cfg.beta_prime)
        for m in rep.metrics:
            assert m.slope is not None
            assert len(m.rms) == 3

    @pytest.mark.parametrize(
        "kw, metric, gate",
        [
            (dict(experiment="noise", n_seeds=30), "rho_beta", "rho_beta_strict_decrease"),
            (dict(experiment="stopping", n_seeds=2), "displacement", "displacement_non_increase"),
        ],
        ids=["noise", "stopping"],
    )
    @pytest.mark.parametrize("ladder", [(1,), (4, 2, 1)], ids=["one_rung", "three_rungs"])
    def test_a_note_names_a_gate_only_when_the_run_makes_it(self, kw, metric, gate, ladder):
        # A one-rung ladder skips the monotone gates, so no note may claim one.
        # noise refuses one rung, so its one-rung case runs two, the fewest it takes.
        if kw["experiment"] == "noise" and len(ladder) == 1:
            ladder = (2, 1)
        rep = run_suite(ExperimentConfig(**kw, grid_n=32, delta_ladder=ladder))
        note = next(m.note for m in rep.metrics if m.metric == metric)
        made = gate in {g.name for g in rep.gates}
        assert made == (len(ladder) >= 2)
        assert ("gated on" in note) == made, note

    def test_json_dict_shape(self):
        cfg = ExperimentConfig(**TINY_STOPPING)
        rep = run_stopping_time_convergence(cfg)
        doc = rep.to_json_dict()
        assert doc["experiment"] == "stopping"
        assert "threads" not in doc["config"]
        assert "out_dir" not in doc["config"]
        assert doc["runtime"] == {"seconds": rep.runtime_seconds}
        assert all(g["failing_seeds"] == () for g in doc["gates"])
        assert doc["blowups"] == [] and doc["n_blowups"] == 0
        del doc["runtime"]
        json.dumps(doc)  # the deterministic body must be serializable as-is


class TestReportTable:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(experiment="noise", n_seeds=30, grid_n=32, delta_ladder=(4, 2)),
            dict(experiment="solution", n_seeds=2, grid_n=32, delta_ladder=(4, 2)),
            TINY_STOPPING,
        ],
        ids=EXPERIMENTS,
    )
    def test_rows_expand_the_table_and_match_the_csv(self, tmp_path, fields):
        rep = run_suite(ExperimentConfig(**fields, out_dir=str(tmp_path)))
        names = [m.metric for m in rep.metrics]
        deltas = rep.metrics[0].deltas
        assert rep.table.shape == (rep.config.n_seeds, len(deltas), len(names))
        assert not rep.table.flags.writeable
        assert rep.rows == tuple(
            (seed, delta, name, float(rep.table[seed, col, k]))
            for seed in range(rep.config.n_seeds)
            for col, delta in enumerate(deltas)
            for k, name in enumerate(names)
        )
        with open(tmp_path / f"{rep.experiment}.csv", newline="") as fh:
            body = list(csv.reader(fh))[1:]
        assert body == [[str(s), repr(delta), name, repr(v)] for s, delta, name, v in rep.rows]

    def test_reports_compare_without_their_tables(self):
        rep = run_stopping_time_convergence(ExperimentConfig(**TINY_STOPPING))
        assert rep == rep
        assert rep == replace(rep, table=rep.table.copy())
        assert rep != replace(rep, runtime_seconds=rep.runtime_seconds + 1.0)


class TestSuiteOutputs:
    def test_written_files_and_format(self, tmp_path):
        cfg = ExperimentConfig(**TINY_STOPPING, out_dir=str(tmp_path))
        run_suite(cfg)
        csv_text = (tmp_path / "stopping.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "seed,delta,metric,value"
        assert len(lines) == 1 + 6 * 3 * 3
        seed, delta, metric, value = lines[1].split(",")
        assert seed == "0"
        # repr round-trip keeps the float bit pattern.
        assert float(value) == float(repr(float(value)))
        doc = json.loads((tmp_path / "stopping.json").read_text())
        assert doc["experiment"] == "stopping"

    def test_rerun_gives_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_suite(ExperimentConfig(**TINY_STOPPING, out_dir=str(out1)))
        run_suite(ExperimentConfig(**TINY_STOPPING, out_dir=str(out2)))
        assert (out1 / "stopping.csv").read_bytes() == (out2 / "stopping.csv").read_bytes()
        doc1 = json.loads((out1 / "stopping.json").read_text())
        doc2 = json.loads((out2 / "stopping.json").read_text())
        doc1.pop("runtime"), doc2.pop("runtime")
        assert doc1 == doc2

    @pytest.mark.parametrize(
        "fields",
        [{**TINY_STOPPING, "delta_ladder": (4, 2)}, BLOW_UP_CONFIG],
        ids=["two_point_fit", "blowups"],
    )
    def test_json_report_is_strict(self, tmp_path, fields):
        # A two-point fit has a NaN slope SE, and the blow-up run NaN moments:
        # each is written as null, so a strict parser reads the report.
        def no_constants(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        rep = run_suite(ExperimentConfig(**fields, out_dir=str(tmp_path)))
        text = (tmp_path / f"{rep.experiment}.json").read_text()
        doc = json.loads(text, parse_constant=no_constants)
        held = [v for m in rep.metrics for v in (m.slope_se, *m.mean)]
        written = [v for m in doc["metrics"] for v in (m["slope_se"], *m["mean"])]
        assert any(v is not None and math.isnan(v) for v in held)
        assert written == [None if v is None or math.isnan(v) else v for v in held]

    def test_solution_shorter_run_is_csv_prefix(self, tmp_path):
        kw = dict(experiment="solution", grid_n=128, delta_ladder=(8, 4, 2))
        run_suite(ExperimentConfig(**kw, n_seeds=4, out_dir=str(tmp_path / "a")))
        run_suite(ExperimentConfig(**kw, n_seeds=2, out_dir=str(tmp_path / "b")))
        full = (tmp_path / "a" / "solution.csv").read_bytes()
        short = (tmp_path / "b" / "solution.csv").read_bytes()
        assert len(short) < len(full) and full.startswith(short)


# Monotone gates: name -> (metric, whether consecutive values along the
# ladder must fall strictly).
MONOTONE_GATES = {
    "noise": {"rho_beta_strict_decrease": ("rho_beta", True)},
    "solution": {f"{m}_decrease": (m, True) for m in ("sup", "pvar", "remainder_qvar")},
    "stopping": {"displacement_non_increase": ("displacement", False)},
}


class TestFailingSeeds:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(experiment="noise", n_seeds=30, grid_n=256, delta_ladder=(8, 4, 2)),
            dict(experiment="solution", n_seeds=4, grid_n=64, delta_ladder=(32, 16, 8, 4, 2, 1)),
            dict(experiment="stopping", n_seeds=6, grid_n=64, delta_ladder=(8, 4, 2)),
        ],
        ids=EXPERIMENTS,
    )
    def test_monotone_gates_name_the_seeds_that_break_them(self, kw):
        rep = run_suite(ExperimentConfig(**kw))
        monotone = MONOTONE_GATES[kw["experiment"]]
        named = set()
        for gate in rep.gates:
            if gate.name not in monotone:
                assert gate.failing_seeds == ()
                continue
            metric, strict = monotone[gate.name]
            expected = []
            for seed in range(kw["n_seeds"]):
                values = [v for s, _, name, v in rep.rows if s == seed and name == metric]
                steps = zip(values, values[1:])
                if not all(b < a if strict else b <= a for a, b in steps):
                    expected.append(seed)
            assert gate.failing_seeds == tuple(expected), gate.name
            named.update(expected)
        assert named, "the run should break at least one monotone gate"

    def test_failing_gate_line_lists_the_seeds(self, capsys):
        kw = dict(experiment="stopping", n_seeds=6, grid_n=64, delta_ladder=(8, 4, 2))
        gates = {g.name: g for g in run_suite(ExperimentConfig(**kw)).gates}
        gate = gates["displacement_non_increase"]
        assert not gate.passed and gate.failing_seeds
        argv = ["--experiment", "stopping", "--seeds", "6", "--grid-n", "64"]
        assert main(argv + ["--delta-ladder", "8,4,2"]) == 1
        line = next(
            ln for ln in capsys.readouterr().out.splitlines() if "displacement_non_increase" in ln
        )
        assert line.startswith("[FAIL]")
        assert line.endswith(" failing seeds " + ", ".join(map(str, gate.failing_seeds)))


class TestCli:
    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS + ("sin-g", "additive"):
            assert name in out

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--experiment", "stopping", "--threads", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--threads" in err

    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["--experiment", "stopping", "--bogus"], "--bogus"),
            (["--experiment", "stopping", "--seeds", "x"], "'x'"),
            (["--experiment", "nope"], "'nope'"),
        ],
    )
    def test_argument_errors_print_one_line(self, capsys, argv, culprit):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert culprit in err

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: roughwz")

    def test_missing_experiment_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_bad_config_value_is_usage_error(self, capsys):
        assert main(["--experiment", "noise", "--H", "0.9"]) == 2
        assert "H" in capsys.readouterr().err

    def test_bad_ladder_string(self, capsys):
        assert main(["--experiment", "stopping", "--delta-ladder", "a,b"]) == 2
        assert "delta_ladder" in capsys.readouterr().err

    def test_negative_metric_stride_is_usage_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "noise", "n_seeds": 30, "metric_stride": -2}))
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'metric_stride'" in err and ">= 0" in err and "divide" not in err

    def test_field_dimension_mismatch_is_usage_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"experiment": "solution", "field_name": "linear-g", "d": 1, "m": 2})
        )
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "field_name" in err and "Traceback" not in err

    def test_sampler_setup_failure_is_usage_error(self, capsys, monkeypatch):
        def failing_sampler(grid, params):
            raise CovarianceFactorizationError("negative circulant eigenvalue")

        monkeypatch.setattr("roughwz.expcli.FbmSampler", failing_sampler)
        rc = main(
            ["--experiment", "stopping", "--seeds", "2", "--grid-n", "64", "--delta-ladder", "4,2"]
        )
        assert rc == 2
        assert "negative circulant eigenvalue" in capsys.readouterr().err

    # The field check of the config and the sampler set-up each allocate
    # arrays that grow with d, up to the bound on d.  d stays small where the
    # field check is real.
    @pytest.mark.parametrize("target, d", [("builtin_vector_field", 2**10), ("FbmSampler", 3)])
    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch, tmp_path, target, d):
        def out_of_memory(*args, **kwargs):
            raise MemoryError(f"Unable to allocate 14.9 GiB for an array with shape (2, {d})")

        monkeypatch.setattr(f"roughwz.expcli.{target}", out_of_memory)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "stopping", "d": d, "n_seeds": 2}))
        assert main(["--config", str(cfg_path), "--grid-n", "64", "--delta-ladder", "4,2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert f"d = {d}" in err and "grid_n = 64" in err and "14.9 GiB" in err

    @pytest.mark.parametrize(
        "name, fields",
        [
            ("fixed_time", {"experiment": "noise", "fixed_time": 0.3}),
            ("fixed_time", {"experiment": "noise", "fixed_time": 0.0}),
            ("out_dir", {**TINY_STOPPING, "out_dir": "taken"}),
            ("t_min", {"experiment": "noise", "t_min": -0.3, "out_dir": "fresh"}),
            ("t_min", {"experiment": "solution", "t_min": -0.3, "out_dir": "fresh"}),
            ("t_min", {**TINY_STOPPING, "t_min": -0.3, "grid_n": 64, "out_dir": "fresh"}),
            ("grid_n", {"experiment": "noise", "grid_n": 1000, "out_dir": "fresh"}),
        ],
    )
    def test_bad_field_stops_before_any_seed_is_sampled(
        self, capsys, monkeypatch, tmp_path, name, fields
    ):
        # "taken" is an existing file, so it cannot be created as out_dir;
        # "fresh" must not be created by a run that stops on a config error.
        # fixed_time and t_min are constants, not fields: a file that sets
        # one stops on that key.
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("")

        def no_sampler(grid, params):
            raise AssertionError("a seed was sampled before the config error")

        monkeypatch.setattr("roughwz.expcli.FbmSampler", no_sampler)
        Path("cfg.json").write_text(json.dumps(fields))
        assert main(["--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(name) in err
        assert not Path("fresh").exists()

    def test_passing_run_exit_zero(self, capsys, tmp_path):
        rc = main(
            [
                "--experiment",
                "stopping",
                "--seeds",
                "6",
                "--grid-n",
                "256",
                "--delta-ladder",
                "8,4,2",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "[pass] stopping/displacement_non_increase" in out
        assert (tmp_path / "stopping.csv").exists()

    def test_failing_gate_exit_one(self, capsys):
        # Tiny solution grids cannot reach the default sup ceiling.
        rc = main(
            ["--experiment", "solution", "--seeds", "4", "--grid-n", "128", "--delta-ladder", "8,4,2"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] solution/smallest_delta_sup_ceiling" in out

    def test_readme_config_example_builds(self):
        # A key the example names that is no config field fails here.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (example,) = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        raw = json.loads(example)
        assert ExperimentConfig(**raw).experiment == raw["experiment"]

    def test_config_file_round_trip(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(TINY_STOPPING)))
        assert main(["--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize(
        "name, fields",
        [
            ("H", {"H": "0.4"}),
            ("delta_ladder", {"delta_ladder": 5}),
            ("n_seeds", {"n_seeds": 2.5}),
            ("master_seed", {**TINY_STOPPING, "delta_ladder": [8, 4, 2], "master_seed": -1}),
            # Constants, not fields: the key itself is refused.
            ("fixed_time", {"fixed_time": math.nan}),
            ("eta", {"eta": 0.3}),
            # Sizes no run could allocate, refused before any array is built.
            ("grid_n", {"experiment": "solution", "grid_n": 10**21}),
            ("grid_n", {"grid_n": 10**21}),
            ("grid_n", {"experiment": "noise", "grid_n": 10**30}),
            ("d", {"d": 10**9}),
            ("m", {"experiment": "solution", "m": 10**9}),
        ],
    )
    def test_bad_config_file_value_is_usage_error(self, capsys, tmp_path, name, fields):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "stopping", **fields}))
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(name) in err

    @pytest.mark.parametrize("name", ["field_name", "y0"])
    def test_a_long_bad_value_is_echoed_cut_short(self, capsys, tmp_path, name):
        # A 5 MB field name, or a y0 nested 900 deep (within the recursion
        # limit, so it parses): the error line shows a few dozen characters.
        bad = {"field_name": json.dumps("x" * 5_000_000), "y0": "[" * 900 + "]" * 900}[name]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(f'{{"experiment": "solution", "{name}": {bad}}}')
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
        assert repr(name) in err

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_a_long_path_is_echoed_cut_short(self, capsys, tmp_path, flag):
        # A 5 000-character file name cannot be opened or made; the error line
        # shows the start and end of the name once, and the reason without it.
        long = str(tmp_path / ("x" * 5000))
        assert main(["--experiment", "stopping", flag, long]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300
        assert "File name too long" in err

    def test_config_file_not_utf8_is_usage_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe" + json.dumps(dict(TINY_STOPPING)).encode())
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'config'" in err and "UTF-8" in err

    def test_config_file_nested_past_the_recursion_limit_is_usage_error(self, capsys, tmp_path):
        # The JSON decoder recurses once per level; 100 000 levels overflow it.
        cfg_path = tmp_path / "deep.json"
        depth = 100_000
        cfg_path.write_text('{"y0": ' + "[" * depth + "]" * depth + "}")
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'config'" in err and "too deeply" in err

    def test_config_file_unknown_key(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "stopping", "wat": 1}))
        assert main(["--config", str(cfg_path)]) == 2
        assert "wat" in capsys.readouterr().err

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "noise", "H": 0.9}))
        # The override makes H valid, so the run proceeds past validation.
        rc = main(
            [
                "--config",
                str(cfg_path),
                "--H",
                "0.45",
                "--seeds",
                "30",
                "--grid-n",
                "256",
                "--delta-ladder",
                "8,4,2",
            ]
        )
        assert rc in (0, 1)  # gates may fail at this size; config must not
