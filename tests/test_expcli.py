"""Config validation, report structure, reproducibility and the CLI shell."""

import importlib.util
import json
import math
from dataclasses import asdict
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

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("H", {"H": 0.6}),
            ("H", {"H": 1.0 / 3.0}),
            ("beta_prime", {"beta": 0.44, "beta_prime": 0.40}),
            ("beta_prime", {"beta_prime": 0.48}),
            ("q_moment", {"q_moment": 1.5}),
            ("d", {"d": 0}),
            ("t_min", {"t_min": 0.5}),
            ("grid_n", {"grid_n": 1}),
            ("delta_ladder", {"delta_ladder": (4, 8)}),
            ("delta_ladder", {"delta_ladder": (4, 4, 2)}),
            ("delta_ladder", {"delta_ladder": (2048,)}),
            ("n_seeds", {"n_seeds": 0}),
            ("field_name", {"field_name": "nope"}),
            ("y0", {"y0": (1.0, 2.0, 3.0)}),
            ("eta", {"eta": 0.0}),
            ("metric_stride", {"experiment": "stopping", "metric_stride": 7}),
            ("sup_ceiling", {"sup_ceiling": -1.0}),
            ("n_seeds", {"n_seeds": 2.5}),
            ("field_name", {"field_name": "linear-g", "d": 1, "m": 2}),
            ("H", {"experiment": "stopping", "H": "0.4"}),
            ("n_seeds", {"n_seeds": True}),
            ("fixed_time", {"experiment": "noise", "fixed_time": math.nan}),
            ("y0", {"y0": (math.nan, 0.0)}),
            ("eta", {"experiment": "stopping", "eta": math.nan}),
            ("eta", {"experiment": "stopping", "eta": 1e-300}),
            ("eta", {"experiment": "stopping", "eta": 1e300}),
            ("sup_ceiling", {"sup_ceiling": math.nan}),
            ("q_moment", {"q_moment": math.inf}),
            ("t_max", {"t_max": 10**400}),
            ("beta", {"beta": math.nan}),
            ("fixed_time", {"experiment": "noise", "fixed_time": 0.3}),
            ("fixed_time", {"experiment": "noise", "fixed_time": 0.0}),
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
            t_max=1,
            n_seeds=np.int64(6),
            delta_ladder=[8, 4, 2],
            y0=np.array([0, 1]),
        )
        assert type(cfg.n_seeds) is int and type(cfg.t_max) is float
        assert cfg.delta_ladder == (8, 4, 2) and cfg.y0 == (0.0, 1.0)
        json.dumps(asdict(cfg))

    def test_solution_ignores_metric_stride(self):
        ExperimentConfig(experiment="solution", grid_n=1024, metric_stride=3)

    def test_noise_needs_thirty_seeds(self):
        with pytest.raises(ConfigError, match="n_seeds"):
            ExperimentConfig(experiment="noise", n_seeds=10)
        ExperimentConfig(experiment="solution", n_seeds=10)

    def test_window_must_contain_zero(self):
        cfg = ExperimentConfig(experiment="solution", t_min=-0.5, t_max=0.5)
        assert cfg.grid.spans_zero


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
            return ControlledPath(solved.grid, values, gub, driver=drivers)

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
            assert all(math.isnan(v) for v in m.mean + m.rms + m.moment_q)
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

        def overflowing_ww_delta(path, dp):
            rp = ww_delta(path, dp)
            if dp.multiple not in overflow_node:
                return rp
            inc2 = rp.inc2.copy()
            inc2[overflow_node[dp.multiple] - 1] = np.inf
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
        cfg = ExperimentConfig(
            experiment=experiment,
            d=d,
            grid_n=64,
            delta_ladder=ladder,
            metric_stride=stride,
            n_seeds=30 if experiment == "noise" else 3,
            fixed_time=0.5,
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

    @pytest.mark.parametrize(
        "name, fields",
        [
            ("fixed_time", {"experiment": "noise", "fixed_time": 0.3}),
            ("fixed_time", {"experiment": "noise", "fixed_time": 0.0}),
            ("out_dir", {**TINY_STOPPING, "out_dir": "taken"}),
        ],
    )
    def test_bad_field_stops_before_any_seed_is_sampled(
        self, capsys, monkeypatch, tmp_path, name, fields
    ):
        # "taken" is an existing file, so it cannot be created as out_dir.
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
            ("fixed_time", {"fixed_time": math.nan}),
        ],
    )
    def test_bad_config_file_value_is_usage_error(self, capsys, tmp_path, name, fields):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "stopping", **fields}))
        assert main(["--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(name) in err

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
