"""Config validation, report structure, reproducibility and the CLI shell."""

import json
import math

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
from roughwz.fbm import CovarianceFactorizationError

TINY_STOPPING = dict(experiment="stopping", n_seeds=6, grid_n=256, delta_ladder=(8, 4, 2))


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
            ("metric_stride", {"metric_stride": 7}),
            ("sup_ceiling", {"sup_ceiling": -1.0}),
            ("threads", {"threads": 0}),
            ("field_name", {"field_name": "linear-g", "d": 1, "m": 2}),
        ],
    )
    def test_each_field_is_guarded(self, field, kwargs):
        base = dict(experiment="solution", H=0.45)
        base.update(kwargs)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**base)
        assert exc.value.field == field

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
        assert doc["runtime"]["seconds"] > 0
        stripped = rep.to_json_dict(include_runtime=False)
        assert "runtime" not in stripped
        json.dumps(stripped)  # must be serializable as-is


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

    def test_thread_count_never_changes_outputs(self, tmp_path):
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        run_suite(ExperimentConfig(**TINY_STOPPING, out_dir=str(out1), threads=1))
        run_suite(ExperimentConfig(**TINY_STOPPING, out_dir=str(out4), threads=4))
        assert (out1 / "stopping.csv").read_bytes() == (out4 / "stopping.csv").read_bytes()
        doc1 = json.loads((out1 / "stopping.json").read_text())
        doc4 = json.loads((out4 / "stopping.json").read_text())
        doc1.pop("runtime"), doc4.pop("runtime")
        assert doc1 == doc4

    def test_solution_suite_threads_agree_too(self, tmp_path):
        kw = dict(experiment="solution", n_seeds=4, grid_n=128, delta_ladder=(8, 4, 2))
        run_suite(ExperimentConfig(**kw, out_dir=str(tmp_path / "a"), threads=1))
        run_suite(ExperimentConfig(**kw, out_dir=str(tmp_path / "b"), threads=3))
        assert (tmp_path / "a" / "solution.csv").read_bytes() == (
            tmp_path / "b" / "solution.csv"
        ).read_bytes()


class TestCli:
    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS + ("sin-g", "additive"):
            assert name in out

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
