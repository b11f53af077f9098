#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about ten seconds).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, through the same
code as a benchmark run, and checks the result objects.  Then corrupts one
row per experiment and confirms that the checks count exactly that
operation as failed, shuffles a CSV and confirms the layout check notices,
compares BENCHMARK.json with the harness's own names, and confirms that the
benchmark refuses to run in a directory without the program's sources.
Exits 1 when any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

run._import_program()

from roughwz import run_suite  # noqa: E402
from spans import PER_LAYER, SELF_TIME_METRICS  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    build_setup,
    failed_operations,
    layout_problems,
    operation_count,
)

TINY = {
    "noise_default": dict(grid_n=256, delta_ladder=(8, 4, 2), metric_stride=8, n_seeds=30),
    "solution_d2": dict(grid_n=64, delta_ladder=(4, 2), n_seeds=2),
    "stopping_d1": dict(grid_n=128, delta_ladder=(4, 2), metric_stride=1, n_seeds=3),
}
SEED = 7

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_runs() -> None:
    for name in WORKLOADS:
        cfg = WORKLOADS[name].experiment_config(SEED, None, **TINY[name])
        for trace, expected in ((False, run.END_TO_END), (True, PER_LAYER)):
            res = run.run_workload(name, SEED, 0.01, trace, sizes=TINY[name], log=lambda _: None)
            tag = f"{name} trace={int(trace)}"
            check(res["correct"] and res["failed"] == 0, f"{tag}: correct, no failed operations")
            reps = res["attempted"] / operation_count(cfg)
            check(reps >= run.MIN_ROUNDS and reps == int(reps), f"{tag}: whole repetitions attempted")
            got = [(k, m["unit"]) for k, m in res["metrics"].items()]
            check(got == list(expected), f"{tag}: every metric reported with its unit")
            values = {k: m["value"] for k, m in res["metrics"].items()}
            if not trace:
                check(all(v > 0 for v in values.values()), f"{tag}: end-to-end metrics positive")
                continue
            layers = sum(values[k] for k in SELF_TIME_METRICS)
            check(
                math.isclose(layers, values["trace.run_s"], rel_tol=1e-9),
                f"{tag}: layer self times plus expcli.self_s add up to the traced run_s",
            )
            check(values["fbm.paths"] == cfg.n_seeds, f"{tag}: one fbm draw per seed")


def _corrupt(rows, index: int, value: float):
    rows = list(rows)
    seed, delta, metric, _ = rows[index]
    rows[index] = (seed, delta, metric, value)
    return rows, (seed, delta)


def check_corruption() -> None:
    for name in WORKLOADS:
        cfg = WORKLOADS[name].experiment_config(SEED, None, **TINY[name])
        report = run_suite(cfg)
        sampler = build_setup(cfg)[0] if cfg.experiment == "noise" else None
        recheck = (0,)
        check(not failed_operations(report.rows, cfg, sampler, recheck), f"{name}: clean rows pass")
        rows = list(report.rows)
        # Row 3 * k + j is metric j of operation k (seed-major, ladder descending).
        if cfg.experiment == "noise":
            level1 = rows[3][3]
            cases = [_corrupt(rows, 4, 0.5 * level1), _corrupt(rows, 3, level1 * (1 + 1e-9))]
        elif cfg.experiment == "solution":
            cases = [_corrupt(rows, 3, math.nan), _corrupt(rows, 4, 0.5 * rows[3][3])]
        else:
            cases = [_corrupt(rows, 4, -0.5), _corrupt(rows, 5, rows[5][3] + 0.5)]
        for bad_rows, op in cases:
            got = failed_operations(bad_rows, cfg, sampler, recheck)
            check(got == {op}, f"{name}: one corrupted row counts exactly its operation as failed")
    cfg = WORKLOADS["stopping_d1"].experiment_config(SEED, str(run.OUT / "selftest-csv"), **TINY["stopping_d1"])
    try:
        run_suite(cfg)
        text = (run.OUT / "selftest-csv" / "stopping.csv").read_text()
    finally:
        shutil.rmtree(run.OUT / "selftest-csv", ignore_errors=True)
    lines = text.splitlines(keepends=True)
    check(not layout_problems(text, cfg), "CSV layout check passes on real output")
    swapped = "".join(lines[:1] + [lines[2], lines[1]] + lines[3:])
    check(bool(layout_problems(swapped, cfg)), "CSV layout check catches two swapped rows")
    check(bool(layout_problems("".join(lines[:-1]), cfg)), "CSV layout check catches a missing row")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        [(w["name"], w["why"]) for w in spec["workloads"]]
        == [(w.name, w.why) for w in WORKLOADS.values()],
        "BENCHMARK.json workloads match the harness",
    )
    check(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end-to-end metrics match the harness",
    )
    check(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER),
        "BENCHMARK.json per-layer metrics match the harness",
    )


def check_bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        child = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "noise_default", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(
        child.returncode != 0 and '"correct"' not in child.stdout,
        "without the program's sources the benchmark exits non-zero and prints no result",
    )


if __name__ == "__main__":
    check_runs()
    check_corruption()
    check_benchmark_json()
    check_bare_directory()
    print(f"{len(problems)} failed" if problems else "all checks passed")
    sys.exit(1 if problems else 0)
