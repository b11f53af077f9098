#!/usr/bin/env python3
"""Benchmark of the roughwz convergence experiments.

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload noise_default --seed 7 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's `src/`, never from an installed copy.  One workload run repeats
rounds of set-up builds (`setup_s`) and one `run_suite` call on the same
config (`run_s`) until `--seconds` is spent.  A fixed reference loop is
timed between rounds, and each round's times are scaled by
REFERENCE_SECONDS over the loop's time beside them, so that the machine's
drifting speed cancels.  The run reports medians, checks every
repetition's output outside the timed region, and prints one JSON object as
its last line.  `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
untraced and traced repetitions and reports the per-layer metrics.  With
`--workload all` each workload runs in a child process, untraced then
traced, so that each peak-memory figure is its own.

Exit codes: 0 when every check passed, 1 when a check failed or the
program's sources are missing, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Reports and span dumps; removed or overwritten by every run, ignored by git.
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 20260814  # the experiments' own default master seed
DEFAULT_SECONDS = 35
MIN_ROUNDS = 3
# Each round builds the set-up at least once and, where that is cheap, until
# this many seconds are spent; so set-up samples spread over the whole run,
# like the run_suite samples they sit between.
SETUP_ROUND_SECONDS = 0.2

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Median time of `_reference_loop` on the machine the figures in README.md
# come from.  Times are scaled by this over the loop's time beside them.
REFERENCE_SECONDS = 0.05


class Rep(NamedTuple):
    """One run_suite call and the reports it wrote."""

    seconds: float
    report: object
    csv_text: str
    json_text: str


class Round(NamedTuple):
    """Set-up builds and run_suite calls between two timings of the reference loop."""

    scale: float  # REFERENCE_SECONDS over the mean of the two loop timings
    setup_times: list
    plain: Rep
    traced: tuple | None  # (Rep, Tracer) when tracing


def _import_program() -> None:
    """Put the checkout's sources first on the path; refuse to run without them."""
    if not (SRC / "roughwz" / "__init__.py").is_file():
        sys.exit(f"error: no roughwz sources at {SRC}; run inside a checkout of the repository")
    # One BLAS thread, set before numpy loads.  The experiments run in one
    # thread; a second BLAS thread spins whenever the other core is busy,
    # which made the 1056-node set-up 40 times slower (0.04 s to 1.5 s) while
    # another process ran on a 2-core machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import roughwz

    if Path(roughwz.__file__).resolve().parent != SRC / "roughwz":
        sys.exit(f"error: imported roughwz from {roughwz.__file__}, not from {SRC}")


def _blas_threads() -> str:
    """Thread count of the OpenBLAS bundled with numpy, asked of the library."""
    import ctypes

    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def machine_block() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (
        f"machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name', 'unknown')} {blas.get('version', '')} "
        f"blas_threads={_blas_threads()}"
    )


def _reference_loop() -> float:
    """Seconds for a fixed mix of the experiments' kinds of work, without roughwz.

    A Python loop of short numpy reductions like one variation DP, an
    elementwise power and small Cholesky factorisations.  The machine's
    speed drifts by tens of percent over minutes; this loop, timed between
    rounds, measures that drift so the rounds can be scaled to a fixed
    speed.  Its arrays stay under 100 kB, so it leaves peak memory alone.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    pts = rng.standard_normal((257, 1)).cumsum(axis=0)
    vals = np.linspace(0.1, 1.0, 10_000)
    spd = rng.standard_normal((100, 100))
    spd = spd @ spd.T + 100.0 * np.eye(100)
    t0 = time.perf_counter()
    for _ in range(12):
        best = np.zeros(len(pts))
        for r in range(1, len(pts)):
            diff = pts[:r] - pts[r]
            best[r] = np.max(best[:r] + np.sqrt(np.einsum("id,id->i", diff, diff)) ** 2.5)
    for _ in range(240):
        float(np.sum(vals**0.9))
    for _ in range(80):
        np.linalg.cholesky(spd)
    return time.perf_counter() - t0


def _time_setup(cfg) -> list[float]:
    from workloads import build_setup

    times: list[float] = []
    while not times or sum(times) < SETUP_ROUND_SECONDS:
        t0 = time.perf_counter()
        built = build_setup(cfg)
        times.append(time.perf_counter() - t0)
        del built  # free the factor before the next one is built
    return times


def _one_rep(cfg, tracer=None) -> Rep:
    from roughwz import run_suite
    from spans import ROOT as ROOT_SPAN, instrument

    if tracer is None:
        t0 = time.perf_counter()
        report = run_suite(cfg)
        seconds = time.perf_counter() - t0
    else:
        with instrument(tracer):
            report = tracer.call(ROOT_SPAN, run_suite, cfg)
        seconds = tracer.root_seconds()
    out = Path(cfg.out_dir)
    return Rep(
        seconds,
        report,
        (out / f"{cfg.experiment}.csv").read_text(),
        (out / f"{cfg.experiment}.json").read_text(),
    )


def _measure(cfg, seconds: float, trace: bool) -> list[Round]:
    """Rounds of set-up builds, one untraced run_suite and, when tracing, one
    traced run_suite, until `seconds` are spent (at least MIN_ROUNDS rounds)."""
    from spans import Tracer

    rounds: list[Round] = []
    ref_before = _reference_loop()
    start = time.perf_counter()
    while True:
        setup_times = _time_setup(cfg)
        plain = _one_rep(cfg)
        traced = None
        if trace:
            tracer = Tracer()
            traced = (_one_rep(cfg, tracer), tracer)
        ref_after = _reference_loop()
        scale = 2.0 * REFERENCE_SECONDS / (ref_before + ref_after)
        rounds.append(Round(scale, setup_times, plain, traced))
        ref_before = ref_after
        spent = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and spent * (1 + 1 / len(rounds)) > seconds:
            return rounds


def _check(cfg, reps: list[Rep]) -> tuple[list[str], int]:
    """Problems with the run as a whole, and the number of failed operations."""
    from workloads import build_setup, failed_operations, layout_problems

    problems = layout_problems(reps[0].csv_text, cfg)
    if any(rep.csv_text != reps[0].csv_text for rep in reps):
        problems.append("CSV bytes differ between repetitions of one config and seed")
    if any(json.loads(rep.json_text).get("experiment") != cfg.experiment for rep in reps):
        problems.append("a JSON report names another experiment")
    sampler = build_setup(cfg)[0] if cfg.experiment == "noise" else None
    recheck = sorted({0, cfg.n_seeds // 2, cfg.n_seeds - 1})  # level-1 recomputed here
    failed = sum(len(failed_operations(rep.report.rows, cfg, sampler, recheck)) for rep in reps)
    return problems, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None, log=print) -> dict:
    """Measure one workload; returns the result object printed as the last line."""
    from spans import PER_LAYER
    from workloads import WORKLOADS, operation_count

    out_dir = OUT / f"{name}-{os.getpid()}"
    cfg = WORKLOADS[name].experiment_config(seed, str(out_dir), **(sizes or {}))
    log(
        f"workload {name}: experiment={cfg.experiment} H={cfg.H} d={cfg.d} m={cfg.m} "
        f"grid_n={cfg.grid_n} ladder={','.join(map(str, cfg.delta_ladder))} "
        f"stride={cfg.stride} seeds={cfg.n_seeds} master_seed={seed} trace={int(trace)}"
    )
    try:
        rounds = _measure(cfg, seconds, trace)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    plain = [r.plain for r in rounds]
    traced = [r.traced for r in rounds if r.traced is not None]
    reps = plain + [rep for rep, _ in traced]
    problems, failed = _check(cfg, reps)
    attempted = operation_count(cfg) * len(reps)

    for gate in reps[0].report.gates:
        log(
            f"gate {cfg.experiment}/{gate.name}: {'pass' if gate.passed else 'FAIL'} "
            f"value={gate.value:.6g} ({gate.tolerance}; n={gate.sample_size}) "
            "[recorded; not a correctness check at this seed count]"
        )
    for problem in problems:
        log(f"check failed: {problem}")
    setup_times = [t for r in rounds for t in r.setup_times]
    log(
        f"operations attempted {attempted}, failed {failed}; {len(plain)} untraced and "
        f"{len(traced)} traced repetitions, {len(setup_times)} set-up builds"
    )
    log("wall-clock run_s per repetition: " + " ".join(f"{r.seconds:.4f}" for r in plain))
    log("speed scale per round: " + " ".join(f"{r.scale:.3f}" for r in rounds))
    log(
        f"wall-clock medians: run_s {statistics.median(r.seconds for r in plain):.4f} s, "
        f"setup_s {statistics.median(setup_times):.4f} s"
    )

    if trace:
        per_rep = [tracer.layer_metrics() for _, tracer in traced]
        layer = {key: statistics.fmean(m[key] for m in per_rep) for key in per_rep[0]}
        layer["trace.run_s"] = statistics.fmean(rep.seconds for rep, _ in traced)
        layer["trace.overhead_s"] = layer["trace.run_s"] - statistics.fmean(r.seconds for r in plain)
        metrics = {key: {"value": layer[key], "unit": unit} for key, unit in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{name}.json").write_text(
            json.dumps([tracer.to_json() for _, tracer in traced]) + "\n"
        )
    else:
        values = {
            "run_s": statistics.median(r.plain.seconds * r.scale for r in rounds),
            "setup_s": statistics.median(t * r.scale for r in rounds for t in r.setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    for key, m in metrics.items():
        log(f"  {key:22s} {m['value']:.6g} {m['unit']}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _run_all(seed: int, seconds: float) -> int:
    """Every workload in its own child process, untraced then traced; a summary table."""
    from workloads import WORKLOADS

    print(machine_block(), flush=True)
    table, status = [], 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            child = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = child.stdout.splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("machine:")))
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                print(f"{name} (trace {trace}) exited with code {child.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if trace == 0:
                table.append((name, "attempted", result["attempted"], "count"))
                table.append((name, "failed", result["failed"], "count"))
            table += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    print(f"\n{'workload':15s} {'metric':22s} {'value':>14s}  unit")
    for name, key, value, unit in table:
        print(f"{name:15s} {key:22s} {value:14.6g}  {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed of the inputs")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics (all: both)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in ("all", *WORKLOADS):
        parser.error(f"--workload must be all or one of {', '.join(WORKLOADS)}")
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)
    print(machine_block(), flush=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
