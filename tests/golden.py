"""Golden rows: what each experiment computes at a reduced config, kept in tests/golden/.

    PYTHONPATH=src python tests/golden.py    # rewrite the fixtures

test_golden.py reruns CONFIGS and compares the result with the fixtures,
so a change that moves what an experiment computes shows up in tier-1.  A
change that moves results on purpose rewrites the fixtures with this script
and says which rows moved, and by how much.  On the machine that recorded
them, the script reproduces the fixtures bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from roughwz.expcli import EXPERIMENTS, ExperimentConfig, run_suite

GOLDEN_DIR = Path(__file__).parent / "golden"

# A few seeds of each experiment on small grids (noise needs 30 seeds for
# its rate fit); the solution runs use d = m = 2, as criterion 08 does.
CONFIGS = {
    "noise": dict(experiment="noise", grid_n=256, delta_ladder=(8, 4, 2), n_seeds=30),
    "solution": dict(
        experiment="solution", d=2, m=2, grid_n=128, delta_ladder=(8, 4, 2), n_seeds=6
    ),
    "stopping": dict(experiment="stopping", grid_n=256, delta_ladder=(8, 4, 2), n_seeds=8),
}
assert tuple(CONFIGS) == EXPERIMENTS


def record(experiment: str) -> dict:
    """The config, the CSV rows (seed, delta, metric, value), the gates and the blow-ups."""
    report = run_suite(ExperimentConfig(**CONFIGS[experiment]))
    return {
        "config": CONFIGS[experiment],
        "rows": [list(row) for row in report.rows],
        "gates": [asdict(gate) for gate in report.gates],
        "blowups": [list(b) for b in report.blowups],
    }


def dumps(fixture: dict) -> str:
    """JSON with one row per line; floats as repr, so they read back exactly."""
    lines = ",\n".join(f"    {json.dumps(row, allow_nan=False)}" for row in fixture["rows"])
    rest = {key: value for key, value in fixture.items() if key != "rows"}
    body = json.dumps(rest, indent=2, allow_nan=False)[:-2]
    return f'{body},\n  "rows": [\n{lines}\n  ]\n}}\n'


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for experiment in CONFIGS:
        (GOLDEN_DIR / f"{experiment}.json").write_text(dumps(record(experiment)))


if __name__ == "__main__":
    main()
