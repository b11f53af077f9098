"""Each experiment at a reduced config computes what tests/golden/ recorded.

Written by tests/golden.py.  Seeds, deltas, metric names, `count` rows, gate
verdicts, failing seeds, sample sizes and blow-up counts must be equal;
every other float agrees within REL of the recorded value.
"""

import json

import pytest

import golden

# numpy dispatches np.power to AVX-512 kernels where the CPU has them, and
# those differ by an ulp from libm's pow, so the sampled paths, and every
# float after them, depend on the CPU.  Measured against fixtures recorded
# with AVX-512, a run at numpy's baseline dispatch moved these rows by up to
# 3.5e-11 relative (noise) and the noise_default workload by up to 1.5e-10
# (level1_fixed_time, a difference of two nearby paths).  A change in what a
# program computes moves a row by far more than the rounding of a sum.
REL = 1e-9


def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * abs(want)


@pytest.mark.parametrize("experiment", sorted(golden.CONFIGS))
def test_reduced_run_matches_its_golden_rows(experiment):
    want = json.loads((golden.GOLDEN_DIR / f"{experiment}.json").read_text())
    got = json.loads(json.dumps(golden.record(experiment)))
    assert got["config"] == want["config"]

    assert [row[:3] for row in got["rows"]] == [row[:3] for row in want["rows"]]
    moved = [
        (g, w[3])
        for g, w in zip(got["rows"], want["rows"])
        if not (g[3] == w[3] if g[2] == "count" else close(g[3], w[3]))
    ]
    assert not moved, f"{len(moved)} row(s) moved, first {moved[0]}"

    verdict = lambda gate: {key: v for key, v in gate.items() if key != "value"}
    assert [verdict(g) for g in got["gates"]] == [verdict(g) for g in want["gates"]]
    for g, w in zip(got["gates"], want["gates"]):
        assert close(g["value"], w["value"]), (g["name"], g["value"], w["value"])

    assert got["blowups"] == want["blowups"]
