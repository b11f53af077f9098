"""Seeded bad input for the command line: exit 0 or 2, and one short error line.

One generator, `draw`, makes each case from SEED and the case number, in
the style of the conformance table's: a config file (a JSON object whose
fields each take a valid value or a bad one, JSON that is not an object,
bytes that are not UTF-8, a path that cannot be read, or none) and flags
(each with a valid value or a bad one, an unknown flag or a flag with no
value).  Bad values are wrong types, bools, NaN and infinities, 10**400,
negative numbers, nesting from 100 deep to past the recursion limit, long
strings, numbers of 5000 digits, and out_dir paths that cannot be created.

Each case also carries the fields that main should build, or None where
the input cannot give a config.  main runs in-process with the
experiments' runners stubbed, so run_suite still creates out_dir and
writes its reports, but a valid config costs nothing.  The exit code
must be 0 exactly when ExperimentConfig accepts those fields and out_dir
can be created, and 2 otherwise, with one stderr line that starts
`error: `, is under 300 characters and holds no traceback.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from roughwz import expcli
from roughwz.expcli import ConfigError, ConvergenceReport, ExperimentConfig, main

SEED = 20261020
N_CASES = 400
MAX_LINE = 300
UNREADABLE = object()  # a JSON fragment that json.load refuses
LONG = "x" * 5000

# Configs that ExperimentConfig accepts; a case starts from one of them.
BASES = [
    {"experiment": "noise", "H": 0.45, "n_seeds": 30, "grid_n": 128, "delta_ladder": [8, 4, 2]},
    {"experiment": "solution", "d": 2, "m": 2, "y0": [0.0, 0.5], "n_seeds": 2, "grid_n": 64,
     "delta_ladder": [4, 2]},
    {"experiment": "solution", "field_name": "linear-g", "d": 1, "m": 1, "y0": [1.0]},
    {"experiment": "stopping", "n_seeds": 2, "grid_n": 128, "metric_stride": 2, "master_seed": 7},
]
# Other valid values of each field, which a case may add; with the rest of
# the config they may still be refused (y0 against m, say).
VALID = {
    "H": [0.4, 0.5],
    "d": [1, 2],
    "m": [1, 2],
    "grid_n": [0, 64],
    "delta_ladder": [[], [4, 2]],
    "n_seeds": [1, 30],
    "field_name": ["sin-g", "additive", "drift-only", "linear-g"],
    "y0": [[0.0, 0.0], [0.5]],
    "metric_stride": [0, 1],
    "master_seed": [0, 2**70],
}


def nested(depth: int):
    """JSON text and value of a list nested depth deep around 0."""
    value = 0
    for _ in range(depth):
        value = [value]
    return "[" * depth + "0" + "]" * depth, value


def bad_values(rng, strings: bool) -> list[tuple[str, str, object]]:
    """(kind, JSON text, value) of each bad value; strings=False leaves out the string ones."""
    depth = int(rng.integers(100, 400))
    out = [
        ("object", '{"a": 1}', {"a": 1}),
        ("bool", "true", True),
        ("null", "null", None),
        ("NaN", "NaN", math.nan),
        ("Infinity", "Infinity", math.inf),
        ("-Infinity", "-Infinity", -math.inf),
        ("10**400", "1" + "0" * 400, 10**400),
        ("negative int", "-3", -3),
        ("negative float", "-0.5", -0.5),
        (f"nested {depth} deep", *nested(depth)),
        ("past the recursion limit", "[" * 100_000 + "]" * 100_000, UNREADABLE),
        ("5000 digits", "1" * 5000, UNREADABLE),
    ]
    if strings:
        out += [("wrong string", '"abc"', "abc"), ("long string", f'"{LONG}"', LONG)]
    return out


# flag -> (field, [(text, value)]); a value BAD is refused by argparse or by
# the ladder parser before any config is built.
BAD = object()
FLAGS = {
    "--experiment": ("experiment", [("noise", "noise"), ("solution", "solution"),
                                    ("stopping", "stopping"), ("bogus", BAD), (LONG, BAD)]),
    "--H": ("H", [("0.45", 0.45), ("0.5", 0.5), ("0.9", 0.9), ("nan", math.nan),
                  ("1e400", math.inf), ("abc", BAD), (LONG, BAD)]),
    "--seeds": ("n_seeds", [("2", 2), ("30", 30), ("0", 0), ("-3", -3), ("abc", BAD),
                            ("1" * 5000, BAD)]),
    "--grid-n": ("grid_n", [("64", 64), ("0", 0), ("1", 1), ("-5", -5), ("1e3", BAD)]),
    "--delta-ladder": ("delta_ladder", [("4,2", (4, 2)), ("2,4", (2, 4)), ("0", (0,)),
                                        ("a,b", BAD), ("1" * 5000, BAD)]),
}


@dataclass(frozen=True)
class Input:
    """One drawn command line; its repr names what was drawn."""

    kinds: tuple[str, ...]
    argv: list = field(repr=False)
    fields: dict | None = field(repr=False)  # what main should build; None: no config
    creatable: bool = field(repr=False)  # out_dir, if set, can be created


def out_dirs(tmp: Path, k: int) -> list[tuple[str, str, bool]]:
    """(kind, path, creatable) of the out_dir values, the last two not creatable."""
    blocker = tmp / "a-file"
    blocker.touch()
    return [("out_dir", str(tmp / f"out{k}"), True),
            ("out_dir under a file", str(blocker / "out"), False),
            ("out_dir of 5000 characters", str(tmp / LONG), False)]


def draw(k: int, tmp: Path) -> Input:
    """Case k, from SEED and k; its config file, if any, is written under tmp."""
    rng = np.random.default_rng([SEED, k])
    kinds, argv, fields, creatable = [], [], {}, True

    def pick(options):
        return options[int(rng.integers(len(options)))]

    file_kind = pick(["object"] * 20 + ["none", "not an object", "not UTF-8", "invalid JSON",
                                        "missing", "directory", "long path"])
    kinds.append(f"file: {file_kind}")
    path = tmp / f"cfg{k}.json"
    if file_kind == "object":
        parts, config = [], dict(pick(BASES))
        for name in [*VALID, "out_dir"]:
            if name not in config and rng.random() < 0.15:
                config[name] = None if name == "out_dir" else pick(VALID[name])
        for name, value in config.items():
            if rng.random() < 0.9:  # a valid value
                kind = name
                if name == "out_dir":
                    kind, value, creatable = pick(out_dirs(tmp, k))
                text = json.dumps(value)
            else:
                kind, text, value = pick(bad_values(rng, strings=name != "out_dir"))
                kind = f"{name} {kind}"
            parts.append(f'"{name}": {text}')
            kinds.append(kind)
            if fields is not None:
                fields = None if value is UNREADABLE else {**fields, name: value}
        if rng.random() < 0.1:
            parts.append(f'"{pick(["bogus", LONG])}": 1')
            kinds.append("unknown key")
            fields = None
        path.write_text("{" + ", ".join(parts) + "}")
    elif file_kind != "none":
        fields = None
        texts = {"not an object": b"[1, 2]", "not UTF-8": b'\xff\xfe{"experiment": "noise"}',
                 "invalid JSON": b'{"experiment": "noise",'}
        if file_kind in texts:
            path.write_bytes(texts[file_kind])
        path = {"missing": tmp / "no-such.json", "directory": tmp,
                "long path": tmp / LONG}.get(file_kind, path)
    if file_kind != "none":
        argv += ["--config", str(path)]

    for flag, (name, options) in FLAGS.items():
        if rng.random() < 0.85:
            continue
        text, value = pick(options)
        argv += [flag, text]
        kinds.append(f"{flag} {text[:20]}")
        if value is BAD:
            fields = None
        elif fields is not None:
            fields[name] = value
    if rng.random() < 0.15:
        kind, out, creatable = pick(out_dirs(tmp, k))
        argv += ["--out", out]
        kinds.append(f"--out: {kind}")
        if fields is not None:
            fields["out_dir"] = out
    if rng.random() < 0.05:
        extra = pick([["--bogus"], ["--" + LONG], ["--H"]])  # unknown, or no value
        argv += extra
        kinds.append(f"flag {extra[0][:20]}")
        fields = None
    if fields is not None and "experiment" not in fields:
        fields = None
    return Input(tuple(kinds), argv, fields, creatable)


def accepts(fields: dict | None) -> bool:
    """Whether ExperimentConfig accepts the fields."""
    if fields is None:
        return False
    try:
        ExperimentConfig(**fields)
    except ConfigError:
        return False
    return True


def stub_runner(cfg: ExperimentConfig) -> ConvergenceReport:
    return ConvergenceReport(cfg.experiment, cfg, metrics=(), gates=(), table=np.zeros((0, 0, 0)))


@pytest.fixture
def stubbed(monkeypatch, tmp_path):
    monkeypatch.setattr(expcli, "_RUNNERS", dict.fromkeys(expcli.EXPERIMENTS, stub_runner))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def outcome(argv, capsys) -> tuple[object, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any escape is a finding
        code = f"raised {type(exc).__name__}"
    return code, capsys.readouterr().err


def test_bad_input_exits_two_with_one_short_line(stubbed, capsys):
    bad = []
    for k in range(N_CASES):
        case = draw(k, stubbed)
        want = 0 if accepts(case.fields) and case.creatable else 2
        code, err = outcome(case.argv, capsys)
        lines = err.splitlines()
        if code == 0:
            ok = want == 0 and err == ""
        else:
            ok = (code == want == 2 and len(lines) == 1 and lines[0].startswith("error: ")
                  and len(lines[0]) < MAX_LINE and "Traceback" not in err)
        if not ok:
            bad.append(f"case {k} {case}: exit {code!r}, want {want}, stderr {err[:400]!r}")
    assert not bad, f"{len(bad)} of {N_CASES} cases, first {bad[0]}"


def test_draw_is_seeded_and_spans_its_kinds(stubbed):
    cases = [draw(k, stubbed) for k in range(N_CASES)]
    assert [c.kinds for c in cases] == [draw(k, stubbed).kinds for k in range(N_CASES)]
    kinds = " | ".join(" | ".join(c.kinds) for c in cases)
    for kind in ("not UTF-8", "past the recursion limit", "5000 digits", "10**400", "NaN",
                 "unknown key", "out_dir under a file", "long string", "nested", "--H abc"):
        assert kind in kinds
    # Both outcomes are common: the generator is no pile of refusals.
    accepted = sum(accepts(c.fields) and c.creatable for c in cases)
    assert N_CASES // 10 <= accepted <= N_CASES - N_CASES // 10
