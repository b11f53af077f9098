"""Spans around the calls that the experiments make into each roughwz layer.

A span is (name, start, end, parent).  Spans stay in memory for the whole
traced run and are written out when it ends.  `instrument` swaps the layer
functions that the experiment code reaches for timed wrappers and puts the
originals back on exit, so an untraced run executes the program's own
objects.  Nothing inside `src/` is changed: the wrappers live here and sit
only at the module and class attributes listed in `_layer_calls`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

# Root span: one call of run_suite.  Its self time is the experiment code
# outside every layer span (config echo, summaries, report writing, loops).
ROOT = "expcli"

# (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("fbm.setup_s", "s"),
    ("fbm.draw_s", "s"),
    ("fbm.paths", "count"),
    ("lift.s", "s"),
    ("wongzakai.s", "s"),
    ("wongzakai.calls", "count"),
    ("norms.holder_s", "s"),
    ("norms.level2_s", "s"),
    ("norms.pvar_s", "s"),
    ("norms.homogeneous_s", "s"),
    ("norms.stopping_s", "s"),
    ("norms.calls", "count"),
    ("rde.solve_s", "s"),
    ("rde.steps", "count"),
    ("rde.steps_per_s", "1/s"),
    ("rde.distance_s", "s"),
    ("expcli.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)

# Span name -> per-layer metric holding the summed self time of its spans.
_SELF_TIME_METRIC = {
    "fbm.setup": "fbm.setup_s",
    "fbm.draw": "fbm.draw_s",
    "lift": "lift.s",
    "wongzakai": "wongzakai.s",
    "norms.holder": "norms.holder_s",
    "norms.level2": "norms.level2_s",
    "norms.pvar": "norms.pvar_s",
    "norms.homogeneous": "norms.homogeneous_s",
    "norms.stopping": "norms.stopping_s",
    "rde.solve": "rde.solve_s",
    "rde.distance": "rde.distance_s",
    ROOT: "expcli.self_s",
}
# These add up to the traced run_s: every instant of run_suite is in exactly
# one span's self time.
SELF_TIME_METRICS = tuple(_SELF_TIME_METRIC.values())


class Tracer:
    """In-memory span list of one traced run_suite call, plus work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.work: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named `name`."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def root_seconds(self) -> float:
        """Duration of the first top-level span, i.e. the traced run_suite."""
        _, start, end, _ = self.spans[0]
        return end - start

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per span name: summed self time (span minus its children) and span count."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, inner):
            seconds[name] += end - start - covered
            calls[name] += 1
        return dict(seconds), calls

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this run, except the two trace.* ones."""
        seconds, calls = self.self_times()
        out = {metric: seconds.get(span, 0.0) for span, metric in _SELF_TIME_METRIC.items()}
        out["fbm.paths"] = calls["fbm.draw"]
        out["wongzakai.calls"] = calls["wongzakai"]
        out["norms.calls"] = sum(n for name, n in calls.items() if name.startswith("norms."))
        out["rde.steps"] = self.work["rde.steps"]
        solve = out["rde.solve_s"]
        out["rde.steps_per_s"] = out["rde.steps"] / solve if solve > 0.0 else 0.0
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def _solver_steps(vf, rp, *args, **kwargs) -> int:
    return rp.n_steps


def _layer_calls():
    """(owner, attribute, span name, work counter) for each wrapped layer call.

    The experiment code looks these names up in `roughwz.expcli`; the level-1
    and level-2 variation programs are looked up in the modules whose public
    functions call them (`rho_pvar_metric` in norms, `solution_distance` in
    rde), so that their time is split out of the enclosing metric.
    """
    from roughwz import expcli, fbm, lift, norms, rde

    return (
        (fbm.FbmSampler, "__init__", "fbm.setup", None),
        (fbm.FbmSampler, "sample", "fbm.draw", None),
        (expcli, "lift_left_riemann", "lift", None),
        (lift.GridRoughPath, "restrict", "lift", None),
        (lift.GridRoughPath, "coarsen", "lift", None),
        (expcli, "w_delta", "wongzakai", None),
        (expcli, "ww_delta", "wongzakai", None),
        (expcli, "rho_alpha_metric", "norms.holder", None),
        (norms, "pvar_seminorm", "norms.pvar", None),
        (rde, "pvar_seminorm", "norms.pvar", None),
        (norms, "pvar_level2_distance", "norms.level2", None),
        (expcli, "homogeneous_pvar_norm", "norms.homogeneous", None),
        (expcli, "greedy_stopping_times", "norms.stopping", None),
        (expcli, "solve_rde", "rde.solve", ("rde.steps", _solver_steps)),
        (expcli, "solution_distance", "rde.distance", None),
    )


def _wrap(tracer: Tracer, name: str, fn, work):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if work is not None:
            counter, amount = work
            tracer.work[counter] += amount(*args, **kwargs)
        return tracer.call(name, fn, *args, **kwargs)

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the layer calls of the experiments through `tracer` while open."""
    saved = []
    try:
        for owner, attr, name, work in _layer_calls():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, work))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
