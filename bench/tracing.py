"""Per-layer measurements for the traced run, taken from the benchmark's side.

Two sources, both kept out of the untraced run:

* Spans.  The functions one invscheme module imports from another are
  replaced, on the importing module only, by timing wrappers: harness ->
  schemes/baselines/exact and schemes -> baselines/invariants/exact.  A
  span's self time is its duration minus that of the spans it encloses.
* Replay.  The SchemeStates that `run_scheme` hands to
  `step_with_diagnostics` are recorded from one pass, and each stage
  function is then called again on them, one at a time, under a timer.

A name that a later version of the package no longer has is skipped; the
metrics that need it are reported as missing.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# (importing module, imported name, layer of the callee)
BOUNDARIES = [
    ("harness", "bootstrap", "schemes"),
    ("harness", "run_scheme", "schemes"),
    ("harness", "advance_state", "schemes"),
    ("harness", "_ode_curve", "schemes"),
    ("harness", "rk45_integrate", "baselines"),
    ("harness", "standard_fd_step", "baselines"),
    ("harness", "ode_rhs_library", "baselines"),
    ("harness", "conic_distance", "exact"),
    ("harness", "fit_circle", "exact"),
    ("harness", "fit_hyperbola", "exact"),
    ("harness", "slope_at", "exact"),
    ("schemes", "rk45_integrate", "baselines"),
    ("schemes", "ode_rhs_library", "baselines"),
    ("schemes", "fit_circle", "exact"),
    ("schemes", "fit_hyperbola", "exact"),
    ("schemes", "next_chord_point", "exact"),
    ("schemes", "param_of", "exact"),
    ("schemes", "point_at", "exact"),
    ("schemes", "disc_i1_sl3", "invariants"),
    ("schemes", "disc_i1_sl4", "invariants"),
    ("schemes", "window_j1", "invariants"),
    ("schemes", "window_j2", "invariants"),
]

MODULES = ["core", "invariants", "exact", "group_action", "baselines", "schemes", "harness"]


class Tracer:
    """Spans of one experiment at a time, summed per (caller, name)."""

    def __init__(self, program):
        self.program = program
        self.missing: set[str] = set()
        self.stack: list[list[float]] = []
        self.experiments: list[dict] = []
        self.fd_samples: list[float] = []
        self.layer = {"harness._ode_curve.at": "schemes"}
        self._patched: list[tuple[object, str, object]] = []

    def root(self, fn: Callable):
        """Run fn (one run_experiment call) as a new experiment's root span."""
        self.experiments.append(defaultdict(float))
        return self._span("bench.run_experiment", fn)()

    def _span(self, key: str, fn: Callable, on_result: Optional[Callable] = None):
        def wrapped(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dt
                acc = self.experiments[-1]
                acc[key + ".calls"] += 1
                acc[key + ".s"] += dt
                acc[key + ".self_s"] += dt - frame[0]
                if key == "harness.standard_fd_step":
                    self.fd_samples.append(dt)
            if on_result is not None:
                result = on_result(result)
            return result

        return wrapped

    def _on_result(self, importer: str, name: str) -> Optional[Callable]:
        if name == "rk45_integrate":
            def count_steps(res):
                self.experiments[-1][f"{importer}.rk45_integrate.steps"] += len(res.xs) - 1
                return res
            return count_steps
        if name == "_ode_curve":
            return lambda curve: self._span("harness._ode_curve.at", curve)
        return None

    def install(self) -> None:
        for importer, name, layer in BOUNDARIES:
            module = getattr(self.program, importer, None)
            fn = getattr(module, name, None)
            if fn is None:
                self.missing.add(f"{importer}.{name}")
                continue
            key = f"{importer}.{name}"
            self.layer[key] = layer
            self._patched.append((module, name, fn))
            setattr(module, name, self._span(key, fn, self._on_result(importer, name)))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()


def span_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Busy times as per-experiment medians, counts as per-pass totals."""
    exps = tracer.experiments
    per_pass = max(1, passes)

    def med(key: str) -> float:
        return statistics.median(acc.get(key, 0.0) for acc in exps) * 1e3

    def total(key: str) -> float:
        return sum(acc.get(key, 0.0) for acc in exps) / per_pass

    def layer_busy(layer: str) -> float:
        keys = [k for k, v in tracer.layer.items() if v == layer]
        return statistics.median(sum(acc.get(k + ".s", 0.0) for k in keys) for acc in exps) * 1e3

    return {
        "schemes.run_scheme_ms": med("harness.run_scheme.s"),
        "schemes.bootstrap_ms": med("harness.bootstrap.s"),
        "baselines.ref_integrations": total("schemes.rk45_integrate.calls"),
        "baselines.ref_rk_steps": total("schemes.rk45_integrate.steps"),
        "baselines.ref_integration_ms": med("schemes.rk45_integrate.s"),
        "baselines.rk45_ms": med("harness.rk45_integrate.s"),
        "baselines.rk45_steps": total("harness.rk45_integrate.steps"),
        "baselines.fd_step_us.p50": (
            statistics.median(tracer.fd_samples) * 1e6 if tracer.fd_samples else 0.0
        ),
        "baselines.fd_steps": total("harness.standard_fd_step.calls"),
        "harness.self_ms": med("bench.run_experiment.self_s"),
        "harness.experiment_ms.p50": med("bench.run_experiment.s"),
        "exact.busy_ms": layer_busy("exact"),
        "exact.conic_distance_calls": total("harness.conic_distance.calls"),
    }


SPAN_NEEDS = {
    "schemes.run_scheme_ms": ["harness.run_scheme"],
    "schemes.bootstrap_ms": ["harness.bootstrap"],
    "baselines.ref_integrations": ["schemes.rk45_integrate"],
    "baselines.ref_rk_steps": ["schemes.rk45_integrate"],
    "baselines.ref_integration_ms": ["schemes.rk45_integrate"],
    "baselines.rk45_ms": ["harness.rk45_integrate"],
    "baselines.rk45_steps": ["harness.rk45_integrate"],
    "baselines.fd_step_us.p50": ["harness.standard_fd_step"],
    "baselines.fd_steps": ["harness.standard_fd_step"],
    "exact.conic_distance_calls": ["harness.conic_distance"],
}

# -- replay ------------------------------------------------------------------


def record_states(program, run_pass: Callable[[], None]) -> Optional[list]:
    """Every state `run_scheme` steps from, over one pass of the workload."""
    schemes = program.schemes
    step = getattr(schemes, "step_with_diagnostics", None)
    if step is None:
        return None
    states = []

    def recording(state):
        states.append(state)
        return step(state)

    schemes.step_with_diagnostics = recording
    try:
        run_pass()
    finally:
        schemes.step_with_diagnostics = step
    return states


def _median_us(fn: Callable, args_list, error: type) -> float:
    """Median seconds of one call of fn over args_list, in microseconds."""
    samples = []
    for args in args_list:
        t0 = time.perf_counter()
        try:
            fn(*args)
        except error:
            pass
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6 if samples else 0.0


# Stage functions called from the step, counted per replayed step.
COUNTED = {
    "scheme_targets": "schemes.targets_calls_per_step",
    "disc_i1_sl3": "invariants.disc_calls_per_step",
    "disc_i1_sl4": "invariants.disc_calls_per_step",
    "window_j1": "invariants.window_calls_per_step",
    "window_j2": "invariants.window_calls_per_step",
    "newton_fallback_step": "schemes.fallback_calls",
}


def replay_metrics(program, states: list) -> tuple[dict[str, float], set[str]]:
    """Per-stage costs and per-step call counts over the recorded states.

    Returns the metrics and the names of those that cannot be measured
    because the package no longer has a function they replay."""
    schemes, inv, err = program.schemes, program.invariants, program.core.NumericError
    step = schemes.step_with_diagnostics
    m: dict[str, float] = {}
    missing: set[str] = set()
    steps = []  # (state, next point) of every accepted step
    for s in states:
        try:
            steps.append((s, step(s)[0]))
        except err:
            pass
    samples = []
    for s, _ in steps:
        t0 = time.perf_counter()
        step(s)
        samples.append(time.perf_counter() - t0)
    if len(samples) >= 2:
        m["schemes.step_us.p50"] = statistics.median(samples) * 1e6
        m["schemes.step_us.p90"] = statistics.quantiles(samples, n=10)[-1] * 1e6

    # Order 3 windows hold three points; order-2 J2 windows chain two steps.
    windows3 = [(s.spec.realization,) + (tuple(s.window) + (p,))[-3:] for s, p in steps]
    windows4 = [(s.spec.realization,) + tuple(s.window) + (p,) for s, p in steps if len(s.window) == 3]
    windows4 += [
        (s0.spec.realization, s0.window[0], s0.window[1], p0, p1)
        for (s0, p0), (s1, p1) in zip(steps, steps[1:])
        if len(s0.window) == 2 and s1.window[-1] == p0
    ]
    stages = [
        ("schemes.targets_us", schemes, "scheme_targets", [(s,) for s, _ in steps]),
        ("schemes.reduce_us", schemes, "reduce_to_line_conic", [(s,) for s, _ in steps]),
        ("schemes.advance_us", schemes, "advance_state", steps),
        ("invariants.window_j1_us", inv, "window_j1", windows3),
        ("invariants.window_j2_us", inv, "window_j2", windows4),
    ]
    for metric, module, name, args_list in stages:
        fn = getattr(module, name, None)
        if fn is None:
            missing.add(metric)
        else:
            m[metric] = _median_us(fn, args_list, err)

    # Call counts, replaying run_scheme's loop body: step, then advance.
    counts: dict[str, float] = defaultdict(float)
    fallback_s = 0.0
    originals = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            nonlocal fallback_s
            counts[COUNTED[name]] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if name == "newton_fallback_step":
                    fallback_s += time.perf_counter() - t0
        return wrapped

    for name, metric in COUNTED.items():
        fn = getattr(schemes, name, None)
        if fn is None:
            missing.add(metric)
        else:
            originals[name] = fn
            setattr(schemes, name, counting(name, fn))
    advance = getattr(schemes, "advance_state", None)
    try:
        for s in states:
            try:
                p, _ = schemes.step_with_diagnostics(s)
                if advance is not None:
                    advance(s, p)
            except err:
                pass
    finally:
        for name, fn in originals.items():
            setattr(schemes, name, fn)
    for metric in set(COUNTED.values()):
        m[metric] = counts[metric] if metric == "schemes.fallback_calls" else counts[metric] / max(1, len(states))
    m["schemes.fallback_ms"] = fallback_s * 1e3
    if "schemes.fallback_calls" in missing:
        missing.add("schemes.fallback_ms")
    return m, missing


# -- import cost ------------------------------------------------------------------


def import_metrics(src_dir: str, repeats: int = 3) -> dict[str, float]:
    """Cumulative import time of each invscheme module, from -X importtime
    in fresh interpreters (median over repeats).  A module is charged with
    what it imports first, so numpy lands on group_action."""
    runs = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import invscheme"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src_dir),
            timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            name = parts[2].strip()
            if name == "invscheme" or name.startswith("invscheme."):
                runs[name.split(".")[-1]].append(int(parts[1]) / 1e3)
    return {f"{name}.import_ms": statistics.median(v) for name, v in runs.items()}
