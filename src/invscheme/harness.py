"""Experiment runner and command line interface.

Configures the four builtin experiments (fig1..fig4) plus arbitrary JSON
configs, runs every requested method (invariant scheme, standard finite
differences with Newton, adaptive embedded RK5(4)), measures geometry and
cost, and writes one CSV per method plus a JSON report.  A method that
fails is recorded as data; the run itself never aborts because of it.

Config files are flat key-value JSON:

    {"name": "demo", "realization": "sl3", "order": "Second",
     "x0": 1, "y0": 8, "C": 2, "a": 1, "h": 0.01, "maxSteps": 5000,
     "xWindow": [-4, 6], "methods": ["invariant", "standardFD"]}

A CSV holds a header and one line per point, every line ending in CRLF
as in the csv module's default dialect: index,x,y for the baselines and
index,x,y,J1,J2,meshResidual for the invariant method, whose seed rows
read "i,x,y,,," and whose order-2 rows leave J2 blank.  Floats are written
as %.17g, so files are byte-deterministic and re-parse exactly.  Timings
live only in the report JSON.  The default output directory is --out, then the config's output
field, then $INVSCHEME_OUT, then the working directory.  A rerun into the
same directory overwrites each output in place and cuts it to its new
length.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .baselines import ode_rhs_library, rk45_integrate, square, standard_fd_step
from .core import (
    DomainViolation,
    HaltInfo,
    NumericError,
    Point2,
    RealizationId,
    Trajectory,
)
from .exact import (
    conic_distance,
    fit_circle,
    fit_hyperbola,
    slope_at,
)
from .invariants import (
    disc_i1_sl3,
    disc_i1_sl4,
    window_j1,
    window_j2,
)
from .schemes import bootstrap, run_scheme
# The order-3 standardFD baseline is seeded through this name, which
# bench/tracing.py patches to time the reference curve.
from .schemes import _ReferenceCurve as _ode_curve

_RK_RTOL = 1e-8
_RK_ATOL = 1e-10

F_CHOICES: dict[str, Callable[[float], float]] = {
    "square": square,
    "identity": lambda u: u,
    "zero": lambda u: 0.0,
}

_METHODS = ("invariant", "standardFD", "rk45")

_IC_KEYS = ("x0", "y0", "yp0", "ypp0", "C", "a")

_CONFIG_KEYS = {
    "name", "realization", "order", "F", "h", "maxSteps", "xWindow",
    "methods", "output", *_IC_KEYS,
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    name: str
    realization: RealizationId
    order: int
    ics: dict[str, float]
    f_name: str = "square"
    h: float = 0.01
    max_steps: int = 5000
    x_window: tuple[float, float] = (0.0, 0.0)
    methods: tuple[str, ...] = ("invariant", "standardFD")
    output: Optional[str] = None

    @property
    def f(self) -> Callable[[float], float]:
        return F_CHOICES[self.f_name]

    def as_raw(self) -> dict:
        raw = {
            "name": self.name,
            "realization": self.realization.value,
            "order": "Second" if self.order == 2 else "Third",
            "F": self.f_name,
            "h": self.h,
            "maxSteps": self.max_steps,
            "xWindow": list(self.x_window),
            "methods": list(self.methods),
        }
        raw.update(self.ics)
        if self.output is not None:
            raw["output"] = self.output
        return raw


def _as_float(raw: dict, key: str) -> float:
    if isinstance(raw[key], bool):
        raise ConfigError(f"field {key!r} must be a number, got {raw[key]!r}")
    try:
        value = float(raw[key])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"field {key!r} must be a number, got {raw[key]!r}")
    if not math.isfinite(value):
        raise ConfigError(f"field {key!r} must be finite, got {raw[key]!r}")
    return value


def _path_text(value: object) -> bool:
    """True for a string that the file system can take as (part of) a path."""
    if not isinstance(value, str) or "\0" in value:
        return False
    try:
        os.fsencode(value)
    except UnicodeEncodeError:
        return False
    return True


def config_from_raw(raw: dict) -> ExperimentConfig:
    """Validate a flat key-value mapping into an ExperimentConfig.

    Order-2 configs must provide C (the equation is I1 = C) plus a or
    yp0, and a with C >= 0 when they run the invariant method; order-3
    configs must provide yp0 and ypp0.  Numbers must be finite and not
    booleans, h must be large enough to move x0, and x0 must lie inside
    xWindow.  methods must name one or more methods, each once.  name must
    be a plain file name stem and output a path string.  Unknown keys are
    rejected so typos surface.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        real_raw = str(raw["realization"]).lower()
    except KeyError:
        raise ConfigError("config needs a realization (sl3 or sl4)")
    try:
        realization = RealizationId(real_raw)
    except ValueError:
        raise ConfigError(f"unknown realization {raw['realization']!r}")
    order_raw = raw.get("order")
    order_map = {"second": 2, "third": 3, "2": 2, "3": 3, 2: 2, 3: 3}
    key = order_raw.lower() if isinstance(order_raw, str) else order_raw
    if not isinstance(key, (str, int)) or key not in order_map:
        raise ConfigError("order must be 'Second' or 'Third'")
    order = order_map[key]
    for needed in ("x0", "y0"):
        if needed not in raw:
            raise ConfigError(f"config needs {needed}")
    ics = {k: _as_float(raw, k) for k in _IC_KEYS if k in raw}
    if ics["x0"] <= 0.0:
        raise ConfigError("x0 must be positive (the half plane x > 0)")
    if order == 2 and not ("C" in ics and ("a" in ics or "yp0" in ics)):
        raise ConfigError("order-2 config needs C (the equation is I1 = C), plus a or yp0")
    if order == 3 and ("yp0" not in ics or "ypp0" not in ics):
        raise ConfigError("order-3 config needs yp0 and ypp0")
    f_name = raw.get("F", "square")
    if not isinstance(f_name, str) or f_name not in F_CHOICES:
        raise ConfigError(f"unknown F {f_name!r}; choices: {sorted(F_CHOICES)}")
    h = _as_float(raw, "h") if "h" in raw else 0.01
    if not h > 0.0:
        raise ConfigError("h must be positive")
    if ics["x0"] + h == ics["x0"]:
        raise ConfigError(f"h = {h!r} is too small to move x0 = {ics['x0']!r}")
    max_steps = raw.get("maxSteps", 5000)
    if not isinstance(max_steps, int) or isinstance(max_steps, bool) or max_steps < 0:
        raise ConfigError("maxSteps must be a nonnegative integer")
    window_raw = raw.get("xWindow", [ics["x0"] - 5.0, ics["x0"] + 5.0])
    if (
        not isinstance(window_raw, (list, tuple))
        or len(window_raw) != 2
        or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max
            for v in window_raw
        )
        or not window_raw[0] < window_raw[1]
    ):
        raise ConfigError("xWindow must be [xmin, xmax] of finite numbers with xmin < xmax")
    if not window_raw[0] <= ics["x0"] <= window_raw[1]:
        raise ConfigError(f"x0 = {ics['x0']!r} must lie inside xWindow {list(window_raw)!r}")
    default_methods = ["invariant", "standardFD"] + (["rk45"] if order == 3 else [])
    methods_raw = raw.get("methods", default_methods)
    if not isinstance(methods_raw, (list, tuple)):
        raise ConfigError("methods must be a list")
    for m in methods_raw:
        if m not in _METHODS:
            raise ConfigError(f"unknown method {m!r}; choices: {list(_METHODS)}")
    if not methods_raw or len(set(methods_raw)) != len(methods_raw):
        raise ConfigError(
            f"methods must list at least one method, each once, got {methods_raw!r}"
        )
    if order == 2 and "invariant" in methods_raw:
        if "C" not in ics or "a" not in ics:
            raise ConfigError("the order-2 invariant method needs C and a")
        if ics["C"] < 0.0:
            raise ConfigError(
                "the order-2 invariant method needs C >= 0 (J1 is a principal root)"
            )
    name = raw.get("name", "experiment")
    if not _path_text(name) or name in ("", ".", "..") or Path(name).name != name:
        raise ConfigError(f"name must be a plain file name stem, got {name!r}")
    output = raw.get("output")
    if output is not None and not _path_text(output):
        raise ConfigError(f"output must be a directory path string, got {output!r}")
    return ExperimentConfig(
        name=name,
        realization=realization,
        order=order,
        ics=ics,
        f_name=f_name,
        h=h,
        max_steps=max_steps,
        x_window=(float(window_raw[0]), float(window_raw[1])),
        methods=tuple(methods_raw),
        output=output,
    )


def builtin_experiments() -> list[ExperimentConfig]:
    """The four named builtin experiments with their published data."""
    return [
        config_from_raw({
            "name": "fig1", "realization": "sl3", "order": "Second",
            "x0": 1.0, "y0": 8.0, "C": 2.0, "a": 1.0,
            "methods": ["invariant", "standardFD"],
        }),
        config_from_raw({
            "name": "fig2", "realization": "sl3", "order": "Third",
            "x0": 1.0, "y0": 1.0, "yp0": 1.0, "ypp0": 3.0,
            "methods": ["invariant", "standardFD", "rk45"],
        }),
        config_from_raw({
            "name": "fig3", "realization": "sl4", "order": "Second",
            "x0": 2.0, "y0": 5.0, "C": 5.0, "a": 1.0,
            "methods": ["invariant", "standardFD"],
        }),
        config_from_raw({
            "name": "fig4", "realization": "sl4", "order": "Third",
            "x0": 2.0, "y0": 1.0, "yp0": -1.5, "ypp0": -1.5,
            "methods": ["invariant", "standardFD", "rk45"],
        }),
    ]


# -- singularity detection -----------------------------------------------------


@dataclass(frozen=True)
class SingularityFlag:
    x: float
    kind: str  # "blow-up" or "tangent-crossing"


def _singularities(traj: Trajectory) -> Iterator[SingularityFlag]:
    """Every secant blow-up (|dy/dx| > 1e4) and x-reversal, in order."""
    xs, ys = traj.xs, traj.ys
    for j in range(len(xs) - 1):
        dx = xs[j + 1] - xs[j]
        dy = ys[j + 1] - ys[j]
        if j >= 1:
            dx_prev = xs[j] - xs[j - 1]
            if dx_prev * dx < 0.0:
                yield SingularityFlag(xs[j], "tangent-crossing")
                continue
        if abs(dy) > 1e4 * abs(dx):
            yield SingularityFlag(xs[j + 1], "blow-up")


def detect_singularity(traj: Trajectory) -> Optional[SingularityFlag]:
    """First singular event along a trajectory, or None.

    Flags the first x where the secant slope |dy/dx| exceeds 1e4
    (kind "blow-up") or where dx changes sign, i.e. the trajectory crossed
    a vertical tangent (kind "tangent-crossing").
    """
    if len(traj.xs) < 3:
        return None
    return next(_singularities(traj), None)


# -- method drivers ------------------------------------------------------------


def _exact_conic(cfg: ExperimentConfig):
    """Fitted exact conic for order-2 configs with (C, a), else None."""
    if cfg.order != 2 or "C" not in cfg.ics or "a" not in cfg.ics:
        return None
    p0 = Point2(cfg.ics["x0"], cfg.ics["y0"])
    fit = fit_circle if cfg.realization is RealizationId.SL3 else fit_hyperbola
    return fit(p0, cfg.ics["C"], cfg.ics["a"])[0]


def _conic_branch_y(sol, x: float, y0: float) -> float:
    """Ordinate at x on the half of the conic (above or below cy) holding y0."""
    dx = x - sol.cx
    rad = sol.sigma * (sol.r * sol.r) - sol.sigma * dx * dx
    if rad < 0.0:
        raise DomainViolation("abscissa outside the conic's x range", x)
    return sol.cy + (1.0 if y0 >= sol.cy else -1.0) * math.sqrt(rad)


def _initial_slope(cfg: ExperimentConfig) -> float:
    """y'(x0) for baseline integrators on order-2 configs.

    Prefers an explicit yp0.  Otherwise reads the slope off the fitted
    conic on the initial point's y branch; a vertical tangent at x0 is
    sidestepped by a documented 1e-6 nudge along x.
    """
    if "yp0" in cfg.ics:
        return cfg.ics["yp0"]
    sol = _exact_conic(cfg)
    x0, y0 = cfg.ics["x0"], cfg.ics["y0"]
    try:
        return slope_at(sol, Point2(x0, y0))
    except DomainViolation:
        xn = x0 + 1e-6
        return slope_at(sol, Point2(xn, _conic_branch_y(sol, xn, y0)))


# Each driver returns the trajectory and how many of its points are seeds.


def _drive_invariant(cfg: ExperimentConfig) -> tuple[Trajectory, int]:
    state = bootstrap(cfg.realization, cfg.order, cfg.ics, cfg.h, f=cfg.f)
    return run_scheme(state, cfg.max_steps, cfg.x_window), len(state.window)


def _drive_standard_fd(cfg: ExperimentConfig) -> tuple[Trajectory, int]:
    ics = cfg.ics
    x0 = ics["x0"]
    if cfg.order == 2:
        problem = ode_rhs_library(cfg.realization, 2, C=ics["C"])
        if "yp0" in ics:
            ys = [ics["y0"], ics["y0"] + cfg.h * ics["yp0"]]
        else:
            ys = [ics["y0"], _conic_branch_y(_exact_conic(cfg), x0 + cfg.h, ics["y0"])]
    else:
        problem = ode_rhs_library(cfg.realization, 3, F=cfg.f)
        curve = _ode_curve(cfg.realization, ics, cfg.f)
        ys = [curve(x0 + i * cfg.h).y for i in range(3)]
    width = cfg.order
    traj = Trajectory([x0 + i * cfg.h for i in range(len(ys))], ys)
    for _ in range(cfg.max_steps):
        i = len(ys)
        x_next = x0 + i * cfg.h
        x1 = x0 + (i - width + 1) * cfg.h
        guess = 2.0 * ys[-1] - ys[-2]
        t0 = time.perf_counter()
        try:
            y_next = standard_fd_step(problem.residual, ys[-width:], x1, cfg.h, guess)
        except NumericError as exc:
            traj.halt = HaltInfo(exc.kind, x=x_next, detail=exc.detail)
            return traj, width
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            traj.halt = HaltInfo("numericError", x=x_next, detail=str(exc))
            return traj, width
        traj.step_seconds.append(time.perf_counter() - t0)
        traj.xs.append(x_next)
        ys.append(y_next)
        if abs(y_next) > 1e8:
            traj.halt = HaltInfo("singularityDetected", x=x_next, detail="|y| > 1e8")
            return traj, width
        if not (cfg.x_window[0] <= x_next <= cfg.x_window[1]):
            traj.halt = HaltInfo(
                "xRangeExit", x=x_next,
                detail=f"left [{cfg.x_window[0]}, {cfg.x_window[1]}]",
            )
            return traj, width
    traj.halt = HaltInfo("maxSteps", x=traj.xs[-1], detail=f"{cfg.max_steps} steps")
    return traj, width


_RK_STATUS = {"ok": "completed", "singularity": "singularityDetected"}


def _drive_rk45(cfg: ExperimentConfig) -> tuple[Trajectory, int]:
    ics = cfg.ics
    if cfg.order == 2:
        problem = ode_rhs_library(cfg.realization, 2, C=ics["C"])
        state0 = [ics["y0"], _initial_slope(cfg)]
    else:
        problem = ode_rhs_library(cfg.realization, 3, F=cfg.f)
        state0 = [ics["y0"], ics["yp0"], ics["ypp0"]]
    t0 = time.perf_counter()
    result = rk45_integrate(
        problem.rhs, ics["x0"], state0, cfg.x_window[1],
        rtol=_RK_RTOL, atol=_RK_ATOL,
    )
    elapsed = time.perf_counter() - t0
    halt = HaltInfo(
        _RK_STATUS.get(result.status, result.status),
        x=result.halt_x,
        detail=result.detail,
    )
    # The integrator is timed as a whole, so every step gets the mean.
    steps = max(1, len(result.xs) - 1)
    ys = [st[0] for st in result.states]
    return Trajectory(result.xs, ys, halt=halt, step_seconds=[elapsed / steps] * steps), 1


_DRIVERS = {
    "invariant": _drive_invariant,
    "standardFD": _drive_standard_fd,
    "rk45": _drive_rk45,
}


# -- reports -------------------------------------------------------------------


def _csv_lines(method: str, traj: Trajectory, seed: int) -> Iterator[str]:
    """One method's CSV in the module docstring's format, one %-format per line."""
    rows = enumerate(zip(traj.xs, traj.ys))
    if method != "invariant":
        yield "index,x,y\r\n"
        for i, (x, y) in rows:
            yield "%d,%.17g,%.17g\r\n" % (i, x, y)
        return
    yield "index,x,y,J1,J2,meshResidual\r\n"
    diags = traj.diagnostics
    stepped = range(seed, seed + len(diags))
    for i, (x, y) in rows:
        if i not in stepped:
            yield "%d,%.17g,%.17g,,,\r\n" % (i, x, y)
            continue
        d = diags[i - seed]
        if d.j2 is None:
            yield "%d,%.17g,%.17g,%.17g,,%.17g\r\n" % (i, x, y, d.j1, d.mesh_residual)
        else:
            yield "%d,%.17g,%.17g,%.17g,%.17g,%.17g\r\n" % (
                i, x, y, d.j1, d.j2, d.mesh_residual
            )


def read_trajectory_csv(path: str | Path) -> list[dict[str, float]]:
    """Parse a written trajectory CSV back into per-row value dicts."""
    with open(path, newline="") as fh:
        return [
            {k: float(v) for k, v in rec.items() if v not in ("", None)}
            for rec in csv.DictReader(fh)
        ]


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word.title() for word in rest)


# Halt reasons that are ordinary run outcomes rather than numeric failures.
_OK_HALTS = ("maxSteps", "completed", "xRangeExit")


@dataclass
class MethodReport:
    method: str
    file: Optional[str] = None
    halt_reason: Optional[str] = None
    halt_x: Optional[float] = None
    halt_detail: str = ""
    points: int = 0
    new_points: int = 0
    x_max: Optional[float] = None
    x_end: Optional[float] = None
    max_conic_distance: Optional[float] = None
    mesh_drift: Optional[float] = None
    scheme_drift: Optional[float] = None
    wall_seconds_per_step: Optional[float] = None
    singularity: Optional[SingularityFlag] = None
    error: Optional[str] = None

    def as_dict(self) -> dict:
        """Every field but method, under its name in camelCase."""
        raw = asdict(self)
        del raw["method"]
        return {_camel(name): value for name, value in raw.items()}

    @property
    def failed(self) -> bool:
        """True when the method produced no usable progress.

        A structured error always counts; so does a numeric halt
        (divergence, lost intersection, blow-up, ...) before any new
        point.  An empty run that merely exhausted a zero step budget or
        left the window is not a failure.
        """
        if self.error is not None:
            return True
        return self.new_points == 0 and self.halt_reason not in _OK_HALTS


@dataclass
class RunReport:
    config: ExperimentConfig
    out_dir: Path
    entries: dict[str, MethodReport] = field(default_factory=dict)

    @property
    def all_failed(self) -> bool:
        return bool(self.entries) and all(e.failed for e in self.entries.values())

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_raw(),
            "methods": {m: r.as_dict() for m, r in self.entries.items()},
        }


def _resolve_out_dir(cfg: ExperimentConfig, override: Optional[str] = None) -> Path:
    for cand in (override, cfg.output, os.environ.get("INVSCHEME_OUT")):
        if cand:
            return Path(cand)
    return Path(".")


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> RunReport:
    """Run every requested method, write CSVs and the report JSON.

    One entry per method; a method that fails with a structured numeric
    error gets it as data in its entry instead of aborting the others.
    """
    directory = _resolve_out_dir(cfg, out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    report = RunReport(cfg, directory)
    try:
        conic = _exact_conic(cfg)
    except NumericError:
        conic = None
    for method in cfg.methods:
        entry = MethodReport(method)
        report.entries[method] = entry
        try:
            traj, seed = _DRIVERS[method](cfg)
        except NumericError as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
            continue
        entry.points = len(traj.xs)
        entry.new_points = max(0, len(traj.xs) - seed)
        if traj.halt is not None:
            entry.halt_reason = traj.halt.reason
            entry.halt_x = traj.halt.x
            entry.halt_detail = traj.halt.detail
        if traj.xs:
            entry.x_max = max(traj.xs)
            entry.x_end = traj.xs[-1]
        if conic is not None and traj.xs:
            entry.max_conic_distance = max(
                conic_distance(conic, x, y) for x, y in zip(traj.xs, traj.ys)
            )
        if method == "invariant" and traj.diagnostics:
            entry.mesh_drift = max(d.mesh_residual for d in traj.diagnostics)
            entry.scheme_drift = max(d.scheme_residual for d in traj.diagnostics)
        if traj.step_seconds:
            entry.wall_seconds_per_step = sum(traj.step_seconds) / len(traj.step_seconds)
        entry.singularity = detect_singularity(traj)
        filename = f"{cfg.name}_{method}.csv"
        _write_lines(directory / filename, _csv_lines(method, traj, seed))
        entry.file = filename
    report_text = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    _write_lines(directory / f"{cfg.name}_report.json", (report_text,))
    return report


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write nonempty lines to path as they are, overwriting the file in place.

    Lines reach the file object joined in chunks of at most 1024 lines,
    one write per chunk.  The file is opened without O_TRUNC and cut to
    its new length after the last line.  On ext4, closing a file that was
    truncated to zero length forces its data to disk (the auto_da_alloc
    heuristic for replace-by-truncate), which costs a flush per rewritten
    output; a truncate to a nonzero length does not.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    it = iter(lines)
    with open(fd, "w", newline="") as fh:
        while chunk := "".join(islice(it, 1024)):
            fh.write(chunk)
        fh.truncate()


# -- step-cost benchmark -------------------------------------------------------


def benchmark_step_cost(cfg: ExperimentConfig) -> dict:
    """Median wall seconds per accepted step, per requested method.

    Runs each method's driver once, as run_experiment does, and takes the
    median of the per-step times it records: the invariant scheme and
    standardFD time every accepted step, up to the config's step budget or
    the halt.  The adaptive integrator is timed as a whole, so its figure
    is the mean over its accepted steps.  The soft expectation that the
    invariant scheme costs no more per step than standardFD is returned as
    a flag, never asserted.
    """
    per_step: dict[str, float] = {}
    steps_measured: dict[str, int] = {}
    for method in cfg.methods:
        try:
            times = _DRIVERS[method](cfg)[0].step_seconds
        except NumericError:
            times = []
        if times:
            per_step[method] = statistics.median(times)
            steps_measured[method] = len(times)
    soft = None
    if "invariant" in per_step and "standardFD" in per_step:
        soft = per_step["invariant"] <= per_step["standardFD"]
    return {
        "secondsPerStep": per_step,
        "stepsMeasured": steps_measured,
        "softInvariantFasterOrEqual": soft,
    }


# -- command line --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invscheme",
        description="Invariant difference schemes: experiments and reports.",
    )
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run a builtin or JSON-file experiment")
    run_p.add_argument("experiment", help="builtin name (fig1..fig4) or config path")
    run_p.add_argument("--h", type=float, default=None, help="mesh spacing override")
    run_p.add_argument("--max-steps", type=int, default=None)
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--methods", default=None, help="comma-separated method list")
    sub.add_parser("list", help="list builtin experiments")
    val_p = sub.add_parser("validate", help="validate a builtin or JSON-file experiment")
    val_p.add_argument("config", help="builtin name (fig1..fig4) or config path")
    inv_p = sub.add_parser("invariants", help="evaluate invariants on given points")
    inv_p.add_argument("--realization", required=True, choices=["sl3", "sl4"])
    inv_p.add_argument(
        "--points", required=True,
        help="semicolon-separated x,y pairs, e.g. '1,8;1.2,8.3;1.5,8.5'",
    )
    return parser


def _load_config(spec: str) -> ExperimentConfig:
    for cfg in builtin_experiments():
        if cfg.name == spec:
            return cfg
    try:
        text = Path(spec).read_text()
    except FileNotFoundError:
        raise ConfigError(
            f"no builtin experiment or config file named {spec!r} (no such file)"
        )
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {spec!r}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {spec}: {exc}")
    return config_from_raw(raw)


def _cmd_run(args) -> int:
    cfg = _load_config(args.experiment)
    raw = cfg.as_raw()
    if args.h is not None:
        raw["h"] = args.h
    if args.max_steps is not None:
        raw["maxSteps"] = args.max_steps
    if args.methods is not None:
        raw["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    cfg = config_from_raw(raw)
    try:
        report = run_experiment(cfg, out_dir=args.out)
    except OSError as exc:
        print(f"cannot write the outputs: {exc}", file=sys.stderr)
        return 1
    print(f"report: {report.out_dir / (cfg.name + '_report.json')}")
    for method, entry in report.entries.items():
        if entry.error:
            print(f"  {method}: error {entry.error}")
        else:
            print(
                f"  {method}: {entry.points} points, halt {entry.halt_reason} "
                f"at x={entry.halt_x}"
            )
    return 2 if report.all_failed else 0


def _cmd_invariants(args) -> int:
    realization = RealizationId(args.realization)
    pts = []
    try:
        for chunk in args.points.split(";"):
            xs, ys = chunk.split(",")
            pts.append(Point2(float(xs), float(ys)))
    except ValueError:
        print("points must look like 'x1,y1;x2,y2;...'", file=sys.stderr)
        return 1
    if len(pts) < 2:
        print("need at least two points", file=sys.stderr)
        return 1
    disc = disc_i1_sl3 if realization is RealizationId.SL3 else disc_i1_sl4
    try:
        for i in range(len(pts) - 1):
            print(f"disc_I1[{i},{i+1}] = {disc(pts[i], pts[i+1]):.17g}")
        for i in range(len(pts) - 2):
            j1 = window_j1(realization, pts[i], pts[i + 1], pts[i + 2])
            print(f"J1[{i}..{i+2}] = {j1:.17g}")
        for i in range(len(pts) - 3):
            j2 = window_j2(realization, pts[i], pts[i + 1], pts[i + 2], pts[i + 3])
            print(f"J2[{i}..{i+3}] = {j2:.17g}")
    except NumericError as exc:
        print(f"invariant evaluation failed: {exc}", file=sys.stderr)
        return 2
    return 0


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "list":
            for cfg in builtin_experiments():
                print(cfg.name)
            return 0
        if args.command == "validate":
            cfg = _load_config(args.config)
            print(f"ok: {cfg.name} ({cfg.realization.value}, order {cfg.order})")
            return 0
        if args.command == "invariants":
            return _cmd_invariants(args)
        return _cmd_run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
