"""End-to-end harness behavior: configs, drivers, reports, CSVs, CLI."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invscheme import harness
from invscheme.core import Point2, RealizationId, StepDiagnostics, Trajectory
from invscheme.exact import fit_hyperbola
from invscheme.harness import (
    _CONFIG_KEYS,
    _DRIVERS,
    ConfigError,
    ExperimentConfig,
    MethodReport,
    SingularityFlag,
    _csv_lines,
    builtin_experiments,
    cli_main,
    config_from_raw,
    detect_singularity,
    read_trajectory_csv,
    run_experiment,
)
from invscheme.invariants import disc_i1_sl3, disc_i1_sl4
from invscheme.schemes import bootstrap, run_scheme

from helpers import all_singularities, builtin, csv_oracle_bytes


# -- configuration -------------------------------------------------------------


def test_builtins_roundtrip_through_raw_form():
    cfgs = builtin_experiments()
    assert [c.name for c in cfgs] == ["fig1", "fig2", "fig3", "fig4"]
    for cfg in cfgs:
        again = config_from_raw(cfg.as_raw())
        assert again == cfg


def test_experiment_config_has_no_field_defaults():
    """Every field is given: config_from_raw, the only constructor, passes
    them all, and defaults of the record's own would disagree with it (an
    x-window of (0, 0) ends a run after one step; the method list would
    miss rk45 at order 3)."""
    ics = {"x0": 1.0, "y0": 8.0, "C": 2.0, "a": 1.0}
    with pytest.raises(TypeError):
        ExperimentConfig("t", RealizationId.SL3, 2, ics)
    for f in dataclasses.fields(ExperimentConfig):
        assert f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING


def test_config_rejects_unknown_fields():
    for key, value in (("splines", True), ("seed", 7)):
        raw = builtin("fig1").as_raw()
        raw[key] = value
        with pytest.raises(ConfigError, match="unknown config fields"):
            config_from_raw(raw)


def test_order3_config_requires_second_derivative():
    raw = builtin("fig2").as_raw()
    del raw["ypp0"]
    with pytest.raises(ConfigError, match="ypp0"):
        config_from_raw(raw)


def test_config_requires_positive_x0():
    raw = builtin("fig1").as_raw()
    for bad in (0.0, -1.0):
        raw["x0"] = bad
        with pytest.raises(ConfigError, match="x0 must be positive"):
            config_from_raw(raw)


def test_config_rejects_unknown_method_and_f():
    raw = builtin("fig1").as_raw()
    raw["methods"] = ["simpson"]
    with pytest.raises(ConfigError, match="unknown method"):
        config_from_raw(raw)
    raw = builtin("fig2").as_raw()
    raw["F"] = "cubic"
    with pytest.raises(ConfigError, match="unknown F"):
        config_from_raw(raw)


def test_config_rejects_descending_window():
    raw = builtin("fig1").as_raw()
    raw["xWindow"] = [4.0, 1.0]
    with pytest.raises(ConfigError, match="xWindow"):
        config_from_raw(raw)


# -- singularity detection -----------------------------------------------------


def test_straight_line_has_no_singularity():
    xs = [0.1 + 0.01 * i for i in range(100)]
    ys = [1.0 + 0.02 * i for i in range(100)]
    assert detect_singularity(Trajectory(xs, ys)) is None


def test_short_trajectories_are_never_flagged():
    assert detect_singularity(Trajectory([1.0, 1.0], [1.0, 9.0])) is None


def test_circle_run_flags_both_vertical_tangents():
    cfg = builtin("fig1")
    state = bootstrap(cfg.realization, cfg.order, cfg.ics, cfg.h, f=cfg.f)
    traj = run_scheme(state, 1200, cfg.x_window)
    flags = all_singularities(traj)
    crossings = [f for f in flags if f.kind == "tangent-crossing"]
    assert any(abs(f.x - 1.0) < 0.05 for f in crossings)
    assert any(abs(f.x - 3.0) < 0.05 for f in crossings)
    assert detect_singularity(traj) == flags[0]


def test_rk45_derivative_blowup_is_flagged_near_halt(tmp_path):
    raw = builtin("fig2").as_raw()
    raw["methods"] = ["rk45"]
    report = run_experiment(config_from_raw(raw), out_dir=str(tmp_path))
    entry = report.entries["rk45"]
    assert entry.error is None
    assert entry.halt_reason in ("stepUnderflow", "singularityDetected")
    assert 1.23 <= entry.halt_x <= 1.33
    flag = entry.singularity
    assert flag is not None and flag.kind == "blow-up"
    assert abs(flag.x - entry.halt_x) < 0.01


# -- running experiments -------------------------------------------------------


def test_invariant_csv_is_deterministic_and_reparses(tmp_path):
    raw = builtin("fig2").as_raw()
    raw["maxSteps"] = 80
    cfg = config_from_raw(raw)
    run_experiment(cfg, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    blob_a = (tmp_path / "a" / "fig2_invariant.csv").read_bytes()
    blob_b = (tmp_path / "b" / "fig2_invariant.csv").read_bytes()
    assert blob_a == blob_b

    rows = read_trajectory_csv(tmp_path / "a" / "fig2_invariant.csv")
    assert len(rows) == 83
    for row in rows[:3]:
        assert "J1" not in row and "meshResidual" not in row
    for row in rows[3:]:
        assert {"J1", "J2", "meshResidual"} <= set(row)
        assert row["meshResidual"] < 1e-12
    discs = [
        disc_i1_sl3(Point2(a["x"], a["y"]), Point2(b["x"], b["y"]))
        for a, b in zip(rows, rows[1:])
    ]
    assert max(abs(d - discs[0]) for d in discs) < 1e-10


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_csv_bytes_match_the_csv_module(tmp_path, name):
    """Every method's CSV holds the bytes csv.writer writes for its
    trajectory, field by field, at h = 0.01."""
    raw = builtin(name).as_raw()
    raw["methods"] = ["invariant", "standardFD", "rk45"]
    cfg = config_from_raw(raw)
    run_experiment(cfg, out_dir=str(tmp_path))
    for method in cfg.methods:
        traj, seed = _DRIVERS[method](cfg)
        written = (tmp_path / f"{name}_{method}.csv").read_bytes()
        assert written == csv_oracle_bytes(method, traj, seed)


def test_order2_baselines_start_from_the_same_slope():
    """A config that sets both a and yp0 gives both order-2 baselines the
    initial slope yp0: standardFD's second value is y0 + h*yp0, not the
    fitted conic's, and rk45's first chord leaves along the same slope."""
    raw = builtin("fig1").as_raw()
    raw.update(x0=1.5, y0=8.0, C=2.0, a=1.0, yp0=3.0, h=0.01, maxSteps=5)
    cfg = config_from_raw(raw)
    fd, _ = _DRIVERS["standardFD"](cfg)
    rk, _ = _DRIVERS["rk45"](cfg)
    assert fd.points[1].y == 8.0 + 0.01 * 3.0
    slopes = [(t.points[1].y - t.points[0].y) / (t.points[1].x - t.points[0].x) for t in (fd, rk)]
    assert abs(slopes[0] - slopes[1]) < 0.2


def test_csv_lines_match_the_csv_module_on_special_values():
    """Seed rows, order-2 and order-3 diagnostics, a point past the
    diagnostics, an empty trajectory, and -0.0, subnormals, inf and nan
    format as csv.writer formats them."""
    odd = [-0.0, 5e-324, math.inf, -math.inf, math.nan, 1.0 / 3.0, 1e300, 2.0]
    diags = [
        StepDiagnostics(j1=1e-310, mesh_residual=-0.0, scheme_residual=0.0, iterations=1),
        StepDiagnostics(j1=math.nan, mesh_residual=math.inf, scheme_residual=0.0,
                        iterations=2, j2=-0.0),
        StepDiagnostics(j1=0.1, mesh_residual=3e-17, scheme_residual=0.0,
                        iterations=0, j2=-math.inf),
    ]
    traj = Trajectory(odd, odd[::-1], diagnostics=diags)
    empty = Trajectory()
    for t, method, seed in (
        (traj, "invariant", 3), (traj, "invariant", 0), (traj, "rk45", 1),
        (traj, "standardFD", 2), (empty, "invariant", 3),
    ):
        text = "".join(_csv_lines(method, t, seed))
        assert text.encode() == csv_oracle_bytes(method, t, seed)


def test_report_holds_every_field_but_method_under_its_camel_case_key():
    entry = MethodReport(
        "rk45", file="f.csv", halt_reason="completed", halt_x=2.0, halt_detail="d",
        points=5, new_points=4, x_max=2.5, x_end=2.0, max_conic_distance=1e-9,
        mesh_drift=1e-12, scheme_drift=2e-12, wall_seconds_per_step=3e-6,
        singularity=SingularityFlag(1.5, "blow-up"), error="e",
    )
    raw = entry.as_dict()
    assert sorted(raw) == sorted([
        "file", "haltReason", "haltX", "haltDetail", "points", "newPoints", "xMax",
        "xEnd", "maxConicDistance", "meshDrift", "schemeDrift", "wallSecondsPerStep",
        "singularity", "error",
    ])
    for f in dataclasses.fields(MethodReport):
        if f.name != "method":
            key = re.sub(r"_([a-z])", lambda m: m.group(1).upper(), f.name)
            value = getattr(entry, f.name)
            assert raw[key] == (dataclasses.asdict(value) if f.name == "singularity" else value)
    assert raw["singularity"] == {"x": 1.5, "kind": "blow-up"}


@pytest.mark.parametrize("name", ["fig2", "fig4"])
def test_rk45_driver_builds_no_point2(monkeypatch, name):
    built = []

    class CountingPoint2(Point2):
        def __init__(self, x, y):
            built.append((x, y))
            super().__init__(x, y)

    monkeypatch.setattr(harness, "Point2", CountingPoint2)
    harness._exact_conic(builtin("fig1"))
    assert len(built) == 1  # the patch sees the harness's Point2s
    traj, _ = _DRIVERS["rk45"](builtin(name))
    assert len(traj) > 10 and len(built) == 1


def test_failing_methods_become_report_entries(tmp_path):
    raw = {
        "name": "doomed", "realization": "sl3", "order": "Second",
        "x0": 1.0, "y0": 8.0, "C": 2.0, "a": 0.0,
        "methods": ["invariant", "standardFD"],
    }
    report = run_experiment(config_from_raw(raw), out_dir=str(tmp_path))
    assert report.all_failed
    for entry in report.entries.values():
        assert entry.error is not None and "DomainViolation" in entry.error
    payload = json.loads((tmp_path / "doomed_report.json").read_text())
    assert set(payload["methods"]) == {"invariant", "standardFD"}
    assert all(m["error"] for m in payload["methods"].values())


def test_standard_fd_halts_where_its_residual_leaves_the_domain(tmp_path):
    """An sl4 start with y' = 5 steps the difference slope below 1 at once:
    standardFD halts on its seed points with the invariant's domain error."""
    raw = {
        "name": "steep", "realization": "sl4", "order": "Second",
        "x0": 2.0, "y0": 5.0, "C": 5.0, "yp0": 5.0, "h": 0.01,
        "methods": ["standardFD"],
    }
    entry = run_experiment(config_from_raw(raw), out_dir=str(tmp_path)).entries["standardFD"]
    assert (entry.error, entry.halt_reason, entry.new_points) == (None, "newtonDivergence", 0)
    assert entry.halt_detail == (
        "residual left its domain: sl4 first invariant needs |y'| > 1"
    )


def test_start_at_the_rightmost_point_of_a_circle(tmp_path, capsys):
    """fig1's circle entered at its rightmost point (3, 8): x0 + h lies
    beyond the circle, so both baselines record the fit's domain error
    and the invariant method, which walks the circle, still runs."""
    cfg_path = tmp_path / "edge.json"
    cfg_path.write_text(json.dumps({
        **_FIG1_RAW, "name": "edge", "x0": 3.0, "maxSteps": 50,
        "methods": ["invariant", "standardFD", "rk45"],
    }))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "invariant: 52 points, halt maxSteps" in out
    for method in ("standardFD", "rk45"):
        assert f"{method}: error DomainViolation: abscissa outside the conic's x range" in out


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_rerun_rewrites_every_output_in_place(tmp_path, name):
    """A rerun into the same directory with a smaller step budget leaves
    each CSV byte-identical to the smaller run's in a fresh directory:
    the longer run's tail is cut off."""
    raw = builtin(name).as_raw()
    raw["methods"] = ["invariant", "standardFD", "rk45"]
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    run_experiment(config_from_raw(dict(raw, maxSteps=60)), str(again))
    longer = (again / f"{name}_invariant.csv").read_bytes()
    short = config_from_raw(dict(raw, maxSteps=20))
    run_experiment(short, str(again))
    run_experiment(short, str(fresh))
    assert len((fresh / f"{name}_invariant.csv").read_bytes()) < len(longer)
    for method in raw["methods"]:
        csv_name = f"{name}_{method}.csv"
        assert (again / csv_name).read_bytes() == (fresh / csv_name).read_bytes(), method


def test_run_cuts_a_longer_file_to_the_new_report(tmp_path):
    report_path = tmp_path / "fig1_report.json"
    report_path.write_bytes(b"junk " * 100_000)
    raw = dict(builtin("fig1").as_raw(), maxSteps=5)
    report = run_experiment(config_from_raw(raw), str(tmp_path))
    want = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    assert report_path.read_bytes() == want.encode()


@pytest.mark.parametrize("realization", ["sl3", "sl4"])
def test_overflowing_fit_is_recorded_by_every_method(tmp_path, capsys, realization):
    """C = 0 and a = 1e-300 give a conic of radius 1e300, whose r * r
    overflows; every method records that instead of a later symptom, and
    the command exits 2 with nothing on standard error."""
    raw = {
        "name": "huge", "realization": realization, "order": "Second",
        "x0": 1.0, "y0": 8.0, "C": 0.0, "a": 1e-300,
        "methods": ["invariant", "standardFD", "rk45"],
    }
    report = run_experiment(config_from_raw(raw), str(tmp_path))
    noun = "circle" if realization == "sl3" else "hyperbola"
    for entry in report.entries.values():
        assert entry.error == f"DomainViolation: {noun} with I1 = 0.0, scale 1e-300 overflows"
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "cli")]) == 2
    assert capsys.readouterr().err == ""


def test_empty_method_list_yields_empty_report(tmp_path):
    """config_from_raw rejects an empty method list, but a config built in
    code may still carry one; run_experiment then writes an empty report."""
    cfg = dataclasses.replace(builtin("fig1"), methods=())
    report = run_experiment(cfg, out_dir=str(tmp_path))
    assert report.entries == {}
    assert not report.all_failed
    payload = json.loads((tmp_path / "fig1_report.json").read_text())
    assert payload["methods"] == {}


def test_report_entries_carry_the_expected_fields(tmp_path):
    raw = builtin("fig1").as_raw()
    raw["maxSteps"] = 40
    report = run_experiment(config_from_raw(raw), out_dir=str(tmp_path))
    payload = json.loads((tmp_path / "fig1_report.json").read_text())
    entry = payload["methods"]["invariant"]
    assert {
        "file", "haltReason", "haltX", "points", "xMax", "xEnd",
        "maxConicDistance", "meshDrift", "schemeDrift",
        "wallSecondsPerStep", "singularity", "error",
    } <= set(entry)
    assert entry["error"] is None
    assert entry["file"] == "fig1_invariant.csv"
    assert entry["maxConicDistance"] < 1e-3
    assert (tmp_path / "fig1_invariant.csv").exists()
    assert (tmp_path / "fig1_standardFD.csv").exists()


def test_step_cost_is_null_exactly_when_a_method_takes_no_step(tmp_path):
    """rk45 takes no step from x0 at the window's right end, while the
    stepping methods keep the one point that leaves it."""
    raw = {
        "name": "edge", "realization": "sl3", "order": "Second",
        "x0": 1.0, "y0": 8.0, "C": 2.0, "a": 1.0, "xWindow": [0.0, 1.0],
        "maxSteps": 5, "methods": ["invariant", "standardFD", "rk45"],
    }
    run_experiment(config_from_raw(raw), str(tmp_path))
    methods = json.loads((tmp_path / "edge_report.json").read_text())["methods"]
    assert methods["rk45"]["newPoints"] == 0
    for entry in methods.values():
        cost = entry["wallSecondsPerStep"]
        if entry["newPoints"] == 0:
            assert cost is None
        else:
            assert cost > 0.0 and math.isfinite(cost)


@pytest.mark.parametrize("max_steps", [20, 200])
@pytest.mark.parametrize("name", ["fig1", "fig3"])
def test_standard_fd_driver_reads_the_clock_twice(name, max_steps, monkeypatch):
    """fig1 halts on its second solve; fig3 takes 20 of 20 steps and 198
    of 200, so both exits and a long loop are timed by the same two reads."""
    calls = []
    clock = time.perf_counter
    monkeypatch.setattr(time, "perf_counter", lambda: calls.append(1) or clock())
    cfg = dataclasses.replace(builtin(name), max_steps=max_steps)
    traj, _ = _DRIVERS["standardFD"](cfg)
    monkeypatch.undo()
    assert len(calls) == 2 and traj.seconds > 0.0


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_run_experiment_writes_nothing_to_the_console(name, tmp_path, capsys):
    """The library path prints nothing, so a caller that reports on its
    own standard output (as the benchmark does, on its last line) owns it."""
    raw = builtin(name).as_raw()
    raw.update(maxSteps=20, methods=["invariant", "standardFD", "rk45"])
    report = run_experiment(config_from_raw(raw), str(tmp_path))
    assert set(report.entries) == {"invariant", "standardFD", "rk45"}
    assert capsys.readouterr() == ("", "")


# -- command line ---------------------------------------------------------------


def test_cli_list_names_the_builtins(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["fig1", "fig2", "fig3", "fig4"]


def test_cli_run_writes_csv_and_report(tmp_path, capsys):
    code = cli_main(["run", "fig1", "--out", str(tmp_path), "--max-steps", "50"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("report: ")
    assert (tmp_path / "fig1_invariant.csv").exists()
    assert (tmp_path / "fig1_standardFD.csv").exists()
    payload = json.loads((tmp_path / "fig1_report.json").read_text())
    assert payload["config"]["maxSteps"] == 50


def test_cli_run_overrides_land_in_the_report(tmp_path, capsys):
    code = cli_main([
        "run", "fig2", "--out", str(tmp_path),
        "--methods", "rk45", "--h", "0.02", "--max-steps", "10",
    ])
    assert code == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "fig2_report.json").read_text())
    assert payload["config"]["methods"] == ["rk45"]
    assert payload["config"]["h"] == 0.02
    assert payload["config"]["maxSteps"] == 10
    assert set(payload["methods"]) == {"rk45"}


def test_cli_run_honors_output_env_var(tmp_path, capsys, monkeypatch):
    """With no --out and no output field, $INVSCHEME_OUT names the output
    directory, and without it the run writes into the working directory."""
    monkeypatch.setenv("INVSCHEME_OUT", str(tmp_path))
    assert cli_main(["run", "fig1", "--max-steps", "5"]) == 0
    capsys.readouterr()
    assert (tmp_path / "fig1_report.json").exists()
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.delenv("INVSCHEME_OUT")
    assert cli_main(["run", "fig1", "--max-steps", "5"]) == 0
    assert capsys.readouterr().out.startswith("report: fig1_report.json")
    assert (cwd / "fig1_report.json").exists()


def test_cli_run_zero_step_budget_is_not_a_failure(tmp_path, capsys):
    """A budget of 0 steps writes the window and halts every stepping
    method on maxSteps, with the same detail."""
    code = cli_main(["run", "fig1", "--out", str(tmp_path), "--max-steps", "0"])
    assert code == 0
    capsys.readouterr()
    methods = json.loads((tmp_path / "fig1_report.json").read_text())["methods"]
    for name in ("invariant", "standardFD"):
        entry = methods[name]
        assert (entry["haltReason"], entry["haltDetail"], entry["newPoints"]) == (
            "maxSteps", "0 steps", 0
        ), name


def test_cli_run_reports_an_unwritable_output_directory(tmp_path, capsys):
    """--out below a regular file cannot be created: exit 1, one line on
    stderr and no traceback."""
    (tmp_path / "file").write_text("x")
    out = str(tmp_path / "file" / "out")
    assert cli_main(["run", "fig1", "--max-steps", "5", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write the outputs:") and "Traceback" not in err


def test_cli_run_unknown_experiment(capsys):
    assert cli_main(["run", "nope"]) == 1
    err = capsys.readouterr().err
    assert "no builtin experiment or config file" in err


# Order-2 sl4 configs whose first chord has pair invariant 0.0, so the mesh
# constant K of the invariant scheme is zero.
_K0_CONFIGS = [
    {"name": "k0", "realization": "sl4", "order": "Second", "x0": 469043.97415782267,
     "y0": 1.0, "h": 1.0, "C": 0.0, "a": 3.0, "methods": ["invariant"]},
    {"name": "k0", "realization": "sl4", "order": "Second", "x0": 5.0, "y0": 5.0,
     "h": 2.949237720334326e-05, "C": 3.0, "a": 1e300, "methods": ["invariant"]},
]

# An sl4 polish whose gradient denominator (den * den) underflows to zero.
_TINY_SL4 = {
    "name": "tiny", "realization": "sl4", "order": "Second", "x0": 2e-82, "y0": 5e-82,
    "C": 5.0, "a": 1e82, "h": 1e-84, "maxSteps": 50, "methods": ["invariant"],
}


def test_cli_run_exits_2_when_every_method_fails(tmp_path, capsys):
    doomed = {
        "name": "doomed", "realization": "sl3", "order": "Second",
        "x0": 1.0, "y0": 8.0, "C": 2.0, "a": 0.0,
        "methods": ["invariant", "standardFD"],
    }
    # fig3's data with a chord far longer than the hyperbola can hold.
    huge_h = {**builtin("fig3").as_raw(), "name": "hugeh", "h": 1e25, "methods": ["invariant"]}
    for i, raw in enumerate([doomed] + _K0_CONFIGS + [_TINY_SL4, huge_h]):
        cfg_path = tmp_path / f"doomed{i}.json"
        cfg_path.write_text(json.dumps({**raw, "output": str(tmp_path)}))
        assert cli_main(["run", str(cfg_path)]) == 2, raw
        captured = capsys.readouterr()
        assert captured.err == "", raw
    # The last config's console summary names its halt.
    assert "invariant: error DomainViolation: chord step does not fit on the branch" in captured.out


def test_cli_validate_accepts_good_config(tmp_path, capsys):
    cfg_path = tmp_path / "good.json"
    cfg_path.write_text(json.dumps({
        "name": "good", "realization": "sl3", "order": "Second",
        "x0": 1.0, "y0": 8.0, "C": 2.0, "a": 1.0,
    }))
    assert cli_main(["validate", str(cfg_path)]) == 0
    assert capsys.readouterr().out.strip() == "ok: good (sl3, order 2)"
    assert cli_main(["validate", "fig4"]) == 0
    assert capsys.readouterr().out.strip() == "ok: fig4 (sl4, order 3)"


def test_cli_validate_rejects_incomplete_order3(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "name": "bad", "realization": "sl3", "order": "Third",
        "x0": 1.0, "y0": 1.0, "yp0": 1.0,
    }))
    assert cli_main(["validate", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "ypp0" in err


_FIG1_RAW = {
    "name": "bad", "realization": "sl3", "order": "Second",
    "x0": 1.0, "y0": 8.0, "C": 2.0, "a": 1.0,
}


@pytest.mark.parametrize(
    "change",
    [
        {"h": "abc"},
        {"C": -1},
        {"h": 1e-300},
        {"y0": math.inf},
        {"x0": math.nan},
        {"a": None, "yp0": 0.5},
        {"C": None, "a": None, "yp0": 0.5},
        {"xWindow": [0.0, math.inf]},
        {"xWindow": [0, 10**400]},
        {"h": True},
        {"x0": True},
        {"xWindow": [False, True]},
        {"methods": []},
        {"methods": ["rk45", "rk45"]},
        {"x0": 2.5, "xWindow": [0.0, 1.5], "methods": ["invariant", "standardFD", "rk45"]},
        {"realization": None},
        {"y0": None},
        {"maxSteps": -1},
        {"methods": "invariant"},
    ],
    ids=[
        "h-text", "C-negative", "h-tiny", "y0-infinite", "x0-nan", "invariant-without-a",
        "order2-without-C", "xWindow-infinite", "xWindow-huge-int",
        "h-bool", "x0-bool", "xWindow-bool", "methods-empty", "methods-repeated",
        "x0-outside-xWindow", "no-realization", "no-y0", "maxSteps-negative",
        "methods-string",
    ],
)
def test_cli_run_reports_bad_values_as_config_errors(tmp_path, capsys, change):
    raw = {k: v for k, v in {**_FIG1_RAW, **change}.items() if v is not None}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert next(iter(change)) in err
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_an_empty_methods_flag(tmp_path, capsys):
    assert cli_main(["run", "fig1", "--methods", "", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "methods" in err
    assert not (tmp_path / "out").exists()


def test_cli_validate_missing_file_and_bad_json(tmp_path, capsys):
    assert cli_main(["validate", str(tmp_path / "absent.json")]) == 1
    err = capsys.readouterr().err
    assert "no such file" in err and "no builtin experiment or config file" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli_main(["validate", str(broken)]) == 1
    assert "invalid JSON" in capsys.readouterr().err
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for command in ("validate", "run"):
        assert cli_main([command, str(listed)]) == 1
        assert capsys.readouterr().err == "config error: config must be a JSON object\n"
    # A directory, a file that is not UTF-8, and a name too long for the
    # file system are config errors for both commands, not tracebacks.
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "caf\xe9"}')
    for unreadable in (str(tmp_path), str(latin1), "x" * 5000):
        for command in ("validate", "run"):
            assert cli_main([command, unreadable]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "Traceback" not in err


def test_cli_usage_errors(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err
    assert cli_main(["run"]) == 1
    assert "usage" in capsys.readouterr().err


def _ladder_points(realization):
    """Four points on fig1's circle (sl3) or on fig3's hyperbola (sl4)."""
    if realization == "sl3":
        return [Point2(2.0 + math.cos(t), 8.0 + math.sin(t)) for t in (2.0, 2.1, 2.2, 2.3)]
    sol = fit_hyperbola(Point2(2.0, 5.0), 5.0, 1.0)[0]
    t0 = sol.param(Point2(2.0, 5.0))
    return [sol.point(t0 + 0.05 * i) for i in range(4)]


@pytest.mark.parametrize("realization", ["sl3", "sl4"])
def test_cli_invariants_prints_the_invariant_ladder(realization, capsys):
    pts = _ladder_points(realization)
    disc = disc_i1_sl3 if realization == "sl3" else disc_i1_sl4
    arg = ";".join(f"{p.x},{p.y}" for p in pts)
    assert cli_main(["invariants", "--realization", realization, "--points", arg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 + 2 + 1
    assert lines[0].startswith("disc_I1[0,1] = ")
    assert lines[3].startswith("J1[0..2] = ")
    assert lines[5].startswith("J2[0..3] = ")
    printed = float(lines[0].split(" = ")[1])
    assert printed == pytest.approx(disc(pts[0], pts[1]), rel=1e-15)


def test_cli_invariants_rejects_malformed_points(capsys):
    assert cli_main(["invariants", "--realization", "sl3", "--points", "1,2;3"]) == 1
    assert "points must look like" in capsys.readouterr().err
    assert cli_main(["invariants", "--realization", "sl3", "--points", "1,2"]) == 1
    assert "need at least two points" in capsys.readouterr().err


def test_cli_invariants_numeric_failure_exits_2(capsys):
    code = cli_main([
        "invariants", "--realization", "sl4", "--points", "1,1;2,1;3,1",
    ])
    assert code == 2
    assert "invariant evaluation failed" in capsys.readouterr().err


def test_cli_underflowing_denominators_exit_2(tmp_path, capsys):
    """x-products that underflow to zero, and squares or x-products that
    overflow, are domain violations, reported with exit code 2 instead of
    a ZeroDivisionError or NaN invariants."""
    for points in (
        "1e-110,0;1e-110,1e-111;1e-110,2e-111;1e-110,3e-111",
        "1e200,0;1e200,1e199;1e200,2e199;1e200,3e199",
    ):
        for realization in ("sl3", "sl4"):
            assert cli_main(["invariants", "--realization", realization, "--points", points]) == 2
            assert "invariant evaluation failed" in capsys.readouterr().err
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps({
        "name": "tiny", "realization": "sl3", "order": "Second",
        "x0": 2e-170, "y0": 0, "h": 1e-171, "maxSteps": 20, "xWindow": [0, 1],
        "C": 0.5, "a": 1e170, "methods": ["invariant"],
    }))
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "invariant: error DomainViolation" in capsys.readouterr().out


@pytest.mark.parametrize(
    "change",
    [{"name": "a/b"}, {"name": "\ud800"}, {"order": ["x"]}, {"F": ["square"]}, {"output": 5}],
    ids=["name-with-slash", "name-lone-surrogate", "order-list", "F-list", "output-number"],
)
def test_cli_run_rejects_malformed_fields(tmp_path, capsys, monkeypatch, change):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps({**_FIG1_RAW, **change}))
    assert cli_main(["run", "bad.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert next(iter(change)) in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20),
    st.floats(-1e3, 1e3), st.sampled_from([math.nan, math.inf, -math.inf, 1e-300]),
    st.text(max_size=6), st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_PLAUSIBLE = {
    "name": st.sampled_from(["fuzz", "a/b", ".", "", "x" * 300, "a\0b", "\ud800"])
    | st.text(max_size=12),
    "realization": st.sampled_from(["sl3", "sl4", "SL4"]),
    "order": st.sampled_from(["Second", "Third", "third", 2, 3, "3"]),
    "F": st.sampled_from(["square", "identity", "zero"]),
    "h": st.floats(1e-3, 0.3),
    "maxSteps": st.integers(0, 20),
    "xWindow": st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
    "methods": st.lists(st.sampled_from(["invariant", "standardFD", "rk45"]), max_size=3),
    "output": st.text(max_size=8),
    "x0": st.floats(0.05, 5.0),
    "y0": st.floats(-10.0, 10.0),
    "yp0": st.floats(-3.0, 3.0),
    "ypp0": st.floats(-5.0, 5.0),
    "C": st.floats(-1.0, 6.0),
    "a": st.floats(-1.0, 3.0),
}
_REQUIRED = ("realization", "order", "x0", "y0")


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
# The exact conic's fit overflows on these (radius or centre abscissa near 1e300).
@example({"realization": "sl3", "order": "Second", "x0": 1, "y0": 8, "C": 2, "a": 1e-300})
@example({"realization": "sl3", "order": "Second", "x0": 1, "y0": 8, "C": 1e300, "a": 1})
@example({"realization": "sl4", "order": "Second", "x0": 1, "y0": 8, "C": 2, "a": 1e-300})
@given(
    st.fixed_dictionaries(
        {k: _PLAUSIBLE[k] | _JUNK for k in _REQUIRED},
        optional={k: _PLAUSIBLE[k] | _JUNK for k in sorted(_CONFIG_KEYS) if k not in _REQUIRED},
    )
)
def test_cli_run_survives_any_config(raw):
    """Any flat config of mixed-type values ends in exit code 0, 1 or 2,
    never in an exception.  Numbers are drawn from moderate ranges and
    maxSteps stays at most 20, so that every run is short."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        assert cli_main(["run", path, "--out", os.path.join(tmp, "out")]) in (0, 1, 2)


# Every finite magnitude, uniform and log-uniform; three signs in four are
# positive, since a negative x0 or h only tests the config check.
_MAGNITUDE = st.floats(5e-324, sys.float_info.max) | st.floats(-323.3, 308.25).map(
    lambda e: max(10.0**e, 5e-324)
)
_SIGNED = st.builds(lambda s, m: s * m, st.sampled_from([1.0, 1.0, 1.0, -1.0]), _MAGNITUDE)


@st.composite
def _extreme_configs(draw):
    """Well-formed configs whose numbers span every float magnitude, with at
    most 3 steps; rk45, which runs to the window's end, gets a window that
    ends within 0.1 of x0."""
    raw = {
        "name": "fuzz",
        "realization": draw(st.sampled_from(["sl3", "sl4"])),
        "order": draw(st.sampled_from(["Second", "Third"])),
        "maxSteps": draw(st.integers(0, 3)),
        "methods": draw(st.lists(
            st.sampled_from(["invariant", "standardFD", "rk45"]),
            min_size=1, max_size=3, unique=True,
        )),
    }
    for key in ("x0", "y0", "C", "a", "yp0", "ypp0", "h"):
        raw[key] = draw(_SIGNED)
    reach = st.floats(0.0, 0.1) if "rk45" in raw["methods"] else _MAGNITUDE
    top = sys.float_info.max
    raw["xWindow"] = [
        max(raw["x0"] - draw(_MAGNITUDE), -top), min(raw["x0"] + draw(reach), top)
    ]
    return raw


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@example(_K0_CONFIGS[0])
@example(_K0_CONFIGS[1])
@example(_TINY_SL4)
@given(_extreme_configs())
def test_cli_run_keeps_its_exit_codes_on_extreme_numbers(raw):
    """Configs with numbers from 5e-324 to 1.8e308 of both signs end in exit
    code 0, 1 or 2, never in an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        assert cli_main(["run", path, "--out", os.path.join(tmp, "out")]) in (0, 1, 2)


def test_python_dash_m_invscheme_runs_cleanly():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "invscheme", "list"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["fig1", "fig2", "fig3", "fig4"]
    assert proc.stderr == ""
