"""Tests of the benchmark's own checks: clean outputs pass, corrupted ones
fail, and the closed forms agree with hand-worked cases.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from invscheme import config_from_raw, run_experiment  # noqa: E402

FIG1 = {"name": "fig1", "realization": "sl3", "order": "Second", "x0": 1.0, "y0": 8.0,
        "C": 2.0, "a": 1.0, "h": 0.01, "maxSteps": 700, "methods": ["invariant"]}
SWEEP3 = {"name": "sweep3", "realization": "sl4", "order": "Second", "x0": 2.0, "y0": 5.0,
          "C": 5.0, "a": 1.0, "h": 0.01, "maxSteps": 40, "xWindow": [0.0, 5.0],
          "methods": ["invariant", "standardFD", "rk45"]}


def _run(raw: dict, tmp_path: Path) -> oracles.Output:
    run_experiment(config_from_raw(raw), str(tmp_path))
    return oracles.read_output(tmp_path, raw["name"])


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    return _run(FIG1, tmp_path_factory.mktemp("fig1"))


@pytest.fixture(scope="module")
def sweep3(tmp_path_factory):
    return _run(SWEEP3, tmp_path_factory.mktemp("sweep3"))


def test_closed_forms_match_hand_worked_cases():
    circle = oracles.conic_through("sl3", 1.0, 8.0, 2.0, 1.0)
    assert (circle.cx, circle.cy, circle.r) == (2.0, 8.0, 1.0)
    assert circle.tangent_x == 3.0
    hyper = oracles.conic_through("sl4", 2.0, 5.0, 5.0, 1.0)
    assert (hyper.cx, hyper.r) == (5.0, 1.0)
    assert hyper.cy == pytest.approx(5.0 + 2.0 * math.sqrt(2.0), abs=1e-15)
    assert hyper.tangent_x == 4.0
    assert hyper.distance(4.0, hyper.cy) == 0.0
    assert circle.distance(2.0, 9.5) == pytest.approx(0.5)
    # sl3 pair invariant of (1, 0) and (4, 4): sqrt(25 / 4)
    assert oracles.pair_invariant("sl3", 1.0, 0.0, 4.0, 4.0) == 2.5
    # sl4: e = 16 - 9 = 7, den = 4 * 1 * 4 - 7 = 9
    assert oracles.pair_invariant("sl4", 1.0, 0.0, 4.0, 4.0) == pytest.approx(math.sqrt(7.0) / 3.0)


def test_clean_outputs_pass(fig1, sweep3):
    assert oracles.check_output(fig1, FIG1, "orbit") == []
    assert oracles.check_output(sweep3, SWEEP3, "sweep") == []


def test_point_moved_off_its_conic_fails(fig1):
    bad = copy.deepcopy(fig1)
    row = bad.rows["invariant"][300]
    circle = oracles.conic_through("sl3", 1.0, 8.0, 2.0, 1.0)
    dx, dy = row["x"] - circle.cx, row["y"] - circle.cy
    norm = math.hypot(dx, dy)
    row["x"] += 1e-6 * dx / norm
    row["y"] += 1e-6 * dy / norm
    assert oracles.check_output(bad, FIG1, "orbit")


def test_dropped_row_fails(fig1, sweep3):
    for out, raw, kind, method in ((fig1, FIG1, "orbit", "invariant"), (sweep3, SWEEP3, "sweep", "rk45")):
        bad = copy.deepcopy(out)
        del bad.rows[method][len(bad.rows[method]) // 2]
        assert oracles.check_output(bad, raw, kind)


def test_j1_column_offset_fails(fig1):
    bad = copy.deepcopy(fig1)
    for row in bad.rows["invariant"]:
        if "J1" in row:
            row["J1"] += 1e-6
    assert oracles.check_output(bad, FIG1, "orbit")


def test_rk45_halt_past_tangent_fails(sweep3):
    bad = copy.deepcopy(sweep3)
    bad.rows["rk45"][-1]["x"] = 4.01
    assert any("tangent" in p for p in oracles.check_output(bad, SWEEP3, "sweep"))


def _truncated(out: oracles.Output, n: int) -> oracles.Output:
    short = copy.deepcopy(out)
    short.rows["invariant"] = short.rows["invariant"][:n]
    short.report["methods"]["invariant"]["points"] = n
    return short


def test_unwound_orbit_fails(fig1):
    assert any("winds" in p for p in oracles.check_output(_truncated(fig1, 300), FIG1, "orbit"))


def test_branch_check_passes_fig3_and_fails_an_early_halt(tmp_path):
    """fig3 at h = 0.01 follows the branch to x = 0.0375; the same run cut
    where it is back at x = 0.65 fails, as fig3 at h = 0.0025 does."""
    raw = dict(workloads.FIG3, name="fig3", h=0.01, maxSteps=20000, methods=["invariant"])
    out = _run(raw, tmp_path)
    assert oracles.check_output(out, raw, "orbit") == []
    cut = next(i for i, r in enumerate(out.rows["invariant"]) if r["x"] > 3.9)
    cut += next(i for i, r in enumerate(out.rows["invariant"][cut:]) if r["x"] < 0.65)
    assert any("short of" in p for p in oracles.check_output(_truncated(out, cut), raw, "orbit"))


def test_reference_checks(tmp_path):
    """fig4 at h = 0.01: rk45 halts at the reference blow-up and the run
    before it stays on the reference; a shifted halt or point fails."""
    raw = dict(workloads.FIG4, name="fig4", h=0.01, methods=workloads.ALL_METHODS)
    out = _run(raw, tmp_path)
    assert oracles.check_output(out, raw, "blowup") == []
    case = oracles.reference_case(out, raw, whole_run=True)
    problem = {"id": "fig4", "xs": list(case.xs), "F": "square",
               **{k: raw[k] for k in ("realization", "x0", "y0", "yp0", "ypp0")}}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "reference.py")], input=json.dumps({"problems": [problem]}),
        capture_output=True, text=True, timeout=120, check=True,
    )
    ref = json.loads(proc.stdout)["fig4"]
    assert oracles.check_against_reference(case, ref) == []
    moved = oracles.ReferenceCase(case.rk45_halt + 0.01, case.xs, case.ys, case.h, True)
    assert oracles.check_against_reference(moved, ref)
    ys = list(case.ys)
    ys[1] += 1e-6
    assert oracles.check_against_reference(
        oracles.ReferenceCase(case.rk45_halt, case.xs, tuple(ys), case.h, False), ref
    )


def test_workloads_repeat_for_a_seed():
    for make in workloads.WORKLOADS.values():
        assert [e.raw for e in make(7)] == [e.raw for e in make(7)]
        assert [e.raw for e in make(7)] != [e.raw for e in make(8)]
