"""The accuracy ledger: how close each gate run's invariant method stays to
the solution it should follow.

The byte gate (test_byte_gate.py) says whether digits moved; this table
says whether they got better.  Each gate run (fig1-fig4 at h = 0.01 and
0.005, fig1 and fig3 at h = 0.0025) has a row for its invariant method:

- err: at order 2 the report's maxConicDistance, the largest distance from
  a run point to the exact conic; at order 3 the largest |y - y_ref| over
  the run's prefix up to XREF, against a graph-form reference that
  rk45_integrate runs at rtol 1e-12 from point to point of the run;
- the report's xEnd, xMax and halt reason.

err is asserted to 1% relative and xEnd and xMax to 1e-4, so the table
holds the digits that matter to accuracy rather than the bits.  A change
that moves digits on purpose updates the rows, and names each row that got
worse, with the cause.  The test prints each row and the observed order
log2(err(h) / err(h / 2)) between consecutive meshes, then one verdict line
straight to the terminal, which CI requires.
"""

import math

from invscheme.baselines import ode_rhs_library, rk45_integrate
from invscheme.harness import config_from_raw, read_trajectory_csv, run_experiment

from helpers import builtin

# The order-3 error is taken up to these x, short of the reference's
# derivative blow-up at x = 1.2825 (fig2) and 2.129 (fig4).
XREF = {"fig2": 1.23, "fig4": 2.05}

# (name, h): (err, xEnd, xMax, halt reason).  fig1 converges at order 2.0
# and fig3 at 1.7 from h = 0.01 to 0.005, but fig3's err grows 34 times
# from 0.005 to 0.0025, and the order-3 errs do not shrink with h.
LEDGER = {
    ("fig1", 0.01): (2.81e-5, 1.34996, 3.00003, "maxSteps"),
    ("fig2", 0.01): (9.71e-2, 1.23987, 2.12274, "noIntersection"),
    ("fig3", 0.01): (2.08e-6, 0.03754, 4.0, "newtonDivergence"),
    ("fig4", 0.01): (4.50e-4, 3.69315, 3.69315, "domainViolation"),
    ("fig1", 0.005): (7.03e-6, 1.07828, 3.00001, "maxSteps"),
    ("fig2", 0.005): (1.04e-1, 1.25694, 2.15927, "noIntersection"),
    ("fig3", 0.005): (6.53e-7, 0.12138, 4.0, "domainViolation"),
    ("fig4", 0.005): (5.28e-4, 3.72561, 3.72561, "noIntersection"),
    ("fig1", 0.0025): (1.76e-6, 2.84094, 3.0, "maxSteps"),
    ("fig3", 0.0025): (2.22e-5, 0.65449, 3.99999, "domainViolation"),
}


def _order3_error(cfg, rows, x_stop):
    """Largest |y - y_ref| over the run's points from x0 up to x_stop."""
    rhs = ode_rhs_library(cfg.realization, 3, F=cfg.f).rhs
    x, state = cfg.ics["x0"], [cfg.ics[k] for k in ("y0", "yp0", "ypp0")]
    worst = 0.0
    for row in rows:
        if row["x"] > x_stop:
            break
        if row["x"] != x:
            ref = rk45_integrate(rhs, x, state, row["x"], rtol=1e-12, atol=1e-13)
            assert ref.halt.reason == "completed", ref.halt
            x, state = ref.xs[-1], ref.states[-1]
        worst = max(worst, abs(row["y"] - state[0]))
    return worst


def _row(name, h, directory):
    cfg = config_from_raw(dict(builtin(name).as_raw(), h=h, methods=["invariant"]))
    entry = run_experiment(cfg, out_dir=str(directory)).entries["invariant"]
    if cfg.order == 2:
        err = entry.max_conic_distance
    else:
        err = _order3_error(cfg, read_trajectory_csv(directory / entry.file), XREF[name])
    return err, entry.x_end, entry.x_max, entry.halt_reason


def test_accuracy_ledger(tmp_path, capsys):
    observed = {key: _row(*key, tmp_path) for key in LEDGER}
    lines = []
    for (name, h), (err, x_end, x_max, halt) in observed.items():
        order = ""
        if (name, h / 2) in observed:
            order = f", order to h/2 {math.log2(err / observed[name, h / 2][0]):.2f}"
        lines.append(
            f"{name} h={h}: err {err:.3g}, xEnd {x_end:.6g}, xMax {x_max:.6g}, {halt}{order}"
        )
    with capsys.disabled():
        print("\n" + "\n".join(lines), flush=True)
    for key, (err, x_end, x_max, halt) in observed.items():
        want_err, want_end, want_max, want_halt = LEDGER[key]
        assert math.isclose(err, want_err, rel_tol=1e-2), (key, err)
        assert abs(x_end - want_end) <= 1e-4, (key, x_end)
        assert abs(x_max - want_max) <= 1e-4, (key, x_max)
        assert halt == want_halt, (key, halt)
    with capsys.disabled():
        print(f"accuracy ledger [{len(LEDGER)} gate runs]: PASS", flush=True)
