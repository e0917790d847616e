"""The names the benchmark's tracer patches and replays must exist.

bench/tracing.py skips a name the package no longer has and reports the
metrics that need it as missing, so a rename would blank a per-layer
metric without failing anything; this test fails instead.
"""

import importlib.util
from pathlib import Path

import invscheme

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Functions replay_metrics calls by name on the recorded states.
_REPLAYED = [
    ("schemes", "step_with_diagnostics"),
    ("schemes", "scheme_targets"),
    ("schemes", "reduce_to_line_conic"),
    ("schemes", "advance_state"),
    ("invariants", "window_j1"),
    ("invariants", "window_j2"),
]

# harness stopped importing advance_state when the state began to carry its
# own pair invariants, and schemes stopped importing param_of and point_at
# when the fitted conic began to walk its own branch; no metric reads these
# boundaries, and a benchmark change is to drop them from BOUNDARIES.
_EXPECTED_MISSING = {"harness.advance_state", "schemes.param_of", "schemes.point_at"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    names = [(importer, name) for importer, name, _ in tracing.BOUNDARIES]
    names += [("schemes", name) for name in tracing.COUNTED]
    names += _REPLAYED
    missing = {
        f"{module}.{name}"
        for module, name in names
        if not callable(getattr(getattr(invscheme, module), name, None))
    }
    assert missing == _EXPECTED_MISSING


def test_expected_missing_blanks_no_metric():
    """A name that a per-layer metric needs is never an expected miss: the
    traced run drops every metric that needs a missing name, prints
    "per-layer metrics missing" and still exits 0."""
    tracing = _load_tracing()
    needed = {name for names in tracing.SPAN_NEEDS.values() for name in names}
    needed |= {f"schemes.{name}" for name in tracing.COUNTED}
    needed |= {f"{module}.{name}" for module, name in _REPLAYED}
    assert not _EXPECTED_MISSING & needed
