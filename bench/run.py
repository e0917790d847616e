"""Benchmark for invscheme: seeded workloads through the public path a user
takes, `config_from_raw` then `run_experiment`, with every CSV and report
the program writes checked apart from the program.

    python3 bench/run.py --workload orbit2 --seed 1 --seconds 10 --trace 0

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps the package's module boundaries, replays recorded scheme states and
reports the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TRACE_OUT = BENCH / "trace"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up is measured in this many fresh processes, spread over the run so
# that they sample the machine's drifting speed as the passes do, and
# reported as the median.
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "points_per_s": "1/s", "invariant_steps": "count", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "schemes.step_us.p50": "us", "schemes.step_us.p90": "us",
    "schemes.targets_us": "us", "schemes.reduce_us": "us", "schemes.advance_us": "us",
    "schemes.targets_calls_per_step": "count",
    "invariants.disc_calls_per_step": "count", "invariants.window_calls_per_step": "count",
    "invariants.window_j1_us": "us", "invariants.window_j2_us": "us",
    "schemes.run_scheme_ms": "ms", "schemes.fallback_calls": "count", "schemes.fallback_ms": "ms",
    "schemes.bootstrap_ms": "ms",
    "baselines.ref_integrations": "count", "baselines.ref_rk_steps": "count",
    "baselines.ref_integration_ms": "ms", "baselines.rk45_ms": "ms", "baselines.rk45_steps": "count",
    "baselines.fd_step_us.p50": "us", "baselines.fd_steps": "count",
    "harness.self_ms": "ms", "harness.experiment_ms.p50": "ms",
    "harness.files_written": "count", "harness.csv_rows": "count",
    "exact.busy_ms": "ms", "exact.conic_distance_calls": "count",
    "trace.points_per_s": "1/s",
    **{f"{m}.import_ms": "ms" for m in ["invscheme"] + tracing.MODULES},
}


def load_program():
    """Import invscheme from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import invscheme

    where = Path(invscheme.__file__).resolve().parent.parent
    if where != SRC:
        raise ImportError(f"invscheme was imported from {where}, not {SRC}")
    return invscheme


def setup(workload: str, seed: int):
    """Import the program, generate the inputs and warm up on the first."""
    program = load_program()
    exps = workloads.WORKLOADS[workload](seed)
    warm = OUT / f"{workload}-warmup"
    program.run_experiment(program.config_from_raw(exps[0].raw), str(warm))
    return program, exps


def measure_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter on this script to the
    end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed with code {proc.returncode}")
    return elapsed


def run_pass(program, exps, out_dir: Path, root=None) -> float:
    """Run every experiment once; return the seconds spent in the calls."""
    timed = 0.0
    for e in exps:
        t0 = time.perf_counter()
        cfg = program.config_from_raw(e.raw)
        if root is None:
            program.run_experiment(cfg, str(out_dir))
        else:
            root(lambda: program.run_experiment(cfg, str(out_dir)))
        timed += time.perf_counter() - t0
    return timed


class Tally:
    """Checks of every pass, and the counts the metrics need."""

    def __init__(self, exps):
        self.exps = exps
        self.problems: dict[tuple[int, str], list[str]] = {}
        self.cases: dict[tuple[int, str], oracles.ReferenceCase] = {}
        self.passes: list[dict] = []

    def check_pass(self, out_dir: Path, timed: float) -> None:
        p = len(self.passes)
        stats = {"timed": timed, "points": 0, "steps": 0, "files": 0, "rows": 0}
        for e in self.exps:
            out = oracles.read_output(out_dir, e.name)
            self.problems[p, e.name] = oracles.check_output(out, e.raw, e.kind)
            methods = out.report["methods"].values()
            stats["points"] += sum(m["points"] for m in methods)
            stats["steps"] += out.report["methods"].get("invariant", {}).get("newPoints", 0)
            stats["files"] += 1 + sum(1 for m in methods if m.get("file"))
            stats["rows"] += sum(len(rows) for rows in out.rows.values())
            if e.kind == "blowup" and not self.problems[p, e.name]:
                self.cases[p, e.name] = oracles.reference_case(out, e.raw, e.whole_run_on_reference)
        self.passes.append(stats)

    def check_reference(self) -> None:
        """One reference process for every order-3 case of every pass."""
        if not self.cases:
            return
        queries = {}
        for (_, name), case in self.cases.items():
            queries.setdefault(name, set()).update(case.xs)
        raws = {e.name: e.raw for e in self.exps}
        problems = [
            {"id": name, "xs": sorted(xs), **{k: raws[name][k] for k in
             ("realization", "x0", "y0", "yp0", "ypp0")}, "F": raws[name].get("F", "square")}
            for name, xs in queries.items()
        ]
        proc = subprocess.run(
            [sys.executable, str(BENCH / "reference.py")], input=json.dumps({"problems": problems}),
            capture_output=True, text=True, timeout=120, check=True,
        )
        refs = json.loads(proc.stdout)
        for key, case in self.cases.items():
            self.problems[key] += oracles.check_against_reference(case, refs[key[1]])

    def verdict(self) -> tuple[bool, int, int]:
        known = {e.name for e in self.exps if e.known_fault}
        failed = [key for key, probs in self.problems.items() if probs]
        unexpected = [key for key in failed if key[1] not in known]
        for key in unexpected[:5]:
            print(f"check failed: pass {key[0]} {key[1]}: {self.problems[key][0]}", file=sys.stderr)
        return not unexpected, len(self.problems), len(failed)

    def median(self, fn) -> float:
        return statistics.median(fn(s) for s in self.passes)


def timed_passes(program, exps, out_dir: Path, seconds: float, root=None, between=None) -> Tally:
    """Whole passes for `seconds`; between(elapsed) runs after each pass."""
    tally = Tally(exps)
    start = time.perf_counter()
    while not tally.passes or time.perf_counter() < start + seconds:
        tally.check_pass(out_dir, run_pass(program, exps, out_dir, root))
        if between is not None:
            between((time.perf_counter() - start) / seconds)
    tally.check_reference()
    return tally


def end_to_end(program, exps, args, out_dir: Path) -> tuple[Tally, dict]:
    setups = []

    def set_up_due(progress: float) -> None:
        while len(setups) < SETUP_REPEATS and len(setups) <= progress * SETUP_REPEATS:
            setups.append(measure_setup(args.workload, args.seed))

    set_up_due(0.0)
    tally = timed_passes(program, exps, out_dir, args.seconds, between=set_up_due)
    set_up_due(1.0)
    return tally, {
        "points_per_s": tally.median(lambda s: s["points"] / s["timed"]),
        "invariant_steps": tally.median(lambda s: s["steps"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(program, exps, args, out_dir: Path) -> tuple[Tally, dict]:
    metrics = tracing.import_metrics(str(SRC))
    tracer = tracing.Tracer(program)
    tracer.install()
    try:
        tally = timed_passes(program, exps, out_dir, args.seconds, root=tracer.root)
    finally:
        tracer.uninstall()
    TRACE_OUT.mkdir(exist_ok=True)
    names = [e.name for _ in tally.passes for e in exps]
    (TRACE_OUT / f"{args.workload}-{args.seed}.json").write_text(json.dumps(
        [dict(acc, experiment=name) for name, acc in zip(names, tracer.experiments)], indent=1,
    ))
    metrics.update(tracing.span_metrics(tracer, len(tally.passes)))
    metrics["trace.points_per_s"] = tally.median(lambda s: s["points"] / s["timed"])
    metrics["harness.files_written"] = tally.median(lambda s: s["files"])
    metrics["harness.csv_rows"] = tally.median(lambda s: s["rows"])
    missing = {m for m, needs in tracing.SPAN_NEEDS.items() if tracer.missing.intersection(needs)}
    states = tracing.record_states(program, lambda: run_pass(program, exps, out_dir))
    if states is None:
        missing.add("schemes.step_with_diagnostics")
    else:
        replayed, gone = tracing.replay_metrics(program, states)
        metrics.update(replayed)
        missing |= gone
    for m in missing:
        metrics.pop(m, None)
    absent = sorted(set(PER_LAYER_UNITS) - set(metrics))
    if absent:
        print(f"per-layer metrics missing: {', '.join(absent)}", file=sys.stderr)
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        program, exps = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import invscheme from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print("ready", flush=True)
        return 0
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    measure = per_layer if args.trace else end_to_end
    tally, metrics = measure(program, exps, args, out_dir)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct, attempted, failed = tally.verdict()
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
