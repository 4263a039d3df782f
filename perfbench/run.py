#!/usr/bin/env python3
"""gaplab benchmark: one workload, closed loop, checked against exact labels.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gaplab is imported from its `src`
directory.  The workloads are described in workloads.py.

--trace 0 runs requests one after another with tracing off for about S
seconds, or until two requests have been answered if that takes longer
(starting none after 2S), and reports the end-to-end metrics.  Set-up time
is measured on its own: a fresh interpreter imports gaplab and builds the
workload's references, five times, and the median is reported.

--trace 1 runs the same requests twice, first untraced for about S/2
seconds, then with gaplab's functions wrapped (tracer.py), and
reports the per-layer metrics as means per request, the tracing overhead
per request and the share of request time the top-level spans cover.

Every request's output is checked against the exact reference
(reference.py); `failed` in the result counts gaps the program did not
answer or labelled wrongly, and the labels outside their own error bars are
printed as defects and measured by labels_in_err.  Human-readable lines
come first; the last line of standard output is the JSON result.  Without a
usable gaplab source or reference the benchmark exits with status 2 and
prints no result.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may run on.

    Must run before numpy is imported.  Returns the cap.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


NPROC = cap_threads()

import argparse   # noqa: E402
import json       # noqa: E402
import math       # noqa: E402
import platform   # noqa: E402
import resource   # noqa: E402
import shutil     # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile   # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# The cost of a request depends on its phases (flow escalations, split
# gaps), so a run times at least this many answered requests.
MIN_REQUESTS = 2


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_gaplab():
    if not (SRC / "gaplab" / "__init__.py").is_file():
        fail(f"no gaplab source under {SRC}")
    sys.path.insert(0, str(SRC))
    import gaplab
    if not Path(gaplab.__file__).resolve().is_relative_to(SRC):
        fail(f"gaplab imported from {gaplab.__file__}, not from {SRC}")
    import gaplab.cli  # noqa: F401  (traced, and driven by mathieu_report)


def build(name: str, seed: int, workdir: str):
    import reference
    from workloads import WORKLOADS
    try:
        return WORKLOADS[name](seed, workdir)
    except reference.ReferenceUnavailable as exc:
        fail(f"reference check cannot run: {exc}")


def measure_setup(args) -> float:
    """Median wall time of a fresh interpreter setting the workload up."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append(perf_counter() - t0)
        if done.returncode != 0:
            fail(f"set-up failed: {done.stderr.strip()}")
    return statistics.median(times)


def run_requests(workload, seconds: float = 0.0, minimum: int = 1,
                 count: int | None = None, tracer=None):
    """Closed loop: the next request starts when the previous one ended.

    Runs `count` requests, or runs requests for about `seconds`: the next
    one starts while it is expected to end less than half a request past
    `seconds`, or while fewer than `minimum` have been answered, but none
    starts after twice `seconds`.  Returns (wall, top-level traced seconds,
    outcome) per request; only workload.run is timed.
    """
    records = []
    answered = 0
    start = perf_counter()

    def more() -> bool:
        if count is not None:
            return len(records) < count
        elapsed = perf_counter() - start
        if answered < minimum:
            return elapsed < 2 * seconds
        mean = statistics.fmean(w for w, _, _ in records)
        return elapsed + mean / 2 < seconds

    while more():
        req = workload.prepare(len(records))
        top0 = tracer.top_level_s if tracer else 0.0
        t0 = perf_counter()
        result = workload.run(req)
        wall = perf_counter() - t0
        top = (tracer.top_level_s - top0) if tracer else 0.0
        outcome = workload.check(req, result)
        answered += not outcome.aborted
        records.append((wall, top, outcome))
    return records


def tail(walls: list[float]) -> tuple[str, float | None]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n <= 10:
        return "tail", None
    ordered = sorted(walls)
    return f"p{math.floor(100 * (n - 10) / n)}", ordered[n - 11]


def environment(args) -> dict:
    import numpy
    import scipy
    return {"platform": platform.platform(), "nproc": NPROC,
            "thread_cap": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def summarize(records):
    from reference import Tally, self_check
    tally = Tally()
    well_formed = True
    notes = []
    defects = []
    for _, _, outcome in records:
        tally.add(outcome.checks, outcome.found)
        well_formed &= outcome.well_formed
        for check in outcome.checks:
            notes += [f"gap {check.gap}: {r}" for r in check.reasons()]
            defects += [f"gap {check.gap}: {d}" for d in check.defects()]
    correct = well_formed and bool(tally.labels) and self_check(tally.gaps)
    return tally, correct, notes, defects


def per_layer(tracer, records, untraced) -> dict:
    n = len(records)
    calls, secs, own, counts = (tracer.calls, tracer.seconds,
                                tracer.self_seconds, tracer.counts)
    values = {}
    for name, unit in PER_LAYER:
        fn, _, field = name.rpartition(".")
        if field == "calls":
            v = calls[fn]
        elif field == "s":
            v = secs[fn]
        elif field == "self_s":
            v = own[fn]
        else:
            v = counts[name]
        values[name] = (v / n, unit)
    walls = sum(w for w, _, _ in records)
    values["trace.overhead_s"] = (
        (walls - sum(w for w, _, _ in untraced)) / n, "s")
    values["trace.coverage"] = (
        sum(t for _, t, _ in records) / walls, "1")
    return values


PER_LAYER = [
    ("potentials.evaluate.calls", "count"),
    ("potentials.evaluate.points", "count"),
    ("potentials.evaluate.self_s", "s"),
    ("prufer.theta_grid.calls", "count"),
    ("prufer.theta_grid.components", "count"),
    ("prufer.theta_grid.self_s", "s"),
    ("prufer.integrate.calls", "count"),
    ("prufer.integrate.steps", "count"),
    ("prufer.integrate.self_s", "s"),
    ("lattice.fd_tridiagonal.calls", "count"),
    ("lattice.fd_tridiagonal.rows", "count"),
    ("lattice.fd_tridiagonal.self_s", "s"),
    ("spectrum.detect_gaps.s", "s"),
    ("spectrum.counts_grid.calls", "count"),
    ("spectrum.counts_grid.s", "s"),
    ("spectrum.eigenvalue_count.calls", "count"),
    ("spectrum.eigenvalue_count.s", "s"),
    ("spectrum.ids.s", "s"),
    ("rotation.johnson_moser_alpha.s", "s"),
    ("dirichlet.trace_flow.s", "s"),
    ("dirichlet.trace_flow.passes", "count"),
    ("dirichlet.trace_flow.offsets", "count"),
    ("dirichlet.trace_flow.halvings", "count"),
    ("dirichlet.trace_flow.curves", "count"),
    ("dirichlet.beta.s", "s"),
    ("klabel.pi_trace.s", "s"),
    ("klabel.pi_trace.ranks", "count"),
    ("klabel.edge_projector.calls", "count"),
    ("klabel.edge_projector.self_s", "s"),
    ("klabel.pi_curves.s", "s"),
    ("klabel.boundary_force.s", "s"),
    ("harness.label_gap.s", "s"),
    ("harness.persist.s", "s"),
    ("harness.persist.bytes", "B"),
    ("cli.main.s", "s"),
]
# Layers only mathieu_report reaches; BENCHMARK.json does not list that
# workload, so these are printed but left out of the result line.
UNLISTED = ("harness.", "cli.")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_gaplab()   # also compiles the bytecode before set-up is timed
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    if args.setup_only:
        build(args.workload, args.seed, str(ROOT / ".perfbench-setup"))
        return 0

    setup_s = None if args.trace else measure_setup(args)
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        workload = build(args.workload, args.seed, workdir)
        if args.trace:
            from tracer import Tracer
            untraced = run_requests(workload, args.seconds / 2, minimum=2)
            with Tracer() as tracer:
                records = run_requests(workload, count=len(untraced),
                                       tracer=tracer)
            metrics = per_layer(tracer, records, untraced)
            unlisted = {k: metrics.pop(k) for k in list(metrics)
                        if k.startswith(UNLISTED)}
            records = untraced + records
        else:
            records = run_requests(workload, args.seconds, MIN_REQUESTS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally, correct, notes, defects = summarize(records)
    summary = tally.summary()
    # request times of answered requests; the aborted ones count in failed
    walls = [w for w, _, o in records if not o.aborted]
    print("env " + json.dumps(environment(args), sort_keys=True))
    print("walls_s " + " ".join(f"{w:.4f}" for w, _, _ in records))
    for note in notes[:20]:
        print(f"failure {note}")
    for defect in defects[:20]:
        print(f"defect {defect}")
    if not args.trace:
        tail_name, tail_value = tail(walls)
        metrics = {
            "throughput": (len(walls) / sum(walls) if walls else None, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "labels_in_err": (summary["labels_in_err"], "1"),
        }
        extra = {
            "wall_s.p50": (statistics.median(walls) if walls else None, "s"),
            f"wall_s.{tail_name}": (tail_value, "s"),
            "wall_s.samples": (len(walls), "count"),
            "fail_ratio": (summary["fail_ratio"], "1"),
            "labels_wrong": (summary["labels_wrong"], "count"),
            "label_dev_max": (summary["label_dev_max"], "1"),
            "label_err_max": (summary["label_err_max"], "1"),
            "label_err_p50": (summary["label_err_p50"], "1"),
            "labels_outside_err": (summary["labels_outside_err"], "count"),
            "gaps_found": (summary["gaps_found"], "count"),
            "gap_edge_err_max": (summary["gap_edge_err_max"], "1"),
        }
    else:
        metrics["check.fail_ratio"] = (summary["fail_ratio"], "1")
        metrics["check.labels_outside_err"] = (
            summary["labels_outside_err"] / len(records), "count")
        metrics["check.gap_edge_err_max"] = (summary["gap_edge_err_max"], "1")
        extra = {**unlisted, "wall_s.samples": (len(walls), "count")}
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name} = {shown} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v if v is not None and math.isfinite(v)
                        else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
