"""The benchmark's workloads: inputs from the seed, one timed request, and
the check of its outputs against the exact references.

Each workload is one process running requests in a closed loop: a request
starts when the previous one has ended.  The seed chooses only cosine phases.
Request i takes its phases from a Kronecker sequence that starts at a seeded
point, so the requests of a run are spread evenly over the phase circle
however many of them fit in the run; the cost and the accuracy of every
stage depend on the phase, and an even spread keeps that from reading as
run-to-run noise.  A translation changes no gap edge and no label, so every
request keeps its exact reference.

A gap is the unit the checks count (reference.GapCheck).  BENCHMARK.json
lists mathieu_flow and edge_trace; mathieu_report and golden_scan take the
same command and checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import numpy as np

import gaplab
from gaplab import cli, dirichlet
from reference import (GOLDEN, GapCheck, LabelCheck, mathieu_gap,
                       mathieu_label, mathieu_points, module_points, nearest)

PLASTIC = 1.324717957244746   # R2 sequence constant for two phases
STEPS = {1: (2.0 / (1.0 + math.sqrt(5.0)),),
         2: (1.0 / PLASTIC, 1.0 / PLASTIC ** 2)}

MATHIEU_TERM = (2.0, 1.0 / (2.0 * math.pi))   # V = 2 cos(x + phi)
REPORT_LABELS = ("ids", "alpha_lift", "alpha_zero_density", "beta_right",
                 "beta_two_sided", "pi_trace", "pi_curves", "boundary_force")
FLOW_LABELS = tuple(n for n in REPORT_LABELS if n != "pi_trace")
# the report's chains, shortened so that a run holds several requests
X_CHAIN = dict(half_width=25.0, ratio=1.6, count=4)
XI_CHAIN = dict(half_width=6.5, ratio=1.6, count=2)
FLOW_DXI = 0.1
FLOW_L = 30.0


class Request:
    """Inputs of one request; `run` is the only part that is timed."""

    def __init__(self, phases: tuple[float, ...]):
        self.phases = phases


class Outcome:
    """Checks of one request's outputs.

    well_formed is False when the program returned output that is wrong in
    kind, not in accuracy: a non-finite label, a detected gap where the
    exact spectrum has a band, or a missing report after a normal exit.
    aborted is True when the program raised instead of answering.
    """

    def __init__(self, checks: list[GapCheck], found: int,
                 well_formed: bool = True, aborted: bool = False):
        self.checks = checks
        self.found = found
        self.well_formed = well_formed
        self.aborted = aborted


class Workload:
    name = ""
    dims = 1   # number of cosine phases

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self._start = np.random.default_rng(seed).random(self.dims)

    def phases(self, i: int) -> tuple[float, ...]:
        frac = (self._start + (i + 1) * np.array(STEPS[self.dims])) % 1.0
        return tuple(float(2.0 * math.pi * f) for f in frac)

    def prepare(self, i: int) -> Request:
        return Request(self.phases(i))

    def run(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request, result) -> Outcome:
        raise NotImplementedError


def _labels(values: dict, exact: float, names,
            points) -> tuple[LabelCheck, ...]:
    return tuple(LabelCheck(n, float(values[n]["value"]),
                            float(values[n]["err"]), exact, points)
                 for n in names)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _finite(checks) -> bool:
    return all(math.isfinite(lab.value) and math.isfinite(lab.err)
               for c in checks for lab in c.labels)


class Mathieu(Workload):
    """Gaps of V = 2 cos(x + phi) detected by the program, matched to the
    exact Mathieu gaps."""

    gaps = 2

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.exact = {n: mathieu_gap(n) for n in range(1, self.gaps + 3)}
        self.points = mathieu_points()

    def _match(self, lower: float, upper: float):
        for n, (lo, hi) in self.exact.items():
            if lower < hi and upper > lo:
                return n
        return None

    def _gap_checks(self, answers, names) -> Outcome:
        """Checks of (e_lower, e_upper, values or exception, verdicts)."""
        checks = []
        well_formed = True
        for lower, upper, values, verdicts in answers:
            n = self._match(lower, upper)
            if n is None:
                well_formed = False
                checks.append(GapCheck(0, errors=(
                    f"gap ({lower:.6f}, {upper:.6f}) lies in a band of the "
                    f"exact spectrum",)))
                continue
            lo, hi = self.exact[n]
            edge_err = max(abs(lower - lo), abs(upper - hi))
            if isinstance(values, Exception):
                checks.append(GapCheck(n, edge_err=edge_err,
                                       errors=(_error(values),)))
                continue
            checks.append(GapCheck(
                n, _labels(values, mathieu_label(n), names, self.points),
                edge_err=edge_err, verdicts=verdicts))
        found = len(checks)
        missing = sorted(set(range(1, self.gaps + 1))
                         - {c.gap for c in checks})
        checks += [GapCheck(n, errors=(f"gap {n} not detected",))
                   for n in missing]
        return Outcome(checks, found, well_formed and _finite(checks),
                       aborted=any(isinstance(v, Exception)
                                   for _, _, v, _ in answers))


class MathieuReport(Mathieu):
    """`gaplab report` on V = 2 cos(x + phi), driven in-process by cli.main."""

    name = "mathieu_report"
    config = """\
[potential]
kind = cosine_sum
terms =
    {amp!r} {freq!r} {phase!r}

[scan]
e_min = -2.0
e_max = 2.0
resolution = 0.02

[chain_x]
half_width = 25.0
ratio = 1.6
count = 4

[chain_xi]
half_width = 6.5
ratio = 1.6
count = 2

[numerics]
L = 30.0
dxi = 0.1
max_gaps = {gaps}

[output]
dir = {out}
"""

    def prepare(self, i: int) -> Request:
        req = super().prepare(i)
        os.makedirs(self.workdir, exist_ok=True)
        req.out = os.path.join(self.workdir, f"report_{i}")
        req.path = os.path.join(self.workdir, f"report_{i}.ini")
        with open(req.path, "w", encoding="utf-8") as fh:
            fh.write(self.config.format(amp=MATHIEU_TERM[0],
                                        freq=MATHIEU_TERM[1],
                                        phase=req.phases[0], gaps=self.gaps,
                                        out=req.out))
        return req

    def run(self, req: Request):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["report", "--config", req.path])
        return code, sink.getvalue()

    def check(self, req: Request, result) -> Outcome:
        code, output = result
        path = os.path.join(req.out, "report.json")
        try:
            with open(path, encoding="utf-8") as fh:
                reports = json.load(fh)
        except FileNotFoundError:
            reports = None
        finally:
            shutil.rmtree(req.out, ignore_errors=True)
            os.remove(req.path)
        if reports is None:
            last = output.strip().splitlines()[-1:] or [""]
            problem = f"cli exit {code}: {last[0][:160]}"
            return Outcome([GapCheck(n, errors=(problem,))
                            for n in range(1, self.gaps + 1)], 0,
                           well_formed=code not in (0, 2), aborted=True)
        return self._gap_checks(
            [(rep["gap"]["e_lower"], rep["gap"]["e_upper"], rep,
              tuple(f"verdict {k} failed" for k, v in rep["verdicts"].items()
                    if v != "pass"))
             for rep in reports], REPORT_LABELS)


def flow_labels(spec, gap) -> dict:
    """Every label of the report except pi_trace, as harness.label_gap
    computes them: the IDS, both rotation-number labels, and the labels
    built on the Dirichlet flow over the largest window of the xi chain."""
    x_chain = gaplab.WindowChain.geometric(**X_CHAIN)
    xi_chain = gaplab.WindowChain.geometric(**XI_CHAIN)
    ids = gaplab.ids(spec, gap.mid, x_chain)
    alpha = gaplab.johnson_moser_alpha(spec, gap.mid, chain=x_chain,
                                       in_gap=True)
    flow = gaplab.trace_flow(spec, gap, *xi_chain.largest, FLOW_DXI, FLOW_L,
                             sides=(dirichlet.RIGHT, dirichlet.LEFT))
    beta_r = gaplab.beta(spec, gap, xi_chain, FLOW_DXI, FLOW_L, "right_only",
                         flow=flow)
    beta_t = gaplab.beta(spec, gap, xi_chain, FLOW_DXI, FLOW_L, "two_sided",
                         flow=flow)
    pc = gaplab.pi_curves(flow, gap, xi_chain, dxi=FLOW_DXI)
    bf = gaplab.boundary_force(flow, gap, xi_chain)
    zd = alpha.zero_density_mean
    return {
        "ids": {"value": ids.value, "err": ids.error_estimate},
        "alpha_lift": {"value": alpha.value, "err": alpha.error_estimate},
        "alpha_zero_density": {"value": zd.extrapolated,
                               "err": zd.error_estimate},
        "beta_right": {"value": beta_r.value, "err": beta_r.error_estimate},
        "beta_two_sided": {"value": beta_t.value,
                           "err": beta_t.error_estimate},
        "pi_curves": {"value": pc.value, "err": pc.error_estimate},
        "boundary_force": {"value": bf.value, "err": bf.error_estimate},
    }


class MathieuFlow(Mathieu):
    """The report's pipeline on V = 2 cos(x + phi) without pi_trace, through
    gaplab's public functions: detection of gaps 1 and 2, then flow_labels
    for each."""

    name = "mathieu_flow"
    e_range = (-2.0, 2.0)

    def run(self, req: Request):
        spec = gaplab.PotentialSpec.cosine_sum(
            [MATHIEU_TERM + (req.phases[0],)])
        try:
            gaps = gaplab.detect_gaps(
                spec, *self.e_range, resolution=0.02,
                chain=gaplab.WindowChain.geometric(**X_CHAIN))[: self.gaps]
        except Exception as exc:   # counted as failed gaps
            return exc
        out = []
        for gap in gaps:
            try:
                values = flow_labels(spec, gap)
            except Exception as exc:   # counted as a failed gap
                values = exc
            out.append((gap.e_lower, gap.e_upper, values, ()))
        return out

    def check(self, req: Request, result) -> Outcome:
        if isinstance(result, Exception):
            return Outcome([GapCheck(n, errors=(_error(result),))
                            for n in range(1, self.gaps + 1)], 0,
                           aborted=True)
        return self._gap_checks(result, FLOW_LABELS)


class GoldenScan(Workload):
    """Gap scan and labels of cos(2 pi x + phi1) + cos(2 pi g x + phi2)."""

    name = "golden_scan"
    dims = 2
    e_range = (-2.0, 12.0)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.module = module_points()

    def run(self, req: Request):
        p1, p2 = req.phases
        spec = gaplab.PotentialSpec.cosine_sum([(1.0, 1.0, p1),
                                                (1.0, GOLDEN, p2)])
        chain = gaplab.WindowChain.geometric(**X_CHAIN)
        try:
            gaps = gaplab.detect_gaps(spec, *self.e_range, resolution=0.02,
                                      chain=chain)
        except Exception as exc:   # counted as a failed request
            return exc
        out = []
        for gap in gaps:
            try:
                ids = gaplab.ids(spec, gap.mid, chain)
                alpha = gaplab.johnson_moser_alpha(spec, gap.mid, chain=chain,
                                                   in_gap=True)
            except Exception as exc:   # counted as a failed gap
                out.append((gap, exc))
                continue
            out.append((gap, {
                "ids": {"value": ids.value, "err": ids.error_estimate},
                "alpha_lift": {"value": alpha.value,
                               "err": alpha.error_estimate},
                "alpha_zero_density": {
                    "value": alpha.zero_density_mean.extrapolated,
                    "err": alpha.zero_density_mean.error_estimate}}))
        return out

    def check(self, req: Request, result) -> Outcome:
        if isinstance(result, Exception):
            return Outcome([GapCheck(0, errors=(_error(result),))], 0,
                           aborted=True)
        if not result:
            return Outcome([GapCheck(0, errors=("no gap detected",))], 0)
        checks = []
        for k, (_, values) in enumerate(result, 1):
            if isinstance(values, Exception):
                checks.append(GapCheck(k, errors=(_error(values),)))
                continue
            exact = nearest(self.module, values["ids"]["value"])
            checks.append(GapCheck(k, _labels(values, exact, values,
                                              self.module)))
        return Outcome(checks, len(result), _finite(checks),
                       aborted=any(isinstance(v, Exception) for _, v in result))


class EdgeTrace(Workload):
    """Edge-state trace label of gaps 1 and 2 of 2 cos(x + phi)."""

    name = "edge_trace"
    gaps = (1, 2)
    window = (-math.pi, math.pi)
    dxi = 0.05
    L = 60.0
    h = 0.01

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.exact = {n: mathieu_gap(n) for n in self.gaps}
        self.points = mathieu_points()

    def run(self, req: Request):
        spec = gaplab.PotentialSpec.cosine_sum(
            [MATHIEU_TERM + (req.phases[0],)])
        out = []
        for n in self.gaps:
            try:
                values = self._labels(spec, gaplab.Gap(*self.exact[n]))
            except Exception as exc:   # counted as a failed gap
                values = exc
            out.append((n, values))
        return out

    def _labels(self, spec, gap) -> dict:
        res = gaplab.pi_trace(spec, gap, self.window, self.dxi, self.L,
                              self.h)
        return {"pi_trace": {"value": res.value, "err": res.error_estimate}}

    def check(self, req: Request, result) -> Outcome:
        checks = []
        for n, values in result:
            if isinstance(values, Exception):
                checks.append(GapCheck(n, errors=(_error(values),)))
                continue
            checks.append(GapCheck(n, _labels(values, mathieu_label(n),
                                              values, self.points)))
        return Outcome(checks, len(result), _finite(checks),
                       aborted=any(isinstance(v, Exception) for _, v in result))


class EdgeLabels(EdgeTrace):
    """Both edge-state labels of gaps 1 and 2 of 2 cos(x + phi) at the exact
    Mathieu edges: pi_trace on the lattice at the full-period window, fine
    step and long half-line, and flow_labels, whose pi_curves and
    boundary_force take the same label from the Dirichlet flow.  This is
    every label of the report without the gap detection."""

    name = "edge_labels"
    window = (-2.0 * math.pi, 2.0 * math.pi)
    h = 0.005

    def _labels(self, spec, gap) -> dict:
        return flow_labels(spec, gap) | super()._labels(spec, gap)


WORKLOADS = {w.name: w for w in (EdgeLabels, EdgeTrace, MathieuFlow,
                                  MathieuReport, GoldenScan)}
