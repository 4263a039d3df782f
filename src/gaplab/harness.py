"""Experiment orchestration: configuration, the per-gap label pipeline,
report assembly with cross-label verdicts, and persistence.

A run detects the gaps of the configured potential, computes every label for
each gap (density of states, phase rotation number by both routes, Dirichlet
rotation number in both circle variants, trace invariant by operator and by
curve formula, boundary force), and records the pairwise discrepancy matrix.
A pair passes when the absolute difference is at most the sum of the two
error estimates.  Runs are deterministic: no clocks, no unseeded randomness.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import dirichlet, klabel, rotation, spectrum
from .potentials import PotentialSpec, WindowChain
from .spectrum import Gap

LABEL_NAMES = ("ids", "alpha_lift", "beta_right", "pi_trace", "pi_curves",
               "boundary_force")

# the label fields of GapLabelReport, in report order
REPORT_LABELS = ("ids", "alpha_lift", "alpha_zero_density", "beta_right",
                 "beta_two_sided", "pi_trace", "pi_curves", "boundary_force")

NAMED_EQUALITIES = (
    ("alpha_eq_ids", "alpha_lift", "ids"),
    ("alpha_eq_beta", "alpha_lift", "beta_right"),
    ("beta_variants_agree", "beta_right", "beta_two_sided"),
    ("beta_eq_pi_trace", "beta_right", "pi_trace"),
    ("pi_trace_eq_pi_curves", "pi_trace", "pi_curves"),
    ("ids_eq_pi_trace", "ids", "pi_trace"),
    ("force_eq_pi_curves", "boundary_force", "pi_curves"),
)


# the keys of each INI section; those of scan and numerics name the scalar
# ExperimentConfig fields
INI_KEYS = {"potential": ("kind", "terms"), "output": ("dir",),
            "scan": ("e_min", "e_max", "resolution"),
            "chain_x": ("half_width", "ratio", "count"),
            "chain_xi": ("half_width", "ratio", "count"),
            "numerics": ("L", "h", "dxi", "gap_edge_margin", "mass_threshold",
                         "trace_window_halfwidth", "max_gaps")}


@dataclass(frozen=True)
class ExperimentConfig:
    potential: PotentialSpec
    e_min: float = -2.0
    e_max: float = 4.0
    resolution: float = 0.02
    x_chain: WindowChain = field(
        default_factory=lambda: WindowChain.geometric(25.0, 1.6, 10))
    xi_chain: WindowChain = field(
        default_factory=lambda: WindowChain.geometric(10.0, 1.6, 8))
    L: float = 60.0
    h: float = 0.01
    dxi: float = 0.1
    gap_edge_margin: float = 0.01
    mass_threshold: float = 0.5
    trace_window_halfwidth: float = math.pi
    max_gaps: int | None = None
    out_dir: str | None = None

    def __post_init__(self):
        for name in ("resolution", "L", "h", "dxi", "gap_edge_margin",
                     "trace_window_halfwidth"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 < self.mass_threshold < 1:   # a fraction of a state's mass
            raise ValueError("mass_threshold must lie in (0, 1)")
        if not -math.inf < self.e_min < self.e_max < math.inf:
            raise ValueError("need finite e_min < e_max")
        if self.gap_edge_margin >= 0.5:
            raise ValueError("gap_edge_margin must be below 0.5, or the "
                             "trimmed gap is empty")
        if self.max_gaps is not None and not self.max_gaps >= 0:
            raise ValueError("max_gaps must be non-negative")
        for name in ("x_chain", "xi_chain"):
            if len(getattr(self, name)) < 2:
                raise ValueError(f"{name} needs two or more windows: the "
                                 "change between the last two is the error")


def _cosine_terms(chunks, sep) -> list:
    """The (A, f, p) triple of each chunk, three numbers split at sep."""
    terms = []
    for chunk in chunks:
        parts = chunk.split(sep)
        if len(parts) != 3:
            raise ValueError(f"bad potential term {chunk!r}: want A, f, p")
        terms.append(tuple(float(p) for p in parts))
    return terms


def parse_potential_arg(text: str) -> PotentialSpec:
    """CLI potential syntax: 'zero' or 'A,f,p[;A,f,p...]'."""
    text = text.strip()
    if text == "zero":
        return PotentialSpec.zero()
    return PotentialSpec.cosine_sum(_cosine_terms(text.split(";"), ","))


def load_config(path: str) -> ExperimentConfig:
    """Read the flat INI-style experiment file; a section or key that
    INI_KEYS does not list is an error, not ignored."""
    cp = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        cp.read_file(fh)
    for section in cp.sections():
        if section not in INI_KEYS:
            raise ValueError(f"unknown INI section [{section}]")
        unknown = set(cp[section]) - {k.lower() for k in INI_KEYS[section]}
        if unknown:
            raise ValueError(f"unknown key(s) {sorted(unknown)} in INI "
                             f"section [{section}]")
    kwargs = {"potential": PotentialSpec(
        cp.get("potential", "kind").strip(),
        _cosine_terms(cp.get("potential", "terms", fallback="").strip()
                      .splitlines(), None))}
    for section in ("scan", "numerics"):
        for key in INI_KEYS[section]:
            if cp.has_option(section, key):
                get = cp.getint if key == "max_gaps" else cp.getfloat
                kwargs[key] = get(section, key)
    for section, attr in (("chain_x", "x_chain"), ("chain_xi", "xi_chain")):
        if cp.has_section(section):
            kwargs[attr] = WindowChain.geometric(
                half_width=cp.getfloat(section, "half_width"),
                ratio=cp.getfloat(section, "ratio"),
                count=cp.getint(section, "count"))
    if cp.has_option("output", "dir"):
        kwargs["out_dir"] = cp.get("output", "dir")
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class LabelValue:
    value: float
    err: float

    def to_dict(self):
        return {"value": self.value, "err": self.err}


@dataclass(frozen=True)
class GapLabelReport:
    gap: Gap
    ids: LabelValue
    alpha_lift: LabelValue
    alpha_zero_density: LabelValue
    beta_right: LabelValue
    beta_two_sided: LabelValue
    pi_trace: LabelValue
    pi_curves: LabelValue
    boundary_force: LabelValue
    max_dirichlet_count: int
    discrepancies: dict
    verdicts: dict

    @property
    def all_pass(self) -> bool:
        return all(v == "pass" for v in self.verdicts.values())

    def to_dict(self) -> dict:
        d = {"gap": {"e_lower": self.gap.e_lower, "e_upper": self.gap.e_upper,
                     "confidence": self.gap.confidence}}
        for name in REPORT_LABELS:
            d[name] = getattr(self, name).to_dict()
        d.update(max_dirichlet_count=self.max_dirichlet_count,
                 discrepancies=self.discrepancies, verdicts=self.verdicts)
        return d


def _compare(la: LabelValue, lb: LabelValue) -> dict:
    """Two labels agree when they differ by at most the sum of their errors."""
    diff = abs(la.value - lb.value)
    tol = la.err + lb.err
    return {"diff": diff, "tol": tol, "pass": bool(diff <= tol)}


def _discrepancy_matrix(labels: dict[str, LabelValue]) -> dict:
    names = [n for n in LABEL_NAMES if n in labels]
    return {f"{a}_vs_{b}": _compare(labels[a], labels[b])
            for i, a in enumerate(names) for b in names[i + 1:]}


def edge_state_labels(config: ExperimentConfig, gap: Gap, flow):
    """The edge-state labels of one gap: pi_trace on the lattice over the
    configured trace window, pi_curves and boundary_force on the flow."""
    w = config.trace_window_halfwidth
    pt = klabel.pi_trace(config.potential, gap, (-w, w), config.dxi,
                         config.L, config.h,
                         mass_threshold=config.mass_threshold)
    pc = klabel.pi_curves(flow, gap, config.xi_chain)
    bf = klabel.boundary_force(flow, gap, config.xi_chain)
    return pt, pc, bf


def label_gap(config: ExperimentConfig, gap: Gap):
    """Compute every label and verdict for one gap of detect_gaps(config).

    Returns (report, flow, beta_result, pi_trace_result); the trailing
    entries are the reusable raw artifacts behind the report.
    """
    spec = config.potential

    ids_res = spectrum.ids(spec, gap.mid, config.x_chain)
    alpha_res = rotation.johnson_moser_alpha(spec, gap.mid,
                                             chain=config.x_chain,
                                             in_gap=True)
    flow = dirichlet.trace_flow(spec, gap, *config.xi_chain.largest,
                                config.dxi, config.L,
                                sides=(dirichlet.RIGHT, dirichlet.LEFT))
    beta_r = dirichlet.beta(spec, gap, config.xi_chain, config.dxi, config.L,
                            "right_only", flow=flow)
    beta_t = dirichlet.beta(spec, gap, config.xi_chain, config.dxi, config.L,
                            "two_sided", flow=flow)
    pt, pc, bf = edge_state_labels(config, gap, flow)

    labels = {
        "ids": LabelValue(ids_res.value, ids_res.error_estimate),
        "alpha_lift": LabelValue(alpha_res.value, alpha_res.error_estimate),
        "beta_right": LabelValue(beta_r.value, beta_r.error_estimate),
        "beta_two_sided": LabelValue(beta_t.value, beta_t.error_estimate),
        "pi_trace": LabelValue(pt.value, pt.error_estimate),
        "pi_curves": LabelValue(pc.value, pc.error_estimate),
        "boundary_force": LabelValue(bf.value, bf.error_estimate),
    }
    verdicts = {name: "pass" if _compare(labels[a], labels[b])["pass"]
                else "fail" for name, a, b in NAMED_EQUALITIES}

    return GapLabelReport(
        gap=gap,
        alpha_zero_density=LabelValue(
            alpha_res.zero_density_mean.extrapolated,
            alpha_res.zero_density_mean.error_estimate),
        max_dirichlet_count=bf.max_dirichlet_count,
        discrepancies=_discrepancy_matrix(labels),
        verdicts=verdicts,
        **labels,
    ), flow, beta_r, pt


def _scan(config: ExperimentConfig):
    """detect_gaps(config), with the scan energies and the bump-mean
    rotation number rho_T on the largest x window there."""
    gaps, energies, rho = spectrum._scan(
        config.potential, config.e_min, config.e_max, config.resolution,
        config.x_chain)
    return [replace(g, margin_fraction=config.gap_edge_margin)
            for g in gaps[: config.max_gaps]], energies, rho


def detect_gaps(config: ExperimentConfig) -> list[Gap]:
    """The configured scan's gaps, at most max_gaps of them, each carrying
    the configured edge margin."""
    return _scan(config)[0]


def run(config: ExperimentConfig):
    """Full pipeline: detect gaps, label each, optionally persist artifacts."""
    gaps, energies, rho = _scan(config)
    reports = []
    artifacts = []
    for gi, gap in enumerate(gaps):
        try:
            report, flow, beta_r, pt = label_gap(config, gap)
        except Exception as exc:
            raise type(exc)(f"labelling gap {gi} ({gap.e_lower:.6f}, "
                            f"{gap.e_upper:.6f}) failed: {exc}") from exc
        reports.append(report)
        artifacts.append((gap, flow, beta_r, pt))
    if config.out_dir:
        persist(config, reports, artifacts, energies, rho)
    return reports


def _fmt(x) -> str:
    return repr(float(x))


def write_flow_curves(path: str, flows) -> None:
    """CSV of the flow curves, one flow per gap: gap_id,curve_id,side,xi,mu."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("gap_id,curve_id,side,xi,mu\n")
        for gi, flow in enumerate(flows):
            for ci, c in enumerate(flow):
                for x, m in zip(c.xi, c.mu):
                    fh.write(f"{gi},{ci},{c.side},{_fmt(x)},{_fmt(m)}\n")


def persist(config: ExperimentConfig, reports, artifacts, energies,
            rho) -> None:
    """Write the JSON report and the CSV artifacts under out_dir; energies
    and rho are the gap scan's energies and its IDS rho_T there."""
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2)
        fh.write("\n")

    with open(os.path.join(out, "ids_scan.csv"), "w", encoding="utf-8") as fh:
        fh.write("energy,ids\n")
        for e, r in zip(energies, rho):
            fh.write(f"{_fmt(e)},{_fmt(r)}\n")

    write_flow_curves(os.path.join(out, "flow_curves.csv"),
                      [flow for _, flow, _, _ in artifacts])

    for name, lifts in (("mu_tilde_phase.csv",
                         [(a[2].xi_grid, a[2].lift) for a in artifacts]),
                        ("trace_phase.csv",
                         [(a[3].xi_nodes, a[3].phase) for a in artifacts])):
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write("gap_id,xi,phase\n")
            for gi, (xs, phase) in enumerate(lifts):
                for x, p in zip(xs, phase):
                    fh.write(f"{gi},{_fmt(x)},{_fmt(p)}\n")


def convergence_study(config: ExperimentConfig, parameter: str,
                      values=None) -> list[dict]:
    """Observed convergence under refinement of one numerical control.

    h: lowest free-box eigenvalue, expected second order.
    L: a mid-gap Dirichlet value, expected exponential stabilization (a
    ratio of successive differences is reported while the earlier one is
    above the root tolerance; below it both are root-finding noise).
    dxi: the Dirichlet rotation number of the first gap.
    chain: free-potential rotation number at E = 1 by both alpha routes;
    the bump means carry no one-over-length boundary term.
    """
    rows = []
    if parameter == "h":
        values = values or [math.pi / 500, math.pi / 1000, math.pi / 2000,
                            math.pi / 4000]
        free = PotentialSpec.zero()
        prev_err = None
        for h in values:
            op = klabel.build_halfline(free, 0.0, math.pi, h)
            from scipy.linalg import eigvalsh_tridiagonal
            w = eigvalsh_tridiagonal(op.diag, op.offdiag, select="i",
                                     select_range=(0, 0))
            err = abs(float(w[0]) - 1.0)
            row = {"h": h, "eigenvalue": float(w[0]), "error": err}
            if prev_err is not None:
                row["order"] = math.log(prev_err / err) / math.log(2.0)
            prev_err = err
            rows.append(row)
    elif parameter == "L":
        # the truncation error decays like exp(-2 kappa L); small L keeps it
        # visible above the root-finding tolerance
        values = values or [10.0, 14.0, 18.0, 22.0, 26.0]
        gaps = detect_gaps(config)
        if not gaps:
            raise ValueError("no gap found for the L sweep")
        gap = gaps[0]
        for xi in np.linspace(0.0, 8.0, 33):
            vals = dirichlet.right_dirichlet_values(config.potential, xi,
                                                    gap, max(values))
            if any(abs(v - gap.mid) < 0.35 * gap.width for v in vals):
                xi_star = float(xi)
                break
        else:
            raise ValueError("no mid-gap Dirichlet value found for L sweep")
        prev = prev_diff = None
        for L in values:
            vals = dirichlet.right_dirichlet_values(config.potential,
                                                    xi_star, gap, L)
            mu = min(vals, key=lambda v: abs(v - gap.mid))
            row = {"L": L, "mu": float(mu)}
            if prev is not None:
                diff = abs(mu - prev)
                row["diff"] = diff
                if prev_diff is not None and prev_diff > dirichlet.VALUE_TOL:
                    row["ratio"] = diff / prev_diff
                prev_diff = diff
            prev = mu
            rows.append(row)
    elif parameter == "dxi":
        values = values or [0.4, 0.2, 0.1, 0.05]
        gaps = detect_gaps(config)
        if not gaps:
            raise ValueError("no gap found for the dxi sweep")
        gap = gaps[0]
        for dxi in values:
            b = dirichlet.beta(config.potential, gap, config.xi_chain, dxi,
                               config.L)
            rows.append({"dxi": dxi, "beta": b.value,
                         "err": b.error_estimate})
    elif parameter == "chain":
        values = values or [4, 5, 6, 7, 8]
        free = PotentialSpec.zero()
        for count in values:
            chain = WindowChain.geometric(25.0, 1.6, int(count))
            a = rotation.johnson_moser_alpha(free, 1.0, chain=chain)
            zd = a.zero_density_mean.window_values[-1][1]
            rows.append({"count": int(count),
                         "window_length": float(chain.lengths[-1]),
                         "alpha": a.value,
                         "error": abs(a.value - 1.0 / math.pi),
                         "zero_density_error": abs(zd - 1.0 / math.pi)})
    else:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    return rows
