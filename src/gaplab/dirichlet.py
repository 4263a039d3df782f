"""Dirichlet values in a spectral gap, their flow under translation, and the
rotation number of the associated circle map.

At a gap energy the half-line operator on (-infinity, 0] has an eigenvalue mu
exactly when the left-decaying solution vanishes at the origin, i.e. when the
boundary phase theta(0; E, xi) hits a multiple of pi.  Since theta(0; .) is
strictly monotone in E, enumerating the multiples of pi between the phases at
the two (margin-trimmed) gap edges finds every candidate, and bisection pins
each one.

Truncating (-infinity, 0] to [-L, 0] adds one artifact per gap: the seeded
left end behaves like a box end and carries its own in-gap bound state, which
shows up as a sharp extra pi-step of theta(0; E) at a truncation-dependent
energy.  Candidates are therefore re-checked at 1.5 L; genuine roots keep a
tiny boundary sine there while artifacts move away and fail loudly.

Curves mu(xi) are assembled from the per-offset root sets by nearest-value
continuation (right curves fall, left curves rise, and curves of one family
never cross, so matching is unambiguous at adequate resolution).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import prufer, rotation
from .potentials import PotentialSpec, WindowChain
from .prufer import LEFT, RIGHT
from .spectrum import Gap

TWO_PI = 2.0 * math.pi

ENTERS_UPPER = "enters_from_upper_edge"
EXITS_LOWER = "exits_lower_edge"
ENTERS_LOWER = "enters_from_lower_edge"
EXITS_UPPER = "exits_upper_edge"
PERSISTS = "persists"

UPPER = "upper"
LOWER = "lower"

STABILITY_FACTOR = 1.5
STABILITY_RESIDUAL = 1e-2


class FlowResolutionError(RuntimeError):
    """Offset step too coarse to disentangle the flow, even after halving."""


def default_xi_chain() -> WindowChain:
    """Offset-window chain used for the circle-map rotation number."""
    return WindowChain.geometric(half_width=10.0, ratio=1.6, count=8)


@dataclass(frozen=True)
class CurveFamily:
    """How the curves of one side cross a gap as xi increases."""

    direction: float  # sign of d(mu)/d(xi)
    entry_edge: str
    exit_edge: str
    entry_event: str
    exit_event: str


# a right curve falls from the upper edge to the lower one; a left curve
# rises the other way
FAMILIES = {
    RIGHT: CurveFamily(-1.0, UPPER, LOWER, ENTERS_UPPER, EXITS_LOWER),
    LEFT: CurveFamily(1.0, LOWER, UPPER, ENTERS_LOWER, EXITS_UPPER),
}


def _edge_energy(gap: Gap, edge: str) -> float:
    return gap.e_upper if edge == UPPER else gap.e_lower


def _near_edge(mu: float, gap: Gap, edge: str, band: float) -> bool:
    """Whether mu lies within band of the trimmed gap's given edge."""
    lo_t, hi_t = gap.trimmed()
    return mu >= hi_t - band if edge == UPPER else mu <= lo_t + band


@dataclass(frozen=True)
class DirichletCurve:
    """A continued branch xi -> mu(xi) of half-line eigenvalues in a gap."""

    side: str
    gap: Gap
    xi: np.ndarray
    mu: np.ndarray
    events: tuple[str, ...]
    entry_xi: float | None = None
    exit_xi: float | None = None

    def __len__(self) -> int:
        return len(self.xi)

    def extended(self) -> tuple[np.ndarray, np.ndarray]:
        """(xi, mu) extended linearly to the true-edge crossings."""
        family = FAMILIES[self.side]
        cxi = list(self.xi)
        cmu = list(self.mu)
        if self.entry_xi is not None and self.entry_xi < cxi[0]:
            cxi = [self.entry_xi] + cxi
            cmu = [_edge_energy(self.gap, family.entry_edge)] + cmu
        if self.exit_xi is not None and self.exit_xi > cxi[-1]:
            cxi = cxi + [self.exit_xi]
            cmu = cmu + [_edge_energy(self.gap, family.exit_edge)]
        return np.array(cxi), np.array(cmu)


def _xi_grid(xi_from: float, xi_to: float, dxi: float) -> np.ndarray:
    n = max(2, int(round((xi_to - xi_from) / dxi)) + 1)
    return np.linspace(xi_from, xi_to, n)


def _scan_theta_at_zero(spec, energies, offsets, L, side, rtol):
    """Boundary phase theta(0) of one side's half-line problem, for arrays of
    (E, xi): the decaying seed plus one theta_grid pass.

    theta(0) increases with E for RIGHT (forward from -L) and decreases with
    E for LEFT (backward from +L).
    """
    x0, seeds = prufer.decaying_start(spec, energies, offsets, L, side)
    return prufer.theta_grid(spec, energies, offsets, x0, 0.0, seeds,
                             rtol=rtol, atol=rtol * 1e-2)


def _phase_order(lo, hi, side):
    """(below, above): the ends of [lo, hi] where theta(0) is lower, higher."""
    return (lo, hi) if side == RIGHT else (hi, lo)


def _root_scan(spec: PotentialSpec, gap: Gap, offsets: np.ndarray, L: float,
               side: str, *, mu_tol: float, rtol: float,
               resid_tol: float = STABILITY_RESIDUAL,
               _depth: int = 0) -> list[np.ndarray]:
    """Genuine Dirichlet values in the trimmed gap for every offset.

    Bracket with the boundary phases at the trimmed edges, bisect every
    candidate multiple of pi, then drop truncation artifacts by the 1.5 L
    residual test.  At the isolated offsets where the artifact branch
    crosses a genuine curve, the ghost root sits so close to the true
    eigenvalue that it passes the residual test too; such near-duplicate
    pairs are re-resolved at doubled truncation, where the artifact lands
    elsewhere.  Returns one ascending array per offset.
    """
    lo, hi = gap.trimmed()
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.shape[0]
    below, above = _phase_order(lo, hi, side)
    edges = np.array([[below], [above]])
    t_lo, t_hi = _scan_theta_at_zero(spec, edges, offsets[None, :], L, side,
                                     rtol)
    k_min = np.floor(t_lo / math.pi + 1e-12).astype(int) + 1
    k_max = np.floor(t_hi / math.pi + 1e-12).astype(int)

    idx = []
    targets = []
    for j in range(n):
        for k in range(k_min[j], k_max[j] + 1):
            idx.append(j)
            targets.append(k * math.pi)
    if not idx:
        return [np.empty(0) for _ in range(n)]
    idx = np.array(idx)
    targets = np.array(targets)
    xi_c = offsets[idx]
    roots = prufer.bisect(
        lambda e: _scan_theta_at_zero(spec, e, xi_c, L, side, rtol),
        below, above, targets, mu_tol)

    t_check = _scan_theta_at_zero(spec, roots, xi_c, STABILITY_FACTOR * L,
                                  side, rtol)
    genuine = np.abs(np.sin(t_check)) < resid_tol
    # second chance at 1.5^2 L: a genuine root can fail the first check when
    # the checking problem's own truncation artifact happens to sit on it
    retry = ~genuine
    if np.any(retry):
        t2 = _scan_theta_at_zero(spec, roots[retry], xi_c[retry],
                                 STABILITY_FACTOR ** 2 * L, side, rtol)
        genuine[retry] = np.abs(np.sin(t2)) < resid_tol

    out = [[] for _ in range(n)]
    for j, mu, ok in zip(idx, roots, genuine):
        if ok:
            out[j].append(float(mu))
    result = [np.array(sorted(v)) for v in out]

    dup_tol = 0.03 * (hi - lo)
    suspect = [j for j, v in enumerate(result)
               if len(v) >= 2 and np.min(np.diff(v)) < dup_tol]
    if suspect and _depth < 2:
        redo = _root_scan(spec, gap, offsets[suspect], 2.0 * L, side,
                          mu_tol=mu_tol, rtol=rtol, resid_tol=resid_tol,
                          _depth=_depth + 1)
        for j, v in zip(suspect, redo):
            result[j] = v
    elif suspect:
        # out of escalations: keep the better-verified member of each pair
        for j in suspect:
            v = result[j]
            kept = [v[0]]
            for x in v[1:]:
                if x - kept[-1] >= dup_tol:
                    kept.append(x)
            result[j] = np.array(kept)
    return result


def right_dirichlet_values(spec: PotentialSpec, xi: float, gap: Gap,
                           L: float = 60.0, *, tol: float = 1e-10,
                           rtol: float = 1e-12) -> list[float]:
    """Eigenvalues of the left half-line operator inside the trimmed gap.

    Single-offset queries run at a tight integrator tolerance so a found
    root reproduces |sin theta(0)| below 1e-10 on recheck.
    """
    roots = _root_scan(spec, gap, np.array([float(xi)]), L, RIGHT,
                       mu_tol=tol, rtol=rtol)
    return roots[0].tolist()


def left_dirichlet_values(spec: PotentialSpec, xi: float, gap: Gap,
                          L: float = 60.0, *, tol: float = 1e-10,
                          rtol: float = 1e-12) -> list[float]:
    """Mirror image: eigenvalues of the right half-line operator in the gap."""
    roots = _root_scan(spec, gap, np.array([float(xi)]), L, LEFT,
                       mu_tol=tol, rtol=rtol)
    return roots[0].tolist()


def _assemble_side(side: str, xis: np.ndarray, roots_per_xi, gap: Gap,
                   dxi: float):
    """Nearest-value continuation of per-offset root sets into curves.

    Right curves are strictly decreasing and non-intersecting (left ones
    strictly increasing), so the previous sample plus a one-step slope
    prediction identifies the continuation; a second root competing within
    half the matching tolerance marks the step as under-resolved.
    """
    width = gap.width
    direction = FAMILIES[side].direction
    active: list[dict] = []
    finished: list[dict] = []
    ambiguous = False
    for j, xi in enumerate(xis):
        roots = list(roots_per_xi[j])
        preds = [c["mu"][-1] + c["slope"] * (xi - c["xi"][-1]) for c in active]
        pairs = sorted(
            (abs(r - p), ci, ri)
            for ci, p in enumerate(preds)
            for ri, r in enumerate(roots)
        )
        used_c: set[int] = set()
        used_r: set[int] = set()
        for dist, ci, ri in pairs:
            if ci in used_c or ri in used_r:
                continue
            c = active[ci]
            if len(c["mu"]) < 2:
                # slope unknown; accept anything up to the displacement cap
                tol = 0.25 * width
            else:
                tol = max(6.0 * abs(c["slope"]) * dxi, 0.05 * width)
            if dist > tol:
                continue
            # a step against the family's direction is never a continuation
            if direction * (roots[ri] - c["mu"][-1]) < -0.5 * tol:
                continue
            rivals = [d for d, c2, r2 in pairs
                      if c2 == ci and r2 != ri and r2 not in used_r
                      and d <= tol]
            if rivals and min(rivals) < dist + 0.5 * tol:
                ambiguous = True
            c["xi"].append(float(xi))
            c["mu"].append(float(roots[ri]))
            if len(c["mu"]) >= 2:
                c["slope"] = ((c["mu"][-1] - c["mu"][-2])
                              / (c["xi"][-1] - c["xi"][-2]))
            used_c.add(ci)
            used_r.add(ri)
        survivors = []
        for ci, c in enumerate(active):
            if ci in used_c:
                survivors.append(c)
            else:
                finished.append(c)
        active = survivors
        for ri, r in enumerate(roots):
            if ri not in used_r:
                active.append({"xi": [float(xi)], "mu": [float(r)],
                               "slope": 0.0})
    finished.extend(active)
    return finished, ambiguous


def _extrapolate(x0, y0, x1, y1, target):
    if y1 == y0:
        return x1
    return x1 + (target - y1) * (x1 - x0) / (y1 - y0)


def _curve_events(side: str, raw: dict, xis: np.ndarray, gap: Gap,
                  dxi: float):
    """Edge events of an assembled curve of two or more samples, with its
    true-edge crossings.

    An end that lies inside the offset grid is an edge event when it sits
    within a band of its trimmed edge; the band widens with the slope of
    that end's own step, along which the crossing is extrapolated.
    """
    family = FAMILIES[side]
    cxi = np.array(raw["xi"])
    cmu = np.array(raw["mu"])

    def crossing(end, inner, edge):
        slope = (cmu[end] - cmu[inner]) / (cxi[end] - cxi[inner])
        band = max(4.0 * abs(slope) * dxi, 0.08 * gap.width)
        if not _near_edge(cmu[end], gap, edge, band):
            return None
        return _extrapolate(cxi[inner], cmu[inner], cxi[end], cmu[end],
                            _edge_energy(gap, edge))

    starts_inside = cxi[0] > xis[0] + 0.5 * dxi
    ends_inside = cxi[-1] < xis[-1] - 0.5 * dxi
    entry_xi = crossing(0, 1, family.entry_edge) if starts_inside else None
    exit_xi = crossing(-1, -2, family.exit_edge) if ends_inside else None
    events = [event for event, x in ((family.entry_event, entry_xi),
                                     (family.exit_event, exit_xi))
              if x is not None]
    if not starts_inside and not ends_inside:
        events.append(PERSISTS)
    return tuple(events), entry_xi, exit_xi


def trace_flow(spec: PotentialSpec, gap: Gap, xi_from: float, xi_to: float,
               dxi: float, L: float = 60.0, *, sides=(RIGHT,),
               mu_tol: float = 1e-8, rtol: float = 1e-8,
               max_halvings: int = 3) -> list[DirichletCurve]:
    """Assemble the Dirichlet-value curves over an offset sweep.

    The offset step is halved (up to max_halvings times) whenever the
    continuation is ambiguous or a curve moves more than 20% of the gap
    width per step.
    """
    if not xi_to > xi_from:
        raise ValueError("need xi_from < xi_to")
    step = float(dxi)
    for _ in range(max_halvings + 1):
        xis = _xi_grid(xi_from, xi_to, step)
        curves: list[DirichletCurve] = []
        for side in sides:
            roots = _root_scan(spec, gap, xis, L, side,
                               mu_tol=mu_tol, rtol=rtol)
            raw_curves, ambiguous = _assemble_side(side, xis, roots, gap, step)
            raw_curves = [raw for raw in raw_curves if len(raw["mu"]) >= 2]
            if ambiguous or any(
                    np.max(np.abs(np.diff(raw["mu"]))) > 0.2 * gap.width
                    for raw in raw_curves):
                break
            for raw in raw_curves:
                events, entry_xi, exit_xi = _curve_events(side, raw, xis,
                                                          gap, step)
                curves.append(DirichletCurve(
                    side=side, gap=gap,
                    xi=np.array(raw["xi"]), mu=np.array(raw["mu"]),
                    events=events, entry_xi=entry_xi, exit_xi=exit_xi))
        else:
            return curves
        step *= 0.5
    raise FlowResolutionError(
        f"flow not resolved at dxi={step * 2} after {max_halvings} halvings")


@dataclass(frozen=True)
class DerivativeCheck:
    finite_difference: float
    analytic: float


def _refine_root_near(spec, gap, xi, mu_guess, side, L, *, tol, rtol,
                      band=None):
    """Re-pin a single Dirichlet value near a guess at one offset."""
    lo_t, hi_t = gap.trimmed()
    band = band or max(0.05 * gap.width, 1e-3)
    lo = max(lo_t, mu_guess - band)
    hi = min(hi_t, mu_guess + band)
    th = _scan_theta_at_zero(spec, np.array([lo, hi, mu_guess]),
                             np.asarray(xi, dtype=float), L, side, rtol)
    target = round(float(th[2]) / math.pi) * math.pi
    if not (min(th[0], th[1]) < target <= max(th[0], th[1])):
        lo, hi = lo_t, hi_t  # fall back to the full trimmed gap
    below, above = _phase_order(lo, hi, side)
    return float(prufer.bisect(
        lambda e: _scan_theta_at_zero(spec, e, xi, L, side, rtol),
        below, above, target, tol))


def flow_derivative_check(spec: PotentialSpec, curve: DirichletCurve,
                          index: int, L: float, *, delta: float = 1e-3,
                          tol: float = 1e-11,
                          rtol: float = 1e-10) -> DerivativeCheck:
    """Compare d(mu)/d(xi) against the boundary-derivative formula.

    The finite difference refines the curve's eigenvalue at xi +/- delta;
    the analytic value is -|psi'(0)|^2 for the half-line eigenfunction
    normalized on [-L, 0] (positive mirror for left curves).
    """
    if not 0 < index < len(curve) - 1:
        raise ValueError("need an interior sample of the curve")
    xi0 = float(curve.xi[index])
    mu0 = float(curve.mu[index])
    side = curve.side
    mu_c = _refine_root_near(spec, curve.gap, xi0, mu0, side, L,
                             tol=tol, rtol=rtol)
    slope_guess = abs(float(curve.mu[index + 1] - curve.mu[index - 1])
                      / float(curve.xi[index + 1] - curve.xi[index - 1]))
    band = max(10.0 * slope_guess * delta, 1e-4 * curve.gap.width)
    mu_p = _refine_root_near(spec, curve.gap, xi0 + delta, mu_c, side, L,
                             tol=tol, rtol=rtol, band=band)
    mu_m = _refine_root_near(spec, curve.gap, xi0 - delta, mu_c, side, L,
                             tol=tol, rtol=rtol, band=band)
    fd = (mu_p - mu_m) / (2.0 * delta)
    bd = prufer.boundary_data(spec, mu_c, xi0, L, side=side, rtol=rtol)
    analytic = FAMILIES[side].direction * bd.dpsi_normalized ** 2
    return DerivativeCheck(finite_difference=float(fd),
                           analytic=float(analytic))


@dataclass(frozen=True)
class InterlacingReport:
    """Alternation of right/left Dirichlet offsets at a fixed gap energy."""

    s_points: tuple[float, ...]
    s_star_points: tuple[float, ...]
    violations: tuple[tuple[float, float, int], ...]
    zero_set_max_deviation: float | None
    passed: bool


def _offset_crossings(spec, gap, mu, xi_lo, xi_hi, L, side, *, dxi, rtol):
    """Offsets where mu is a Dirichlet value: crossings of the boundary sine."""
    n = max(3, int(math.ceil((xi_hi - xi_lo) / dxi)) + 1)
    xis = np.linspace(xi_lo, xi_hi, n)
    th = _scan_theta_at_zero(spec, float(mu), xis, L, side, rtol)
    kf = np.floor(th / math.pi + 1e-12).astype(int)
    below, above, targets = [], [], []
    for j in range(n - 1):
        upward = kf[j + 1] > kf[j]
        for k in range(min(kf[j], kf[j + 1]) + 1, max(kf[j], kf[j + 1]) + 1):
            below.append(xis[j] if upward else xis[j + 1])
            above.append(xis[j + 1] if upward else xis[j])
            targets.append(k * math.pi)
    if not targets:
        return np.empty(0)
    roots = np.sort(prufer.bisect(
        lambda x: _scan_theta_at_zero(spec, float(mu), x, L, side, rtol),
        below, above, targets, 1e-11))
    t_check = _scan_theta_at_zero(spec, float(mu), roots,
                                  STABILITY_FACTOR * L, side, rtol)
    return roots[np.abs(np.sin(t_check)) < STABILITY_RESIDUAL]


def interlacing_check(spec: PotentialSpec, gap: Gap, mu: float, xi_range,
                      L: float = 60.0, *, dxi: float = 0.05,
                      rtol: float = 1e-11) -> InterlacingReport:
    """Between consecutive right-Dirichlet offsets lies exactly one left one.

    Also cross-computes the right set against the zero set of the half-line
    eigenfunction translated from the first member (the two must coincide),
    reporting the worst deviation.
    """
    xi_lo, xi_hi = float(xi_range[0]), float(xi_range[1])
    s = _offset_crossings(spec, gap, mu, xi_lo, xi_hi, L, RIGHT,
                          dxi=dxi, rtol=rtol)
    s_star = _offset_crossings(spec, gap, mu, xi_lo, xi_hi, L, LEFT,
                               dxi=dxi, rtol=rtol)
    violations = []
    for a, b in zip(s[:-1], s[1:]):
        inside = int(np.sum((s_star > a) & (s_star < b)))
        if inside != 1:
            violations.append((float(a), float(b), inside))

    zero_dev = None
    if len(s):
        xi0 = float(s[0])
        x_end = xi_hi - xi0
        span_lo = min(-L, xi_lo - xi0 - 1.0)
        seed = prufer.seed_decaying_left(spec, mu, xi0, -span_lo)
        tr = prufer.integrate(spec, mu, xi0, span_lo, max(x_end, span_lo + 1.0),
                              seed, rtol=1e-12, atol_theta=1e-14,
                              atol_logr=1e-14, max_step=0.05)
        zs = prufer.zeros(tr, xi_lo - xi0 - 1e-9, x_end)
        z_set = zs + xi0
        z_set = z_set[(z_set >= xi_lo - 1e-9) & (z_set <= xi_hi + 1e-9)]
        if len(z_set) != len(s):
            zero_dev = math.inf
        elif len(z_set):
            zero_dev = float(np.max(np.abs(np.sort(z_set) - s)))
        else:
            zero_dev = 0.0
    passed = not violations and (zero_dev is None or zero_dev < 1e-6)
    return InterlacingReport(
        s_points=tuple(float(v) for v in s),
        s_star_points=tuple(float(v) for v in s_star),
        violations=tuple(violations),
        zero_set_max_deviation=zero_dev,
        passed=passed)


def circle_phase(right_values, left_values, gap: Gap, variant: str) -> float:
    """Phase angle of the circle map built from Dirichlet values."""
    w = gap.width
    r = sum((float(m) - gap.e_lower) / w for m in right_values)
    if variant == "right_only":
        return TWO_PI * r
    if variant == "two_sided":
        l = sum((float(m) - gap.e_lower) / w for m in left_values)
        return math.pi * (r - l)
    raise ValueError(f"unknown variant {variant!r}")


def mu_tilde(spec: PotentialSpec, gap: Gap, xi: float, L: float = 60.0,
             variant: str = "right_only") -> complex:
    """The unit-circle point encoding the Dirichlet values at one offset."""
    rights = right_dirichlet_values(spec, xi, gap, L)
    lefts = (left_dirichlet_values(spec, xi, gap, L)
             if variant == "two_sided" else [])
    return cmath.exp(1j * circle_phase(rights, lefts, gap, variant))


def _min_jump_lift(raw: np.ndarray) -> np.ndarray:
    d = np.diff(raw)
    d = d - TWO_PI * np.round(d / TWO_PI)
    return raw[0] + np.concatenate([[0.0], np.cumsum(d)])


def _pair_top_edge_events(curves, xis):
    """Snap coincident upper-edge events to one common crossing offset.

    A right curve entering through the upper edge and a left curve exiting
    there are the same spectral event (at a band edge the two decaying
    solutions merge), so in the two-sided circle map their pi-sized phase
    contributions must cancel exactly.  Linear extrapolation puts the two
    crossings slightly apart; snapping both to the midpoint keeps the raw
    phase sum continuous for the minimal-jump unwrap.  Returns the curves
    in order, the paired ones with their crossings replaced.
    """
    dxi = float(xis[1] - xis[0]) if len(xis) > 1 else 0.1
    pair_tol = max(8.0 * dxi, 0.5)
    snapped: dict[int, DirichletCurve] = {}
    lefts = [c for c in curves
             if c.side == LEFT and c.exit_xi is not None]
    used: set[int] = set()
    for rc in curves:
        if rc.side != RIGHT or rc.entry_xi is None:
            continue
        best = None
        for lc in lefts:
            if id(lc) in used:
                continue
            d = abs(rc.entry_xi - lc.exit_xi)
            if best is None or d < best[0]:
                best = (d, lc)
        if best is not None and best[0] <= pair_tol:
            lc = best[1]
            mid = 0.5 * (rc.entry_xi + lc.exit_xi)
            mid = min(max(mid, float(lc.xi[-1]) + 1e-9),
                      float(rc.xi[0]) - 1e-9)
            snapped[id(rc)] = replace(rc, entry_xi=mid)
            snapped[id(lc)] = replace(lc, exit_xi=mid)
            used.add(id(lc))
    return [snapped.get(id(c), c) for c in curves]


def phase_lift(curves, gap: Gap, xis: np.ndarray,
               variant: str = "right_only") -> np.ndarray:
    """Continuous lift of arg(mu_tilde) along an offset grid.

    Each curve contributes its phase fraction on its span, extended linearly
    to the interpolated true-edge crossing; the per-sample sums are then
    unwrapped by minimal-jump selection, which is exact once consecutive
    samples move the phase by less than pi.
    """
    if variant not in ("right_only", "two_sided"):
        raise ValueError(f"unknown variant {variant!r}")
    width = gap.width
    if variant == "two_sided":
        curves = _pair_top_edge_events(curves, xis)
    else:
        curves = [c for c in curves if c.side == RIGHT]
    raw = np.zeros(len(xis))
    for c in curves:
        # two-sided: pi (r - l), each family counted against its direction
        weight = (TWO_PI / width if variant == "right_only"
                  else -FAMILIES[c.side].direction * math.pi / width)
        cxi, cmu = c.extended()
        cmu = np.clip(cmu, gap.e_lower, gap.e_upper)
        mask = (xis >= cxi[0]) & (xis <= cxi[-1])
        if not np.any(mask):
            continue
        vals = np.interp(xis[mask], cxi, cmu)
        raw[mask] += weight * (vals - gap.e_lower)
    return _min_jump_lift(raw)


@dataclass(frozen=True)
class BetaResult:
    """Dirichlet rotation number with its window diagnostics."""

    value: float
    error_estimate: float
    mean: "np.ndarray | object"
    variant: str
    xi_grid: np.ndarray = field(repr=False, default=None)
    lift: np.ndarray = field(repr=False, default=None)


def beta(spec: PotentialSpec, gap: Gap, chain: WindowChain | None = None,
         dxi: float = 0.1, L: float = 60.0, variant: str = "right_only", *,
         flow=None, mu_tol: float = 1e-7, rtol: float = 1e-8) -> BetaResult:
    """Dirichlet rotation number: minus the rotation of arg(mu_tilde)/2 pi.

    Unless a flow is supplied, it is traced once over the largest chain
    window (both curve families for the two-sided variant); trace_flow
    itself halves dxi while the curves are under-resolved.  The circle-map
    phase lift is assembled on the dxi grid and the rotation number is taken
    over the offset windows.
    """
    chain = chain or default_xi_chain()
    a_big, b_big = chain.largest
    if flow is None:
        sides = (RIGHT,) if variant == "right_only" else (RIGHT, LEFT)
        flow = trace_flow(spec, gap, a_big, b_big, dxi, L, sides=sides,
                          mu_tol=mu_tol, rtol=rtol)
    xis = _xi_grid(a_big, b_big, dxi)
    phi = phase_lift(flow, gap, xis, variant)

    def lift_fn(x):
        return float(np.interp(x, xis, phi))

    rot = rotation.rotation_number(lift_fn, chain)
    values = tuple((i, -v / TWO_PI) for i, v in rot.window_values)
    mean = rotation.LambdaMean(
        window_values=values,
        extrapolated=-rot.extrapolated / TWO_PI,
        error_estimate=rot.error_estimate / TWO_PI,
        diverged=rot.diverged)
    return BetaResult(value=mean.extrapolated,
                      error_estimate=mean.error_estimate,
                      mean=mean, variant=variant, xi_grid=xis, lift=phi)


def max_dirichlet_count(curves, xis: np.ndarray) -> int:
    """Largest number of simultaneously active right curves on the grid."""
    count = np.zeros(len(xis), dtype=int)
    for c in curves:
        if c.side != RIGHT:
            continue
        count += ((xis >= c.xi[0] - 1e-12) & (xis <= c.xi[-1] + 1e-12))
    return int(np.max(count)) if len(xis) else 0
