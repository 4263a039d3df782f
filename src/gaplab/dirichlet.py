"""Dirichlet values in a spectral gap, their flow under translation, and the
rotation number of the associated circle map.

At a gap energy E the half-line operator on (-infinity, xi] has the
eigenvalue E exactly when the left-decaying solution of the untranslated
operator vanishes at x = xi (the zero-set identity of Johnson and Moser), so
one forward pass per energy gives the boundary phase at every offset of a
window at once (left values: the mirror pass, backward).  `_window_scan`
runs one such pass for each Chebyshev-Lobatto energy of the margin-trimmed
gap and for the two gap edges; since the phase is strictly monotone in E,
the multiples of pi it passes between adjacent energies count the values in
that slab exactly, a Chebyshev interpolant in E estimates each one, and a
bracketed search polishes it.

The offsets are cut into blocks of at most L / 2.  A block's pass starts L
before its first offset, and its seeded end carries a bound state of its
own: one truncation artifact, at one energy for the whole block, which
every landing point of the pass sees as the same extra pi-step.  It is
removed by subtracting pi above that step.  Single-offset queries run the
same scan on a one-offset window, with the truncation [xi - L, xi].

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

N_ENERGIES = 33  # Chebyshev-Lobatto energies of a window scan
BLOCK = 0.5  # span of a window block, in units of L
POLISH_WIDTH = 1e-3  # half-width of a polishing bracket, in gap widths
# Landing points past the last offset of a block, in units of L.  They keep
# the truncation artifact's pi-step the only one that every landing point
# takes at one energy, even in a one-offset block; irrational fractions keep
# a period of V from mapping them onto one another.
PROBES = ((math.sqrt(5.0) - 1.0) / 8.0, (math.sqrt(2.0) - 1.0) / 2.0,
          (math.sqrt(3.0) - 1.0) / 3.0)


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


def _lobatto(lo: float, hi: float) -> np.ndarray:
    """The N_ENERGIES Chebyshev-Lobatto points of [lo, hi], ascending."""
    t = np.cos(np.pi * np.arange(N_ENERGIES) / (N_ENERGIES - 1))
    return 0.5 * (lo + hi) - 0.5 * (hi - lo) * t


def _interpolant(nodes: np.ndarray, values: np.ndarray, kept: np.ndarray):
    """Barycentric interpolant through the kept nodes of each row of values;
    it maps an array of energies, one per row, to values."""
    t = (2.0 * nodes - nodes[0] - nodes[-1]) / (nodes[-1] - nodes[0])
    gaps = t[:, None] - t[None, :]
    np.fill_diagonal(gaps, 1.0)
    w = np.where(kept, 1.0 / np.prod(np.where(kept[:, None, :], gaps, 1.0),
                                     axis=-1), 0.0)
    w /= np.max(np.abs(w), axis=-1, keepdims=True)
    values = np.where(kept, values, 0.0)

    def p(e):
        d = np.asarray(e, dtype=float)[..., None] - nodes
        d[d == 0.0] = 1e-300
        q = w / d
        return np.sum(q * values, axis=-1) / np.sum(q, axis=-1)

    return p


@dataclass(frozen=True)
class _Window:
    """One side's window pass over a uniform offset grid (see _window_scan).

    The grid is cut into blocks of m offsets; block b starts its pass at
    anchors[b] - L (RIGHT; LEFT mirrored) and lands on `landing`, relative
    to its anchor: its m offsets, then the PROBES.  phase[j, i, b] is the
    boundary phase at landing point j of block b and energy i, signed to
    increase with E; the pi-step of block b's truncation artifact lies in
    the slabs artifact[b] - 1 to artifact[b] + 1, or artifact[b] is -1 when
    the block shows none (see _artifact_slab).
    """

    index: np.ndarray     # index[b * m + j]: the offset at landing point j
    anchors: np.ndarray
    landing: np.ndarray
    energies: np.ndarray
    phase: np.ndarray
    artifact: np.ndarray

    @property
    def m(self) -> int:
        return len(self.landing) - len(PROBES)


def _window_pass(spec: PotentialSpec, gap: Gap, offsets: np.ndarray,
                 L: float, side: str, rtol: float) -> _Window:
    """One pass per energy over every block of the offset grid, all in one
    theta_grid call.  The energies are the Chebyshev-Lobatto points of the
    trimmed gap between the two gap edges, so that an artifact next to a
    trimmed edge still shows its whole step."""
    offsets = np.asarray(offsets, dtype=float)
    n = len(offsets)
    s = 1.0 if side == RIGHT else -1.0
    index = np.arange(n) if side == RIGHT else np.arange(n)[::-1]
    dx = abs(float(offsets[-1] - offsets[0])) / max(n - 1, 1)
    m = n if n == 1 else min(n, int(BLOCK * L / dx) + 1)
    anchors = offsets[index[::m]]
    local = s * dx * np.arange(m)
    landing = np.concatenate([local, local[-1] + s * L * np.array(PROBES)])
    energies = np.concatenate([[gap.e_lower], _lobatto(*gap.trimmed()),
                               [gap.e_upper]])[:, None]
    x0, seeds = prufer.decaying_start(spec, energies, anchors, L, side)
    phase = s * prufer.theta_grid(spec, energies, anchors, x0, landing, seeds,
                                  rtol=rtol, atol=rtol * 1e-2)
    return _Window(index=index, anchors=anchors,
                   landing=landing, energies=energies[:, 0], phase=phase,
                   artifact=_artifact_slab(np.diff(phase, axis=1)))


def _artifact_slab(rise: np.ndarray) -> np.ndarray:
    """The slab of each block's truncation artifact, or -1.

    rise[j, i, b] is the phase rise of landing point j of block b across
    slab i.  The artifact raises the phase of every landing point of a block
    by pi at one energy, sharply except near a gap edge, where the step
    spreads into the neighbouring slabs, and at a node it splits between
    two.  So its slab is the one around which the rise over three slabs is
    largest at the landing point where it is least, taken to be the artifact
    when that least rise is at least pi / 2.  A Dirichlet curve would need a
    value within those three slabs at every landing point, the PROBES too,
    to pass for it.
    """
    padded = np.pad(rise, ((0, 0), (1, 1), (0, 0)))
    least = np.min(padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:], axis=0)
    found = least >= 0.5 * math.pi                     # (slab, block)
    runs = np.sum(np.diff(found.astype(int), axis=0) == 1, axis=0) + found[0]
    if np.any(runs > 1):
        raise FlowResolutionError(
            "truncation artifact not told apart from a Dirichlet curve")
    return np.where(np.any(found, axis=0), np.argmax(least, axis=0), -1)


def _window_scan(spec: PotentialSpec, gap: Gap, offsets: np.ndarray,
                 L: float, side: str, *, mu_tol: float,
                 rtol: float) -> list[np.ndarray]:
    """Dirichlet values in the trimmed gap at every offset of a uniform grid.

    The grid is cut into blocks of at most BLOCK * L, so no value is
    computed on more than (1 + BLOCK) L of half-line, and one call runs the
    passes of all blocks (_window_pass).  The artifact of a block is the
    pi-step that every landing point of the block takes at one energy, the
    offsets and the PROBES alike (_artifact_slab); subtracting pi above it
    leaves the genuine crossings.  Each is estimated from the Chebyshev
    interpolant of the corrected phase and polished on its block's own
    pass, to mu_tol.  Returns one ascending array per offset.
    """
    w = _window_pass(spec, gap, offsets, L, side, rtol)
    n, m, energies = len(offsets), w.m, w.energies
    # remove the artifact: its step lies between the nodes a and t of its
    # three slabs; pi comes off every node from t up, the nodes between are
    # left out, and the slab from a to t counts as one.  The step's tails
    # can leave a dip, which the running maximum of the multiples passed
    # does not count twice.
    nodes = np.arange(len(energies))[:, None]
    found = w.artifact >= 0
    a = np.where(found, np.maximum(w.artifact - 1, 0), len(energies))
    t = np.where(found, np.minimum(w.artifact + 2, len(energies) - 1),
                 len(energies))
    counted = (nodes <= a) | (nodes >= t)              # (node, block)
    kept = counted.copy()
    kept[[0, -1]] = False  # the gap edges bound the artifact only
    corrected = w.phase[:m] - math.pi * (nodes >= t)
    level = np.where(counted, corrected, -np.inf)
    kc = np.floor(np.maximum.accumulate(level, axis=1) / math.pi + 1e-12)

    # one entry per genuine crossing: landing point j of block b, between
    # the nodes lo and hi
    j, i, b = np.nonzero(np.diff(kc, axis=1) >= 1)
    merged = (i >= a[b]) & (i < t[b])
    lo_node = np.where(merged, a[b], i)
    hi_node = np.where(merged, t[b], i + 1)
    keep = ((b * m + j < n) & (hi_node > 1)
            & (lo_node < len(energies) - 2))           # not in a margin
    j, i, b, lo_node, hi_node = (v[keep] for v in (j, i, b, lo_node, hi_node))
    if len(j) == 0:
        return [np.empty(0) for _ in range(n)]
    estimate = prufer.bisect(
        _interpolant(energies, corrected[j, :, b], kept[:, b].T),
        energies[lo_node], energies[hi_node], (kc[j, i, b] + 1.0) * math.pi,
        1e-3 * mu_tol)
    s = 1.0 if side == RIGHT else -1.0

    def phase_of(c):
        """The phase of crossings c on their own passes, as a function of E."""
        def f(e):
            x0, seeds = prufer.decaying_start(spec, e, w.anchors[b[c]], L,
                                              side)
            th = prufer.theta_grid(spec, e, w.anchors[b[c]], x0,
                                   w.landing[:np.max(j[c]) + 1], seeds,
                                   rtol=rtol, atol=rtol * 1e-2)
            at = np.broadcast_to(j[c], np.shape(e))[..., None]
            return s * np.take_along_axis(np.moveaxis(th, 0, -1), at,
                                          -1)[..., 0]
        return f

    lo, hi = gap.trimmed()
    roots = _polish(phase_of, estimate, energies[lo_node], energies[hi_node],
                    w.phase[j, lo_node, b], w.phase[j, hi_node, b],
                    POLISH_WIDTH * (hi - lo), mu_tol)
    out = [[] for _ in range(n)]
    for idx, mu in zip(w.index[b * m + j], roots):
        if lo <= mu <= hi:
            out[idx].append(float(mu))
    return [np.array(sorted(v)) for v in out]


def _polish(phase_of, estimate, e_lo, e_hi, p_lo, p_hi, delta, tol):
    """Polish crossings of multiples of pi by an increasing phase.

    phase_of(c) is the phase of crossings c as a function of their
    energies; [e_lo, e_hi] is each estimate's slab and p_lo, p_hi the phase
    at its ends.  One pass takes the phase delta either side of every
    estimate: where the two straddle one multiple of pi, that bracket is
    searched; elsewhere the slab is, if it holds one crossing, and the
    estimate is kept if not (the slab also holds the truncation artifact).
    """
    lo = np.maximum(e_lo, estimate - delta)
    hi = np.minimum(e_hi, estimate + delta)
    every = np.arange(len(estimate))
    t_lo, t_hi = phase_of(every)(np.stack([lo, hi]))
    k_lo = np.floor(t_lo / math.pi + 1e-12)
    k_hi = np.floor(t_hi / math.pi + 1e-12)
    tight = k_hi - k_lo == 1
    k_slab = np.floor(p_hi / math.pi + 1e-12)
    slab = ~tight & (k_slab - np.floor(p_lo / math.pi + 1e-12) == 1)
    lo, t_lo = np.where(slab, e_lo, lo), np.where(slab, p_lo, t_lo)
    hi, t_hi = np.where(slab, e_hi, hi), np.where(slab, p_hi, t_hi)
    k_hi = np.where(slab, k_slab, k_hi)
    c = np.nonzero(tight | slab)[0]
    roots = estimate.copy()
    if len(c):
        roots[c] = prufer.bisect(phase_of(c), lo[c], hi[c], k_hi[c] * math.pi,
                                 tol, ends=(t_lo[c], t_hi[c]))
    return roots


def right_dirichlet_values(spec: PotentialSpec, xi: float, gap: Gap,
                           L: float = 60.0, *, tol: float = 1e-10,
                           rtol: float = 1e-12) -> list[float]:
    """Eigenvalues of the left half-line operator inside the trimmed gap.

    Single-offset queries run at a tight integrator tolerance so a found
    root reproduces |sin theta(0)| below 1e-10 on recheck.
    """
    roots = _window_scan(spec, gap, np.array([float(xi)]), L, RIGHT,
                         mu_tol=tol, rtol=rtol)
    return roots[0].tolist()


def left_dirichlet_values(spec: PotentialSpec, xi: float, gap: Gap,
                          L: float = 60.0, *, tol: float = 1e-10,
                          rtol: float = 1e-12) -> list[float]:
    """Mirror image: eigenvalues of the right half-line operator in the gap."""
    roots = _window_scan(spec, gap, np.array([float(xi)]), L, LEFT,
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
            roots = _window_scan(spec, gap, xis, L, side,
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
