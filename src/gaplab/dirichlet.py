"""Dirichlet values in a spectral gap, their flow under translation, and the
rotation number of the associated circle map.

At a gap energy E the half-line operator on (-infinity, xi] has the
eigenvalue E exactly when the left-decaying solution of the untranslated
operator vanishes at x = xi (the zero-set identity of Johnson and Moser), so
one forward pass per energy gives the boundary phase at every offset of a
window at once; the left values are the right values of the mirror image
V(-x + xi), in the same forward pass.  `_window_scan` runs one such pass
for each Chebyshev-Lobatto energy of the margin-trimmed gap and for the two
gap edges; since the phase is strictly monotone in E, the multiples of pi
it passes between adjacent energies count the values in that slab exactly,
and a Chebyshev interpolant in E estimates each one, mostly so closely that
the first stencil of the bracketed search, one more pass, certifies it.

The offsets are cut into blocks of at most L / 2.  A block's pass starts L
before its first offset, and its seeded end carries a bound state of its
own: one truncation artifact, at one energy for the whole block, which
every landing point of the pass sees as the same extra pi-step.  It is
removed by subtracting pi above that step; a value next to it is polished
at a longer truncation, which moves the artifact away.  Single-offset
queries run the same scan on a one-offset window, with the truncation
[xi - L, xi].

The labels read the values only through the phase 2 pi sum (mu - E_-)/|gap|
of each side at each offset.  Spectral flow is a count of crossings, so no
curve has to be followed to lift that phase: trace_flow certifies every
step of the lift by the Hellmann-Feynman bound on the speed of a value, the
way pi_trace certifies its nodes.  Curves mu(xi) are built by rank, for
display and for the derivative check only.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import prufer, rotation
from .potentials import PotentialSpec, WindowChain, slope_bound
from .prufer import LEFT, RIGHT
from .spectrum import Gap

log = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi

ENTERS_UPPER = "enters_from_upper_edge"
EXITS_LOWER = "exits_lower_edge"
ENTERS_LOWER = "enters_from_lower_edge"
EXITS_UPPER = "exits_upper_edge"
PERSISTS = "persists"

STABILITY_FACTOR = 1.5
STABILITY_RESIDUAL = 1e-2

FLOW_MU_TOL, FLOW_RTOL = 1e-7, 1e-8   # trace_flow's polish and pass tolerances
VALUE_TOL = 1e-10   # polish tolerance of a single-offset query

N_ENERGIES = 129  # Chebyshev-Lobatto energies of a window scan
ARTIFACT_STRIDE = 4  # every fourth is a coarse node (see _artifact_band)
BLOCK = 0.5  # span of a window block, in units of L
# Landing points past the last offset of a block, in units of L.  They keep
# the truncation artifact's pi-step the only one that every landing point
# takes at one energy, even in a one-offset block; irrational fractions keep
# a period of V from mapping them onto one another.
PROBES = ((math.sqrt(5.0) - 1.0) / 8.0, (math.sqrt(2.0) - 1.0) / 2.0,
          (math.sqrt(3.0) - 1.0) / 3.0)


class FlowResolutionError(RuntimeError):
    """A step of an offset lift folds more than its certified bound allows:
    a defect of the values it lifts."""


def default_xi_chain() -> WindowChain:
    """Offset-window chain used for the circle-map rotation number."""
    return WindowChain.geometric(half_width=10.0, ratio=1.6, count=8)


@dataclass(frozen=True)
class CurveFamily:
    """How the curves of one side cross a gap as xi increases."""

    direction: float  # sign of d(mu)/d(xi)
    entry_event: str
    exit_event: str


# a right curve falls from the upper edge to the lower one; a left curve
# rises the other way
FAMILIES = {
    RIGHT: CurveFamily(-1.0, ENTERS_UPPER, EXITS_LOWER),
    LEFT: CurveFamily(1.0, ENTERS_LOWER, EXITS_UPPER),
}


@dataclass(frozen=True)
class DirichletCurve:
    """A continued branch xi -> mu(xi) of half-line eigenvalues in a gap."""

    side: str
    gap: Gap
    xi: np.ndarray
    mu: np.ndarray
    events: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.xi)


def _xi_grid(xi_from: float, xi_to: float, dxi: float) -> np.ndarray:
    n = max(2, int(round((xi_to - xi_from) / dxi)) + 1)
    return np.linspace(xi_from, xi_to, n)


def _scan_theta(spec, energies, offsets, L, side, rtol, landing=0.0):
    """theta(0), or theta at landing points, rising with E: one forward pass
    from -L per (E, xi) and side (one or an array), LEFT mirrored."""
    mirror = np.asarray(side) == LEFT
    seeds = prufer.seed_decaying_left(spec, energies, offsets, L, mirror)
    return prufer.theta_grid(spec, energies, offsets, -L, landing, seeds,
                             rtol=rtol, mirror=mirror)


def _interpolant(nodes, values, kept, rows):
    """Barycentric interpolant through the nodes kept[rows] of each row of
    values; p(e, sub) maps energies, one per row of rows sub, to values."""
    t = (2.0 * nodes - nodes[0] - nodes[-1]) / (nodes[-1] - nodes[0])
    gaps = t[:, None] - t[None, :]
    np.fill_diagonal(gaps, 1.0)
    w = np.where(kept, 1.0 / np.prod(np.where(kept[:, None, :], gaps, 1.0),
                                     axis=-1), 0.0)
    w = (w / np.max(np.abs(w), axis=-1, keepdims=True))[rows]
    values = np.where(kept[rows], values, 0.0)

    def p(e, sub):
        d = np.asarray(e, dtype=float)[..., None] - nodes
        d[d == 0.0] = 1e-300
        q = w[sub] / d
        return np.sum(q * values[sub], axis=-1) / np.sum(q, axis=-1)

    return p


@dataclass(frozen=True)
class _Window:
    """The joint window pass of a scan's sides over a uniform offset grid.

    Each side's grid is cut into blocks of m offsets, one column each.  A
    column starts at x = -L and lands on `landing`: m points dx apart, then
    the PROBES.  A RIGHT column sees V(x + anchor) and lands on the offsets
    anchor + x, a LEFT one V(-x + anchor) and anchor - x.  index[j, c] is
    the offset of landing point j of column c (-1 past the grid), phase[j,
    i, c] the boundary phase there at energy i, artifact[:, c] its band.
    """

    side: np.ndarray
    index: np.ndarray
    anchors: np.ndarray
    landing: np.ndarray
    energies: np.ndarray
    phase: np.ndarray
    artifact: np.ndarray


def _window_pass(spec: PotentialSpec, gap: Gap, offsets: np.ndarray,
                 L: float, sides, rtol: float) -> _Window:
    """One forward pass per energy over every block of every side, in one
    theta_grid call, at the Chebyshev-Lobatto points of the trimmed gap and
    at the gap edges, where an artifact next to a trimmed edge ends."""
    offsets = np.asarray(offsets, dtype=float)
    n = len(offsets)
    dx = abs(float(offsets[-1] - offsets[0])) / max(n - 1, 1)
    m = n if n == 1 else min(n, int(BLOCK * L / dx) + 1)
    side = np.repeat(sides, -(-n // m))
    pos = np.arange(m)[:, None] + np.tile(np.arange(0, n, m), len(sides))
    index = np.where(pos >= n, -1, np.where(side == LEFT, n - 1 - pos, pos))
    landing = dx * np.arange(m + len(PROBES))
    landing[m:] = landing[m - 1] + L * np.array(PROBES)
    lo, hi = gap.trimmed()
    t = np.cos(np.pi * np.arange(N_ENERGIES) / (N_ENERGIES - 1))
    energies = np.r_[gap.e_lower, 0.5 * (lo + hi) - 0.5 * (hi - lo) * t,
                     gap.e_upper][:, None]
    anchors = offsets[index[0]]
    phase = _scan_theta(spec, energies, anchors, L, side, rtol, landing)
    return _Window(side=side, index=index, anchors=anchors, landing=landing,
                   energies=energies[:, 0], phase=phase,
                   artifact=_artifact_band(phase))


def _artifact_band(phase: np.ndarray) -> np.ndarray:
    """The nodes (a, t) between which each column's truncation artifact
    lies, or (N, N), past the last node, where a column shows none.

    The artifact raises the phase of every landing point of a column by pi
    at one energy, sharply except near a gap edge, where the step spreads,
    and at a node it splits between two.  So on the coarse nodes its slab is
    the one around which the rise over three slabs is largest at the
    landing point where it is least, if that least rise is at least pi / 2:
    a Dirichlet curve would need a value in those three slabs at every
    landing point, the PROBES too, to pass for it.  Away from the gap edges
    a sharp step rises nearly pi over three fine slabs, which then bound it.
    """
    n = phase.shape[1]
    coarse = np.r_[0, 1:n - 1:ARTIFACT_STRIDE, n - 1]
    padded = np.pad(np.diff(phase[:, coarse], axis=1), [(0,), (1,), (0,)])
    least = np.min(padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:], axis=0)
    found = least >= 0.5 * math.pi                     # (slab, column)
    runs = np.sum(np.diff(found.astype(int), axis=0) == 1, axis=0) + found[0]
    if np.any(runs > 1):
        raise FlowResolutionError(
            "truncation artifact not told apart from a Dirichlet curve")
    slab = np.clip(np.argmax(least, axis=0) + [[-1], [2]], 0, len(coarse) - 1)
    band = np.where(np.any(found, axis=0), coarse[slab], n)
    fine = np.min(phase[:, 3:] - phase[:, :-3], axis=0)   # (node, column)
    start = np.arange(n - 3)[:, None]
    inner = np.where((band[0] > 0) & (band[1] < n - 1), band[0], n)
    fine[(start < inner) | (start + 3 > band[1])] = -np.inf
    a = np.argmax(fine, axis=0)
    return np.where(fine[a, np.arange(len(a))] >= 0.9 * math.pi, [a, a + 3],
                    band)


def _window_scan(spec: PotentialSpec, gap: Gap, offsets: np.ndarray,
                 L: float, sides, *, mu_tol: float,
                 rtol: float) -> dict[str, list[np.ndarray]]:
    """Each side's Dirichlet values in the trimmed gap at every grid offset.

    The uniform grid is cut into blocks of at most BLOCK * L, so no value is
    computed on more than (1 + BLOCK) L of half-line, and one forward pass
    runs the blocks of all sides (_window_pass).  Subtracting pi above the
    artifact of a block (_artifact_band) leaves the genuine crossings.  Each
    is estimated from the Chebyshev interpolant of the corrected phase and
    polished on its block's own pass, to mu_tol, by stencil Newton steps
    that start from the window pass's phases at the ends of its slab
    (_polish), and logged at debug level.  Returns, per side, one ascending
    array per offset.
    """
    w = _window_pass(spec, gap, offsets, L, sides, rtol)
    n, m, energies = len(offsets), len(w.index), w.energies
    # remove the artifact: its step lies between the nodes a and t; pi
    # comes off every node from t up, the nodes between are left out, and
    # the slab from a to t counts as one.  The step's tails can leave a dip,
    # which the running maximum of the multiples passed does not count twice.
    nodes = np.arange(len(energies))[:, None]
    a, t = w.artifact
    counted = (nodes <= a) | (nodes >= t)              # (node, column)
    # the gap edges bound the artifact only; a spread one leaves a hole so
    # wide that only the coarse nodes interpolate across it
    kept = counted & (nodes % (len(energies) - 1) != 0)
    kept &= (t - a <= 3) | (nodes % ARTIFACT_STRIDE == 1)
    corrected = w.phase[:m] - math.pi * (nodes >= t)
    level = np.where(counted, corrected, -np.inf)
    kc = np.floor(np.maximum.accumulate(level, axis=1) / math.pi + 1e-12)

    # one entry per genuine crossing: landing point j of column c, between
    # the nodes lo and hi, which span the artifact's slabs if it shares one
    j, i, c = np.nonzero(np.diff(kc, axis=1) >= 1)
    merged = (i >= a[c]) & (i < t[c])
    lo_node = np.where(merged, a[c], i)
    hi_node = np.where(merged, t[c], i + 1)
    keep = ((w.index[j, c] >= 0) & (hi_node > 1)
            & (lo_node < len(energies) - 2))           # not in a margin
    j, i, c, lo_node, hi_node = (v[keep] for v in (j, i, c, lo_node, hi_node))
    if len(j) == 0:
        return {side: [np.empty(0)] * n for side in sides}
    shared = hi_node - lo_node > 1
    estimate = prufer.bisect(
        _interpolant(energies, corrected[j, :, c], kept.T, c),
        energies[lo_node], energies[hi_node], (kc[j, i, c] + 1.0) * math.pi,
        1e-3 * mu_tol)
    passes = [1]

    def phase(e, k, moved):
        """The phase of crossings k at energies e on their own passes; moved
        ones at a truncation PROBES[0] * L longer, which moves the artifact."""
        passes[0] += 1
        s = np.where(moved, PROBES[0] * L, 0.0)
        anchors = w.anchors[c[k]] + np.where(w.side[c[k]] == LEFT, s, -s)
        landing, at = np.unique(w.landing[j[k]] + s, return_inverse=True)
        th = _scan_theta(spec, e, anchors, L, w.side[c[k]], rtol, landing)
        return th[at, ..., np.arange(len(at))].T   # each at its own point

    roots, points, counts = _polish(
        phase, estimate, energies[lo_node], energies[hi_node],
        (w.phase[j, lo_node, c], w.phase[j, hi_node, c]), shared, mu_tol)
    log.debug("window scan (%s): %d passes, %d crossings, %d points in the "
              "polish pass, %d Newton passes after it, %d certified by the "
              "first stencil, %d inverted brackets, %d polished at the "
              "second truncation, %d estimates kept unpolished",
              ", ".join(sides), passes[0], len(j), points, passes[0] - 2,
              *counts)
    out = {side: [[] for _ in range(n)] for side in sides}
    lo, hi = gap.trimmed()
    for side, k, mu in zip(w.side[c], w.index[j, c], roots):
        if lo <= mu <= hi:
            out[side][k].append(float(mu))
    return {side: [np.array(sorted(v)) for v in vals]
            for side, vals in out.items()}


def _polish(phase, estimate, e_lo, e_hi, ends, shared, tol):
    """Polish crossings of multiples of pi by an increasing phase.

    phase(e, c, moved) is the phase of crossings c at energies e, at the
    scan's truncation or, where moved, at a longer one, which moves the
    artifact away.  ends are the phases at the ends of each estimate's slab
    [e_lo, e_hi] on the window pass.  One pass, its points flattened and
    each tagged with its crossing, evaluates the stencil tol / 2 either
    side of every estimate (bisect's first): at the scan's truncation, or,
    where the slab is shared with the artifact, whose nearness also shifts
    a value, at the longer one, with the slab ends.  A slab that holds one
    multiple of pi is searched, and else its estimate kept.  Returns the
    roots, the number of points of the pass, and counts: certified by the
    first stencil, inverted, moved, kept.
    """
    n = len(estimate)
    s = np.nonzero(shared)[0]
    tag = np.r_[np.arange(n), np.arange(n), s, s]
    th = phase(np.r_[estimate - 0.5 * tol, estimate + 0.5 * tol, e_lo[s],
                     e_hi[s]], tag, shared[tag])
    ends = np.stack([*ends, th[:n], th[n:2 * n]])
    ends[:2, s] = th[2 * n:].reshape(2, -1)
    k = np.floor(ends[:2] / math.pi + 1e-12)
    c = np.nonzero(k[1] - k[0] == 1)[0]
    target = k[1, c] * math.pi
    roots = estimate.copy()
    below, above = prufer.bisect(
        lambda e, rows: phase(e, c[rows], shared[c[rows]]), e_lo[c], e_hi[c],
        target, tol, guess=estimate[c], ends=tuple(ends[:, c]), bracket=True)
    roots[c] = 0.5 * (below + above)
    certified = np.sum((ends[2, c] < target) & (ends[3, c] >= target))
    return roots, len(tag), (certified, np.sum(below > above),
                             np.sum(shared[c]), n - len(c))


def right_dirichlet_values(spec: PotentialSpec, xi: float, gap: Gap,
                           L: float = 60.0) -> list[float]:
    """Eigenvalues of the left half-line operator inside the trimmed gap.

    Single-offset queries polish to VALUE_TOL on passes at rtol 1e-12, so a
    found root reproduces |sin theta(0)| below 1e-10 on recheck.
    """
    return _window_scan(spec, gap, np.array([float(xi)]), L, (RIGHT,),
                        mu_tol=VALUE_TOL, rtol=1e-12)[RIGHT][0].tolist()


def left_dirichlet_values(spec: PotentialSpec, xi: float, gap: Gap,
                          L: float = 60.0) -> list[float]:
    """Mirror image: eigenvalues of the right half-line operator in the gap."""
    return _window_scan(spec, gap, np.array([float(xi)]), L, (LEFT,),
                        mu_tol=VALUE_TOL, rtol=1e-12)[LEFT][0].tolist()


def _rank_curves(side: str, gap: Gap, xis: np.ndarray,
                 values) -> list[DirichletCurve]:
    """The side's curves of two or more samples, built by rank.

    Right values fall and never cross (left ones rise), so in each step the
    lowest values of the step's start exit through the lower edge and the
    highest of its end enter through the upper one: the fewest exits that
    leave every continued value falling.  A curve that starts inside the
    grid entered, one that ends inside it exited.  Curves are listed in the
    order they end.
    """
    family = FAMILIES[side]
    flip = -family.direction   # flip * mu falls on either side
    active, done = [], []      # (first offset index, flip * mu samples)
    for j, v in enumerate(values):
        u = np.sort(flip * v)
        ends = [c[1][-1] for c in active]
        exits = next(e for e in range(len(ends) + 1)
                     if len(u) >= len(ends) - e
                     and all(x <= y for x, y in zip(u, ends[e:])))
        done += active[:exits]
        active = active[exits:]
        for c, x in zip(active, u):
            c[1].append(x)
        active += [(j, [x]) for x in u[len(active):]]
    curves = []
    for first, us in done + active:
        last = first + len(us) - 1
        if last == first:
            continue
        events = tuple(event for event, inside in (
            (family.entry_event, first > 0),
            (family.exit_event, last < len(xis) - 1)) if inside)
        curves.append(DirichletCurve(side=side, gap=gap,
                                     xi=xis[first:last + 1],
                                     mu=flip * np.array(us),
                                     events=events or (PERSISTS,)))
    return curves


@dataclass(frozen=True, eq=False)
class Flow:
    """Each side's Dirichlet values in the trimmed gap at every offset of a
    uniform grid, one ascending array per offset.

    The labels read the phase sums at the offsets; as a sequence the flow
    is its curves, built by rank, for display and the derivative check.
    """

    gap: Gap
    xi: np.ndarray
    values: dict[str, list[np.ndarray]]

    @cached_property
    def lifts(self) -> dict[str, np.ndarray]:
        """Each side's phase 2 pi sum (mu - E_-)/|gap| at every offset, each
        step folded into [-pi, pi], which trace_flow certifies to be the
        true change."""
        out = {}
        for side, values in self.values.items():
            raw = np.array([circle_phase(v, (), self.gap, "right_only")
                            for v in values])
            d = np.diff(raw)
            d -= TWO_PI * np.round(d / TWO_PI)
            out[side] = raw[0] + np.concatenate([[0.0], np.cumsum(d)])
        return out

    @cached_property
    def curves(self) -> tuple[DirichletCurve, ...]:
        return tuple(c for side, values in self.values.items()
                     for c in _rank_curves(side, self.gap, self.xi, values))

    def __iter__(self):
        return iter(self.curves)

    def __len__(self) -> int:
        return len(self.curves)


def _certify(flow: Flow, side: str, reach: float) -> float:
    """The largest bound B of a step of the side's lift; FlowResolutionError
    where a step with B < pi folds more than B allows.

    Each value moves at most reach per step.  A step between offsets with
    r0 and r1 values then changes the phase by at most B = max(r0 + r1, 1)
    2 pi reach/|gap|, plus 2 pi margin_fraction for each value that may
    enter or leave the trimmed gap (one within reach of its edges), plus
    the polishing tolerance FLOW_MU_TOL of every value.  Where B < pi, that
    makes the folded change the true one.
    """
    gap = flow.gap
    lo, hi = gap.trimmed()
    values = flow.values[side]
    r = np.array([len(v) for v in values])
    edge = np.array([np.sum((v < lo + reach) | (v > hi - reach))
                     for v in values])
    per = TWO_PI / gap.width
    b = np.maximum(r[:-1] + r[1:], 1) * reach * per
    allowed = b + per * ((edge[:-1] + edge[1:]) * gap.margin
                         + (r[:-1] + r[1:]) * FLOW_MU_TOL)
    d = np.abs(np.diff(flow.lifts[side]))
    log.debug("trace_flow: %s lift over %d offsets, largest fold %.3g of B",
              side, len(r), np.max(d / np.maximum(b, np.finfo(float).tiny)))
    bad = np.nonzero((b < math.pi) & (d > allowed))[0]
    if len(bad):
        k = bad[0]
        x0, x1 = (float(x) for x in flow.xi[k:k + 2])
        raise FlowResolutionError(
            f"{side} Dirichlet values in gap ({gap.e_lower:.6g}, "
            f"{gap.e_upper:.6g}) jump between xi = {x0!r} and xi = {x1!r}: "
            f"folded phase step {d[k]:.3g} rad, B = {b[k]:.3g}")
    return float(np.max(b))


def trace_flow(spec: PotentialSpec, gap: Gap, xi_from: float, xi_to: float,
               dxi: float, L: float = 60.0, *, sides=(RIGHT,)) -> Flow:
    """Each side's Dirichlet values over an offset grid, with certified
    lifts of their phase.

    One window scan gives the values at every offset of the grid from
    xi_from to xi_to at step dxi.  By Hellmann-Feynman a value moves at most
    sup|V'| per unit offset, so a step s between offsets holding r0 and r1
    values moves a side's phase by at most B = max(r0 + r1, 1) sigma s, with
    sigma = 2 pi sup|V'|/|gap|; _certify checks every fold against it.
    Where a step has B >= pi, the grid step is divided by the power of two
    that the scan's counts call for, and the scan repeated.  The values
    are polished to FLOW_MU_TOL, ten times the pass tolerance FLOW_RTOL:
    the phase noise of a pass moves them by about that, which finer
    polishing splits.
    """
    if not xi_to > xi_from:
        raise ValueError("need xi_from < xi_to")
    if not dxi > 0:
        raise ValueError(f"need a positive offset step dxi, got {dxi!r}")
    speed = slope_bound(spec)
    step = float(dxi)
    while True:
        xis = _xi_grid(xi_from, xi_to, step)
        flow = Flow(gap=gap, xi=xis, values=_window_scan(
            spec, gap, xis, L, sides, mu_tol=FLOW_MU_TOL, rtol=FLOW_RTOL))
        worst = max(_certify(flow, side, speed * (xis[1] - xis[0]))
                    for side in sides)
        if worst < math.pi:
            return flow
        step /= 2.0 ** (math.floor(math.log2(worst / math.pi)) + 1)
        log.debug("trace_flow: B reached %.3g, offset step shrunk to %r",
                  worst, step)


@dataclass(frozen=True)
class DerivativeCheck:
    finite_difference: float
    analytic: float


def flow_derivative_check(spec: PotentialSpec, curve: DirichletCurve,
                          index: int, L: float) -> DerivativeCheck:
    """Compare d(mu)/d(xi) against the boundary-derivative formula.

    One window scan over the offsets xi0 - delta, xi0 and xi0 + delta, with
    delta = 1e-3, finds the side's values there; at each offset the one
    nearest the curve's sample mu(xi0) is kept, and the central difference
    of the outer two is the finite difference.  The analytic value is
    -|psi'(0)|^2 at the central value for the half-line eigenfunction
    normalized on [-L, 0] (positive mirror for left curves).
    """
    if not 0 < index < len(curve) - 1:
        raise ValueError("need an interior sample of the curve")
    delta = 1e-3
    xi0 = float(curve.xi[index])
    mu0 = float(curve.mu[index])
    side = curve.side
    values = _window_scan(spec, curve.gap, xi0 + delta * np.array([-1, 0, 1]),
                          L, (side,), mu_tol=1e-11, rtol=1e-10)[side]
    mu_m, mu_c, mu_p = (float(v[np.argmin(np.abs(v - mu0))]) for v in values)
    fd = (mu_p - mu_m) / (2.0 * delta)
    bd = prufer.boundary_data(spec, mu_c, xi0, L, side=side, rtol=1e-10)
    analytic = FAMILIES[side].direction * bd.dpsi_normalized ** 2
    return DerivativeCheck(finite_difference=float(fd),
                           analytic=float(analytic))


@dataclass(frozen=True)
class InterlacingReport:
    """Alternation of right/left Dirichlet offsets at a fixed gap energy."""

    s_points: tuple[float, ...]
    s_star_points: tuple[float, ...]
    violations: tuple[tuple[float, float, int], ...]
    zero_set_max_deviation: float
    passed: bool


def _offset_crossings(spec, gap, mu, xi_lo, xi_hi, L, side):
    """Offsets where mu is a Dirichlet value: crossings of the boundary sine,
    bracketed on offsets 0.05 apart, by passes at rtol 1e-11."""
    rtol = 1e-11
    n = max(3, int(math.ceil((xi_hi - xi_lo) / 0.05)) + 1)
    xis = np.linspace(xi_lo, xi_hi, n)
    th = _scan_theta(spec, float(mu), xis, L, side, rtol)
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
        lambda x, _: _scan_theta(spec, float(mu), x, L, side, rtol),
        below, above, targets, 1e-11))
    t_check = _scan_theta(spec, float(mu), roots, STABILITY_FACTOR * L, side,
                          rtol)
    return roots[np.abs(np.sin(t_check)) < STABILITY_RESIDUAL]


def interlacing_check(spec: PotentialSpec, gap: Gap, mu: float, xi_range,
                      L: float = 60.0) -> InterlacingReport:
    """Between consecutive right-Dirichlet offsets lies exactly one left one.

    Also checks the zero-set identity: the right offsets s are the zeros of
    the left-decaying solution psi at energy mu.  One trajectory of psi,
    seeded L before xi_lo, crosses the whole range at max_step 0.01, whose
    Hermite interpolant holds each zero to about 3e-10 (prufer.crossings);
    the worst deviation from s is reported, infinite where the two sets
    differ in size, so an s that misses zeros of psi fails.
    """
    xi_lo, xi_hi = float(xi_range[0]), float(xi_range[1])
    s = _offset_crossings(spec, gap, mu, xi_lo, xi_hi, L, RIGHT)
    s_star = _offset_crossings(spec, gap, mu, xi_lo, xi_hi, L, LEFT)
    violations = []
    for a, b in zip(s[:-1], s[1:]):
        inside = int(np.sum((s_star > a) & (s_star < b)))
        if inside != 1:
            violations.append((float(a), float(b), inside))

    tr = prufer.integrate(spec, mu, xi_lo, -L, xi_hi - xi_lo,
                          prufer.seed_decaying_left(spec, mu, xi_lo, L),
                          rtol=1e-12, max_step=0.01)
    zs = prufer.crossings(tr, 0.0, xi_hi - xi_lo) + xi_lo
    zero_dev = (float(np.max(np.abs(zs - s), initial=0.0))
                if len(zs) == len(s) else math.inf)
    passed = not violations and zero_dev < 1e-6
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


def phase_lift(flow: Flow, variant: str = "right_only") -> np.ndarray:
    """Lift of arg(mu_tilde) on the flow's grid: the right lift, or for the
    two-sided variant half the difference of the right and left lifts.  An
    upper-edge right entry and the left exit it meets each fold their 2 pi
    inside their own side's lift."""
    if variant == "right_only":
        return flow.lifts[RIGHT]
    if variant == "two_sided":
        return 0.5 * (flow.lifts[RIGHT] - flow.lifts[LEFT])
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class BetaResult:
    """Dirichlet rotation number with its window diagnostics."""

    value: float
    error_estimate: float
    mean: rotation.LambdaMean
    variant: str
    xi_grid: np.ndarray = field(repr=False, default=None)
    lift: np.ndarray = field(repr=False, default=None)


def beta(spec: PotentialSpec, gap: Gap, chain: WindowChain | None = None,
         dxi: float = 0.1, L: float = 60.0, variant: str = "right_only", *,
         flow: Flow | None = None) -> BetaResult:
    """Dirichlet rotation number: minus the rotation of arg(mu_tilde)/2 pi.

    Unless a flow is supplied, it is traced once over the largest chain
    window (both sides for the two-sided variant).  The rotation number is
    taken over the offset windows of the flow's certified phase lift.
    """
    chain = chain or default_xi_chain()
    if flow is None:
        sides = (RIGHT,) if variant == "right_only" else (RIGHT, LEFT)
        flow = trace_flow(spec, gap, *chain.largest, dxi, L, sides=sides)
    phi = phase_lift(flow, variant)
    mean = rotation.sampled_rotation(flow.xi, -phi / TWO_PI, chain)
    return BetaResult(value=mean.extrapolated,
                      error_estimate=mean.error_estimate,
                      mean=mean, variant=variant, xi_grid=flow.xi, lift=phi)


def max_dirichlet_count(flow: Flow) -> int:
    """Largest number of right values at one offset of the flow."""
    return max(map(len, flow.values[RIGHT]), default=0)
