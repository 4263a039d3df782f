"""Finite-box Dirichlet spectra, eigenvalue counting, the integrated density
of states, and spectral-gap detection.

Counting rests on oscillation theory: with theta(a) = 0, the number of box
eigenvalues at or below E equals floor(theta(b; E) / pi), because each box
eigenfunction below E contributes one pi-crossing of the phase lift.

Gaps come from the rotation number rho(E), the bump mean of theta'/pi, which
equals the IDS: it is non-decreasing in E and constant exactly on the gaps
(Johnson, J. Differential Equations 61, 1986).  One theta_grid pass over the
scan energies, started PAD before the largest window, gives rho there; a
grid cell across which it changes by at most FLAT lies in a gap, and the
box count of the same pass brackets the gap's edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potentials, prufer, rotation
from .potentials import PotentialSpec, WindowChain

PLATEAU_STATES = 2          # boundary states a finite box may host inside a gap
EDGE_MARGIN_FRACTION = 0.01  # relative gap-edge margin for downstream labels
FLAT = 1e-5      # largest change of rho_T across a gap cell of the scan
COUNT_RTOL = 1e-6  # phase tolerance of the ids and gap-scan box counts
SEGMENT = 128    # landing nodes per theta_grid call of the gap scan


@dataclass(frozen=True)
class Gap:
    """Open interval (e_lower, e_upper) in the complement of the spectrum."""

    e_lower: float
    e_upper: float
    confidence: str = "confirmed"  # "confirmed" | "heuristic"
    margin_fraction: float = EDGE_MARGIN_FRACTION

    def __post_init__(self):
        if not -math.inf < self.e_lower < self.e_upper < math.inf:
            raise ValueError("gap needs finite e_lower < e_upper")

    @property
    def width(self) -> float:
        return self.e_upper - self.e_lower

    @property
    def mid(self) -> float:
        return 0.5 * (self.e_lower + self.e_upper)

    @property
    def margin(self) -> float:
        return self.margin_fraction * self.width

    def trimmed(self) -> tuple[float, float]:
        """The gap with edge margins removed, where label formulas are safe."""
        return self.e_lower + self.margin, self.e_upper - self.margin


def _theta_end(spec: PotentialSpec, a: float, b: float, xi: float,
               energies, rtol: float) -> np.ndarray:
    """theta(b) of the box problem with theta(a) = 0, one energy at a time.

    Each energy takes theta_grid's plain-float path, for speed: a bisection
    step asks for a few energies, and one numpy pass over them all made
    detect_gaps on the scripts/run_mathieu.py config take 12.7 s against
    7.0 s (2-vCPU host).
    """
    return np.array([prufer.theta_grid(spec, e, xi, a, b, 0.0, rtol=rtol)
                     for e in np.ravel(energies)]).reshape(np.shape(energies))


def eigenvalue_count(spec: PotentialSpec, a: float, b: float, xi: float,
                     energy: float, *, rtol: float = 1e-9) -> int:
    """Number of Dirichlet eigenvalues of the box [a, b] at or below energy."""
    if not b > a:
        raise ValueError("need a < b")
    potentials.require_finite(energy=energy, xi=xi)
    theta_b = float(_theta_end(spec, a, b, xi, energy, rtol))
    return math.floor(theta_b / math.pi + 1e-12)


def dirichlet_eigenvalues(spec: PotentialSpec, a: float, b: float, xi: float,
                          e_min: float, e_max: float, *, tol: float = 1e-9,
                          rtol: float = 1e-9) -> np.ndarray:
    """All box eigenvalues in [e_min, e_max], refined to absolute tol.

    Eigenvalue m solves theta(b; E) = m*pi, with theta(b; .) strictly
    increasing, so each one is bracketed by integer jumps of the count and
    then pinned by one joint bisection of all of them on the continuous
    phase.
    """
    if not (b > a and e_max > e_min):
        raise ValueError("need a < b and e_min < e_max")

    def theta_of(energies, _=None):
        return _theta_end(spec, a, b, xi, energies, rtol)

    t_lo, t_hi = theta_of(np.array([e_min, e_max]))
    k_first = int(math.ceil(t_lo / math.pi - 1e-12))
    k_last = int(math.floor(t_hi / math.pi + 1e-12))
    targets = np.arange(k_first, k_last + 1) * math.pi
    return prufer.bisect(theta_of, e_min, e_max, targets, tol,
                         ends=(t_lo, t_hi))


@dataclass(frozen=True)
class IdsResult:
    value: float
    error_estimate: float
    window_values: tuple[float, ...]
    converged: bool


def ids(spec: PotentialSpec, energy: float, chain: WindowChain | None = None,
        xi: float = 0.0) -> IdsResult:
    """Integrated density of states: eigenvalue count per unit length.

    Returns the last-window value; the error estimate is the spread of the
    last three window values floored at the two-boundary-state granularity
    2/|largest window|.  converged is False when that spread stopped
    decreasing.
    """
    chain = chain or WindowChain.geometric()
    values = np.array([eigenvalue_count(spec, a, b, xi, energy,
                                        rtol=COUNT_RTOL) / (b - a)
                       for a, b in chain.windows])
    spread = float(np.ptp(values[-3:]))
    err = max(spread, PLATEAU_STATES / chain.lengths[-1])
    converged = (len(values) < 4
                 or spread <= float(np.ptp(values[-4:-1])) + 1e-12)
    return IdsResult(value=float(values[-1]), error_estimate=err,
                     window_values=tuple(float(v) for v in values),
                     converged=converged)


def detect_gaps(spec: PotentialSpec, e_min: float, e_max: float, *,
                resolution: float = 0.02, chain: WindowChain | None = None,
                xi: float = 0.0) -> list[Gap]:
    """Locate spectral gaps as the energy runs where the rotation number is
    constant.

    One pass of the box problem on [a - PAD, b], (a, b) the largest window,
    gives at each scan energy rho_T, the bump mean of theta'/pi over [a, b];
    the pad lets the Dirichlet start's transient contract first.  A grid
    cell across which rho_T changes by at most FLAT is a gap cell, and a
    maximal run of them that touches neither scan end is a gap.  Its edges
    are where the box count leaves the run's middle count by more than
    PLATEAU_STATES, by one joint bisection, clipped into the band cell next
    to the run (rho rose across it).  A gap is "confirmed" when rho over the
    middle half of [a, b] is flat across the run too, else "heuristic".
    """
    return _scan(spec, e_min, e_max, resolution, chain, xi)[0]


def _scan(spec: PotentialSpec, e_min: float, e_max: float, resolution: float,
          chain: WindowChain | None, xi: float = 0.0):
    """detect_gaps, returning also its scan energies and rho_T there.

    The pass lands on uniform nodes of [a, b] at most 1 / (6 f_max) and 0.5
    apart (at 0.5 the golden potential's second harmonic aliases), SEGMENT
    nodes at a time, so that memory stays bounded.
    """
    if not 0 < resolution < math.inf:
        raise ValueError("resolution must be positive and finite")
    if not -math.inf < e_min < e_max < math.inf:
        raise ValueError("need finite e_min < e_max")
    a, b = (chain or WindowChain.geometric()).largest
    n_grid = max(3, int(math.ceil((e_max - e_min) / resolution)) + 1)
    energies = np.linspace(e_min, e_max, n_grid)
    per_unit = max(2.0, 6.0 * potentials.max_frequency(spec))
    n = 4 * max(64, math.ceil((b - a) * per_unit / 4))
    t = np.linspace(0.0, 1.0, n + 1)
    # trapezoid weights of the bump means of theta'/pi over [a, b] and over
    # its middle half, whose bump time is 2t - 1/2
    weights = np.stack([rotation._bump(t, slope=True),
                        4.0 * rotation._bump(2.0 * t - 0.5, slope=True)])
    weights *= -1.0 / (n * (b - a) * math.pi)
    rho, x, theta = 0.0, a - rotation.PAD, 0.0
    k = math.ceil((n + 1) / SEGMENT)
    for nodes, w in zip(np.array_split(np.linspace(a, b, n + 1), k),
                        np.array_split(weights, k, axis=1)):
        th = prufer.theta_grid(spec, energies, xi, x, nodes, theta,
                               rtol=COUNT_RTOL)
        rho = rho + w @ th
        x, theta = nodes[-1], th[-1]
    counts = np.floor(theta / math.pi + 1e-12).astype(int)

    # gap cells i0..i1 span energies i0..i1 + 1
    flat = np.abs(np.diff(rho)) <= FLAT
    ends = np.flatnonzero(np.diff(np.concatenate(([0], flat[0], [0]))))
    runs = [(i0, i1) for i0, i1 in zip(ends[::2], ends[1::2] - 1)
            if i0 > 0 and i1 < n_grid - 2]
    # An energy is still in the gap while at most PLATEAU_STATES box
    # eigenvalues separate it from the run's middle count n_ref: above the
    # phase (n_ref - 2) pi at the lower edge, below (n_ref + 3) pi at the
    # upper one.  Each edge gets 16 halvings of its grid cell.
    n_ref = counts[[(i0 + i1 + 1) // 2 for i0, i1 in runs]]
    targets = np.ravel(np.column_stack((n_ref - PLATEAU_STATES,
                                        n_ref + PLATEAU_STATES + 1)))
    j = np.clip(np.searchsorted(counts, targets), 1, n_grid - 1)
    edges = prufer.bisect(
        lambda e, _: _theta_end(spec, a - rotation.PAD, b, xi, e, COUNT_RTOL),
        energies[j - 1], energies[j], targets * math.pi,
        float(np.max(np.diff(energies))) / 2 ** 16)
    gaps = [Gap(float(np.clip(lower, energies[i0 - 1], energies[i0])),
                float(np.clip(upper, energies[i1 + 1], energies[i1 + 2])),
                "confirmed" if flat[1, i0:i1 + 1].all() else "heuristic")
            for (i0, i1), lower, upper in zip(runs, edges[::2], edges[1::2])]
    return gaps, energies, rho[0]
