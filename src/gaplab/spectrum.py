"""Finite-box Dirichlet spectra, eigenvalue counting, the integrated density
of states, and spectral-gap detection.

Counting rests on oscillation theory: with theta(a) = 0, the number of box
eigenvalues at or below E equals floor(theta(b; E) / pi), because each box
eigenfunction below E contributes one pi-crossing of the phase lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import prufer
from .potentials import PotentialSpec, WindowChain

PLATEAU_STATES = 2          # boundary states a finite box may host inside a gap
EDGE_MARGIN_FRACTION = 0.01  # relative gap-edge margin for downstream labels


@dataclass(frozen=True)
class Gap:
    """Open interval (e_lower, e_upper) in the complement of the spectrum."""

    e_lower: float
    e_upper: float
    confidence: str = "confirmed"  # "confirmed" | "heuristic"
    margin_fraction: float = EDGE_MARGIN_FRACTION

    def __post_init__(self):
        if not self.e_upper > self.e_lower:
            raise ValueError("gap needs e_lower < e_upper")

    @property
    def width(self) -> float:
        return self.e_upper - self.e_lower

    @property
    def mid(self) -> float:
        return 0.5 * (self.e_lower + self.e_upper)

    @property
    def margin(self) -> float:
        return self.margin_fraction * self.width

    def trimmed(self, margin: float | None = None) -> tuple[float, float]:
        """The gap with edge margins removed, where label formulas are safe."""
        d = self.margin if margin is None else margin
        return self.e_lower + d, self.e_upper - d


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
    theta_b = float(_theta_end(spec, a, b, xi, energy, rtol))
    return math.floor(theta_b / math.pi + 1e-12)


def counts_grid(spec: PotentialSpec, a: float, b: float, xi: float,
                energies, *, rtol: float = 1e-6) -> np.ndarray:
    """Vectorized eigenvalue counts for a whole energy grid (one ODE pass)."""
    th = prufer.theta_grid(spec, np.asarray(energies, dtype=float), xi,
                           a, b, 0.0, rtol=rtol)
    return np.floor(th / math.pi + 1e-12).astype(int)


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
        xi: float = 0.0, *, rtol: float = 1e-6) -> IdsResult:
    """Integrated density of states: eigenvalue count per unit length.

    Returns the last-window value; the error estimate is the spread of the
    last three window values floored at the two-boundary-state granularity
    2/|largest window|.  converged is False when that spread stopped
    decreasing.
    """
    chain = chain or WindowChain.geometric()
    values = []
    for (a, b) in chain.windows:
        n = eigenvalue_count(spec, a, b, xi, energy, rtol=rtol)
        values.append(n / (b - a))
    values = np.array(values)
    last_len = chain.lengths[-1]
    if len(values) >= 3:
        spread = float(np.ptp(values[-3:]))
    else:
        spread = float(np.ptp(values))
    err = max(spread, PLATEAU_STATES / last_len)
    converged = True
    if len(values) >= 4:
        prev = float(np.ptp(values[-4:-1]))
        converged = spread <= prev + 1e-12
    return IdsResult(value=float(values[-1]), error_estimate=err,
                     window_values=tuple(float(v) for v in values),
                     converged=converged)


def detect_gaps(spec: PotentialSpec, e_min: float, e_max: float, *,
                resolution: float = 0.02, chain: WindowChain | None = None,
                xi: float = 0.0, rtol: float = 1e-6, min_cells: int = 2,
                significance: float = 8.0) -> list[Gap]:
    """Locate spectral gaps by scanning for plateaus of the box counts.

    A maximal energy run over which the count on the largest window varies
    by at most PLATEAU_STATES (finite boxes host O(1) boundary eigenvalues
    inside true gaps) is a gap candidate.  A candidate only counts when the
    flanking band density would have filled the run with at least
    `significance` states, which separates true plateaus from short count
    fluctuations on windows that are too small.  Runs flat on the two
    largest windows are confirmed; edges are refined by one joint bisection
    on the count jump.  Runs touching the scan boundary are dropped since
    only one edge is visible.
    """
    return _scan(spec, e_min, e_max, resolution, chain, xi, rtol, min_cells,
                 significance)[0]


def _scan(spec: PotentialSpec, e_min: float, e_max: float, resolution: float,
          chain: WindowChain | None, xi: float = 0.0, rtol: float = 1e-6,
          min_cells: int = 2, significance: float = 8.0):
    """detect_gaps, returning also its scan energies and their counts on
    the largest window."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    chain = chain or WindowChain.geometric()
    w1 = chain.windows[-1]
    w2 = chain.windows[-2] if len(chain) > 1 else w1
    n_grid = max(3, int(math.ceil((e_max - e_min) / resolution)) + 1)
    energies = np.linspace(e_min, e_max, n_grid)
    c1 = counts_grid(spec, w1[0], w1[1], xi, energies, rtol=rtol)

    runs = []
    start = 0
    for i in range(1, n_grid):
        if c1[i] - c1[start] > PLATEAU_STATES:
            if i - 1 - start >= min_cells:
                runs.append((start, i - 1))
            start = i
    if n_grid - 1 - start >= min_cells:
        runs.append((start, n_grid - 1))

    flank = 3
    candidates = []
    for (i0, i1) in runs:
        if i0 == 0 or i1 == n_grid - 1:
            continue  # touches the scan boundary; edges not establishable
        j0 = max(0, i0 - flank)
        j1 = min(n_grid - 1, i1 + flank)
        left_rate = (c1[i0] - c1[j0]) / max(1, i0 - j0)
        right_rate = (c1[j1] - c1[i1]) / max(1, j1 - i1)
        expected = 0.5 * (left_rate + right_rate) * (i1 - i0)
        if expected < significance:
            continue
        candidates.append((i0, i1, int(c1[(i0 + i1) // 2])))

    # An energy is still in the gap while at most PLATEAU_STATES box
    # eigenvalues separate it from the plateau count n_ref: above the phase
    # (n_ref - 2) pi at the lower edge, below (n_ref + 3) pi at the upper one.
    # Each edge gets 16 halvings of its grid cell.
    below, above, targets = [], [], []
    for (i0, i1, n_ref) in candidates:
        below += [energies[i0 - 1], energies[i1]]
        above += [energies[i0], energies[i1 + 1]]
        targets += [(n_ref - PLATEAU_STATES) * math.pi,
                    (n_ref + PLATEAU_STATES + 1) * math.pi]
    edges = prufer.bisect(
        lambda e, _: _theta_end(spec, w1[0], w1[1], xi, e, rtol),
        below, above, targets, float(np.max(np.diff(energies))) / 2 ** 16)

    gaps = []
    for (i0, i1, _), lower, upper in zip(candidates, edges[::2], edges[1::2]):
        if not upper > lower:
            continue
        c2 = counts_grid(spec, w2[0], w2[1], xi, energies[i0:i1 + 1],
                         rtol=rtol)
        confirmed = int(c2[-1] - c2[0]) <= PLATEAU_STATES
        gaps.append(Gap(float(lower), float(upper),
                        "confirmed" if confirmed else "heuristic"))
    return gaps, energies, c1
