"""Edge-state trace invariant of a gap, by three routes.

The half-line operator truncated to [-L, 0] is a symmetric tridiagonal
matrix; its in-gap eigenpairs, filtered to the ones actually localized at the
physical boundary x = 0, define a unitary that advances each edge state by
the phase phi_j = 2 pi (lambda_j - E_-)/|gap|.  The window mean of
Tr[(U* - 1) dU/dxi] = i sum_j (1 - exp(i phi_j)) phi_j' counts the edge
states that cross the gap (a spectral flow); it must reproduce both the
circle-map formula evaluated on the flow curves and the mean boundary force
per unit energy carried by the edge states.

Every one of these integrands is an exact derivative of a function of the
lift Phi of sum_j phi_j.  pi_trace takes its difference between the window
ends: -[Phi - sum_j sin phi_j] / (2 pi |W|), and an imaginary part
[sum_j (1 - cos phi_j)] / (2 pi |W|); pi_curves and boundary_force take
the bump mean of its slope over a chain (rotation.sampled_rotation).
sin phi and 1 - cos phi vanish at both gap edges, so an edge state entering
or leaving the gap adds only the 2 pi that the lift folds away.

The nodes between the window ends only carry the lift.  A spectral flow
is a count of crossings, so pi_trace reads the lift's wraps off the Sturm
counts at both gap edges (_wraps), and bounds the edge-phase speed only
where the counts cannot name the crossing states.
Each node continues the in-gap states of the node before by Rayleigh-quotient
iteration, the first shift predicted by Hellmann-Feynman and the next ones
read off the solves, starts each state that entered the gap by one solve at
its eigenvalue from a loose bisection, and certifies them all against the
counts and by one explicit Kato-Temple residual per state; only a node the
certificate refuses calls eigh_tridiagonal.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

from . import dirichlet, lattice, potentials, rotation
from .potentials import PotentialSpec, WindowChain
from .spectrum import Gap

TWO_PI = 2.0 * math.pi
MATRIX_SIZE_CAP = 2_000_000
RQI_STEPS = 6   # Rayleigh-quotient steps per vector before giving up
BISECT_TOL = 1e-6   # dstebz tolerance, relative to |gap|, for new states
COUNT_STEP = 0.8   # count-rule step between nodes, in units of |gap|/sup|V'|
MIXING = 1e-3   # weight off its one eigenvector a counted retained state has

log = logging.getLogger(__name__)


class ResourceLimitError(RuntimeError):
    """Requested lattice exceeds the configured size cap."""


class NumericalDifferentiationError(RuntimeError):
    """The trace label failed its real/imaginary consistency check."""


@dataclass(frozen=True)
class HalflineOperator:
    """Finite-difference Dirichlet operator on [-L, 0]."""

    h: float
    L: float
    xi: float
    diag: np.ndarray
    offdiag: np.ndarray
    xs: np.ndarray


def build_halfline(spec: PotentialSpec, xi: float, L: float,
                   h: float) -> HalflineOperator:
    """Three-point discretization of the half-line operator.

    Requires h at or below 0.01 * min(1, 1/f_max) so the fastest potential
    oscillation is resolved, and L an (approximate) multiple of h.
    """
    fmax = potentials.max_frequency(spec)
    cap = 0.01 * min(1.0, 1.0 / fmax) if fmax > 0 else 0.01
    if h > cap * (1.0 + 1e-9):
        raise ValueError(f"h={h} too coarse; need h <= {cap}")
    n = int(round(L / h))
    if abs(n * h - L) > 1e-6 * L:
        raise ValueError(f"L={L} is not a multiple of h={h}")
    if n > MATRIX_SIZE_CAP:
        raise ResourceLimitError(f"L/h={n} exceeds cap {MATRIX_SIZE_CAP}")
    diag, off, xs = lattice.fd_tridiagonal(spec, -L, 0.0, xi, h)
    return HalflineOperator(h=h, L=L, xi=xi, diag=diag, offdiag=off, xs=xs)


@dataclass(frozen=True)
class EdgeUnitary:
    """In-gap eigenpairs retained by the boundary-mass filter, with phases.

    The implied unitary is the identity plus sum_j (phase_j - 1) P_j over the
    retained rank-one projectors.  _in_gap holds every in-gap state of the
    mass eigenbasis, unfiltered, to start the next node from: a cold solve's
    mixtures of mirror-degenerate states come out unmixed there.  _counts
    holds N(E_-) and N(E_+), and _flags marks the in-gap branches that are
    retained (None where the counts cannot name them).
    """

    gap: Gap
    eigenvalues: np.ndarray
    vectors: np.ndarray = field(repr=False)
    _in_gap: np.ndarray | None = field(default=None, repr=False, compare=False)
    _rho: np.ndarray | None = field(default=None, repr=False, compare=False)
    _diag: np.ndarray | None = field(default=None, repr=False, compare=False)
    _cold: bool = field(default=True, repr=False, compare=False)
    _work: tuple = field(default=(0, 0, 0, 0, 0), repr=False, compare=False)
    _bisected: int = field(default=0, repr=False, compare=False)
    _counts: tuple | None = field(default=None, repr=False, compare=False)
    _flags: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    @property
    def angles(self) -> np.ndarray:
        """phi_j = 2 pi (lambda_j - E_-)/|gap|, from 0 at the lower edge to
        2 pi at the upper one."""
        return TWO_PI * (self.eigenvalues - self.gap.e_lower) / self.gap.width

    @property
    def phases(self) -> np.ndarray:
        return np.exp(1j * self.angles)


def edge_projector(op: HalflineOperator, gap: Gap,
                   mass_threshold: float = 0.5, *,
                   start: EdgeUnitary | None = None) -> EdgeUnitary:
    """In-gap states carrying enough mass near the x = 0 boundary.

    The truncation at -L adds spurious in-gap states localized there; the
    filter keeps states with at least mass_threshold of their squared
    amplitude in [-L/4, 0].  The states are the eigenvectors of the mass
    matrix V_near^T V_near of the in-gap eigenvectors V, with Rayleigh
    quotients as eigenvalues: they unmix a boundary and a truncation state
    that a mirror-symmetric box makes degenerate.

    The unit records the Sturm counts N(E_-) and N(E_+) of op, from
    lattice.count_below, and flags the in-gap branch (eigenvalue rank) of
    each retained state, for pi_trace's count rule; the flags are None
    unless the in-gap pairs meet the counts and every retained state puts at
    most MIXING of its weight off one in-gap eigenvector.  _continue follows
    the in-gap pairs of start, the unit of a nearby offset, and bisects the
    states they miss, certified against the counts; eigh_tridiagonal solves
    only the nodes it does not certify.
    """
    if not 0 < mass_threshold < 1:   # else every state or none is kept
        raise ValueError("mass_threshold must lie in (0, 1)")
    counts = tuple(lattice.count_below(op.diag, op.offdiag, e)
                   for e in (gap.e_lower, gap.e_upper))
    w, v, work, bisected = _continue(op, gap, start, counts[1] - counts[0])
    if cold := w is None:
        _, v = eigh_tridiagonal(op.diag, op.offdiag, select="v",
                                select_range=(gap.e_lower, gap.e_upper))
        w = np.array([_rayleigh(op, x)[0] for x in v.T])
        work = np.add(work, (0, 0, len(w), 0))
    near = v[np.searchsorted(op.xs, -op.L / 4.0):]
    mass, rot = np.linalg.eigh(near.T @ near)
    states, rho = v @ rot, (rot ** 2).T @ w
    keep = mass >= mass_threshold
    # a retained state with 1 - MIXING of its weight on one in-gap branch
    # flags that branch, for pi_trace's count rule
    one = rot[:, keep] ** 2 >= 1.0 - MIXING
    flags = (one.any(axis=1) if len(w) == counts[1] - counts[0]
             and one.any(axis=0).all() else None)
    return EdgeUnitary(gap=gap, eigenvalues=rho[keep], vectors=states[:, keep],
                       _in_gap=states, _rho=rho, _diag=op.diag, _cold=cold,
                       _work=(2, *work), _bisected=bisected, _counts=counts,
                       _flags=flags)


def _rayleigh(op: HalflineOperator, v: np.ndarray, floor: float = 0.0):
    """Rayleigh quotient rho of the unit vector v and ||(T - rho) v||."""
    off = float(op.offdiag[0])
    # differences with the zero ends, so that 2/h^2 cannot cancel
    dv = np.empty(len(v) + 1)
    dv[0], dv[1:-1], dv[-1] = v[0], np.diff(v), -v[-1]
    res = (op.diag + 2.0 * off) * v   # exact: d is within a factor 2 of -2 off
    rho = float(np.dot(v, res) - off * np.dot(dv, dv))
    res += off * np.diff(dv) - rho * v
    return rho, max(math.sqrt(np.dot(res, res)), floor)


def _rqi(op: HalflineOperator, gap: Gap, v: np.ndarray, rho: float,
         tol: float):
    """(rho, r, v, solves, evaluations): Rayleigh-quotient iteration from the
    unit vector v at shift rho until r^2 is a thousandth of the Kato-Temple
    budget tol delta, delta to the nearer gap edge, or [rho +- r] leaves the
    gap.  Each solve (T - rho) y = v gives the next shift and r, those of
    y/||y||; _rayleigh confirms an r that meets the goal and is returned."""
    lo, hi, r, solves, evaluations = gap.e_lower, gap.e_upper, math.inf, 0, 0
    while True:
        goal = 1e-3 * tol * min(abs(rho - lo), abs(hi - rho))
        if r * r <= goal or solves == RQI_STEPS:
            rho, r = _rayleigh(op, v, tol)
            evaluations += 1
            if r * r <= goal or solves == RQI_STEPS:
                return rho, r, v, solves, evaluations
        y, info = lapack.dgtsv(op.offdiag, op.diag - rho, op.offdiag, v,
                               overwrite_d=1)[3:]
        solves += 1
        if info:   # T - rho is singular: rho is an eigenvalue
            r = 0.0
            continue
        vy, yy = float(np.dot(v, y)), float(np.dot(y, y))
        rho, r = rho + vy / yy, math.sqrt(max(1.0 - vy * vy / yy, 0.0) / yy)
        v = y / math.sqrt(yy)
        if rho - r >= hi or rho + r <= lo:
            return rho, r, v, solves, evaluations


def _continue(op: HalflineOperator, gap: Gap, start: EdgeUnitary | None,
              count: int):
    """(w, v, work, bisected): the count in-gap pairs of op, polished by _rqi
    from the in-gap states of start at their Rayleigh quotients here
    (start's plus <v, (D - D_start) v>) and, while count holds more, from one
    seeded vector at each eigenvalue of a loose dstebz bisection of the gap;
    w = v = None unless, with residuals r floored at tol = eps ||T||_1, they
    meet count, the [rho +- r] lie disjoint in the gap, and Kato-Temple
    bounds r^2/delta <= tol, delta to next or edge.  work counts the gap
    bisections, solves, explicit residuals and seeded starts; bisected, the
    states bisected, each of which takes one start."""
    d, e = op.diag, op.offdiag
    lo, hi = gap.e_lower, gap.e_upper
    tol = np.finfo(float).eps * float(np.max(np.abs(d)) - 2.0 * e[0])
    pairs = []
    if start is not None and start._in_gap is not None:
        dd = d - start._diag   # Hellmann-Feynman
        pairs = [_rqi(op, gap, v, q + float(np.dot(v, dd * v)), tol)
                 for v, q in zip(start._in_gap.T, start._rho)]
    known = [p[0] for p in pairs if lo < p[0] < hi]
    loose, new = BISECT_TOL * gap.width, []
    if count > len(known):
        m, w = lapack.dstebz(d, e, 1, lo, hi, 0, 0, loose, "B")[:2]
        new = [x for x in w[:m] if all(abs(k - x) > loose for k in known)]
        z = np.random.default_rng(0).standard_normal(len(d))
        z /= math.sqrt(np.dot(z, z))
        pairs += [_rqi(op, gap, z, x, tol) for x in new]
    work = (int(count > len(known)), sum(p[3] for p in pairs),
            sum(p[4] for p in pairs), len(new))
    found = sorted((p for p in pairs if lo < p[0] < hi), key=lambda p: p[0])
    rho, r, v = (np.array([p[i] for p in found]) for i in range(3))
    left = np.append(lo, rho[:-1] + r[:-1])
    right = np.append(rho[1:] - r[1:], hi)
    if (len(found) != count
            or np.any(rho - r <= left) or np.any(rho + r >= right)
            or np.any(r * r > tol * np.minimum(rho - left, right - rho))):
        return None, None, work, len(new)
    return rho, v.reshape(len(found), len(d)).T, work, len(new)


def _wraps(u0: EdgeUnitary, u1: EdgeUnitary) -> int | None:
    """Retained branches that left the gap through E_+ between the nodes of
    u0 and u1, less those that entered through it; None where the counts
    cannot name them.

    With the branches ordered and each moving less than |gap| (the caller's
    step), N(E_-) rising by m means the m lowest in-gap branches of u0 left
    through E_-, falling by m that the m lowest of u1 entered through it;
    N(E_+) likewise names the highest.  The count is read only if every
    crossing fits inside the in-gap set it comes from and the branches in
    the gap at both nodes hold as many retained states at each.
    """
    if u0._flags is None or u1._flags is None:
        return None
    f0, f1 = u0._flags, u1._flags
    below = u1._counts[0] - u0._counts[0]
    above = u1._counts[1] - u0._counts[1]
    out0, in1 = max(below, 0), max(-below, 0)
    top0, top1 = len(f0) - max(-above, 0), len(f1) - max(above, 0)
    if out0 > top0 or in1 > top1:
        return None
    if np.count_nonzero(f0[out0:top0]) != np.count_nonzero(f1[in1:top1]):
        return None
    return int(np.count_nonzero(f0[top0:]) - np.count_nonzero(f1[top1:]))


@dataclass(frozen=True)
class KLabelResult:
    value: float
    error_estimate: float
    imag_residue: float
    retained_counts: tuple[int, ...] = ()
    xi_nodes: np.ndarray = field(repr=False, compare=False, default=None)
    phase: np.ndarray = field(repr=False, compare=False, default=None)


def pi_trace(spec: PotentialSpec, gap: Gap, xi_window, dxi: float,
             L: float = 60.0, h: float = 0.01, *,
             mass_threshold: float = 0.5) -> KLabelResult:
    """Trace-formula gap label on an offset window.

    One edge_projector call per offset node, started from the node before,
    gives the retained edge phases phi_j; with Phi the lift of sum_j phi_j
    over the nodes, the window mean of Tr[(U* - 1) dU/dxi], normalized by
    -1/(2 pi i), is -[Phi - sum_j sin phi_j] / (2 pi |W|) with imaginary
    part [sum_j (1 - cos phi_j)] / (2 pi |W|), both taken at the window ends.

    dxi keeps its place for callers but no longer spaces the nodes.  As
    d diag/dxi = V'(x + xi), every eigenvalue of the half-line moves at most
    slope_bound(V) per unit offset (Weyl), and the eigenvalues of the
    irreducible tridiagonal stay simple and ordered.  So a step s with
    slope_bound(V) s < 0.95 |gap| carries no branch across the whole gap,
    and the counts at its ends name the branches that crossed each edge
    (_wraps): the lift moves by the change of sum_j phi_j plus 2 pi per
    retained branch that left through E_+, less one per retained branch
    that entered through it.  Steps are COUNT_STEP |gap|/slope_bound(V)
    long.  A step the counts cannot read takes the fold rule: each edge
    phase moves at most sigma = 2 pi slope_bound(V)/|gap| per unit offset
    (Hellmann-Feynman), so a step between nodes holding r0 and r1 states
    whose folded change of sum_j phi_j is at most B = max(r0 + r1, 1)
    sigma s < pi has that as its true change.  A refused step is retried
    at 0.95 pi/(sigma max(2 r0, 1)), then halved; one shorter than h that
    still fails holds a state appearing inside the gap and raises
    FlowResolutionError.  The window end is solved once, however many steps
    try it.  The result must be real: its imaginary residue is added to the
    1e-5 error floor, and a residue above ten times that floor aborts.
    """
    a, b = float(xi_window[0]), float(xi_window[1])
    if not b > a:
        raise ValueError("empty offset window")

    grid = build_halfline(spec, a, L, h)
    pot = potentials.offset_evaluator(spec, grid.xs)

    # units solved, cold, then edge_projector's _work, then states bisected
    tally = np.zeros(8, dtype=int)

    def solve(x, start=None):
        op = replace(grid, xi=x, diag=2.0 / h ** 2 + pot(x))
        unit = edge_projector(op, gap, mass_threshold, start=start)
        tally[:] += (1, unit._cold, *unit._work, unit._bisected)
        return unit

    slope = potentials.slope_bound(spec)
    sigma = TWO_PI * slope / gap.width
    # edge_projector resolves eigenvalues to eps times the 1-norm of T
    slack = (TWO_PI * np.finfo(float).eps / gap.width
             * (4.0 / h ** 2 + potentials.amplitude_bound(spec)))
    reach = 0.95 * math.pi / sigma if sigma else math.inf
    stride = COUNT_STEP * gap.width / slope if slope else math.inf
    unit, end = solve(a), None   # end: the unit at b, solved once
    nodes, angles, lift = [a], [unit.angles], [float(np.sum(unit.angles))]
    steps = [0, 0, 0]   # shortened, lifted by counts, by the fold rule
    while nodes[-1] < b:
        x, r0 = nodes[-1], len(angles[-1])
        x1, fold = min(b, x + stride), min(b, x + reach / max(2 * r0, 1))
        while True:
            trial = end if x1 == b and end is not None else solve(x1, unit)
            end = trial if x1 == b else end
            p1 = trial.angles
            wraps = (_wraps(unit, trial)
                     if slope * (x1 - x) < 0.95 * gap.width else None)
            if wraps is not None:
                d = float(np.sum(p1) - np.sum(angles[-1])) + TWO_PI * wraps
                steps[1] += 1
                break
            d = math.remainder(float(np.sum(p1)) - lift[-1], TWO_PI)
            bound = max(r0 + len(p1), 1) * sigma * (x1 - x)
            if bound < math.pi and abs(d) <= bound + (r0 + len(p1)) * slack:
                steps[2] += 1
                break
            if x1 - x < h:
                raise dirichlet.FlowResolutionError(
                    f"an edge state appears inside gap ({gap.e_lower:.6g}, "
                    f"{gap.e_upper:.6g}) between xi = {x!r} and xi = {x1!r}")
            log.debug("pi_trace: shortened the step from xi = %r to %r", x,
                      x1)
            x1 = fold if x1 > fold else x + (x1 - x) / 2.0
            steps[0] += 1
        unit = trial
        nodes.append(x1)
        angles.append(p1)
        lift.append(lift[-1] + d)
    log.debug("pi_trace: window (%r, %r), %d nodes solved, "
              "%d steps shortened, %d steps lifted by counts, "
              "%d by the fold rule, "
              "%d cold eigensolves, %d Sturm counts, %d gap bisections, "
              "%d tridiagonal solves, %d explicit residuals, "
              "%d inverse-iteration starts, %d states bisected", a, b,
              tally[0], *steps, *tally[1:])

    norm = TWO_PI * (b - a)
    first, last = angles[0], angles[-1]
    value = (np.sum(np.sin(last)) - np.sum(np.sin(first))
             - (lift[-1] - lift[0])) / norm
    imag_residue = abs(float(np.sum(1.0 - np.cos(last))
                             - np.sum(1.0 - np.cos(first)))) / norm
    base_err = 1e-5
    if imag_residue > 10.0 * base_err:
        raise NumericalDifferentiationError(
            f"imaginary residue {imag_residue:.3e} exceeds 10x error budget "
            f"{base_err:.3e} in gap ({gap.e_lower:.6g}, {gap.e_upper:.6g}) "
            f"on xi window ({a:.6g}, {b:.6g})")
    return KLabelResult(value=float(value),
                        error_estimate=base_err + imag_residue,
                        imag_residue=imag_residue,
                        retained_counts=tuple(len(p) for p in angles),
                        xi_nodes=np.array(nodes), phase=np.array(lift))


def pi_curves(flow, gap: Gap, chain: WindowChain | None = None, *,
              dxi: float = 0.1) -> KLabelResult:
    """Curve-formula gap label: the window mean of (conj(mu_tilde) - 1) mu_tilde'.

    With mu_tilde = exp(i Phi) and Phi the flow's right phase lift on its
    own grid, the integrand is i Phi' - (exp(i Phi))', so the label is the
    rotation number of (sin Phi - Phi)/2 pi, with the normalization of the
    trace formula; the imaginary part is that of (1 - cos Phi)/2 pi, and its
    last window's size, the residue, joins the error.  dxi keeps its place
    for callers but is unused.
    """
    chain = chain or dirichlet.default_xi_chain()
    phi = dirichlet.phase_lift(flow)
    real = rotation.sampled_rotation(flow.xi, (np.sin(phi) - phi) / TWO_PI,
                                     chain)
    imag = rotation.sampled_rotation(flow.xi, (1.0 - np.cos(phi)) / TWO_PI,
                                     chain)
    residue = abs(imag.extrapolated)
    return KLabelResult(value=real.extrapolated,
                        error_estimate=real.error_estimate + residue,
                        imag_residue=residue)


@dataclass(frozen=True)
class BoundaryForceResult:
    value: float
    error_estimate: float
    max_dirichlet_count: int
    within_hypothesis: bool


def boundary_force(flow, gap: Gap,
                   chain: WindowChain | None = None) -> BoundaryForceResult:
    """Mean boundary force per unit energy exerted by the in-gap edge states.

    The window mean of -mu'(xi) |D_xi| / |gap| over the flow: the rotation
    number of minus the summed right values over |gap|, which is the right
    phase lift over -2 pi, the lift of beta_right.  Computed regardless, but
    only within the simplifying hypothesis max |D_xi| <= 1 is the
    single-curve reduction exact.
    """
    chain = chain or dirichlet.default_xi_chain()
    phi = dirichlet.phase_lift(flow)
    mean = rotation.sampled_rotation(flow.xi, -phi / TWO_PI, chain)
    dmax = dirichlet.max_dirichlet_count(flow)
    return BoundaryForceResult(value=mean.extrapolated,
                               error_estimate=mean.error_estimate,
                               max_dirichlet_count=dmax,
                               within_hypothesis=dmax <= 1)
