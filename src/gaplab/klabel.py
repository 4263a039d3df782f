"""Edge-state trace invariant of a gap, by three routes.

The half-line operator truncated to [-L, 0] is a symmetric tridiagonal
matrix; its in-gap eigenpairs, filtered to the ones actually localized at the
physical boundary x = 0, define a unitary that advances each edge state by a
phase proportional to its position in the gap.  The trace of
(U* - 1) dU/dxi, averaged over the offset, is a winding density; it must
reproduce both the circle-map formula evaluated on the flow curves and the
mean boundary force per unit energy carried by the edge states.

The offset derivative is exact rather than a difference quotient: only the
diagonal V(x_i + xi) of the matrix moves with xi, so each edge eigenvalue
moves by the Hellmann-Feynman slope sum_i v_i^2 V'(x_i + xi), and the
moving projectors contribute nothing to the trace.  One eigensolve per
offset node gives the whole integrand.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import dirichlet, lattice, potentials, rotation
from .dirichlet import phase_lift, _xi_grid
from .potentials import PotentialSpec, WindowChain
from .spectrum import Gap

TWO_PI = 2.0 * math.pi
MATRIX_SIZE_CAP = 2_000_000


class ResourceLimitError(RuntimeError):
    """Requested lattice exceeds the configured size cap."""


class NumericalDifferentiationError(RuntimeError):
    """The trace integrand failed its real/imaginary consistency check."""


@dataclass(frozen=True)
class HalflineOperator:
    """Finite-difference Dirichlet operator on [-L, 0]."""

    h: float
    L: float
    xi: float
    diag: np.ndarray
    offdiag: np.ndarray
    xs: np.ndarray

    @property
    def size(self) -> int:
        return len(self.diag)


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
    retained rank-one projectors; everything downstream only ever needs the
    retained eigenpairs.
    """

    gap: Gap
    eigenvalues: np.ndarray
    vectors: np.ndarray = field(repr=False)
    phases: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    def slopes(self, dpotential: np.ndarray) -> np.ndarray:
        """Eigenvalue derivatives d lambda_j/dxi = sum_i v_ij^2 V'(x_i + xi).

        dpotential is V'(x_i + xi) on the lattice, the diagonal of dT/dxi;
        an in-gap eigenvalue of a Jacobi matrix is simple, so the
        Hellmann-Feynman theorem applies.
        """
        return dpotential @ self.vectors ** 2

    def trace_integrand(self, dpotential: np.ndarray) -> complex:
        """Tr[(U* - 1) dU/dxi] = i (2 pi/|gap|) sum_j (1 - phase_j) slope_j.

        The projector derivatives drop out, Tr[P_j dP_k] = 0, so only the
        squared eigenvector amplitudes enter and no gauge can reach the value.
        """
        return complex(1j * TWO_PI / self.gap.width
                       * np.sum((1.0 - self.phases) * self.slopes(dpotential)))


def edge_projector(op: HalflineOperator, gap: Gap,
                   mass_threshold: float = 0.5) -> EdgeUnitary:
    """Eigenpairs in the gap carrying enough mass near the x = 0 boundary.

    The truncation at -L adds spurious in-gap states localized there; the
    filter keeps eigenvectors with at least mass_threshold of their squared
    amplitude in [-L/4, 0].
    """
    w, v = eigh_tridiagonal(op.diag, op.offdiag, select="v",
                            select_range=(gap.e_lower, gap.e_upper))
    near = op.xs >= -op.L / 4.0
    keep = np.sum(v[near] ** 2, axis=0) >= mass_threshold
    w_k = w[keep]
    v_k = v[:, keep]
    phases = np.exp(2j * math.pi * (w_k - gap.e_lower) / gap.width)
    return EdgeUnitary(gap=gap, eigenvalues=w_k, vectors=v_k, phases=phases)


@dataclass(frozen=True)
class KLabelResult:
    value: float
    error_estimate: float
    imag_residue: float
    retained_counts: tuple[int, ...] = ()
    xi_nodes: np.ndarray = field(repr=False, compare=False, default=None)
    integrand: np.ndarray = field(repr=False, compare=False, default=None)


def _edge_integrand(spec: PotentialSpec, gap: Gap, xi: float, L: float,
                    h: float, mass_threshold: float = 0.5):
    """The edge unitary at offset xi and its trace integrand, one eigensolve."""
    op = build_halfline(spec, xi, L, h)
    unit = edge_projector(op, gap, mass_threshold)
    return unit, unit.trace_integrand(potentials.derivative(spec, op.xs, xi))


def pi_trace(spec: PotentialSpec, gap: Gap, xi_window, dxi: float,
             L: float = 60.0, h: float = 0.01, *,
             mass_threshold: float = 0.5) -> KLabelResult:
    """Trace-formula gap label on an offset window.

    At each quadrature node one eigensolve gives the edge unitary, and the
    trace of (U* - 1) dU/dxi follows exactly from its eigenpairs (see
    EdgeUnitary.trace_integrand); the window integral is normalized by
    -1/(2 pi i |window|).  The result must be real; its imaginary residue
    enters the error estimate, and a residue ten times larger than the rest
    of the estimate aborts.
    """
    a, b = float(xi_window[0]), float(xi_window[1])
    if not b > a:
        raise ValueError("empty offset window")
    nodes = _xi_grid(a, b, dxi)
    vals = np.zeros(len(nodes), dtype=complex)
    counts = []
    for j, x in enumerate(nodes):
        unit, vals[j] = _edge_integrand(spec, gap, x, L, h, mass_threshold)
        counts.append(unit.rank)

    integral = complex(np.trapezoid(vals, nodes))
    result = -integral / (2j * math.pi * (b - a))
    coarse = complex(np.trapezoid(vals[::2], nodes[::2]))
    result_coarse = -coarse / (2j * math.pi * (b - a))
    quad_err = abs(result.real - result_coarse.real)
    imag_residue = abs(result.imag)
    base_err = quad_err + 1e-5
    if imag_residue > 10.0 * base_err:
        raise NumericalDifferentiationError(
            f"imaginary residue {imag_residue:.3e} exceeds 10x error budget "
            f"{base_err:.3e}")
    return KLabelResult(value=float(result.real),
                        error_estimate=base_err + imag_residue,
                        imag_residue=imag_residue,
                        retained_counts=tuple(counts),
                        xi_nodes=nodes, integrand=vals)


def single_curve_reduction_residual(spec: PotentialSpec, gap: Gap, curve,
                                    index: int, L: float = 60.0,
                                    h: float = 0.01, *,
                                    fd_delta: float = 1e-3) -> float:
    """Single-curve consistency of the operator trace with the curve formula.

    With one edge state, the operator's exact integrand must collapse to
    (exp(-i phi) - 1) d/dxi exp(i phi) with phi = 2 pi (mu(xi) - E0)/|gap|,
    evaluated here from the shooting curve by a central difference.  Returns
    the absolute difference at one interior curve sample.
    """
    xi0 = float(curve.xi[index])
    mu_guess = float(curve.mu[index])
    mu0 = dirichlet._refine_root_near(spec, gap, xi0, mu_guess, curve.side,
                                      L, tol=1e-11, rtol=1e-10)
    mu_p = dirichlet._refine_root_near(spec, gap, xi0 + fd_delta / 2.0, mu0,
                                       curve.side, L, tol=1e-11, rtol=1e-10)
    mu_m = dirichlet._refine_root_near(spec, gap, xi0 - fd_delta / 2.0, mu0,
                                       curve.side, L, tol=1e-11, rtol=1e-10)

    def u_phase(mu):
        return cmath.exp(2j * math.pi * (mu - gap.e_lower) / gap.width)

    expected = ((np.conj(u_phase(mu0)) - 1.0)
                * (u_phase(mu_p) - u_phase(mu_m)) / fd_delta)

    _, actual = _edge_integrand(spec, gap, xi0, L, h)
    return abs(actual - complex(expected))


def _window_means_to_result(chain: WindowChain, window_values,
                            extra_err: float = 0.0) -> KLabelResult:
    values = np.array([v.real for v in window_values])
    # small windows carry large boundary terms; only the tail is diagnostic
    imag = float(np.max(np.abs(np.array([v.imag for v in window_values[-3:]]))))
    extrap, err, _ = rotation.extrapolate(chain.lengths, values)
    return KLabelResult(value=float(extrap),
                        error_estimate=err + imag + extra_err,
                        imag_residue=imag)


def pi_curves(flow, gap: Gap, chain: WindowChain | None = None, *,
              dxi: float = 0.1) -> KLabelResult:
    """Curve-formula gap label: the window mean of (conj(mu_tilde) - 1) mu_tilde'.

    mu_tilde is rebuilt from the flow curves as a phase lift on each offset
    window, differentiated by central differences, and integrated by the
    trapezoid rule; the normalization matches the trace formula.
    """
    chain = chain or dirichlet.default_xi_chain()
    a_big, b_big = chain.largest
    xis = _xi_grid(a_big, b_big, dxi)
    phi = phase_lift(flow, gap, xis, variant="right_only")
    mu_t = np.exp(1j * phi)
    dphi = np.gradient(phi, xis)
    dmu = 1j * dphi * mu_t
    integrand = (np.conj(mu_t) - 1.0) * dmu

    window_values = []
    for (a, b) in chain.windows:
        mask = (xis >= a - 1e-12) & (xis <= b + 1e-12)
        val = complex(np.trapezoid(integrand[mask], xis[mask]))
        window_values.append(-val / (2j * math.pi * (b - a)))
    return _window_means_to_result(chain, window_values)


@dataclass(frozen=True)
class BoundaryForceResult:
    value: float
    error_estimate: float
    max_dirichlet_count: int
    within_hypothesis: bool


def boundary_force(flow, gap: Gap,
                   chain: WindowChain | None = None) -> BoundaryForceResult:
    """Mean boundary force per unit energy exerted by the in-gap edge states.

    The window mean of -mu'(xi) |D_xi| / |gap| over the flow; each curve's
    contribution telescopes to its energy drop across the window, including
    the linear extensions to the true edges.  Computed regardless, but only
    within the simplifying hypothesis max |D_xi| <= 1 is the single-curve
    reduction exact.
    """
    chain = chain or dirichlet.default_xi_chain()
    width = gap.width
    right_curves = [c for c in flow if c.side == dirichlet.RIGHT]

    window_values = []
    for (a, b) in chain.windows:
        drop = 0.0
        for c in right_curves:
            cxi, cmu = c.extended()
            lo = max(a, cxi[0])
            hi = min(b, cxi[-1])
            if hi <= lo:
                continue
            mu_hi = float(np.interp(hi, cxi, cmu))
            mu_lo = float(np.interp(lo, cxi, cmu))
            drop += mu_hi - mu_lo
        window_values.append(-drop / (width * (b - a)))

    values = np.array(window_values)
    extrap, err, _ = rotation.extrapolate(chain.lengths, values)
    a_big, b_big = chain.largest
    xis = _xi_grid(a_big, b_big, 0.05)
    dmax = dirichlet.max_dirichlet_count(flow, xis)
    return BoundaryForceResult(value=float(extrap), error_estimate=err,
                               max_dirichlet_count=dmax,
                               within_hypothesis=dmax <= 1)
