"""Phase-amplitude integration of (H_xi - E) psi = 0.

Writing psi = r sin(theta), psi' = r cos(theta) with theta the continuous
lift of arg(psi' + i psi) turns the eigenvalue equation into

    theta'   = cos(theta)^2 + (E - V(x + xi)) * sin(theta)^2
    (log r)' = (1 - (E - V(x + xi))) * sin(theta) * cos(theta)

Zeros of psi are exactly the upward crossings of multiples of pi by theta;
at such a crossing theta' = 1, so crossings are transversal and the lift can
never recross a multiple it has passed.  The amplitude is carried in log form
because at spectral-gap energies solutions grow or decay exponentially.

One adaptive Cash-Karp 5(4) loop advances the phase.  It has two front
ends: `integrate` runs it on plain floats for a single trajectory, carrying
log r and storing the accepted nodes for interpolation; `theta_grid` runs it
on numpy arrays for a whole grid of (E, xi) components with shared adaptive
steps, falling back to plain floats when the grid has one component.  A
pass can land on a monotone array of points on its way, returning theta at
each, and carries theta modulo pi between them, so the error control does
not loosen along a long pass.  Every question of the form "where does theta
cross a target" is answered by the one vectorized bracketed search
`bisect` (ITP: interpolation, truncation, projection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potentials
from .potentials import PotentialSpec

# Cash-Karp tableau
_C2, _C3, _C4, _C5, _C6 = 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 3 / 10, -9 / 10, 6 / 5
_A51, _A52, _A53, _A54 = -11 / 54, 5 / 2, -70 / 27, 35 / 27
_A61, _A62, _A63, _A64, _A65 = (1631 / 55296, 175 / 512, 575 / 13824,
                                44275 / 110592, 253 / 4096)
_B1, _B3, _B4, _B6 = 37 / 378, 250 / 621, 125 / 594, 512 / 1771
_E1 = 37 / 378 - 2825 / 27648
_E3 = 250 / 621 - 18575 / 48384
_E4 = 125 / 594 - 13525 / 55296
_E5 = -277 / 14336
_E6 = 512 / 1771 - 1 / 4

_MAX_DTHETA = 0.95 * math.pi / 2  # lift-continuity guard per accepted step

KAPPA_MIN = 1e-3

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11

# Which half-line problem a boundary phase belongs to (see decaying_start):
# RIGHT gives the right Dirichlet values, LEFT the left ones.
RIGHT = "right"
LEFT = "left"


class StiffnessError(RuntimeError):
    """Raised when the adaptive step size underflows."""


@dataclass
class SolutionTrace:
    """One integrated trajectory, stored at the accepted steps.

    xs are in integration order (increasing for forward traces, decreasing for
    backward ones).  dthetas holds theta' at the nodes, which makes cubic
    Hermite interpolation of the lift cheap and accurate.
    """

    potential: PotentialSpec
    energy: float
    offset: float
    direction: str
    xs: np.ndarray
    thetas: np.ndarray
    log_amplitudes: np.ndarray
    dthetas: np.ndarray

    def _ascending(self):
        if self.direction == "forward":
            return self.xs, self.thetas, self.dthetas
        return self.xs[::-1], self.thetas[::-1], self.dthetas[::-1]

    def theta_at(self, x):
        """Cubic Hermite interpolation of the theta lift."""
        xs, th, dth = self._ascending()
        xq = np.asarray(x, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        if np.any(xq < xs[0] - 1e-9) or np.any(xq > xs[-1] + 1e-9):
            raise ValueError("query outside trace range")
        xq = np.clip(xq, xs[0], xs[-1])
        i = np.clip(np.searchsorted(xs, xq, side="right") - 1, 0, len(xs) - 2)
        h = xs[i + 1] - xs[i]
        t = (xq - xs[i]) / h
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        out = (h00 * th[i] + h10 * h * dth[i]
               + h01 * th[i + 1] + h11 * h * dth[i + 1])
        return float(out[0]) if scalar else out


def _theta_rhs_scalar(v_of_x, energy):
    def rhs(x, theta, _v=v_of_x, _E=energy, _sin=math.sin, _cos=math.cos):
        s = _sin(theta)
        c = _cos(theta)
        ev = _E - _v(x)
        return c * c + ev * s * s, (1.0 - ev) * s * c

    return rhs


def _cash_karp(rhs, norm, x_start, x_end, theta, carried=None, *,
               max_step, record=None, context=""):
    """Advance theta from x_start to x_end by adaptive Cash-Karp 5(4) steps.

    Works on floats and numpy arrays alike, in either direction.
    rhs(x, theta) returns (theta', carried'), where `carried` is a quantity
    the right-hand side does not read (log r), or None when nothing is
    carried.  norm(theta, theta_new, err_theta, carried, carried_new,
    err_carried) returns the scaled error, accepted at <= 1, and the largest
    phase change of the step; a change of _MAX_DTHETA or more rejects the
    step, which keeps the lift continuous.  record, when given, receives
    (x, theta, carried, theta') at the start and at every accepted node.
    Returns theta and carried at x_end.

    x_end may instead be a 1-d array of landing points, strictly monotone in
    the direction of integration: the steps then land exactly on each of
    them, and the first return value stacks theta at every landing point
    along a new leading axis.  Between landing points theta is carried
    modulo pi, with the multiples of pi kept aside, so that an error norm
    relative to |theta| does not loosen as the lift grows along a long pass.
    """
    ends = np.ravel(x_end)
    span = ends[-1] - x_start
    if span == 0:
        raise ValueError("x_start and x_end must differ")
    sgn = 1.0 if span > 0 else -1.0
    h_min = 1e-13 * abs(span) + 1e-300

    x = x_start
    th, cr = theta, carried
    k1t, k1c = rhs(x, th)
    if record is not None:
        record((x, th, cr, k1t))
    h = sgn * min(0.02, max_step)
    landed = []
    lift = 0.0  # the multiples of pi set aside
    target = ends[0]
    while True:
        if abs(h) > max_step:
            h = sgn * max_step
        if abs(h) < h_min:
            raise StiffnessError(f"step underflow at x={x:.6g}{context}")
        h_free = h
        last = (x + h - target) * sgn >= 0.0
        if last:
            h = target - x
        k2t, k2c = rhs(x + h * _C2, th + h * _A21 * k1t)
        k3t, k3c = rhs(x + h * _C3, th + h * (_A31 * k1t + _A32 * k2t))
        k4t, k4c = rhs(x + h * _C4, th + h * (_A41 * k1t + _A42 * k2t + _A43 * k3t))
        k5t, k5c = rhs(x + h * _C5, th + h * (_A51 * k1t + _A52 * k2t
                                              + _A53 * k3t + _A54 * k4t))
        k6t, k6c = rhs(x + h * _C6, th + h * (_A61 * k1t + _A62 * k2t + _A63 * k3t
                                              + _A64 * k4t + _A65 * k5t))
        th_new = th + h * (_B1 * k1t + _B3 * k3t + _B4 * k4t + _B6 * k6t)
        err_t = h * (_E1 * k1t + _E3 * k3t + _E4 * k4t + _E5 * k5t + _E6 * k6t)
        cr_new = err_c = None
        if cr is not None:
            cr_new = cr + h * (_B1 * k1c + _B3 * k3c + _B4 * k4c + _B6 * k6c)
            err_c = h * (_E1 * k1c + _E3 * k3c + _E4 * k4c + _E5 * k5c + _E6 * k6c)
        err, dth_step = norm(th, th_new, err_t, cr, cr_new, err_c)
        fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        if dth_step >= _MAX_DTHETA:
            fac = min(fac, 0.5)
        if err <= 1.0 and dth_step < _MAX_DTHETA:
            x = target if last else x + h
            th, cr = th_new, cr_new
            if last:
                landed.append(th + lift)
                if len(landed) < len(ends):
                    target = ends[len(landed)]
                    folds = np.floor(th / math.pi)
                    lift = lift + folds * math.pi
                    th = th - folds * math.pi
                    # the landing step was cut short; go on with the step
                    # proposed before the cut
                    h, fac = h_free, 1.0
            k1t, k1c = rhs(x, th)
            if record is not None:
                record((x, th, cr, k1t))
            if len(landed) == len(ends):
                break
        h *= fac
    if np.ndim(x_end) == 0:
        return landed[0], cr
    return np.array(landed), cr


def _float_norm(rtol, atol_theta, atol_logr):
    """Error norm of the plain-float path: theta and log r both count."""
    def norm(t0, t1, err_t, r0, r1, err_r):
        sc_t = atol_theta + rtol * max(abs(t0), abs(t1))
        sc_r = atol_logr + rtol * max(abs(r0), abs(r1))
        return max(abs(err_t) / sc_t, abs(err_r) / sc_r), abs(t1 - t0)

    return norm


def integrate(spec: PotentialSpec, energy: float, offset: float,
              x_start: float, x_end: float, theta_start: float, *,
              rtol: float = DEFAULT_RTOL, atol_theta: float = DEFAULT_ATOL,
              atol_logr: float = DEFAULT_ATOL,
              max_step: float = 2.0) -> SolutionTrace:
    """Integrate the phase-amplitude system from x_start to x_end.

    Works in either direction.  The returned lift is continuous by
    construction (the angle is integrated on the line, never reduced mod pi),
    and a step is rejected whenever it would move theta by more than pi/2.
    Both theta and log r enter the error control.
    """
    rhs = _theta_rhs_scalar(potentials.scalar_evaluator(spec, offset), energy)
    nodes = []
    _cash_karp(rhs, _float_norm(rtol, atol_theta, atol_logr), x_start, x_end,
               float(theta_start), 0.0, max_step=max_step, record=nodes.append,
               context=f" (E={energy}, xi={offset})")
    xs, thetas, log_amplitudes, dthetas = (np.array(c) for c in zip(*nodes))
    return SolutionTrace(
        potential=spec, energy=energy, offset=offset,
        direction="forward" if x_end > x_start else "backward",
        xs=xs, thetas=thetas, log_amplitudes=log_amplitudes, dthetas=dthetas)


def theta_grid(spec: PotentialSpec, energies, offsets, x_start: float,
               x_end, theta_start, *,
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
               max_step: float = 2.0) -> np.ndarray:
    """Endpoint theta lift for a whole grid of (E, xi) components at once.

    energies, offsets and theta_start broadcast against each other; all
    components share the adaptive steps (the controller uses the worst
    component) and only theta enters the error control.  Returns
    theta(x_end) with the broadcast shape.  x_end may also be a 1-d array of
    landing points, strictly monotone in the direction of integration; the
    result then has a leading axis over them.  A grid of one component runs
    integrate's plain-float path instead, with log r carried and controlled
    as there (atol for both): about ten times faster than the numpy stepper
    at width one, and bit-identical to integrate's endpoint.

    The numpy right-hand side is theta' = 1 + (E - 1 - V) sin^2(theta), with
    V(x + xi) by angle addition (potentials.offset_evaluator), so a stage
    costs one array sine and scalar trigonometry of x.
    """
    E = np.asarray(energies, dtype=float)
    xi = np.asarray(offsets, dtype=float)
    th0 = np.asarray(theta_start, dtype=float)
    shape = np.broadcast_shapes(E.shape, xi.shape, th0.shape)
    out_shape = np.shape(x_end) + shape
    if math.prod(shape) == 1:
        e, x, t = (float(a.reshape(-1)[0]) for a in (E, xi, th0))
        rhs = _theta_rhs_scalar(potentials.scalar_evaluator(spec, x), e)
        th, _ = _cash_karp(rhs, _float_norm(rtol, atol, atol), x_start, x_end,
                           t, 0.0, max_step=max_step,
                           context=f" (E={e}, xi={x})")
        return np.reshape(th, out_shape)

    v = potentials.offset_evaluator(spec, xi)
    e1 = E - 1.0

    def rhs(x, t):
        s = np.sin(t)
        return 1.0 + (e1 - v(x)) * s * s, None

    def norm(t0, t1, err, *_):
        sc = atol + rtol * np.maximum(np.abs(t0), np.abs(t1))
        return float((np.abs(err) / sc).max()), float(np.abs(t1 - t0).max())

    th = np.array(np.broadcast_to(th0, shape), dtype=float)
    return _cash_karp(rhs, norm, x_start, x_end, th, max_step=max_step)[0]


def bisect(theta_of, below, above, target, tol: float,
           ends=None) -> np.ndarray:
    """Points where theta_of crosses target, by a joint ITP search of brackets.

    theta_of maps an array of points to an array of phases; below, above and
    target broadcast.  `below` is the bracket end where theta < target and
    `above` the end where theta >= target, in either order on the line, so
    an increasing and a decreasing phase are both just an order of the ends.
    The search is ITP (Oliveira & Takahashi, ACM TOMS 47, 2020; kappa1 =
    0.2 / width, kappa2 = 2): each step takes the regula-falsi point,
    truncated toward the midpoint and projected into the ball that keeps
    bisection's guarantee.  After one evaluation of the ends and at most
    ceil(log2(width / tol)) steps (n0 = 0), width being the widest bracket,
    every bracket is at most tol wide and its midpoint is returned, within
    tol / 2 of a crossing: at most one evaluation more than bisection.
    ends, when the caller has them, are the phases at below and above; the
    evaluation they save becomes one more step of slack (n0 = 1).  Negating
    the bracket negates the result exactly.
    """
    below, above, target = np.broadcast_arrays(
        np.asarray(below, dtype=float), np.asarray(above, dtype=float), target)
    if below.size == 0:
        return np.empty(below.shape)
    width = float(np.max(np.abs(above - below)))
    # the one evaluation allowed beyond bisection goes to the ends, or, when
    # the caller has them, to the projection's slack (n0 = 1)
    n_max = (max(1, math.ceil(math.log2(max(width / tol, 2.0))))
             + (ends is not None))
    kappa1 = 0.2 / max(width, tol)
    if ends is None:
        ends = theta_of(np.stack([below, above]))
    f_below, f_above = (np.asarray(t, dtype=float) - target for t in ends)
    for step in range(n_max):
        span = np.abs(above - below)
        if np.all(span <= tol):
            break
        mid = 0.5 * (below + above)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_f = (above * f_below - below * f_above) / (f_below - f_above)
        x_f = np.where(np.isfinite(x_f), np.clip(
            x_f, np.minimum(below, above), np.maximum(below, above)), mid)
        sigma = np.sign(mid - x_f)
        delta = kappa1 * span * span
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        radius = 0.5 * tol * 2.0 ** (n_max - step) - 0.5 * span
        x = np.where(np.abs(x_t - mid) <= radius, x_t, mid - sigma * radius)
        fx = theta_of(x) - target
        low = fx < 0
        below = np.where(low, x, below)
        f_below = np.where(low, fx, f_below)
        above = np.where(low, above, x)
        f_above = np.where(low, f_above, fx)
    return 0.5 * (below + above)


def _seed_kappa(spec: PotentialSpec, energy, offset, x_anchor, window: float):
    """Decay-rate estimate sqrt(max(Vbar - E, kappa_min)) near x_anchor."""
    vbar = potentials.mean_value(
        spec, np.asarray(x_anchor) + np.asarray(offset),
        np.asarray(x_anchor) + window + np.asarray(offset))
    return np.sqrt(np.maximum(np.asarray(vbar) - np.asarray(energy), KAPPA_MIN))


def seed_decaying_left(spec: PotentialSpec, energy, offset, L):
    """Prufer angle of the direction decaying toward -infinity, at x = -L.

    For a locally constant potential Vbar > E the decaying solution behaves
    like exp(kappa x) with kappa = sqrt(Vbar - E), whose angle is
    atan(1/kappa).  The estimate only has to land on the correct side of the
    unstable direction: forward integration contracts the error at rate
    exp(-2 kappa (x + L)).
    """
    L_arr = np.asarray(L, dtype=float)
    w = np.minimum(10.0, L_arr / 2.0)
    kappa = _seed_kappa(spec, energy, offset, -L_arr, w)
    out = np.arctan(1.0 / kappa)
    return float(out) if out.ndim == 0 else out


def seed_decaying_right(spec: PotentialSpec, energy, offset, L):
    """Angle of the direction decaying toward +infinity, at x = +L."""
    L_arr = np.asarray(L, dtype=float)
    w = np.minimum(10.0, L_arr / 2.0)
    kappa = _seed_kappa(spec, energy, offset, L_arr - w, w)
    out = math.pi - np.arctan(1.0 / kappa)
    return float(out) if out.ndim == 0 else out


def decaying_start(spec: PotentialSpec, energy, offset, L, side: str):
    """(x0, theta0): start and seed angle of one side's decaying solution.

    RIGHT starts the left-decaying solution at -L, to be integrated forward
    to 0; LEFT starts the right-decaying one at +L, integrated backward.
    """
    if side == RIGHT:
        return -L, seed_decaying_left(spec, energy, offset, L)
    return L, seed_decaying_right(spec, energy, offset, L)


@dataclass(frozen=True)
class BoundaryData:
    """Boundary values of a half-line solution at x = 0."""

    sin_theta: float
    theta: float
    dpsi_normalized: float


def boundary_data(spec: PotentialSpec, energy: float, offset: float, L: float,
                  *, side: str = RIGHT, rtol: float = 1e-10,
                  max_step: float = 0.02) -> BoundaryData:
    """Integrate the decaying solution of one half-line problem to x = 0.

    side RIGHT integrates the left-decaying solution from -L, LEFT the
    right-decaying one backward from +L.  Returns sin(theta(0)), whose zeros
    in E are that side's Dirichlet values, the lift theta(0), and psi'(0) for
    psi normalized to unit L^2 norm on the integration interval.  The norm
    integral of r^2 sin^2(theta) uses the trapezoid rule on the accepted
    nodes, hence the small max_step default.
    """
    x0, th0 = decaying_start(spec, energy, offset, L, side)
    tr = integrate(spec, energy, offset, x0, 0.0, th0,
                   rtol=rtol, atol_theta=rtol * 1e-2, atol_logr=rtol * 1e-2,
                   max_step=max_step)
    lr = tr.log_amplitudes
    lmax = float(np.max(lr))
    weight = np.exp(2.0 * (lr - lmax)) * np.sin(tr.thetas) ** 2
    # abs: backward nodes descend, which flips the trapezoid's sign
    norm2 = float(abs(np.trapezoid(weight, tr.xs)))
    theta0 = float(tr.thetas[-1])
    dpsi = math.exp(float(lr[-1]) - lmax) * math.cos(theta0) / math.sqrt(norm2)
    return BoundaryData(sin_theta=math.sin(theta0), theta=theta0,
                        dpsi_normalized=dpsi)


def count_zeros(trace: SolutionTrace, x_from: float, x_to: float, *,
                boundary_tol: float = 1e-9) -> int:
    """Number of zeros of psi in (x_from, x_to].

    Because theta crosses each multiple of pi exactly once and upward, the
    count is the number of multiples of pi in (theta(x_from), theta(x_to)].
    boundary_tol nudges the floor so that crossings sitting on the query
    points (up to integrator accuracy) are classified consistently.
    """
    if x_to < x_from:
        raise ValueError("x_to must be >= x_from")
    if x_to == x_from:
        return 0
    ta = trace.theta_at(x_from)
    tb = trace.theta_at(x_to)
    return int(math.floor(tb / math.pi + boundary_tol)
               - math.floor(ta / math.pi + boundary_tol))


def zeros(trace: SolutionTrace, x_from: float, x_to: float, *,
          refine_tol: float = 1e-12) -> np.ndarray:
    """Locations of the zeros of psi in (x_from, x_to], polished.

    The Hermite interpolant brackets each pi-crossing; a few Newton steps
    with theta re-evaluated by short high-accuracy re-integration from the
    nearest node then push the residual to refine_tol.
    """
    xs, th, _ = trace._ascending()
    ta = trace.theta_at(x_from)
    tb = trace.theta_at(x_to)
    k_first = int(math.floor(ta / math.pi + 1e-9)) + 1
    k_last = int(math.floor(tb / math.pi + 1e-9))
    v = potentials.scalar_evaluator(trace.potential, trace.offset)
    rhs = _theta_rhs_scalar(v, trace.energy)

    def theta_exact(xq):
        j = int(np.clip(np.searchsorted(xs, xq) - 1, 0, len(xs) - 2))
        # start from the nearer node
        if abs(xq - xs[j + 1]) < abs(xq - xs[j]):
            j += 1
        x0, t0 = float(xs[j]), float(th[j])
        if x0 == xq:
            return t0
        tr = integrate(trace.potential, trace.energy, trace.offset,
                       x0, xq, t0, rtol=1e-12, atol_theta=1e-14,
                       max_step=0.05)
        return float(tr.thetas[-1])

    targets = np.arange(k_first, k_last + 1) * math.pi
    # bracket each crossing by nodes, then bisect the Hermite interpolant
    j = np.clip(np.searchsorted(th, targets), 1, len(xs) - 1)
    scale = max(1.0, abs(x_from), abs(x_to))
    guesses = bisect(trace.theta_at, xs[j - 1], xs[j], targets, 1e-13 * scale)
    out = []
    for target, xq in zip(targets.tolist(), guesses.tolist()):
        # Newton polish on the exact lift
        for _ in range(4):
            tv = theta_exact(xq)
            resid = tv - target
            if abs(resid) < refine_tol:
                break
            slope = rhs(xq, tv)[0]
            xq -= resid / slope
        out.append(xq)
    return np.array(out)


def _relative_spread(values: np.ndarray) -> float:
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return math.inf
    return float((np.max(values) - np.min(values)) / scale)


def _values_along(spec, energy, offset, x0, theta0, points, rtol):
    """theta and accumulated log r at successive points, chaining segments.

    Integrating segment by segment makes the sample values genuine endpoint
    values of the integrator instead of interpolants.
    """
    th = float(theta0)
    lr = 0.0
    x = x0
    thetas = []
    logrs = []
    for p in points:
        tr = integrate(spec, energy, offset, x, p, th, rtol=rtol,
                       atol_theta=rtol * 1e-2, atol_logr=rtol * 1e-2)
        th = float(tr.thetas[-1])
        lr += float(tr.log_amplitudes[-1])
        thetas.append(th)
        logrs.append(lr)
        x = p
    return np.array(thetas), np.array(logrs)


def wronskian_check(spec: PotentialSpec, energy: float, offset: float,
                    L: float, *, n_samples: int = 9,
                    rtol: float = 1e-10) -> float:
    """Relative spread of the Wronskian [psi_plus, psi_minus] over samples.

    psi_minus is integrated forward from -L, psi_plus backward from +L, each
    seeded with its decaying direction.  In a spectral gap the Wronskian
    r_plus r_minus sin(theta_plus - theta_minus) is constant up to integrator
    error, so the spread is a direct quality measure of the dichotomy.  The
    value is invariant under rescaling either solution.
    """
    th_m = seed_decaying_left(spec, energy, offset, L)
    th_p = seed_decaying_right(spec, energy, offset, L)
    pts = np.linspace(-L / 2, L / 2, n_samples)
    th1, lr1 = _values_along(spec, energy, offset, -L, th_m, pts, rtol)
    th2, lr2 = _values_along(spec, energy, offset, L, th_p, pts[::-1], rtol)
    th2, lr2 = th2[::-1], lr2[::-1]
    log_scale = lr1 + lr2
    ref = float(np.max(log_scale))
    w = np.exp(log_scale - ref) * np.sin(th2 - th1)
    return _relative_spread(w)
