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
with a stacked numpy step for a whole grid of (E, xi) components with shared
adaptive steps, or on plain floats when the grid has one component.  A
pass can land on a monotone array of points on its way, returning theta at
each.  Every question of the form "where does theta cross a target" is
answered by the one vectorized bracketed search `bisect`: ITP steps, or
Newton steps from stencils when one pass evaluates all points.

Every label is read off floor(theta / pi), so on every path the error
control holds theta's absolute error alone: rtol is the error of theta
allowed per step, in units of pi.  log r, which no count reads, is carried.
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
# The tableau over theta, 1 and q1..q6 with theta' = 1 + q (_vector_step):
# stage arguments 2-6, then theta, error and change at the end.  h scales
# every column but the first.
_C = np.array([0.0, _C2, _C3, _C4, _C5, _C6])
_TABLEAU = np.array([
    [1, _C2, _A21, 0, 0, 0, 0, 0],
    [1, _C3, _A31, _A32, 0, 0, 0, 0],
    [1, _C4, _A41, _A42, _A43, 0, 0, 0],
    [1, _C5, _A51, _A52, _A53, _A54, 0, 0],
    [1, _C6, _A61, _A62, _A63, _A64, _A65, 0],
    [1, 1, _B1, 0, _B3, _B4, 0, _B6],
    [0, 0, _E1, 0, _E3, _E4, _E5, _E6],
    [0, 1, _B1, 0, _B3, _B4, 0, _B6]])

_MAX_DTHETA = 0.95 * math.pi / 2  # lift-continuity guard per accepted step

KAPPA_MIN = 1e-3

DEFAULT_RTOL = 1e-9

# Which half-line problem a boundary phase belongs to (see boundary_data):
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


def _cash_karp(step, x_start, x_end, theta, carried=None, *, rtol,
               max_step, slope=None, record=None, context=lambda: ""):
    """Advance theta from x_start to x_end by adaptive Cash-Karp 5(4) steps.

    Works on floats and numpy arrays alike, in either direction.
    step(x, h, theta, carried, k1) makes one trial step of length h and
    returns (theta, carried) at its end, theta's absolute error, the largest
    over components, and the largest phase change.  A step is accepted where
    the error is at most rtol * pi, so rtol 0 rejects every step, and the
    change below _MAX_DTHETA, which keeps the lift continuous.  `carried` is
    a quantity the right-hand side does not read (log r), or None.
    slope(x, theta), if given, returns k1 = (theta', carried') at the start
    and at each accepted node, where record, if given, receives
    (x, theta, carried, theta'); else k1 is None.  context() ends the
    message of a step underflow.  Returns theta and carried at x_end.

    x_end may instead be a 1-d array of landing points, strictly monotone in
    the direction of integration: the steps then land exactly on each of
    them, and the first return value stacks theta at every landing point
    along a new leading axis.
    """
    ends = np.ravel(x_end)
    span = ends[-1] - x_start
    if span == 0:
        raise ValueError("x_start and x_end must differ")
    sgn = 1.0 if span > 0 else -1.0
    h_min = 1e-13 * abs(span) + 1e-300
    tol = rtol * math.pi

    x = x_start
    th, cr = theta, carried
    k1 = slope and slope(x, th)
    if record is not None:
        record((x, th, cr, k1[0]))
    h = sgn * min(0.02, max_step)
    landed = []
    target = ends[0]
    while True:
        if abs(h) > max_step:
            h = sgn * max_step
        if abs(h) < h_min:
            raise StiffnessError(f"step underflow at x={x:.6g}{context()}")
        h_free = h
        last = (x + h - target) * sgn >= 0.0
        if last:
            h = target - x
        th_new, cr_new, err, dth_step = step(x, h, th, cr, k1)
        err = err / tol if tol else math.inf
        fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        if dth_step >= _MAX_DTHETA:
            fac = min(fac, 0.5)
        if err <= 1.0 and dth_step < _MAX_DTHETA:
            x = target if last else x + h
            th, cr = th_new, cr_new
            if last:
                landed.append(th)
                if len(landed) < len(ends):
                    target = ends[len(landed)]
                    # the landing step was cut short; go on with the step
                    # proposed before the cut
                    h, fac = h_free, 1.0
            k1 = slope and slope(x, th)
            if record is not None:
                record((x, th, cr, k1[0]))
            if len(landed) == len(ends):
                break
        h *= fac
    if np.ndim(x_end) == 0:
        return landed[0], cr
    return np.array(landed), cr


def _where(energy, offset, mirror):
    """The component a step underflow names."""
    return f" (E={energy}, xi={offset}, side={LEFT if mirror else RIGHT})"


def _float_step(rhs):
    """Trial step of the plain-float path: log r is carried, theta's error
    returned."""
    def step(x, h, th, cr, k1):
        k1t, k1c = k1
        k2t, k2c = rhs(x + h * _C2, th + h * _A21 * k1t)
        k3t, k3c = rhs(x + h * _C3, th + h * (_A31 * k1t + _A32 * k2t))
        k4t, k4c = rhs(x + h * _C4, th + h * (_A41 * k1t + _A42 * k2t + _A43 * k3t))
        k5t, _ = rhs(x + h * _C5, th + h * (_A51 * k1t + _A52 * k2t
                                            + _A53 * k3t + _A54 * k4t))
        k6t, k6c = rhs(x + h * _C6, th + h * (_A61 * k1t + _A62 * k2t + _A63 * k3t
                                              + _A64 * k4t + _A65 * k5t))
        th_new = th + h * (_B1 * k1t + _B3 * k3t + _B4 * k4t + _B6 * k6t)
        err = h * (_E1 * k1t + _E3 * k3t + _E4 * k4t + _E5 * k5t + _E6 * k6t)
        cr_new = cr + h * (_B1 * k1c + _B3 * k3c + _B4 * k4c + _B6 * k6c)
        return th_new, cr_new, abs(err), abs(th_new - th)

    return step


def _vector_step(v, e1):
    """Trial step of the numpy path, theta' = 1 + q, q = (E - 1 - V) sin^2
    theta, for components e1 = E - 1 and potential v (offset_evaluator).
    One array holds theta, ones and the six stages' q, so each stage
    argument, and theta, error and change at the end, is one product of
    h-scaled _TABLEAU rows with it.  Returns the step and the absolute
    theta errors of its last trial.
    """
    n = e1.size
    e1 = np.tile(e1, (6, 1))
    rows = np.empty((8, n))
    rows[1] = 1.0
    tab = np.empty_like(_TABLEAU)
    g = np.empty((6, n))
    arg = np.empty(n)
    end = np.empty((3, n))   # theta at the end, error, change
    mag = np.zeros((2, n))   # |error| and |change| of theta
    stages = [((tab[k - 1, :k + 2], rows[:k + 2]) if k else None, g[k],
               rows[k + 2]) for k in range(6)]

    def step(x, h, th, cr, k1):
        np.multiply(_TABLEAU, h, out=tab)
        tab[:, 0] = _TABLEAU[:, 0]
        np.subtract(e1, v(x + h * _C), out=g)
        rows[0] = th
        for product, gk, q in stages:
            np.sin(np.dot(*product, out=arg) if product else th, out=arg)
            np.multiply(arg, arg, out=arg)
            np.multiply(arg, gk, out=q)
        np.dot(tab[5:], rows, out=end)
        np.abs(end[1:], out=mag)
        # a copy: a view would keep all three rows alive in each landing
        return end[0].copy(), None, float(mag[0].max()), float(mag[1].max())

    return step, mag[0]


def integrate(spec: PotentialSpec, energy: float, offset: float,
              x_start: float, x_end: float, theta_start: float, *,
              rtol: float = DEFAULT_RTOL, max_step: float = 2.0,
              mirror: bool = False) -> SolutionTrace:
    """Integrate the phase-amplitude system from x_start to x_end.

    Works in either direction.  The returned lift is continuous by
    construction (the angle is integrated on the line, never reduced mod pi),
    and a step is rejected whenever it would move theta by more than pi/2.
    theta alone enters the error control, at rtol * pi per step; log r is
    carried along.  mirror: V(-x + offset).
    """
    rhs = _theta_rhs_scalar(
        potentials.scalar_evaluator(spec, offset, mirror), energy)
    nodes = []
    _cash_karp(_float_step(rhs), x_start, x_end, float(theta_start), 0.0,
               rtol=rtol, max_step=max_step, slope=rhs, record=nodes.append,
               context=lambda: _where(energy, offset, mirror))
    xs, thetas, log_amplitudes, dthetas = (np.array(c) for c in zip(*nodes))
    return SolutionTrace(
        potential=spec, energy=energy, offset=offset,
        direction="forward" if x_end > x_start else "backward",
        xs=xs, thetas=thetas, log_amplitudes=log_amplitudes, dthetas=dthetas)


def theta_grid(spec: PotentialSpec, energies, offsets, x_start: float,
               x_end, theta_start, *,
               rtol: float = DEFAULT_RTOL, max_step: float = 2.0,
               mirror=False) -> np.ndarray:
    """Endpoint theta lift for a whole grid of (E, xi) components at once.

    energies, offsets, theta_start and mirror broadcast against each other
    (a component with mirror set sees V(-x + xi)); all components share the
    adaptive steps (the controller uses the worst component) and theta's
    error is held to rtol * pi per step, as in integrate.  Returns
    theta(x_end) with the broadcast shape.  x_end may also be a 1-d array of
    landing points, strictly monotone in the direction of integration; the
    result then has a leading axis over them.  A grid of one component runs
    integrate's plain-float path instead: faster than the numpy step at
    width one (a median 6.4 times over 15 paired 30-unit passes), and
    bit-identical to integrate's endpoint.
    A step underflow names the component with the largest error.

    The numpy step (_vector_step) evaluates V(x + xi) at its six stage
    abscissae in one call, by angle addition (potentials.offset_evaluator),
    and then costs per stage one array sine, one matrix-vector product and
    two multiplications.
    """
    E, xi, th0, mr = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (energies, offsets,
                                               theta_start)),
        np.asarray(mirror, dtype=bool))
    out_shape = np.shape(x_end) + E.shape
    E, xi, th0, mr = (np.ravel(a) for a in (E, xi, th0, mr))
    if E.size == 1:
        e, x, t, m = float(E[0]), float(xi[0]), float(th0[0]), bool(mr[0])
        rhs = _theta_rhs_scalar(potentials.scalar_evaluator(spec, x, m), e)
        th, _ = _cash_karp(_float_step(rhs), x_start, x_end, t, 0.0,
                           rtol=rtol, max_step=max_step, slope=rhs,
                           context=lambda: _where(e, x, m))
        return np.reshape(th, out_shape)

    step, err = _vector_step(potentials.offset_evaluator(spec, xi, mr),
                             E - 1.0)

    def context():   # the component with the largest error
        i = np.argmax(np.nan_to_num(err, nan=-1.0))
        return _where(E[i], xi[i], mr[i])

    th, _ = _cash_karp(step, x_start, x_end, th0, rtol=rtol,
                       max_step=max_step, context=context)
    return th.reshape(out_shape)


def bisect(theta_of, below, above, target, tol: float, ends=None,
           guess=None, bracket: bool = False):
    """Points where theta_of crosses target, by a joint search of brackets.

    theta_of(x, rows) maps points x, shaped (k, len(rows)), to phases at the
    brackets still open, flat indices rows, which a pointwise theta_of
    ignores.  below, above and target broadcast.  `below` is the bracket end
    where theta < target and `above` the end where theta >= target, in
    either order on the line, so an increasing and a decreasing phase are
    both just an order of the ends.  Each step projects an interpolation
    point into the ball that keeps bisection's guarantee (ITP: Oliveira &
    Takahashi, ACM TOMS 47, 2020; kappa1 = 0.2 / width, kappa2 = 2): after
    one evaluation of the ends and at most ceil(log2(width / tol)) steps
    (n0 = 0), width being the widest bracket, every bracket is at most tol
    wide and its midpoint, returned, within tol / 2 of a crossing.  Without
    a guess a step evaluates one point, the truncated regula-falsi one, for
    a theta_of that pays per point.  A first guess is for a theta_of whose
    points share one pass, so one smooth phase: the guess's stencil x -/+
    tol / 2 (toward below / above) goes with the ends, and each step
    evaluates four points tol apart, x + (-3, -1, 1, 3) tol / 2, which the
    phase noise between passes, about tol where the phase is flat, rarely
    moves the crossing out of.  Two neighbours that straddle the target
    leave a bracket tol wide; else the stencil moves an end and gives the
    next x, the Newton point of the inverse phase bent through the bracket
    end beyond the target (regula falsi on the ends if it leaves the
    bracket).  x is kept where the ball would move it, so that a converging
    iterate is not thrown away, and the projected point evaluated as well.
    A point past an end that reads against it (passes disagree) inverts the
    bracket and ends its search.  ends, when the caller has them, are the
    phases of the first evaluation, and add a step of slack (n0 = 1).
    bracket returns the final (below, above) instead.  Negating the bracket
    negates the result exactly.
    """
    below, above, target = np.broadcast_arrays(
        np.asarray(below, dtype=float), np.asarray(above, dtype=float), target)
    shape = below.shape
    below, above, target = (np.ravel(v) for v in (below, above, target))
    if below.size == 0:
        return (below, above) if bracket else np.empty(shape)
    width = float(np.max(np.abs(above - below)))
    n_max = (max(1, math.ceil(math.log2(max(width / tol, 2.0))))
             + (ends is not None))
    kappa1 = 0.2 / max(width, tol)
    toward = np.sign(above - below)
    pts = [below, above]
    if guess is not None:
        guess = np.ravel(np.broadcast_to(guess, shape))
        pts += [guess - 0.5 * tol * toward, guess + 0.5 * tol * toward]
    if ends is None:
        ends = theta_of(np.stack(pts), np.arange(below.size))
    else:
        ends = [np.ravel(np.broadcast_to(t, shape)) for t in ends]
    f_below, f_above, *vals = (t - target for t in ends)
    pts = pts[2:]
    q = len(pts) - 1   # the last point of the stencil
    live = np.ones(below.shape, dtype=bool)
    for step in range(n_max + 1):
        for x, fx in zip(pts, vals):  # the last evaluation moves the ends
            low = live & (fx < 0) & (toward * (x - below) > 0)
            high = live & (fx >= 0) & (toward * (above - x) > 0)
            below, f_below = np.where(low, x, below), np.where(low, fx, f_below)
            above, f_above = np.where(high, x, above), np.where(high, fx, f_above)
        span = toward * (above - below)
        # done: at most tol wide, up to the rounding of a stencil, or inverted
        live = span > tol + 2.0 * np.spacing(np.abs(below) + np.abs(above))
        if step == n_max or not np.any(live):
            break
        span = np.abs(span)
        mid = 0.5 * (below + above)
        lo, hi = np.minimum(below, above), np.maximum(below, above)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_f = (above * f_below - below * f_above) / (f_below - f_above)
            if guess is not None:
                # Newton on the inverse phase x(theta), bent to pass through
                # the bracket end beyond the target
                x_c, f_c = 0.5 * (pts[0] + pts[q]), 0.5 * (vals[0] + vals[q])
                slope = (pts[q] - pts[0]) / (vals[q] - vals[0])
                x_b, f_b = np.where(f_c < 0, [above, f_above], [below, f_below])
                bend = ((x_b - x_c) - (f_b - f_c) * slope) / (f_b - f_c) ** 2
                x_n = x_c - f_c * slope + bend * f_c * f_c
                x_f = np.where((x_n > lo) & (x_n < hi), x_n, x_f)
        x_f = np.where(np.isfinite(x_f), np.clip(x_f, lo, hi), mid)
        sigma = np.sign(mid - x_f)
        if guess is None:  # truncation keeps regula falsi from stalling
            delta = kappa1 * span * span
            x_f = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        radius = 0.5 * tol * 2.0 ** (n_max - step) - 0.5 * span
        kept = np.abs(x_f - mid) <= radius
        x = np.where(kept, x_f, mid - sigma * radius)
        if guess is None:
            pts = [x]
        else:
            pts = [x_f + k * tol * toward for k in (-1.5, -0.5, 0.5, 1.5)]
            q = 3
            if not np.all(kept | ~live):
                pts.append(x)
        rows, vals = np.flatnonzero(live), np.full((len(pts), below.size), np.nan)
        vals[:, rows] = theta_of(np.stack(pts)[:, rows], rows) - target[rows]
    if bracket:
        return below.reshape(shape), above.reshape(shape)
    return (0.5 * (below + above)).reshape(shape)


def _seed_kappa(spec: PotentialSpec, energy, offset, x_anchor, window: float):
    """Decay-rate estimate sqrt(max(Vbar - E, kappa_min)) near x_anchor."""
    vbar = potentials.mean_value(
        spec, np.asarray(x_anchor) + np.asarray(offset),
        np.asarray(x_anchor) + window + np.asarray(offset))
    return np.sqrt(np.maximum(np.asarray(vbar) - np.asarray(energy), KAPPA_MIN))


def seed_decaying_left(spec: PotentialSpec, energy, offset, L, mirror=False):
    """Prufer angle of the direction decaying toward -infinity, at x = -L,
    of V(x + offset), or of V(-x + offset) where mirror is set.

    For a locally constant potential Vbar > E the decaying solution behaves
    like exp(kappa x) with kappa = sqrt(Vbar - E), whose angle is
    atan(1/kappa).  The estimate only has to land on the correct side of the
    unstable direction: forward integration contracts the error at rate
    exp(-2 kappa (x + L)).
    """
    L_arr = np.asarray(L, dtype=float)
    w = np.minimum(10.0, L_arr / 2.0)  # mirrored, [-L, -L + w] is [L - w, L]
    kappa = _seed_kappa(spec, energy, offset, np.where(mirror, L_arr - w,
                                                       -L_arr), w)
    out = np.arctan(1.0 / kappa)
    return float(out) if out.ndim == 0 else out


def seed_decaying_right(spec: PotentialSpec, energy, offset, L):
    """Angle of the direction decaying toward +infinity, at x = +L: the
    mirror image theta -> pi - theta of the mirrored left seed."""
    return math.pi - seed_decaying_left(spec, energy, offset, L, mirror=True)


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

    side RIGHT integrates the left-decaying solution forward from -L, LEFT
    the mirror image x -> -x of the right-decaying one (lift pi - theta).
    Returns sin(theta(0)), whose zeros in E are that side's Dirichlet
    values, the lift theta(0), and psi'(0) for psi normalized to unit L^2
    norm on [-L, 0].  The norm integral of r^2 sin^2(theta) uses the
    trapezoid rule on the accepted nodes, hence the small max_step default.
    """
    tr = integrate(spec, energy, offset, -L, 0.0,
                   seed_decaying_left(spec, energy, offset, L, side == LEFT),
                   rtol=rtol, max_step=max_step, mirror=side == LEFT)
    lr = tr.log_amplitudes
    lmax = float(np.max(lr))
    weight = np.exp(2.0 * (lr - lmax)) * np.sin(tr.thetas) ** 2
    norm2 = float(np.trapezoid(weight, tr.xs))
    theta0 = float(tr.thetas[-1])
    dpsi = math.exp(float(lr[-1]) - lmax) * math.cos(theta0) / math.sqrt(norm2)
    return BoundaryData(sin_theta=math.sin(theta0), theta=theta0,
                        dpsi_normalized=dpsi)


def crossings(trace: SolutionTrace, x_from: float, x_to: float) -> np.ndarray:
    """Zeros of psi in (x_from, x_to] on the trace's Hermite interpolant.

    theta crosses each multiple of pi once and upward, so the nodes bracket
    each crossing and one joint bisection of the interpolant pins them all.
    """
    xs, th, _ = trace._ascending()
    k_first = int(math.floor(trace.theta_at(x_from) / math.pi + 1e-9)) + 1
    k_last = int(math.floor(trace.theta_at(x_to) / math.pi + 1e-9))
    targets = np.arange(k_first, k_last + 1) * math.pi
    j = np.clip(np.searchsorted(th, targets), 1, len(xs) - 1)
    scale = max(1.0, abs(x_from), abs(x_to))
    return bisect(lambda x, _: trace.theta_at(x), xs[j - 1], xs[j], targets,
                  1e-13 * scale)
