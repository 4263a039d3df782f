"""Window means, rotation numbers of circle-valued data, and the rotation
number of the left-decaying solution's phase.

The window mean of f over a chain is lim (1/|W_n|) integral_{W_n} f; the
rotation number of a circle map is the window mean of the growth rate of a
continuous lift.  For the phase of psi' + i psi the rotation number, rescaled
by 2/(2 pi), is the asymptotic density of zeros of psi and coincides with the
integrated density of states.

Every mean here is weighted by the smooth bump w(t) proportional to
exp(-1/(t(1-t))) on the window, rescaled to (0, 1): a box mean carries a
boundary term of order 1/|W|, the bump mean none, and it converges faster than
any power of |W| on quasi-periodic data (Das & Yorke, Nonlinearity 31, 2018).
The bump mean of a lift's slope, -(1/T) int_0^1 w'(t) Phi(a + tT) dt, needs
the lift at uniform nodes only.  window_mean is the one chain estimator:
every chain label (both alpha routes here, and beta, pi_curves and
boundary_force through sampled_rotation) takes the last window's mean, with
the change from the window before as its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import potentials, prufer
from .potentials import PotentialSpec, WindowChain

BUMP_MASS = 0.007029858406609656   # int_0^1 exp(-1/(t(1-t))) dt
NODE_SPACING = 0.01   # of the trapezoid nodes; halved, alpha moves < 1e-12
PAD = 100.0   # start of a trajectory before the largest window


class InconsistencyError(RuntimeError):
    """The two rotation-number evaluations disagree beyond tolerance."""


@dataclass(frozen=True)
class LambdaMean:
    """Window means over a chain with their limit and its error."""

    window_values: tuple[tuple[int, float], ...]
    extrapolated: float
    error_estimate: float


def _bump(t, slope: bool = False):
    """The unit-mass bump w(t) on (0, 1), zero outside, or its slope w'(t)."""
    t = np.asarray(t, dtype=float)
    s = t * (1.0 - t)
    inside = s > 0.0
    s = np.where(inside, s, 1.0)
    w = np.where(inside, np.exp(-1.0 / s), 0.0) / BUMP_MASS
    return w * (1.0 - 2.0 * t) / s ** 2 if slope else w


def window_mean(values: np.ndarray | list[float]) -> LambdaMean:
    """The chain estimator: the last window's value, with the change from
    the window before as its error (at least the rounding level 1e-15).
    One window has no change to measure, so it is refused."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise ValueError("a window mean needs a chain of two or more windows")
    return LambdaMean(
        window_values=tuple((i, float(v)) for i, v in enumerate(values)),
        extrapolated=float(values[-1]),
        error_estimate=max(float(np.ptp(values[-2:])), 1e-15))


def _slope_means(lift, chain: WindowChain) -> LambdaMean:
    """window_mean of the bump means of a lift's slope over the chain.

    lift maps an array of points to the lift there.  w' vanishes to all
    orders at both ends, so on a smooth lift trapezoids on uniform nodes
    NODE_SPACING apart (at least 256, which resolve the bump itself to
    rounding) converge faster than any power of the spacing; on a piecewise
    interpolant, like the power of its smoothness.
    """
    values = []
    for a, b in chain.windows:
        n = max(256, math.ceil((b - a) / NODE_SPACING))
        t = np.linspace(0.0, 1.0, n + 1)
        values.append(-float(_bump(t, slope=True) @ lift(a + (b - a) * t))
                      / (n * (b - a)))
    return window_mean(values)


def lambda_mean(f, chain: WindowChain) -> LambdaMean:
    """Window mean of a callable integrand: adaptive quadrature, to 1e-9 of
    the mean, of f times the bump per window."""
    from scipy import integrate as _sciint   # kept out of `import gaplab`
    values = []
    for (a, b) in chain.windows:
        val, _ = _sciint.quad(lambda x: f(x) * float(_bump((x - a) / (b - a))),
                              a, b, epsabs=1e-9 * (b - a), epsrel=1e-9,
                              limit=2000)
        values.append(val / (b - a))
    return window_mean(values)


def rotation_number(lift, chain: WindowChain) -> LambdaMean:
    """Rotation number of a circle map from a continuous lift.

    lift is a scalar function evaluated at quadrature nodes; the caller
    guarantees it is a continuous lift (no branch jumps).  Equals the window
    mean of lift' for differentiable lifts.
    """
    return _slope_means(np.vectorize(lift, otypes=[float]), chain)


def sampled_rotation(xs: np.ndarray, samples: np.ndarray,
                     chain: WindowChain) -> LambdaMean:
    """rotation_number of the linear interpolant of a lift sampled on xs."""
    return _slope_means(lambda x: np.interp(x, xs, samples), chain)


@dataclass(frozen=True)
class AlphaResult:
    """Rotation number of the left-decaying solution, by two routes.

    value/error_estimate come from the bump means of the phase lift's slope;
    the zero-density route (bump-weighted zero counts per unit length) is
    carried alongside; the two must agree to less than one zero over the
    largest window.  regime records whether the energy is certified
    gap-or-below (decaying solution well defined) or the value is a
    single-trajectory heuristic.
    """

    value: float
    error_estimate: float
    lift_mean: LambdaMean
    zero_density_mean: LambdaMean
    regime: str


def johnson_moser_alpha(spec: PotentialSpec, energy: float, xi: float = 0.0,
                        chain: WindowChain | None = None, *,
                        in_gap: bool | None = None) -> AlphaResult:
    """Rotation number alpha = 2 rot(arg(psi' + i psi) / 2 pi) at energy E.

    One trajectory of the left-decaying solution, at DEFAULT_RTOL, crosses
    the largest window, seeded PAD before it: the seed's error contracts like
    exp(-2 gamma PAD), with gamma the Lyapunov exponent, about 0.08 in the
    middle of the golden potential's ids-1 gap.  Per window, the bump mean of
    the slope of theta/pi and the bump-weighted count of the zeros z_j of
    psi, sum_j w((z_j - a)/T)/T, give the two evaluations.  For energies
    inside bands the decaying solution does not exist (flagged heuristic).
    """
    potentials.require_finite(energy=energy, xi=xi)
    chain = chain or WindowChain.geometric()
    a_big, b_big = chain.largest
    x0 = a_big - PAD
    seed = prufer.seed_decaying_left(spec, energy, xi, -x0 if x0 < 0 else PAD)
    trace = prufer.integrate(spec, energy, xi, x0, b_big, seed)

    lift_mean = _slope_means(lambda x: trace.theta_at(x) / math.pi, chain)
    zs = prufer.crossings(trace, a_big, b_big)
    zero_mean = window_mean([float(np.sum(_bump((zs - a) / (b - a)))) / (b - a)
                             for a, b in chain.windows])
    ex_l, ex_z = lift_mean.extrapolated, zero_mean.extrapolated
    # Below the chain's last change sit the errors of the trajectory: both
    # routes read it to its tolerance DEFAULT_RTOL, and read its interpolant
    # apart (the lift over all of it, the zeros at single points), so their
    # split measures the rest.  A route may be off by the split plus the
    # other's error, so each bar takes the split twice; a split of a whole
    # zero over the largest window is a fault.
    split, tol = abs(ex_l - ex_z), 1.0 / float(chain.lengths[-1])
    if split > tol:
        raise InconsistencyError(
            f"lift and zero-density rotation numbers disagree at E="
            f"{energy:.10g}, xi={xi:.10g}: {ex_l} vs {ex_z} (tolerance {tol})")
    lift_mean, zero_mean = (
        replace(m, error_estimate=m.error_estimate + 2.0 * split
                + prufer.DEFAULT_RTOL * abs(m.extrapolated))
        for m in (lift_mean, zero_mean))

    below = energy < -potentials.amplitude_bound(spec)
    regime = "gap_or_below" if (in_gap or below) else "heuristic"
    return AlphaResult(value=ex_l, error_estimate=lift_mean.error_estimate,
                       lift_mean=lift_mean, zero_density_mean=zero_mean,
                       regime=regime)
