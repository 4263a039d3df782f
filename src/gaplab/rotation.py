"""Window means, rotation numbers of circle-valued data, and the rotation
number of the left-decaying solution's phase.

The window mean of f over a chain is lim (1/|W_n|) integral_{W_n} f; the
rotation number of a circle map is the window mean of the growth rate of a
continuous lift, computed here from endpoint difference quotients.  For the
phase of psi' + i psi the rotation number, rescaled by 2/(2 pi), is the
asymptotic density of zeros of psi and coincides with the integrated density
of states.

window_mean is the one chain estimator: every chain label (both alpha
routes here, and beta, pi_curves and boundary_force through
sampled_rotation) turns its per-window values into a limit and an error
there, so changing the estimator is a change to that one function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potentials, prufer
from .potentials import PotentialSpec, WindowChain


class InconsistencyError(RuntimeError):
    """The two rotation-number evaluations disagree beyond tolerance."""


@dataclass(frozen=True)
class LambdaMean:
    """Window means over a chain with their extrapolation and its error."""

    window_values: tuple[tuple[int, float], ...]
    extrapolated: float
    error_estimate: float


def window_mean(lengths: np.ndarray, values: np.ndarray | list[float],
                floor: float = 0.0) -> LambdaMean:
    """The chain estimator: per-window values, their limit and its error.

    When the last differences shrink consistently with a 1/|W| boundary term,
    one Richardson step removes it; otherwise the last value stands.  The
    error estimate keeps the result inside the hull of the recent values and
    is at least floor.
    """
    values = np.asarray(values, dtype=float)
    v_last = float(values[-1])
    extrap = v_last
    if len(values) >= 3:
        d_last = float(values[-1] - values[-2])
        d_prev = float(values[-2] - values[-3])
        r = float(lengths[-1] / lengths[-2])
        # only a monotone shrinking tail indicates the 1/|W| boundary term;
        # oscillating window values extrapolate worse than the last value
        consistent = (d_last * d_prev > 0.0
                      and abs(d_last) <= 1.2 * abs(d_prev) + 1e-15)
        if consistent and r > 1.0:
            extrap = v_last + d_last / (r - 1.0)
    spread = float(np.ptp(values[-3:]))
    err = max(spread, abs(extrap - v_last), 1e-15, floor)
    return LambdaMean(
        window_values=tuple((i, float(v)) for i, v in enumerate(values)),
        extrapolated=extrap, error_estimate=err)


def lambda_mean(f, chain: WindowChain, *, quad_tol: float = 1e-9,
                limit: int = 2000) -> LambdaMean:
    """Window mean of a callable integrand via adaptive quadrature per window."""
    from scipy import integrate as _sciint   # kept out of `import gaplab`
    values = []
    for (a, b) in chain.windows:
        val, _ = _sciint.quad(f, a, b, epsabs=quad_tol * (b - a),
                              epsrel=quad_tol, limit=limit)
        values.append(val / (b - a))
    return window_mean(chain.lengths, values)


def rotation_number(lift, chain: WindowChain) -> LambdaMean:
    """Rotation number of a circle map from a continuous lift.

    lift is evaluated only at window endpoints; the caller guarantees it is a
    continuous lift (no branch jumps).  Equals the window mean of lift' for
    differentiable lifts.
    """
    values = [(lift(b) - lift(a)) / (b - a) for a, b in chain.windows]
    return window_mean(chain.lengths, values)


def sampled_rotation(xs: np.ndarray, samples: np.ndarray,
                     chain: WindowChain) -> LambdaMean:
    """rotation_number of the linear interpolant of a lift sampled on xs."""
    return rotation_number(lambda x: float(np.interp(x, xs, samples)), chain)


@dataclass(frozen=True)
class AlphaResult:
    """Rotation number of the left-decaying solution, by two routes.

    value/error_estimate come from the phase-lift difference quotients; the
    zero-density route (pi-crossing counts per unit length) is carried
    alongside, and the two must agree within the inconsistency tolerance.
    regime records whether the energy is certified gap-or-below (decaying
    solution well defined) or the value is a single-trajectory heuristic.
    """

    value: float
    error_estimate: float
    lift_mean: LambdaMean
    zero_density_mean: LambdaMean
    regime: str


def johnson_moser_alpha(spec: PotentialSpec, energy: float, xi: float = 0.0,
                        chain: WindowChain | None = None, *,
                        in_gap: bool | None = None,
                        rtol: float = prufer.DEFAULT_RTOL,
                        pad: float = 25.0) -> AlphaResult:
    """Rotation number alpha = 2 rot(arg(psi' + i psi) / 2 pi) at energy E.

    One trajectory of the left-decaying solution is integrated across the
    largest window (seeded a pad before it so the decaying direction has
    contracted); window quotients of theta/pi and zero-count densities give
    the two evaluations.  For energies inside bands the decaying solution
    does not exist and the result is flagged heuristic.
    """
    chain = chain or WindowChain.geometric()
    a_big, b_big = chain.largest
    x0 = a_big - pad
    seed = prufer.seed_decaying_left(spec, energy, xi, -x0 if x0 < 0 else pad)
    trace = prufer.integrate(spec, energy, xi, x0, b_big, seed,
                             rtol=rtol, atol_theta=rtol * 1e-2,
                             atol_logr=rtol * 1e-2)

    windows = chain.windows
    lifts = [(trace.theta_at(b) - trace.theta_at(a)) / (math.pi * (b - a))
             for a, b in windows]
    zeros = [prufer.count_zeros(trace, a, b) / (b - a) for a, b in windows]
    # count granularity floors: one zero over the largest window for the
    # zero-density route, half of one for the lift
    size = float(chain.lengths[-1])
    lift_mean = window_mean(chain.lengths, lifts, 0.5 / size)
    zero_mean = window_mean(chain.lengths, zeros, 1.0 / size)
    ex_l, ex_z = lift_mean.extrapolated, zero_mean.extrapolated
    tol = 3.0 * (lift_mean.error_estimate + zero_mean.error_estimate)
    if abs(ex_l - ex_z) > tol:
        raise InconsistencyError(
            f"lift and zero-density rotation numbers disagree at E="
            f"{energy:.10g}, xi={xi:.10g}: {ex_l} vs {ex_z} (tolerance {tol})")

    below = energy < -potentials.amplitude_bound(spec)
    regime = "gap_or_below" if (in_gap or below) else "heuristic"
    return AlphaResult(value=ex_l, error_estimate=lift_mean.error_estimate,
                       lift_mean=lift_mean, zero_density_mean=zero_mean,
                       regime=regime)
