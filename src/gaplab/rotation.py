"""Window means, rotation numbers of circle-valued data, and the rotation
number of the left-decaying solution's phase.

The window mean of f over a chain is lim (1/|W_n|) integral_{W_n} f; the
rotation number of a circle map is the window mean of the growth rate of a
continuous lift, computed here from endpoint difference quotients.  For the
phase of psi' + i psi the rotation number, rescaled by 2/(2 pi), is the
asymptotic density of zeros of psi and coincides with the integrated density
of states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _sciint

from . import potentials, prufer
from .potentials import PotentialSpec, WindowChain


class InconsistencyError(RuntimeError):
    """The two rotation-number evaluations disagree beyond tolerance."""


@dataclass(frozen=True)
class LambdaMean:
    """Window means over a chain with extrapolation and spread diagnostics."""

    window_values: tuple[tuple[int, float], ...]
    extrapolated: float
    error_estimate: float
    diverged: bool = False

    @property
    def last(self) -> float:
        return self.window_values[-1][1]


def extrapolate(lengths: np.ndarray, values: np.ndarray) -> tuple[float, float, bool]:
    """Extrapolated value, error estimate, and a divergence flag.

    When the last differences shrink consistently with a 1/|W| boundary term,
    one Richardson step removes it; otherwise the last value stands.  The
    error estimate keeps the result inside the hull of the recent values.
    """
    v_last = float(values[-1])
    diverged = False
    if len(values) >= 3:
        a1, a2, a3 = (abs(float(v)) for v in values[-3:])
        diverged = (a3 > 1.5 * a2 + 1e-12 and a2 > 1.5 * a1 + 1e-12
                    and a3 > abs(float(values[0])) + 1.0)
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
    tail = values[-3:] if len(values) >= 3 else values
    spread = float(np.ptp(tail))
    err = max(spread, abs(extrap - v_last), 1e-15)
    return extrap, err, diverged


def lambda_mean(f, chain: WindowChain, *, quad_tol: float = 1e-9,
                limit: int = 2000) -> LambdaMean:
    """Window mean of a callable integrand via adaptive quadrature per window."""
    values = []
    for (a, b) in chain.windows:
        val, _ = _sciint.quad(f, a, b, epsabs=quad_tol * (b - a),
                              epsrel=quad_tol, limit=limit)
        values.append(val / (b - a))
    values = np.array(values)
    extrap, err, diverged = extrapolate(chain.lengths, values)
    return LambdaMean(
        window_values=tuple((i, float(v)) for i, v in enumerate(values)),
        extrapolated=extrap, error_estimate=err, diverged=diverged)


def rotation_number(lift, chain: WindowChain) -> LambdaMean:
    """Rotation number of a circle map from a continuous lift.

    lift is evaluated only at window endpoints; the caller guarantees it is a
    continuous lift (no branch jumps).  Equals the window mean of lift' for
    differentiable lifts.
    """
    values = []
    for (a, b) in chain.windows:
        values.append((lift(b) - lift(a)) / (b - a))
    values = np.array(values, dtype=float)
    extrap, err, diverged = extrapolate(chain.lengths, values)
    return LambdaMean(
        window_values=tuple((i, float(v)) for i, v in enumerate(values)),
        extrapolated=extrap, error_estimate=err, diverged=diverged)


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

    lift_vals = []
    zero_vals = []
    for (a, b) in chain.windows:
        dth = trace.theta_at(b) - trace.theta_at(a)
        lift_vals.append(dth / (math.pi * (b - a)))
        zero_vals.append(prufer.count_zeros(trace, a, b) / (b - a))
    lengths = chain.lengths
    lift_vals = np.array(lift_vals)
    zero_vals = np.array(zero_vals)

    ex_l, err_l, div_l = extrapolate(lengths, lift_vals)
    ex_z, err_z, div_z = extrapolate(lengths, zero_vals)
    # count granularity floor for the zero-density route
    err_z = max(err_z, 1.0 / float(lengths[-1]))
    err_l = max(err_l, 0.5 / float(lengths[-1]))
    lift_mean = LambdaMean(tuple((i, float(v)) for i, v in enumerate(lift_vals)),
                           ex_l, err_l, div_l)
    zero_mean = LambdaMean(tuple((i, float(v)) for i, v in enumerate(zero_vals)),
                           ex_z, err_z, div_z)

    combined = err_l + err_z
    if abs(ex_l - ex_z) > 3.0 * combined:
        raise InconsistencyError(
            f"lift and zero-density rotation numbers disagree: "
            f"{ex_l} vs {ex_z} (tolerance {3.0 * combined})")

    below = energy < -potentials.amplitude_bound(spec)
    regime = "gap_or_below" if (in_gap or below) else "heuristic"
    return AlphaResult(value=ex_l, error_estimate=err_l,
                       lift_mean=lift_mean, zero_density_mean=zero_mean,
                       regime=regime)
