import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import dirichlet, lattice, prufer
from gaplab.potentials import PotentialSpec

from conftest import mathieu_gap_edges

ZERO = PotentialSpec.zero()
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_free_phase_advances_linearly_at_unit_energy():
    # theta' = 1 identically for V = 0, E = 1
    tr = prufer.integrate(ZERO, 1.0, 0.0, 0.0, math.pi, 0.0)
    assert tr.thetas[-1] == pytest.approx(math.pi, abs=1e-12)


def test_free_phase_at_energy_four():
    # psi = sin(2x): two zeros in (0, pi], so the lift lands on 2 pi
    tr = prufer.integrate(ZERO, 4.0, 0.0, 0.0, math.pi, 0.0)
    assert tr.thetas[-1] == pytest.approx(2.0 * math.pi, abs=1e-8)


def test_trace_lift_steps_stay_below_half_pi():
    spec = PotentialSpec.cosine_sum([(2.0, 1.0 / (2 * math.pi), 0.0)])
    tr = prufer.integrate(spec, 2.5, 0.3, -30.0, 30.0, 0.2)
    assert np.max(np.abs(np.diff(tr.thetas))) < math.pi / 2


def test_backward_integration_runs_and_orders_samples():
    tr = prufer.integrate(ZERO, -1.0, 0.0, 10.0, -10.0, 2.0)
    assert tr.direction == "backward"
    assert np.all(np.diff(tr.xs) < 0)
    assert tr.theta_at(0.0) == pytest.approx(3 * math.pi / 4, abs=1e-6)


def test_integrate_rejects_empty_span():
    with pytest.raises(ValueError):
        prufer.integrate(ZERO, 1.0, 0.0, 2.0, 2.0, 0.0)


def test_seed_decaying_left_free_values():
    assert prufer.seed_decaying_left(ZERO, -1.0, 0.7, 50.0) == pytest.approx(
        math.pi / 4)
    assert prufer.seed_decaying_left(ZERO, -4.0, 0.0, 50.0) == pytest.approx(
        math.atan(0.5))


def test_seed_decaying_right_mirror():
    s = prufer.seed_decaying_right(ZERO, -1.0, 0.0, 50.0)
    assert s == pytest.approx(math.pi - math.pi / 4)


def test_seed_truncation_stability_in_gap(mathieu, gap1):
    # the boundary direction must be L-independent once the seed error decays
    e = gap1.mid
    t60 = prufer.boundary_data(mathieu, e, 0.0, 60.0).theta
    t80 = prufer.boundary_data(mathieu, e, 0.0, 80.0).theta
    assert abs((t60 - t80 + math.pi / 2) % math.pi - math.pi / 2) < 1e-6


def test_boundary_data_free_below_spectrum():
    bd = prufer.boundary_data(ZERO, -1.0, 0.0, 50.0)
    assert bd.sin_theta != 0.0
    assert bd.theta == pytest.approx(math.pi / 4, abs=1e-9)
    # psi = e^x normalized on [-50, 0]: psi'(0) = sqrt(2)
    assert bd.dpsi_normalized == pytest.approx(math.sqrt(2.0), rel=2e-4)


def test_boundary_theta_increases_with_energy(mathieu, gap1):
    es = np.linspace(gap1.e_lower + gap1.margin, gap1.e_upper - gap1.margin, 7)
    thetas = [prufer.boundary_data(mathieu, float(e), 0.0, 50.0,
                                   rtol=1e-9, max_step=0.5).theta
              for e in es]
    assert np.all(np.diff(thetas) > 0)


def test_count_zeros_free_interval():
    tr = prufer.integrate(ZERO, 1.0, 0.0, 0.0, 2.0 * math.pi, 0.0)
    assert len(prufer.crossings(tr, 0.0, 2.0 * math.pi)) == 2
    assert len(prufer.crossings(tr, 1.0, 1.0)) == 0


def test_zeros_locations_free():
    tr = prufer.integrate(ZERO, 1.0, 0.0, 0.0, 2.0 * math.pi, 0.0)
    zs = prufer.crossings(tr, 0.0, 2.0 * math.pi)
    assert np.allclose(zs, [math.pi, 2.0 * math.pi], atol=1e-10)


@given(e=st.floats(min_value=0.5, max_value=8.0))
@settings(max_examples=20, deadline=None)
def test_count_matches_free_closed_form(e):
    span = 20.0
    tr = prufer.integrate(ZERO, e, 0.0, 0.0, span, 0.0)
    expected = int(math.floor(math.sqrt(e) * span / math.pi + 1e-9))
    assert len(prufer.crossings(tr, 0.0, span)) == expected


def test_zero_count_against_matrix_oracle_mid_band(mathieu):
    # mid-first-band energy, forward trace over [0, 100]
    from scipy.special import mathieu_a
    band_lo = float(mathieu_a(0, 4.0)) / 4.0
    band_hi = mathieu_gap_edges(1)[0]
    e = 0.5 * (band_lo + band_hi)
    tr = prufer.integrate(mathieu, e, 0.0, 0.0, 100.0, 0.0)
    ours = len(prufer.crossings(tr, 0.0, 100.0))
    oracle = lattice.fd_eigenvalue_count(mathieu, 0.0, 100.0, 0.0, e, 0.005)
    assert abs(ours - oracle) <= 1


def test_theta_grid_matches_scalar_path(mathieu):
    # component by component against integrate: forward and backward to one
    # point, and on a two-term golden potential with mirrored components to
    # an array of landing points, between which theta is folded modulo pi
    golden = PotentialSpec.cosine_sum([(1.0, 1.0 / (2.0 * math.pi), 0.3),
                                       (0.6, GOLDEN / (2.0 * math.pi), 1.1)])
    es = np.array([-0.5, 0.1, 1.3])
    cases = [(mathieu, 0.2, False, x_start, [0.0])
             for x_start in (-20.0, 20.0)]
    cases.append((golden, np.array([[0.2], [-1.7]]),
                  np.array([[False], [True]]), -20.0, [-12.0, -7.5, -1.0, 0.0]))
    for spec, xi, mirror, x_start, ends in cases:
        x_end = ends[0] if len(ends) == 1 else np.array(ends)
        th_vec = prufer.theta_grid(spec, es, xi, x_start, x_end, 0.4,
                                   rtol=1e-10, mirror=mirror)
        th_vec = th_vec.reshape(len(ends), -1)
        components = zip(*(np.ravel(c).tolist()
                           for c in np.broadcast_arrays(es, xi, mirror)))
        for c, (e, x, m) in enumerate(components):
            for k, end in enumerate(ends):
                tr = prufer.integrate(spec, e, x, x_start, end, 0.4,
                                      rtol=1e-10, mirror=m)
                assert th_vec[k, c] == pytest.approx(tr.thetas[-1], abs=1e-7)
                # width one runs integrate's float path: the same endpoint
                th_one = prufer.theta_grid(spec, [e], x, x_start, end, 0.4,
                                           rtol=1e-10, mirror=m)
                assert th_one.shape == (1,)
                assert th_one[0] == tr.thetas[-1]


def _free_lift(energy, theta0, t):
    """Exact theta lift of V = 0 from theta0 at t = 0, on a grid of t fine
    enough to unwrap: the angle of (psi', psi) in closed form."""
    s, c = np.sin(theta0)[:, None], np.cos(theta0)[:, None]
    k = math.sqrt(abs(energy))
    if energy > 0:
        psi = s * np.cos(k * t) + c * np.sin(k * t) / k
        dpsi = c * np.cos(k * t) - k * s * np.sin(k * t)
    else:   # divided by cosh(k t), which leaves the angle
        psi = s + c * np.tanh(k * t) / k
        dpsi = c + k * s * np.tanh(k * t)
    return np.unwrap(np.arctan2(psi, dpsi), axis=1)


@pytest.mark.parametrize("energy", [-400.0, -1.0, 0.25, 4.0, 400.0])
def test_theta_grid_matches_free_closed_form(caplog, energy):
    # the numpy step reads each turn modulo 2 pi; its step cap keeps E = 400
    # (20 rad per unit) from aliasing.  The solution grows by e^1200 at
    # E = -400, which overflows unless each step renormalises it.
    # Each accepted step may add rtol * pi to theta's error, so the pass's
    # trial steps bound it.
    rtol, theta0 = 1e-9, np.array([0.0, 1.0, 2.5])
    ends = np.linspace(-30.0, 30.0, 51)[1:]
    with caplog.at_level(logging.DEBUG, logger="gaplab.prufer"):
        th = prufer.theta_grid(ZERO, energy, 0.0, -30.0, ends, theta0,
                               rtol=rtol)
    trials = int(re.search(r"(\d+) trial steps", caplog.text).group(1))
    exact = _free_lift(energy, theta0, np.linspace(0.0, 60.0, 60001))
    assert np.all(np.isfinite(th))
    error = np.max(np.abs(th - exact[:, 1200::1200].T))
    assert error < trials * rtol * math.pi


def test_cash_karp_logs_each_pass_at_debug_level(caplog):
    with caplog.at_level(logging.INFO, logger="gaplab.prufer"):
        prufer.theta_grid(ZERO, [1.0, 3.0], 0.5, -1.0, 1.0, 0.3)
    assert caplog.text == ""
    with caplog.at_level(logging.DEBUG, logger="gaplab.prufer"):
        prufer.theta_grid(ZERO, [1.0, 3.0], 0.5, -1.0, 1.0, 0.3)
    assert re.fullmatch(r"cash_karp: 2 components, (\d+) trial steps, "
                        r"(\d+) rejected, x -1 to 1", caplog.messages[-1])


def test_theta_grid_underflow_names_component():
    # with no tolerance every trial step fails until the step underflows;
    # the message names the component with the largest error: at E = 3 the
    # direction turns faster than at E = 1
    with pytest.raises(
            prufer.StiffnessError, match=r"^step underflow at x=-1 "
            r"\(E=3\.0, xi=0\.5, side=left\)$"):
        prufer.theta_grid(ZERO, [1.0, 3.0], 0.5, -1.0, 1.0, 0.3, rtol=0.0,
                          mirror=[False, True])


def test_float_path_underflow_at_zero_tolerance():
    # a single component runs the float path: its zero error scale rejects
    # every step as the numpy path does, not with a division by zero
    with pytest.raises(prufer.StiffnessError, match=r"^step underflow at "
                       r"x=-1 \(E=3\.0, xi=0\.5, side=right\)$"):
        prufer.theta_grid(ZERO, 3.0, 0.5, -1.0, 1.0, 0.3, rtol=0.0)


def test_bisect_mirrored_bracket_matches_ordered(mathieu, gap1):
    # the left problem's boundary phase integrated backward from +L, pi
    # minus that of its forward mirror image, decreases in E, so its bracket
    # is mirrored (below = upper end); reflecting E turns it into an ordered
    # one; bisect evaluates the offsets of the open brackets only
    lo, hi = gap1.trimmed()
    xis = np.linspace(0.0, 2.0 * math.pi, 5)

    def theta_left(e, rows=slice(None)):
        return math.pi - dirichlet._scan_theta(mathieu, e, xis[rows], 40.0,
                                               prufer.LEFT, 1e-8)

    t_lo, t_hi = theta_left(lo), theta_left(hi)
    targets = np.floor(t_lo / math.pi) * math.pi
    keep = targets > t_hi
    assert np.any(keep)
    xis, targets = xis[keep], targets[keep]
    mirrored = prufer.bisect(theta_left, hi, lo, targets, 1e-7)
    ordered = prufer.bisect(lambda y, rows: theta_left(-y, rows), -hi, -lo,
                            targets, 1e-7)
    assert np.array_equal(mirrored, -ordered)
    assert np.all((mirrored > lo) & (mirrored < hi))
    # the phase is above the target just below the root, below it just above
    assert np.all(theta_left(mirrored - 1e-7) > targets)
    assert np.all(theta_left(mirrored + 1e-7) < targets)


def _counted(theta):
    calls = []

    def theta_of(x, *rows):
        calls.append(np.shape(x))
        return theta(x)

    return theta_of, calls


def test_bisect_stencil_certifies_smooth_roots_in_one_step():
    # a smooth monotone phase, all points in one evaluation: the Newton
    # point of the guess's stencil lands within tol / 2 of every root, so
    # one more evaluation, four points tol apart, ends each search on a
    # straddling pair
    roots = np.linspace(-0.9, 0.9, 7)
    tol = 1e-7

    def theta(e):
        d = e - roots
        return np.sinh(d) + 0.3 * d * d

    theta_of, calls = _counted(theta)
    below, above = prufer.bisect(theta_of, roots - 0.5, roots + 0.7, 0.0, tol,
                                 guess=roots + 1e-4, bracket=True)
    assert calls == [(4, 7), (4, 7)]
    assert np.allclose(above - below, tol, rtol=1e-6)
    assert np.all(theta(below) < 0.0) and np.all(theta(above) >= 0.0)
    assert np.all(np.abs(0.5 * (below + above) - roots) <= 0.5 * tol)


@pytest.mark.parametrize("guess", [None, 0.3])
def test_bisect_step_like_phase_stays_within_itp_bound(guess):
    # a phase that jumps by pi within 1e-12 gives Newton no usable slope;
    # the projection keeps the worst case at one evaluation of the ends
    # and ceil(log2(width / tol)) steps
    root, tol = 0.123456789, 1e-9
    theta_of, calls = _counted(lambda e: np.arctan((e - root) / 1e-12))
    below, above = prufer.bisect(theta_of, -1.0, 1.0, 0.0, tol, guess=guess,
                                 bracket=True)
    assert len(calls) <= 1 + math.ceil(math.log2(2.0 / tol))
    assert 0.0 < above - below <= tol
    assert below < root <= above


def test_trace_translate_covariance(mathieu):
    from gaplab import potentials as P
    shifted = P.translate(mathieu, 0.8)
    tr1 = prufer.integrate(mathieu, 0.3, 0.8, -15.0, 0.0, 0.5)
    tr2 = prufer.integrate(shifted, 0.3, 0.0, -15.0, 0.0, 0.5)
    assert tr1.thetas[-1] == pytest.approx(tr2.thetas[-1], abs=1e-9)


def test_alpha_trajectory_interpolant_tracks_a_fine_one(mathieu):
    # alpha's trajectory at gap 1's mid-gap energy, for the six-window
    # chain: its Hermite interpolant was 3.9e-5 off between nodes when the
    # phase tolerance was relative to |theta|
    e, x0, x1 = 0.5 * sum(mathieu_gap_edges(1)), -362.144, 262.144
    seed = prufer.seed_decaying_left(mathieu, e, 0.0, -x0)
    tr = prufer.integrate(mathieu, e, 0.0, x0, x1, seed, rtol=1e-9)
    ref = prufer.integrate(mathieu, e, 0.0, x0, x1, seed, rtol=1e-12,
                           max_step=0.05)
    xs = np.linspace(-262.0, 262.0, 200001)
    assert np.max(np.abs(tr.theta_at(xs) - ref.theta_at(xs))) < 1e-5
