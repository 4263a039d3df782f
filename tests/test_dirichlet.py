import cmath
import math

import numpy as np
import pytest

from gaplab import dirichlet, lattice, prufer, spectrum
from gaplab.potentials import PotentialSpec, WindowChain
from gaplab.spectrum import Gap

ZERO = PotentialSpec.zero()


def test_no_dirichlet_values_below_free_spectrum():
    fake_gap = Gap(-3.0, -0.5)
    assert dirichlet.right_dirichlet_values(ZERO, 0.4, fake_gap, 40.0) == []
    assert dirichlet.left_dirichlet_values(ZERO, 0.4, fake_gap, 40.0) == []


def test_right_values_match_filtered_matrix_oracle(mathieu, gap1):
    # the box oracle keeps in-gap eigenpairs localized at the x = 0 end
    L, h = 60.0, 0.005
    for xi in (0.0, 1.3, 3.93, 4.7, 5.9):
        ours = dirichlet.right_dirichlet_values(mathieu, xi, gap1, L)
        w, v, xs = lattice.fd_eigenvalues(mathieu, -L, 0.0, xi, h,
                                          gap1.e_lower, gap1.e_upper,
                                          vectors=True)
        lo, hi = gap1.trimmed()
        keep = []
        for i in range(len(w)):
            mass = float(np.sum(v[xs >= -L / 4, i] ** 2))
            if mass >= 0.5 and lo <= w[i] <= hi:
                keep.append(float(w[i]))
        assert len(ours) == len(keep)
        for a, b in zip(sorted(ours), sorted(keep)):
            assert abs(a - b) < 5e-4


def test_found_root_recrosses_boundary_sine(mathieu, gap1):
    vals = dirichlet.right_dirichlet_values(mathieu, 3.93, gap1, 60.0)
    assert len(vals) == 1
    bd = prufer.boundary_data(mathieu, vals[0], 3.93, 60.0, rtol=1e-12,
                              max_step=0.5)
    assert abs(bd.sin_theta) < 1e-10


def test_left_values_mirror_right_for_even_potential(mathieu, gap1):
    # V even and xi = 0: reflection x -> -x exchanges the two half-lines
    r = dirichlet.right_dirichlet_values(mathieu, 0.0, gap1, 60.0)
    l = dirichlet.left_dirichlet_values(mathieu, 0.0, gap1, 60.0)
    assert len(r) == len(l)
    for a, b in zip(r, l):
        assert abs(a - b) < 1e-7


def test_translation_covariance(mathieu, gap1):
    from gaplab import potentials as P
    s = 0.9
    a = dirichlet.right_dirichlet_values(mathieu, 2.1 + s, gap1, 60.0)
    b = dirichlet.right_dirichlet_values(P.translate(mathieu, s), 2.1, gap1,
                                         60.0)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert abs(x - y) < 1e-8


def test_one_period_flow_structure(flow_gap1_period, gap1):
    rights = [c for c in flow_gap1_period if c.side == "right"]
    lefts = [c for c in flow_gap1_period if c.side == "left"]
    assert len(rights) == 1 and len(lefts) == 1
    r, l = rights[0], lefts[0]
    assert np.all(np.diff(r.mu) < 0)       # strictly decreasing
    assert np.all(np.diff(l.mu) > 0)       # strictly increasing
    assert "enters_from_upper_edge" in r.events
    assert "exits_lower_edge" in r.events
    assert np.all((r.mu > gap1.e_lower) & (r.mu < gap1.e_upper))


def test_level_passage_count_matches_gap_index(flow_gap1_period, gap1):
    # in the first gap, one right curve passes any fixed level per period
    rights = [c for c in flow_gap1_period if c.side == "right"]
    level = gap1.mid
    passes = 0
    for c in rights:
        crossings = np.sum(np.diff(np.sign(c.mu - level)) != 0)
        passes += int(crossings)
    assert passes == 1


def test_no_crossing_between_right_and_left_curves(flow_gap1_period):
    rights = [c for c in flow_gap1_period if c.side == "right"]
    lefts = [c for c in flow_gap1_period if c.side == "left"]
    for r in rights:
        for l in lefts:
            lo = max(r.xi[0], l.xi[0])
            hi = min(r.xi[-1], l.xi[-1])
            if hi <= lo:
                continue
            xs = np.linspace(lo, hi, 25)
            rm = np.interp(xs, r.xi, r.mu)
            lm = np.interp(xs, l.xi, l.mu)
            assert np.min(np.abs(rm - lm)) > 1e-4


def test_flow_grid_refinement_stability(mathieu, gap1):
    coarse = dirichlet.trace_flow(mathieu, gap1, 3.6, 5.2, 0.05, 60.0)
    fine = dirichlet.trace_flow(mathieu, gap1, 3.6, 5.2, 0.025, 60.0)
    rc = max((c for c in coarse if c.side == "right"), key=len)
    rf = max((c for c in fine if c.side == "right"), key=len)
    lo = max(rc.xi[0], rf.xi[0])
    hi = min(rc.xi[-1], rf.xi[-1])
    xs = rc.xi[(rc.xi >= lo) & (rc.xi <= hi)]
    mu_c = np.interp(xs, rc.xi, rc.mu)
    mu_f = np.interp(xs, rf.xi, rf.mu)
    assert np.max(np.abs(mu_c - mu_f)) < 1e-6


def test_flow_rejects_bad_range(mathieu, gap1):
    with pytest.raises(ValueError):
        dirichlet.trace_flow(mathieu, gap1, 2.0, 2.0, 0.05)


def test_derivative_identity_on_right_curve(flow_gap1_period, mathieu):
    curve = max((c for c in flow_gap1_period if c.side == "right"), key=len)
    for index in (len(curve) // 3, 2 * len(curve) // 3):
        chk = dirichlet.flow_derivative_check(mathieu, curve, index, 60.0)
        assert chk.finite_difference < 0
        assert chk.analytic < 0
        rel = abs(chk.finite_difference - chk.analytic) / abs(chk.analytic)
        assert rel < 1e-2


def test_derivative_identity_left_curve_positive(flow_gap1_period, mathieu):
    curve = max((c for c in flow_gap1_period if c.side == "left"), key=len)
    index = len(curve) // 2
    chk = dirichlet.flow_derivative_check(mathieu, curve, index, 60.0)
    assert chk.finite_difference > 0
    assert chk.analytic > 0
    rel = abs(chk.finite_difference - chk.analytic) / abs(chk.analytic)
    assert rel < 1e-2


def test_derivative_check_needs_interior_index(flow_gap1_period, mathieu):
    curve = max((c for c in flow_gap1_period if c.side == "right"), key=len)
    with pytest.raises(ValueError):
        dirichlet.flow_derivative_check(mathieu, curve, 0, 60.0)


def test_interlacing_two_periods(mathieu, gap1):
    rep = dirichlet.interlacing_check(mathieu, gap1, gap1.mid,
                                      (0.0, 4.0 * math.pi), 60.0)
    assert rep.violations == ()
    assert len(rep.s_points) == 2
    assert rep.passed
    # right-offset set equals the translated zero set of one eigenfunction
    assert rep.zero_set_max_deviation is not None
    assert rep.zero_set_max_deviation < 1e-8


def test_interlacing_trivial_when_no_offsets():
    fake_gap = Gap(-3.0, -0.5)
    rep = dirichlet.interlacing_check(ZERO, fake_gap, -1.5, (0.0, 3.0), 30.0)
    assert rep.s_points == ()
    assert rep.passed


def test_circle_phase_trivial_cases(gap1):
    assert dirichlet.circle_phase([], [], gap1, "right_only") == 0.0
    assert dirichlet.circle_phase([gap1.e_lower], [], gap1,
                                  "right_only") == 0.0
    z = cmath.exp(1j * dirichlet.circle_phase([gap1.mid], [], gap1,
                                              "right_only"))
    assert z.real == pytest.approx(-1.0, abs=1e-12)


def test_circle_phase_rejects_unknown_variant(gap1):
    with pytest.raises(ValueError):
        dirichlet.circle_phase([], [], gap1, "sideways")


def test_mu_tilde_unit_modulus(mathieu, gap1):
    z = dirichlet.mu_tilde(mathieu, gap1, 3.93, 60.0)
    assert abs(abs(z) - 1.0) < 1e-12


def test_phase_lift_continuity_across_exit(flow_gap1_period, gap1):
    # the lift stays continuous while the curve leaves through the lower
    # edge: mu -> E0 contributes vanishing phase.  The minimal-jump unwrap
    # folds every step into [-pi, pi], so only a tighter bound can fail.
    xis = np.linspace(0.0, 2.0 * math.pi, 126)
    for variant in ("right_only", "two_sided"):
        phi = dirichlet.phase_lift(flow_gap1_period, gap1, xis, variant)
        assert np.max(np.abs(np.diff(phi))) < 0.5 * math.pi
        # one passage per period: net drop of one full turn
        assert (phi[-1] - phi[0]) / (2.0 * math.pi) == pytest.approx(
            -1.0, abs=0.05)


@pytest.mark.parametrize("side, mu, event", [
    (dirichlet.RIGHT, [0.85, 0.60, 0.45, 0.44], dirichlet.ENTERS_UPPER),
    (dirichlet.LEFT, [0.15, 0.40, 0.55, 0.56], dirichlet.ENTERS_LOWER),
])
def test_curve_entry_tested_with_entry_slope(side, mu, event):
    # steep first step, flat last step: the entry lies 0.14 inside the
    # trimmed edge, outside the band of the flat exit slope (0.08) but
    # inside the band of the entry slope
    gap = Gap(0.0, 1.0)
    xis = np.round(np.arange(0.0, 3.05, 0.1), 12)
    raw = {"xi": [1.0, 1.1, 1.2, 1.3], "mu": mu}
    events, entry_xi, exit_xi = dirichlet._curve_events(side, raw, xis, gap,
                                                        0.1)
    assert events == (event,)
    assert entry_xi == pytest.approx(0.94)
    assert exit_xi is None


def test_beta_first_gap(mathieu, gap1, xi_chain, flow_gap1):
    res = dirichlet.beta(mathieu, gap1, xi_chain, flow=flow_gap1)
    assert res.error_estimate <= 1e-2
    assert abs(res.value - 1.0 / (2.0 * math.pi)) < 1e-2


def test_beta_variants_agree(mathieu, gap1, xi_chain, flow_gap1):
    r = dirichlet.beta(mathieu, gap1, xi_chain, flow=flow_gap1,
                       variant="right_only")
    t = dirichlet.beta(mathieu, gap1, xi_chain, flow=flow_gap1,
                       variant="two_sided")
    assert abs(r.value - t.value) <= r.error_estimate + t.error_estimate


def test_beta_zero_without_crossings():
    fake_gap = Gap(-3.0, -0.5)
    chain = WindowChain.geometric(4.0, 1.6, 3)
    res = dirichlet.beta(ZERO, fake_gap, chain, 0.1, 30.0)
    assert res.value == 0.0


def test_beta_origin_shift_invariance(mathieu, gap1):
    chain = WindowChain.geometric(6.5, 1.6, 5)
    shifted = WindowChain(tuple((a + 1.0, b + 1.0)
                                for a, b in chain.windows))
    r0 = dirichlet.beta(mathieu, gap1, chain, 0.1, 60.0)
    r1 = dirichlet.beta(mathieu, gap1, shifted, 0.1, 60.0)
    assert abs(r0.value - r1.value) <= r0.error_estimate + r1.error_estimate


def test_max_dirichlet_count_first_gap(flow_gap1, xi_chain):
    a, b = xi_chain.largest
    xis = np.linspace(a, b, 2000)
    assert dirichlet.max_dirichlet_count(flow_gap1, xis) == 1


def test_second_gap_flow_through_artifact_crossing(mathieu, gap2):
    # near xi = -252 (L = 60) the truncation-artifact branch crosses the
    # genuine curve; its ghost root must not split or distort the curve
    flow = dirichlet.trace_flow(mathieu, gap2, -256.0, -248.0, 0.1, 60.0,
                                mu_tol=1e-7)
    rights = [c for c in flow if c.side == "right"]
    assert rights
    for c in rights:
        assert np.all(np.diff(c.mu) < 0)
        assert np.max(np.abs(np.diff(c.mu))) < 0.2 * gap2.width


def test_second_gap_two_passages_per_period(mathieu, gap2):
    flow = dirichlet.trace_flow(mathieu, gap2, 0.0, 2.0 * math.pi, 0.05,
                                60.0)
    rights = [c for c in flow if c.side == "right"]
    level = gap2.mid
    passes = sum(int(np.sum(np.diff(np.sign(c.mu - level)) != 0))
                 for c in rights)
    assert passes == 2


def _window_values(spec, gap, offsets, L, side):
    return dirichlet._window_scan(spec, gap, offsets, L, side, mu_tol=1e-10,
                                  rtol=1e-11)


@pytest.mark.parametrize("side", [dirichlet.RIGHT, dirichlet.LEFT])
def test_window_scan_matches_single_offset_values(mathieu, gap1, side):
    offsets = np.linspace(0.0, 2.0 * math.pi, 64)
    window = _window_values(mathieu, gap1, offsets, 60.0, side)
    single = (dirichlet.right_dirichlet_values if side == dirichlet.RIGHT
              else dirichlet.left_dirichlet_values)
    found = 0
    for k in range(0, 64, 7):
        ref = single(mathieu, float(offsets[k]), gap1, 60.0)
        assert len(window[k]) == len(ref)
        assert np.all(np.abs(window[k] - np.array(ref)) <= 1e-6)
        found += len(ref)
    assert found >= 3


def test_window_artifact_in_gap_is_removed(mathieu, gap1):
    # at L 30 the pass seeded at -40.4 carries its truncation artifact in
    # the trimmed first gap; offset -2.7 also has a genuine value in the
    # artifact's slabs
    offsets = np.linspace(-10.4, 10.4, 209)
    w = dirichlet._window_pass(mathieu, gap1, offsets, 30.0, dirichlet.RIGHT,
                               1e-8)
    slab = w.artifact[0]
    assert slab >= 0
    e_lo, e_hi = w.energies[slab - 1], w.energies[slab + 2]
    window = dirichlet._window_scan(mathieu, gap1, offsets, 30.0,
                                    dirichlet.RIGHT, mu_tol=1e-8, rtol=1e-8)
    assert any(len(v) and e_lo <= v[0] <= e_hi for v in window[:w.m])
    for k in (0, 26, 52, 77, 78, 104, 130, 156, 182, 208):
        ref = dirichlet.right_dirichlet_values(mathieu, float(offsets[k]),
                                               gap1, 30.0)
        assert len(window[k]) == len(ref), offsets[k]
        assert np.all(np.abs(window[k] - np.array(ref)) <= 1e-6)


def test_one_offset_window_artifact_in_gap(mathieu, gap1):
    # the pass [-30, 0] has its artifact in the trimmed gap, and offset 0
    # has no right value there (the box oracle agrees, see above)
    w = dirichlet._window_pass(mathieu, gap1, [0.0], 30.0, dirichlet.RIGHT,
                               1e-12)
    assert w.artifact[0] >= 0
    assert dirichlet.right_dirichlet_values(mathieu, 0.0, gap1, 30.0) == []
    assert dirichlet.left_dirichlet_values(mathieu, 0.0, gap1, 30.0) == []
    L, h = 30.0, 0.005
    vals, vecs, xs = lattice.fd_eigenvalues(mathieu, -L, 0.0, 0.0, h,
                                            gap1.e_lower, gap1.e_upper,
                                            vectors=True)
    lo, hi = gap1.trimmed()
    localized = [float(vals[i]) for i in range(len(vals))
                 if lo <= vals[i] <= hi
                 and np.sum(vecs[xs >= -L / 4, i] ** 2) >= 0.5]
    assert localized == []


@pytest.mark.parametrize("side", [dirichlet.RIGHT, dirichlet.LEFT])
def test_trace_flow_pass_count(mathieu, gap1, monkeypatch, side):
    # one window pass, one bracket check and the polishing steps; the
    # per-offset bisection took 31 passes per side on these inputs
    calls = []
    theta_grid = prufer.theta_grid

    def counted(*args, **kwargs):
        calls.append(1)
        return theta_grid(*args, **kwargs)

    monkeypatch.setattr(prufer, "theta_grid", counted)
    flow = dirichlet.trace_flow(mathieu, gap1, 0.0, 2.0 * math.pi, 0.05,
                                60.0, sides=(side,))
    assert len(flow) == 1
    assert len(calls) <= 15
