import cmath
import logging
import math
import re

import numpy as np
import pytest

from gaplab import dirichlet, lattice, prufer, spectrum
from gaplab.potentials import PotentialSpec, WindowChain
from gaplab.spectrum import Gap

from conftest import mathieu_gap_edges

ZERO = PotentialSpec.zero()
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


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


def test_flow_rejects_bad_step():
    # a zero step divides by zero and a negative one overflows the grid
    # size; beta passes its dxi on to trace_flow
    fake_gap = Gap(-3.0, -0.5)
    for dxi in (0.0, -0.1):
        with pytest.raises(ValueError, match="dxi"):
            dirichlet.trace_flow(ZERO, fake_gap, 0.0, 1.0, dxi)
        with pytest.raises(ValueError, match="dxi"):
            dirichlet.beta(ZERO, fake_gap, WindowChain.geometric(1.0, 1.6, 2),
                           dxi)


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


def test_interlacing_fails_when_offsets_miss_zeros():
    # psi has 18 zeros in (-7, 11) at mid-gap of the ids-1 gap of the golden
    # potential, but L = 30 is a multiple of its period-1 term, so each
    # per-offset pass puts its truncation artifact on the offset it should
    # find and s comes back empty: the zero set must not agree with it
    spec = PotentialSpec.cosine_sum([(1.0, 1.0, 0.0), (1.0, GOLDEN, 0.0)])
    gap = Gap(9.3569, 10.3606)
    rep = dirichlet.interlacing_check(spec, gap, gap.mid, (-7.0, 11.0), 30.0)
    assert rep.s_points == ()
    assert rep.zero_set_max_deviation == math.inf
    assert not rep.passed


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


def test_mu_tilde_two_sided_matches_phase_lift(mathieu, gap1):
    # at xi 1.3 gap 1 holds one left value and no right one, so the
    # two-sided point is not the right-only one
    z = dirichlet.mu_tilde(mathieu, gap1, 1.3, 30.0, variant="two_sided")
    assert abs(abs(z) - 1.0) < 1e-12
    flow = dirichlet.trace_flow(mathieu, gap1, 1.0, 1.6, 0.1, 30.0,
                                sides=(dirichlet.RIGHT, dirichlet.LEFT))
    k = int(np.argmin(np.abs(flow.xi - 1.3)))
    assert flow.xi[k] == pytest.approx(1.3, abs=1e-12)
    phi = dirichlet.phase_lift(flow, "two_sided")[k]
    assert abs(cmath.phase(z * cmath.exp(-1j * phi))) < 1e-6
    assert abs(cmath.phase(z)) > 0.1


def test_phase_lift_continuity_across_exit(flow_gap1_period, gap1):
    # the lift stays continuous while the curve leaves through the lower
    # edge: mu -> E0 contributes vanishing phase.  The minimal-jump unwrap
    # folds every step into [-pi, pi], so only a tighter bound can fail.
    for variant in ("right_only", "two_sided"):
        phi = dirichlet.phase_lift(flow_gap1_period, variant)
        assert np.max(np.abs(np.diff(phi))) < 0.5 * math.pi
        # one passage per period: net drop of one full turn
        assert (phi[-1] - phi[0]) / (2.0 * math.pi) == pytest.approx(
            -1.0, abs=0.05)


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


def test_beta_refuses_one_window_chain():
    # one window has no change between windows to serve as the error bar
    fake_gap = Gap(-3.0, -0.5)
    with pytest.raises(ValueError, match="two or more windows"):
        dirichlet.beta(ZERO, fake_gap, WindowChain.geometric(4.0, 1.6, 1),
                       0.1, 30.0)


def test_beta_origin_shift_invariance(mathieu, gap1):
    chain = WindowChain.geometric(6.5, 1.6, 5)
    shifted = WindowChain(tuple((a + 1.0, b + 1.0)
                                for a, b in chain.windows))
    r0 = dirichlet.beta(mathieu, gap1, chain, 0.1, 60.0)
    r1 = dirichlet.beta(mathieu, gap1, shifted, 0.1, 60.0)
    assert abs(r0.value - r1.value) <= r0.error_estimate + r1.error_estimate


def test_max_dirichlet_count_first_gap(flow_gap1):
    assert dirichlet.max_dirichlet_count(flow_gap1) == 1


def test_two_sided_beta_without_edge_pairing(mathieu):
    # at L 30 a right value of gap 2 enters through the upper edge at
    # -10.1, next to the grid start, with no left exit beside it: the right
    # lift must fold that entry on its own
    gap = Gap(*mathieu_gap_edges(2))
    chain = WindowChain.geometric(6.5, 1.6, 2)
    flow = dirichlet.trace_flow(mathieu, gap, *chain.largest, 0.1, 30.0,
                                sides=(dirichlet.RIGHT, dirichlet.LEFT))
    right = dirichlet.beta(mathieu, gap, chain, flow=flow)
    both = dirichlet.beta(mathieu, gap, chain, flow=flow, variant="two_sided")
    assert abs(both.value - 1.0 / math.pi) <= both.error_estimate
    assert abs(both.value - right.value) < 1e-12


def test_swapped_value_raises_naming_gap_and_offsets(monkeypatch, mathieu,
                                                     gap1):
    # one offset's value replaced by an energy 0.47 away, as the scan of
    # the golden gap swaps values at 9.448
    scan = dirichlet._window_scan
    named = []

    def swapped(spec, gap, offsets, *args, **kwargs):
        found = scan(spec, gap, offsets, *args, **kwargs)
        right = found[dirichlet.RIGHT]
        k = next(k for k in range(1, len(right))
                 if len(right[k - 1]) == len(right[k]) == 1)
        mu = right[k][0]
        right[k] = np.array([mu + 0.47 if mu < gap.mid else mu - 0.47])
        named[:] = [float(offsets[k - 1]), float(offsets[k])]
        return found

    monkeypatch.setattr(dirichlet, "_window_scan", swapped)
    with pytest.raises(dirichlet.FlowResolutionError) as err:
        dirichlet.trace_flow(mathieu, gap1, 0.0, 2.0 * math.pi, 0.05, 30.0)
    assert f"({gap1.e_lower:.6g}, {gap1.e_upper:.6g})" in str(err.value)
    assert f"xi = {named[0]!r} and xi = {named[1]!r}" in str(err.value)


@pytest.mark.parametrize("side, mu, leaves, enters", [
    (dirichlet.RIGHT, [0.5, 0.3, 0.05, 0.95, 0.7], dirichlet.EXITS_LOWER,
     dirichlet.ENTERS_UPPER),
    (dirichlet.LEFT, [0.5, 0.7, 0.95, 0.05, 0.3], dirichlet.EXITS_UPPER,
     dirichlet.ENTERS_LOWER),
])
def test_rank_curves_split_exit_and_entry_in_one_step(side, mu, leaves,
                                                      enters):
    # one value leaves and one enters between the third and fourth offset
    gap = Gap(0.0, 1.0)
    xis = np.linspace(0.0, 0.4, 5)
    flow = dirichlet.Flow(gap, xis, {side: [np.array([m]) for m in mu]})
    first, second = flow
    assert first.events == (leaves,) and list(first.mu) == mu[:3]
    assert second.events == (enters,) and list(second.mu) == mu[3:]
    assert list(second.xi) == list(xis[3:])


def test_step_shrinks_to_the_slope_bound(mathieu, gap1):
    # at dxi 0.3 a step between two offsets with one value each has
    # B = 2 sigma dxi > pi; one halving brings it below
    flow = dirichlet.trace_flow(mathieu, gap1, 0.0, 2.0 * math.pi, 0.3, 30.0)
    step = flow.xi[1] - flow.xi[0]
    assert step == pytest.approx(0.15, rel=0.01)
    sigma = 2.0 * math.pi * 2.0 / gap1.width
    assert 2.0 * sigma * 0.3 >= math.pi > 2.0 * sigma * step


def test_second_gap_flow_through_artifact_crossing(mathieu, gap2):
    # near xi = -252 (L = 60) the truncation-artifact branch crosses the
    # genuine curve; its ghost root must not split or distort the curve
    flow = dirichlet.trace_flow(mathieu, gap2, -256.0, -248.0, 0.1, 60.0)
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


def _window_values(spec, gap, offsets, L, sides):
    return dirichlet._window_scan(spec, gap, offsets, L, sides, mu_tol=1e-10,
                                  rtol=1e-11)


@pytest.mark.parametrize("side", [dirichlet.RIGHT, dirichlet.LEFT])
def test_window_scan_matches_single_offset_values(mathieu, gap1, side):
    offsets = np.linspace(0.0, 2.0 * math.pi, 64)
    window = _window_values(mathieu, gap1, offsets, 60.0, (side,))[side]
    single = (dirichlet.right_dirichlet_values if side == dirichlet.RIGHT
              else dirichlet.left_dirichlet_values)
    found = 0
    for k in range(0, 64, 7):
        ref = single(mathieu, float(offsets[k]), gap1, 60.0)
        assert len(window[k]) == len(ref)
        assert np.all(np.abs(window[k] - np.array(ref)) <= 1e-6)
        found += len(ref)
    assert found >= 3


def test_joint_left_values_match_single_offsets_and_oracle(mathieu, gap1):
    # the joint pass runs each LEFT block as the mirror image x -> -x of a
    # RIGHT one, in the same theta_grid call as the RIGHT blocks
    offsets = np.linspace(0.0, 2.0 * math.pi, 64)
    window = _window_values(mathieu, gap1, offsets, 60.0,
                            (dirichlet.RIGHT, dirichlet.LEFT))[dirichlet.LEFT]
    L, h = 60.0, 0.005
    lo, hi = gap1.trimmed()
    found = 0
    for k in range(0, 64, 7):
        ref = dirichlet.left_dirichlet_values(mathieu, float(offsets[k]),
                                              gap1, L)
        assert len(window[k]) == len(ref)
        assert np.all(np.abs(window[k] - np.array(ref)) <= 1e-6)
        # the box oracle keeps in-gap eigenpairs localized at the x = 0 end
        w, v, xs = lattice.fd_eigenvalues(mathieu, 0.0, L, float(offsets[k]),
                                          h, gap1.e_lower, gap1.e_upper,
                                          vectors=True)
        keep = [float(w[i]) for i in range(len(w)) if lo <= w[i] <= hi
                and np.sum(v[xs <= L / 4, i] ** 2) >= 0.5]
        assert len(keep) == len(ref)
        assert np.all(np.abs(np.array(keep) - window[k]) < 5e-4)
        found += len(ref)
    assert found >= 3


def test_mirrored_left_values_match_backward_pass():
    # two incommensurate terms, so that V(-x) is no translate of V; the
    # left values of the joint (mirrored, forward) pass are crossings of
    # the backward pass from +L, whose phase falls with E
    spec = PotentialSpec.cosine_sum([(2.0, 1.0 / (2.0 * math.pi), 0.4),
                                     (0.4, GOLDEN / (2.0 * math.pi), 1.1)])
    lower, upper = mathieu_gap_edges(1)
    margin = 0.2 * (upper - lower)
    gap = Gap(lower + margin, upper - margin)
    offsets = np.linspace(-6.0, 6.0, 121)
    L = 40.0
    left = _window_values(spec, gap, offsets, L,
                          (dirichlet.RIGHT, dirichlet.LEFT))[dirichlet.LEFT]
    xi = np.concatenate([[x] * len(v) for x, v in zip(offsets, left)])
    mu = np.concatenate(left)
    assert len(mu) >= 20

    def backward(e, rows=slice(None)):
        return prufer.theta_grid(spec, e, xi[rows], L, 0.0,
                                 prufer.seed_decaying_right(spec, e, xi[rows],
                                                            L),
                                 rtol=1e-11)

    target = np.round(backward(mu) / math.pi) * math.pi
    ref = prufer.bisect(backward, mu + 1e-6, mu - 1e-6, target, 1e-11)
    assert np.max(np.abs(ref - mu)) < 1e-8


def test_value_next_to_the_artifact_is_polished(caplog):
    # at phi 5.5 the L 30 pass has its artifact in the slab of the left
    # value at -8.7, 0.5254817 (a per-offset root at rtol 1e-11), which the
    # 33-energy scan left 1.2e-5 off as an unpolished estimate
    spec = PotentialSpec.cosine_sum([(2.0, 1.0 / (2.0 * math.pi), 5.5)])
    gap = Gap(*mathieu_gap_edges(1))
    xis = dirichlet._xi_grid(-10.4, 10.4, 0.1)
    with caplog.at_level(logging.DEBUG, logger="gaplab.dirichlet"):
        left = dirichlet._window_scan(
            spec, gap, xis, 30.0, (dirichlet.RIGHT, dirichlet.LEFT),
            mu_tol=1e-7, rtol=1e-8)[dirichlet.LEFT]
    k = int(np.argmin(np.abs(xis + 8.7)))
    assert np.min(np.abs(left[k] - 0.5254817)) < 1e-6
    assert "0 estimates kept unpolished" in caplog.text


def test_spread_artifact_next_to_gap_edge_is_removed():
    # at phi 1.537 the L 30 pass of the first block has its artifact next to
    # the upper edge of gap 2, where the step spreads over many of the
    # fine slabs; its tails must not read as values (the per-offset scans
    # find none at these offsets) nor halve the offset step
    spec = PotentialSpec.cosine_sum([(2.0, 1.0 / (2.0 * math.pi),
                                      1.5371123289416)])
    gap = Gap(*mathieu_gap_edges(2))
    xis = dirichlet._xi_grid(-10.4, 10.4, 0.1)
    right = dirichlet._window_scan(spec, gap, xis, 30.0, (dirichlet.RIGHT,),
                                   mu_tol=1e-7, rtol=1e-8)[dirichlet.RIGHT]
    for k in (3, 49, 66):
        assert len(right[k]) == 0, xis[k]
        assert dirichlet.right_dirichlet_values(spec, float(xis[k]), gap,
                                                30.0) == []
    flow = dirichlet.trace_flow(spec, gap, -10.4, 10.4, 0.1, 30.0,
                                sides=(dirichlet.RIGHT, dirichlet.LEFT))
    assert all(np.allclose(np.diff(c.xi), 0.1) for c in flow if len(c) > 1)


def test_window_artifact_in_gap_is_removed(mathieu, gap1):
    # at L 30 the pass seeded at -40.4 carries its truncation artifact in
    # the trimmed first gap; offset -2.7 also has a genuine value in the
    # artifact's slabs
    offsets = np.linspace(-10.4, 10.4, 209)
    w = dirichlet._window_pass(mathieu, gap1, offsets, 30.0,
                               (dirichlet.RIGHT,), 1e-8)
    a, t = w.artifact[:, 0]
    assert t < len(w.energies)
    e_lo, e_hi = w.energies[a], w.energies[t]
    window = dirichlet._window_scan(mathieu, gap1, offsets, 30.0,
                                    (dirichlet.RIGHT,), mu_tol=1e-8,
                                    rtol=1e-8)[dirichlet.RIGHT]
    assert any(len(v) and e_lo <= v[0] <= e_hi
               for v in window[:len(w.index)])
    for k in (0, 26, 52, 77, 78, 104, 130, 156, 182, 208):
        ref = dirichlet.right_dirichlet_values(mathieu, float(offsets[k]),
                                               gap1, 30.0)
        assert len(window[k]) == len(ref), offsets[k]
        assert np.all(np.abs(window[k] - np.array(ref)) <= 1e-6)


def test_one_offset_window_artifact_in_gap(mathieu, gap1):
    # the pass [-30, 0] has its artifact in the trimmed gap, and offset 0
    # has no right value there (the box oracle agrees, see above)
    w = dirichlet._window_pass(mathieu, gap1, [0.0], 30.0, (dirichlet.RIGHT,),
                               1e-12)
    assert w.artifact[1, 0] < len(w.energies)
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


def test_window_scan_and_phase_lift_log_at_debug_level(caplog, mathieu,
                                                       gap1):
    with caplog.at_level(logging.DEBUG, logger="gaplab.dirichlet"):
        dirichlet.trace_flow(mathieu, gap1, 0.0, 2.0 * math.pi, 0.1, 30.0,
                             sides=(dirichlet.RIGHT, dirichlet.LEFT))
    scans = re.findall(
        r"window scan \(([\w, ]+)\): (\d+) passes, (\d+) crossings, (\d+) "
        r"points in the polish pass, (\d+) Newton passes after it, (\d+) "
        r"certified by the first stencil, (\d+) inverted brackets, (\d+) "
        r"polished at the second truncation, (\d+) estimates kept "
        r"unpolished", caplog.text)
    # both sides in one scan: the window pass, the first stencils, and at
    # most one Newton step; the polish pass takes a stencil of every
    # crossing, and the slab ends too of one next to the artifact
    assert [scan[0] for scan in scans] == ["right, left"]
    (passes, crossings, points, newton, certified, inverted, moved,
     kept) = map(int, scans[0][1:])
    assert passes <= 3 and newton == passes - 2
    assert 2 * crossings + 2 * moved <= points <= 4 * crossings
    assert crossings > 0 and certified + kept <= crossings
    assert inverted == 0 and kept == 0
    folds = re.findall(r"trace_flow: (\w+) lift over 64 offsets, largest "
                       r"fold (\S+) of B", caplog.text)
    assert [side for side, _ in folds] == ["right", "left"]
    assert all(0.0 < float(f) < 1.0 for _, f in folds)


@pytest.mark.parametrize("side", [dirichlet.RIGHT, dirichlet.LEFT])
def test_trace_flow_pass_count(mathieu, gap1, monkeypatch, side):
    # both sides, in either order, share one window pass, one pass with the
    # polishing brackets and the first stencils, and the Newton steps of the
    # few estimates those leave; the per-offset bisection took 31 passes per
    # side, ITP polishing 9, stencil Newton steps with 33 energies 4
    calls = []
    theta_grid = prufer.theta_grid

    def counted(*args, **kwargs):
        calls.append(1)
        return theta_grid(*args, **kwargs)

    monkeypatch.setattr(prufer, "theta_grid", counted)
    other = dirichlet.LEFT if side == dirichlet.RIGHT else dirichlet.RIGHT
    flow = dirichlet.trace_flow(mathieu, gap1, 0.0, 2.0 * math.pi, 0.05,
                                60.0, sides=(side, other))
    assert sorted(c.side for c in flow) == [dirichlet.LEFT, dirichlet.RIGHT]
    assert len(calls) <= 3


def _edge_flow(phase, n):
    # the flow of the edge_labels benchmark: exact edges, L 30, dxi 0.1
    spec = PotentialSpec.cosine_sum([(2.0, 1.0 / (2.0 * math.pi), phase)])
    return dirichlet.trace_flow(spec, Gap(*mathieu_gap_edges(n)), -10.4, 10.4,
                                0.1, 30.0,
                                sides=(dirichlet.RIGHT, dirichlet.LEFT))


def test_polish_pass_evaluates_stencils_and_shared_slab_ends(monkeypatch):
    # the window pass holds the slab ends of a crossing; only one that
    # shares its slab with the artifact takes them again, at the longer
    # truncation, with its stencil
    sizes, shared = [], []
    scan, polish = dirichlet._scan_theta, dirichlet._polish

    def scan_spy(spec, energies, *args):
        sizes.append(np.size(energies))
        return scan(spec, energies, *args)

    def polish_spy(phase, estimate, e_lo, e_hi, ends, share, tol):
        shared.append((len(estimate), int(np.sum(share))))
        return polish(phase, estimate, e_lo, e_hi, ends, share, tol)

    monkeypatch.setattr(dirichlet, "_scan_theta", scan_spy)
    monkeypatch.setattr(dirichlet, "_polish", polish_spy)
    _edge_flow(1.382, 1)
    [(n, s)] = shared
    assert s > 0
    assert sizes[1] == 2 * (n - s) + 4 * s


@pytest.mark.parametrize("phase, n", [(1.382, 1), (2.356, 1), (1.537, 2)])
def test_flow_next_to_spread_artifact_pass_count(monkeypatch, phase, n):
    # estimates pinned at the slab end next to a gap edge, and phases flat
    # to the pass noise: the window pass, the polish pass and at most four
    # Newton passes, where the search once took up to 20 passes
    calls = []
    theta_grid = prufer.theta_grid

    def counted(*args, **kwargs):
        calls.append(1)
        return theta_grid(*args, **kwargs)

    monkeypatch.setattr(prufer, "theta_grid", counted)
    _edge_flow(phase, n)
    assert len(calls) <= 6
