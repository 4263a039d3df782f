import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mathieu_gap_edges
from gaplab import dirichlet, klabel, rotation
from gaplab.potentials import PotentialSpec, WindowChain
from gaplab.spectrum import Gap

ZERO = PotentialSpec.zero()


def chain_400():
    # |window| = 400 at the top
    return WindowChain.geometric(12.5, 2.0, 5)


def test_window_mean_is_last_value_with_last_change_as_bar():
    wm = rotation.window_mean([1.0, 0.5, 0.25])
    assert wm.extrapolated == 0.25
    assert wm.error_estimate == 0.25
    assert wm.window_values == ((0, 1.0), (1, 0.5), (2, 0.25))


def test_window_mean_bar_is_rounding_level_on_flat_values():
    assert rotation.window_mean([1.0, 1.0, 1.0]).error_estimate == 1e-15
    # one window has no change to measure: no bar at all, not a rounding one
    with pytest.raises(ValueError, match="two or more windows"):
        rotation.window_mean([0.7])


@pytest.mark.parametrize("energy, xi, name", [
    (math.nan, 0.0, "energy"), (-math.inf, 0.0, "energy"),
    (-1.0, math.inf, "xi"), (-1.0, math.nan, "xi")])
def test_alpha_refuses_non_finite_arguments(monkeypatch, energy, xi, name):
    # refused before any pass, not as RuntimeWarnings and a math domain error
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(rotation.prufer, "integrate", no_pass)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        rotation.johnson_moser_alpha(ZERO, energy, xi,
                                     WindowChain.geometric(10.0, 1.6, 2))


def test_bump_mean_has_no_boundary_term():
    # a box mean of the slope of 0.3 x + sin x is off by up to 2/|W|, 5e-3 at
    # |W| = 400; the bump mean carries no boundary term, and its error falls
    # faster than any power of |W| (3e-3, 8e-5, 4e-6, 7e-9, 6e-13 here)
    rot = rotation.rotation_number(lambda x: 0.3 * x + math.sin(x),
                                   chain_400())
    errs = [abs(v - 0.3) for _, v in rot.window_values]
    assert all(e1 < 0.05 * e0 for e0, e1 in zip(errs[1:], errs[2:]))
    assert errs[-1] < 1e-11 < rot.error_estimate < 1e-8


def test_lambda_mean_constant_is_exact():
    lm = rotation.lambda_mean(lambda x: 3.25, WindowChain.geometric(10, 1.6, 4))
    for _, v in lm.window_values:
        assert v == pytest.approx(3.25, abs=1e-12)
    assert lm.extrapolated == pytest.approx(3.25, abs=1e-9)


def test_lambda_mean_oscillation_averages_out():
    lm = rotation.lambda_mean(math.sin, chain_400())
    assert abs(lm.extrapolated) < 1e-2


def test_lambda_mean_cos_squared():
    # window mean of cos^2 is 1/2 + sin(|W|)/(2|W|); at |W| = 400 the exact
    # boundary term is 1.06e-3, so the analytic bound is 1/(2*400)
    lm = rotation.lambda_mean(lambda x: math.cos(x) ** 2, chain_400())
    assert abs(lm.window_values[-1][1] - 0.5) <= 1.0 / 800.0 + 1e-9
    assert abs(lm.extrapolated - 0.5) < 2e-3


def test_rotation_number_linear_lift_is_exact():
    rot = rotation.rotation_number(lambda x: 0.3 * x, chain_400())
    assert rot.extrapolated == pytest.approx(0.3, abs=1e-12)


def test_rotation_number_bounded_perturbation():
    rot = rotation.rotation_number(lambda x: 0.3 * x + math.sin(x),
                                   chain_400())
    assert abs(rot.extrapolated - 0.3) < 2e-2
    assert abs(rot.window_values[-1][1] - 0.3) < 2.0 / 400.0


@given(a=st.floats(min_value=-2.0, max_value=2.0),
       amp=st.floats(min_value=0.0, max_value=3.0),
       freq=st.floats(min_value=0.3, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_rotation_invariant_under_bounded_additions(a, amp, freq):
    base = rotation.rotation_number(lambda x: a * x, chain_400())
    bumped = rotation.rotation_number(
        lambda x: a * x + amp * math.cos(freq * x), chain_400())
    tol = base.error_estimate + bumped.error_estimate + 2.0 * (amp + 1e-9) / 400.0
    assert abs(base.extrapolated - bumped.extrapolated) <= tol + 1e-9


def test_rotation_equals_mean_of_derivative():
    chain = chain_400()
    rot = rotation.rotation_number(lambda x: 0.4 * x + 0.2 * math.sin(x),
                                   chain)
    mean = rotation.lambda_mean(lambda x: 0.4 + 0.2 * math.cos(x), chain)
    assert abs(rot.extrapolated - mean.extrapolated) < 1e-3


def test_free_trace_rotation_at_energy_four():
    # the phase lift of the free solution at E = 4 grows at rate 2; the
    # bounded lift oscillation (about 0.34 rad) over |W| = 800 allows ~1e-3
    from gaplab import prufer
    chain = WindowChain.geometric(25.0, 2.0, 5)
    a, b = chain.largest
    tr = prufer.integrate(ZERO, 4.0, 0.0, a - 5.0, b, 0.3)
    rot = rotation.rotation_number(tr.theta_at, chain)
    assert abs(rot.extrapolated - 2.0) < 2e-3
    assert abs(rot.window_values[-1][1] - 2.0) < 2.0 * 0.35 / 800.0 + 1e-9


def test_alpha_free_particle():
    res = rotation.johnson_moser_alpha(ZERO, 1.0)
    assert abs(res.value - 1.0 / math.pi) < 2e-3
    assert abs(res.zero_density_mean.extrapolated - 1.0 / math.pi) < 2e-3
    assert res.regime == "heuristic"


def test_alpha_below_spectrum_vanishes():
    res = rotation.johnson_moser_alpha(ZERO, -2.0)
    assert res.zero_density_mean.extrapolated == 0.0
    assert abs(res.value) < 2e-3
    assert res.regime == "gap_or_below"
    # the phase is constant, so both bars sit at the rounding level
    assert res.error_estimate == res.lift_mean.error_estimate < 1e-14
    assert res.zero_density_mean.error_estimate < 1e-14


def test_alpha_monotone_in_energy(mathieu):
    chain = WindowChain.geometric(25.0, 1.6, 5)
    es = [-1.2, -0.2, 0.65, 1.2, 2.0]
    vals = [rotation.johnson_moser_alpha(mathieu, e, chain=chain).value
            for e in es]
    assert np.all(np.diff(vals) >= -2e-3)


def test_alpha_constant_across_gap(mathieu, gap1):
    chain = WindowChain.geometric(25.0, 1.6, 6)
    lo, hi = gap1.trimmed()
    vals = []
    errs = []
    for e in np.linspace(lo + 0.1 * gap1.width, hi - 0.1 * gap1.width, 4):
        r = rotation.johnson_moser_alpha(mathieu, float(e), chain=chain,
                                         in_gap=True)
        vals.append(r.value)
        errs.append(r.error_estimate)
    assert max(vals) - min(vals) <= max(errs) * 2.0 + 1e-6


def test_alpha_offset_invariance(mathieu, gap1):
    r0 = rotation.johnson_moser_alpha(mathieu, gap1.mid, 0.0, in_gap=True)
    r1 = rotation.johnson_moser_alpha(mathieu, gap1.mid, 2.4, in_gap=True)
    assert abs(r0.value - r1.value) <= r0.error_estimate + r1.error_estimate


def test_alpha_disagreement_names_energy_and_offset(monkeypatch, mathieu,
                                                    gap1):
    monkeypatch.setattr(rotation.prufer, "crossings",
                        lambda *args: np.empty(0))
    with pytest.raises(rotation.InconsistencyError,
                       match=re.escape(f"E={gap1.mid:.10g}, xi=0.7:")):
        rotation.johnson_moser_alpha(mathieu, gap1.mid, 0.7, in_gap=True)


def test_alpha_agrees_with_ids_in_gap(mathieu, gap1, x_chain_long):
    from gaplab import spectrum
    a = rotation.johnson_moser_alpha(mathieu, gap1.mid, chain=x_chain_long,
                                     in_gap=True)
    i = spectrum.ids(mathieu, gap1.mid, x_chain_long)
    assert abs(a.value - i.value) <= a.error_estimate + i.error_estimate


def test_alpha_node_spacing_converged(monkeypatch):
    # halving the quadrature node spacing leaves alpha unchanged to 1e-12
    chain = WindowChain.geometric(25.0, 1.6, 4)
    cases = [(PotentialSpec.cosine_sum([(2.0, 1.0 / (2.0 * math.pi), phase)]),
              Gap(*mathieu_gap_edges(n)).mid)
             for phase in (0.3, 2.0) for n in (1, 2)]
    coarse = [rotation.johnson_moser_alpha(spec, e, chain=chain).value
              for spec, e in cases]
    monkeypatch.setattr(rotation, "NODE_SPACING", rotation.NODE_SPACING / 2)
    fine = [rotation.johnson_moser_alpha(spec, e, chain=chain).value
            for spec, e in cases]
    assert np.max(np.abs(np.subtract(coarse, fine))) < 1e-12


@pytest.mark.parametrize("k, n", [(0, 2), (5, 1), (5, 2), (15, 2)])
def test_chain_labels_within_own_bars(k, n):
    # V = 2 cos(x + phase) at its exact gap-n edges, with the chains of the
    # edge_labels benchmark: every chain label lies within its own bar of
    # n/(2 pi).  At these phases box means with a Richardson step missed.
    phase = 2.0 * math.pi * k / 16 + 0.3
    spec = PotentialSpec.cosine_sum([(2.0, 1.0 / (2.0 * math.pi), phase)])
    gap = Gap(*mathieu_gap_edges(n))
    x_chain = WindowChain.geometric(25.0, 1.6, 4)
    xi_chain = WindowChain.geometric(6.5, 1.6, 2)
    alpha = rotation.johnson_moser_alpha(spec, gap.mid, chain=x_chain,
                                         in_gap=True)
    flow = dirichlet.trace_flow(spec, gap, *xi_chain.largest, 0.1, 30.0,
                                sides=(dirichlet.RIGHT, dirichlet.LEFT))
    labels = [(alpha.value, alpha.error_estimate),
              (alpha.zero_density_mean.extrapolated,
               alpha.zero_density_mean.error_estimate)]
    for variant in ("right_only", "two_sided"):
        b = dirichlet.beta(spec, gap, xi_chain, 0.1, 30.0, variant, flow=flow)
        labels.append((b.value, b.error_estimate))
    pc = klabel.pi_curves(flow, gap, xi_chain)
    bf = klabel.boundary_force(flow, gap, xi_chain)
    labels += [(pc.value, pc.error_estimate), (bf.value, bf.error_estimate)]
    for value, err in labels:
        assert abs(value - n / (2.0 * math.pi)) <= err


def test_alpha_golden_gap_seed_has_contracted():
    # cos(2 pi x + 0.6607) + cos(2 pi g x + 3.2432) in the middle of its
    # ids-1 gap (9.29, 10.36), where gamma is about 0.08: a pad of 25 leaves
    # exp(-4) of the seed's error at the largest window, and alpha 6.8e-7
    # off 1, outside its bar
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    spec = PotentialSpec.cosine_sum([(1.0, 1.0, 0.6607),
                                     (1.0, golden, 3.2432)])
    a = rotation.johnson_moser_alpha(
        spec, 9.82, chain=WindowChain.geometric(25.0, 1.6, 4), in_gap=True)
    assert abs(a.value - 1.0) <= a.error_estimate < 1e-8
