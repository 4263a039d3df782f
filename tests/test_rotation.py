import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import rotation
from gaplab.potentials import PotentialSpec, WindowChain

ZERO = PotentialSpec.zero()


def chain_400():
    # |window| = 400 at the top
    return WindowChain.geometric(12.5, 2.0, 5)


LENGTHS = np.array([1.0, 2.0, 4.0])


def test_window_mean_richardson_step_on_shrinking_tail():
    # differences -0.5, -0.25 shrink like 1/|W|: one step removes them
    wm = rotation.window_mean(LENGTHS, [1.0, 0.5, 0.25])
    assert wm.extrapolated == 0.0
    assert wm.error_estimate == 0.75
    assert wm.window_values == ((0, 1.0), (1, 0.5), (2, 0.25))


def test_window_mean_keeps_last_value_of_oscillating_tail():
    wm = rotation.window_mean(LENGTHS, [0.2, 0.4, 0.3])
    assert wm.extrapolated == 0.3
    assert wm.error_estimate == pytest.approx(0.2, abs=1e-15)


def test_window_mean_bar_respects_floor():
    flat = [1.0, 1.0, 1.0]
    assert rotation.window_mean(LENGTHS, flat).error_estimate == 1e-15
    wm = rotation.window_mean(LENGTHS, flat, floor=0.3)
    assert wm.extrapolated == 1.0
    assert wm.error_estimate == 0.3
    assert rotation.window_mean(LENGTHS, [1.0, 0.5, 0.25],
                                floor=0.3).error_estimate == 0.75


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
    # the window values are flat, so the bars are the count granularity
    # floors over the largest window
    size = WindowChain.geometric().lengths[-1]
    assert res.error_estimate == res.lift_mean.error_estimate >= 0.5 / size
    assert res.zero_density_mean.error_estimate >= 1.0 / size


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
    monkeypatch.setattr(rotation.prufer, "count_zeros", lambda *args: 0)
    with pytest.raises(rotation.InconsistencyError,
                       match=re.escape(f"E={gap1.mid:.10g}, xi=0.7:")):
        rotation.johnson_moser_alpha(mathieu, gap1.mid, 0.7, in_gap=True)


def test_alpha_agrees_with_ids_in_gap(mathieu, gap1, x_chain_long):
    from gaplab import spectrum
    a = rotation.johnson_moser_alpha(mathieu, gap1.mid, chain=x_chain_long,
                                     in_gap=True)
    i = spectrum.ids(mathieu, gap1.mid, x_chain_long)
    assert abs(a.value - i.value) <= a.error_estimate + i.error_estimate
