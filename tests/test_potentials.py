import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import potentials as P
from gaplab.potentials import PotentialSpec, WindowChain

finite = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
term = st.tuples(st.floats(min_value=-5.0, max_value=5.0),
                 st.floats(min_value=0.01, max_value=3.0),
                 st.floats(min_value=-math.pi, max_value=math.pi))


def test_zero_potential_evaluates_to_zero():
    assert P.evaluate(PotentialSpec.zero(), 3.7, 1.2) == 0.0


def test_cosine_at_origin_is_amplitude():
    spec = PotentialSpec.cosine_sum([(2.0, 1.0 / (2 * math.pi), 0.0)])
    assert P.evaluate(spec, 0.0, 0.0) == 2.0


def test_translate_identity_example():
    spec = PotentialSpec.cosine_sum([(1.0, 0.5, 0.3)])
    assert P.evaluate(spec, 1.1, 0.4) == P.evaluate(spec, 1.1 + 0.4, 0.0)


@given(x=finite, xi=finite, terms=st.lists(term, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_translate_identity_bit_for_bit(x, xi, terms):
    spec = PotentialSpec.cosine_sum(terms)
    assert P.evaluate(spec, x, xi) == P.evaluate(spec, x + xi, 0.0)


@given(x=finite, xi=finite, terms=st.lists(term, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_amplitude_and_slope_bounds(x, xi, terms):
    spec = PotentialSpec.cosine_sum(terms)
    assert abs(P.evaluate(spec, x, xi)) <= P.amplitude_bound(spec) + 1e-12


@pytest.mark.parametrize("terms, attained", [
    ([(2.0, 1.0 / (2 * math.pi), 0.3)], True),
    ([(-1.5, 0.7, 1.1)], True),
    ([(1.0, 2.0 / 3.0, 0.1), (0.5, 1.0 / 3.0, -0.4)], False),
    ([(1.0, 1.0, 0.0), (0.8, (math.sqrt(5.0) - 1.0) / 2.0, 0.5)], False),
])
def test_slope_bound_against_finite_differences(terms, attained):
    spec = PotentialSpec.cosine_sum(terms)
    xs = np.linspace(-20.0, 20.0, 400_001)
    slope = np.max(np.abs(np.gradient(P.evaluate(spec, xs), xs)))
    bound = P.slope_bound(spec)
    assert slope <= bound
    if attained:
        assert slope >= 0.99 * bound


def test_slope_bound_of_zero_potential():
    assert P.slope_bound(PotentialSpec.zero()) == 0.0


def test_rationally_related_frequencies_are_periodic():
    # frequencies 2/3 and 1/3 per unit length: common period 3
    spec = PotentialSpec.cosine_sum([(1.0, 2.0 / 3.0, 0.1),
                                     (0.5, 1.0 / 3.0, -0.4)])
    xs = np.linspace(-7.0, 7.0, 101)
    a = P.evaluate(spec, xs)
    b = P.evaluate(spec, xs + 3.0)
    assert np.allclose(a, b, atol=1e-12)


def test_mean_value_zero_frequency_term():
    spec = PotentialSpec.cosine_sum([(2.0, 0.0, 0.5)])
    assert P.mean_value(spec, -4.0, 9.0) == pytest.approx(2.0 * math.cos(0.5))


def test_mean_value_oscillation_averages_out():
    spec = PotentialSpec.cosine_sum([(1.0, 1.0, 0.0)])
    assert abs(P.mean_value(spec, -50.0, 50.0)) < 1e-2
    assert P.mean_value(spec, 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_translate_spec_matches_offset_evaluation():
    spec = PotentialSpec.cosine_sum([(1.0, 0.31, 0.2), (0.4, 0.77, -1.0)])
    moved = P.translate(spec, 2.5)
    xs = np.linspace(-3.0, 3.0, 41)
    assert np.allclose(P.evaluate(moved, xs), P.evaluate(spec, xs, 2.5),
                       atol=1e-12)


def test_scalar_evaluator_agrees_with_evaluate():
    spec = PotentialSpec.cosine_sum([(1.0, 0.31, 0.2), (0.4, 0.77, -1.0)])
    f = P.scalar_evaluator(spec, xi=0.7)
    for x in (-2.0, 0.0, 1.3, 5.5):
        assert f(x) == pytest.approx(P.evaluate(spec, x, 0.7), abs=1e-14)


def test_offset_evaluator_agrees_with_evaluate():
    spec = PotentialSpec.cosine_sum([(1.0, 0.31, 0.2), (0.4, 0.77, -1.0)])
    xi = np.array([[-1.1, 0.0], [0.7, 2.4]])
    xs = np.array([-2.0, 0.0, 1.3, 5.5])
    for mirror, sign in ((False, 1.0), (True, -1.0)):
        v = P.offset_evaluator(spec, xi, mirror)
        for x in xs:
            assert np.allclose(v(x), P.evaluate(spec, sign * x, xi),
                               rtol=0.0, atol=1e-14)
        # an array of x gives a leading axis
        assert v(xs).shape == (4, 2, 2)
        assert np.allclose(v(xs), P.evaluate(spec, sign * xs[:, None, None],
                                             xi), rtol=0.0, atol=1e-14)


def test_potential_validation():
    with pytest.raises(ValueError):
        PotentialSpec("squarewell")
    with pytest.raises(ValueError):
        PotentialSpec("cosine_sum", ())
    with pytest.raises(ValueError):
        PotentialSpec("zero", ((1.0, 1.0, 0.0),))


def test_geometric_chain_matches_definition():
    chain = WindowChain.geometric()
    assert len(chain) == 8
    a0, b0 = chain.windows[0]
    assert (a0, b0) == (-25.0, 25.0)
    for n, (a, b) in enumerate(chain.windows):
        assert b == pytest.approx(25.0 * 1.6 ** n)
        assert a == pytest.approx(-25.0 * 1.6 ** n)


@given(half=st.floats(min_value=0.5, max_value=40.0),
       ratio=st.floats(min_value=1.05, max_value=3.0),
       count=st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_geometric_chain_invariants(half, ratio, count):
    chain = WindowChain.geometric(half, ratio, count)
    for (a0, b0), (a1, b1) in zip(chain.windows, chain.windows[1:]):
        assert a1 <= a0 and b0 <= b1
    for a, b in chain.windows:
        assert b > a


def test_chain_validation_rejects_non_nested():
    with pytest.raises(ValueError):
        WindowChain(((-1.0, 1.0), (-0.5, 2.0)))
    with pytest.raises(ValueError):
        WindowChain(((1.0, 1.0),))
    with pytest.raises(ValueError):
        WindowChain(())


def test_non_finite_terms_and_chain_parameters_are_rejected():
    for bad in ((math.nan, 1.0, 0.0), (2.0, math.inf, 0.0),
                (2.0, 1.0, -math.inf)):
        with pytest.raises(ValueError, match="terms"):
            PotentialSpec.cosine_sum([(1.0, 0.5, 0.0), bad])
    # an infinite half-width or ratio gave the window (-inf, inf)
    for half, ratio in ((math.inf, 1.6), (25.0, math.inf), (math.nan, 1.6),
                        (25.0, math.nan)):
        with pytest.raises(ValueError, match="half_width"):
            WindowChain.geometric(half, ratio, 4)
    # WindowChain(((0, inf),)) once reached ids as a math domain error and
    # alpha as a StiffnessError
    for windows in (((0.0, math.inf),), ((-math.inf, 0.0),),
                    ((math.nan, 1.0),), ((-1.0, 1.0), (-2.0, math.inf))):
        with pytest.raises(ValueError, match="finite a < b"):
            WindowChain(windows)
