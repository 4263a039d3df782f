"""Shared fixtures.

The expensive artifacts (gap detection, the spectral flow over the default
offset chain) are computed once per session; the cosine-potential band edges
from scipy.special serve as the independent analytic oracle throughout.
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.special import mathieu_a, mathieu_b

from gaplab import dirichlet, spectrum
from gaplab.potentials import PotentialSpec, WindowChain

# The property tests draw the same examples on every run, so that a
# numerical change cannot pass or fail them by the luck of the draw.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

Q_MATHIEU = 4.0  # V = 2 cos x maps to characteristic values at q = 4


def mathieu_gap_edges(n: int) -> tuple[float, float]:
    """Exact edges of the n-th gap of V = 2 cos x, from scipy.special."""
    return (float(mathieu_b(n, Q_MATHIEU)) / 4.0,
            float(mathieu_a(n, Q_MATHIEU)) / 4.0)


@pytest.fixture(scope="session")
def mathieu():
    return PotentialSpec.cosine_sum([(2.0, 1.0 / (2.0 * math.pi), 0.0)])


@pytest.fixture(scope="session")
def zero():
    return PotentialSpec.zero()


@pytest.fixture(scope="session")
def mathieu_gaps(mathieu):
    gaps = spectrum.detect_gaps(mathieu, -2.0, 3.0, resolution=0.02)
    assert len(gaps) >= 2
    return gaps


@pytest.fixture(scope="session")
def gap1(mathieu_gaps):
    return mathieu_gaps[0]


@pytest.fixture(scope="session")
def gap2(mathieu_gaps):
    return mathieu_gaps[1]


@pytest.fixture(scope="session")
def xi_chain():
    return dirichlet.default_xi_chain()


@pytest.fixture(scope="session")
def flow_gap1(mathieu, gap1, xi_chain):
    """Both curve families over the largest default offset window."""
    a, b = xi_chain.largest
    return dirichlet.trace_flow(mathieu, gap1, a, b, 0.1, 60.0,
                                sides=(dirichlet.RIGHT, dirichlet.LEFT))


@pytest.fixture(scope="session")
def flow_gap1_period(mathieu, gap1):
    """One-period flow at finer offset resolution, for local checks."""
    return dirichlet.trace_flow(mathieu, gap1, 0.0, 2.0 * math.pi, 0.05,
                                60.0, sides=(dirichlet.RIGHT, dirichlet.LEFT))


@pytest.fixture(scope="session")
def x_chain_long():
    return WindowChain.geometric(25.0, 1.6, 10)
