import math

import numpy as np
import pytest

from gaplab import lattice, prufer, rotation, spectrum
from gaplab.potentials import PotentialSpec, WindowChain

from conftest import mathieu_gap_edges

ZERO = PotentialSpec.zero()


def test_free_box_counts():
    assert spectrum.eigenvalue_count(ZERO, 0.0, math.pi, 0.0, 0.5) == 0
    assert spectrum.eigenvalue_count(ZERO, 0.0, math.pi, 0.0, 2.5) == 1
    assert spectrum.eigenvalue_count(ZERO, 0.0, math.pi, 0.0, 9.5) == 3


def _grid_counts(spec, a, b, energies):
    """Box counts of the numpy theta_grid path, one pass for all energies."""
    theta = prufer.theta_grid(spec, energies, 0.0, a, b, 0.0, rtol=1e-6)
    return np.floor(theta / math.pi + 1e-12).astype(int)


def test_theta_grid_counts_match_scalar():
    es = np.linspace(0.2, 9.7, 23)
    grid = _grid_counts(ZERO, 0.0, math.pi, es)
    for e, c in zip(es, grid):
        assert c == spectrum.eigenvalue_count(ZERO, 0.0, math.pi, 0.0,
                                              float(e))


def test_free_box_eigenvalues():
    eigs = spectrum.dirichlet_eigenvalues(ZERO, 0.0, math.pi, 0.0, -1.0, 10.0)
    assert np.allclose(eigs, [1.0, 4.0, 9.0], atol=1e-8)


def test_eigenvalue_list_consistent_with_counts(mathieu):
    a, b, e_min, e_max = -7.0, 9.0, -1.5, 2.0
    eigs = spectrum.dirichlet_eigenvalues(mathieu, a, b, 0.0, e_min, e_max)
    n = (spectrum.eigenvalue_count(mathieu, a, b, 0.0, e_max)
         - spectrum.eigenvalue_count(mathieu, a, b, 0.0, e_min))
    assert len(eigs) == n


def test_mathieu_box_eigenvalues_against_matrix_oracle(mathieu):
    # first two bands of the [-20, 20] box
    a, b = -20.0, 20.0
    e_min, e_max = -1.2, 0.75
    ours = spectrum.dirichlet_eigenvalues(mathieu, a, b, 0.0, e_min, e_max)
    oracle = lattice.fd_eigenvalues(mathieu, a, b, 0.0, 0.002, e_min, e_max)
    assert len(ours) == len(oracle)
    assert np.max(np.abs(np.asarray(ours) - oracle)) < 5e-4


def _scalar_dirichlet_eigenvalues(spec, a, b, xi, e_min, e_max, tol, rtol):
    """Reference: one scalar bisection per eigenvalue on integrate's phase."""
    def theta_end(e):
        return prufer.integrate(spec, e, xi, a, b, 0.0,
                                rtol=rtol).thetas[-1]

    t_lo, t_hi = theta_end(e_min), theta_end(e_max)
    roots = []
    for k in range(int(math.ceil(t_lo / math.pi - 1e-12)),
                   int(math.floor(t_hi / math.pi + 1e-12)) + 1):
        lo, hi = e_min, e_max
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if theta_end(mid) < k * math.pi:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


def test_dirichlet_eigenvalues_match_scalar_bisection(mathieu):
    args = (mathieu, -10.0, 10.0, 0.3, -1.0, 3.0)
    ref = _scalar_dirichlet_eigenvalues(*args, tol=1e-9, rtol=1e-9)
    ours = spectrum.dirichlet_eigenvalues(*args)
    assert len(ref) >= 3
    assert len(ours) == len(ref)
    assert np.max(np.abs(ours - ref)) <= 1e-9


def test_float_path_searches_evaluate_no_more_energies(mathieu,
                                                      monkeypatch):
    # every energy of _theta_end is a pass of its own, so these searches
    # keep one point per step (no stencil); the counts are those of the
    # single-point ITP search.  dirichlet_eigenvalues hands it the phases of
    # its bracket ends, which it has already computed, and each step
    # evaluates the open brackets only: 188 energies, where evaluating every
    # bracket in all 33 steps took 2 + 33 x 6 and evaluating the ends again
    # 2 + 12 + 32 x 6
    energies = []
    theta_end = spectrum._theta_end

    def counted(*args):
        energies.append(np.size(args[4]))
        return theta_end(*args)

    monkeypatch.setattr(spectrum, "_theta_end", counted)
    spectrum.dirichlet_eigenvalues(mathieu, -10.0, 10.0, 0.0, -1.0, 2.0)
    assert sum(energies) <= 188
    energies.clear()
    gaps = spectrum.detect_gaps(mathieu, -2.0, 2.0, resolution=0.05,
                                chain=WindowChain.geometric(25.0, 1.6, 2))
    assert len(gaps) == 2
    assert sum(energies) <= 72


def test_ids_free_particle():
    res = spectrum.ids(ZERO, 1.0)
    assert abs(res.value - 1.0 / math.pi) < 2e-3
    assert res.error_estimate < 5e-3


def test_ids_below_spectrum_is_zero(mathieu):
    res = spectrum.ids(mathieu, -3.5)
    assert res.value == 0.0


def test_ids_monotone_in_energy(mathieu):
    chain = WindowChain.geometric(25.0, 1.6, 5)
    es = np.linspace(-1.5, 2.5, 9)
    vals = [spectrum.ids(mathieu, float(e), chain).value for e in es]
    assert np.all(np.diff(vals) >= -1e-12)


def test_ids_translate_invariance(mathieu, gap2):
    r0 = spectrum.ids(mathieu, gap2.mid, xi=0.0)
    r1 = spectrum.ids(mathieu, gap2.mid, xi=1.7)
    assert abs(r0.value - r1.value) <= r0.error_estimate + r1.error_estimate


def test_mathieu_gap_ids_periodic_labels(mathieu, gap1, gap2, x_chain_long):
    for n, gap in ((1, gap1), (2, gap2)):
        res = spectrum.ids(mathieu, gap.mid, x_chain_long)
        assert abs(res.value - n / (2.0 * math.pi)) < 1e-3


def test_box_counts_near_gap_edges_are_exact(mathieu, x_chain_long):
    # 3e-5 inside gap 1's lower edge, a phase tolerance relative to |theta|
    # counted 513 states of the 546.85 there
    a, b = x_chain_long.largest
    for n in (1, 2):
        lo, hi = mathieu_gap_edges(n)
        for d in (1e-3, 3e-4, 1e-4, 3e-5):
            for e in (lo + d, hi - d):
                count = spectrum.eigenvalue_count(mathieu, a, b, 0.0, e,
                                                  rtol=1e-6)
                assert (abs(count - n * (b - a) / (2.0 * math.pi))
                        <= spectrum.PLATEAU_STATES), (n, e)


def test_ids_near_gap_edge_within_its_bar(mathieu, x_chain_long):
    # read 0.149303 +- 4.9e-3 with the relative phase tolerance, 2 bars off
    res = spectrum.ids(mathieu, mathieu_gap_edges(1)[0] + 3e-5, x_chain_long)
    assert abs(res.value - 1.0 / (2.0 * math.pi)) <= res.error_estimate


def test_detect_gaps_free_is_empty():
    assert spectrum.detect_gaps(ZERO, 0.0, 10.0, resolution=0.05) == []


def test_detect_gaps_requires_positive_resolution(mathieu):
    with pytest.raises(ValueError):
        spectrum.detect_gaps(mathieu, 0.0, 1.0, resolution=0.0)


@pytest.mark.parametrize("e_min, e_max, resolution, message", [
    (2.0, -2.0, 0.02, "need finite e_min < e_max"),
    (-2.0, -2.0, 0.02, "need finite e_min < e_max"),
    (-2.0, math.inf, 0.02, "need finite e_min < e_max"),
    (math.nan, 2.0, 0.02, "need finite e_min < e_max"),
    (-2.0, 2.0, math.inf, "resolution must be positive and finite"),
    (-2.0, 2.0, math.nan, "resolution must be positive and finite"),
])
def test_detect_gaps_refuses_bad_scan_fields(mathieu, e_min, e_max,
                                             resolution, message):
    # gaps 1 and 2 lie in [-2, 2]: a range or resolution that cannot be
    # scanned is refused, not read as "no gap"
    with pytest.raises(ValueError, match=message):
        spectrum.detect_gaps(mathieu, e_min, e_max, resolution=resolution)


def test_gap_scan_is_one_pass(mathieu, monkeypatch):
    # the multi-energy theta_grid calls of a scan tile [a - PAD, b] once,
    # so no part of the box is integrated twice
    spans = []
    theta_grid = prufer.theta_grid

    def spy(spec, energies, offsets, x_start, x_end, *args, **kwargs):
        if np.size(energies) > 1:
            spans.append((x_start, float(np.ravel(x_end)[-1]),
                          np.size(energies)))
        return theta_grid(spec, energies, offsets, x_start, x_end, *args,
                          **kwargs)

    monkeypatch.setattr(prufer, "theta_grid", spy)
    monkeypatch.setattr(spectrum, "SEGMENT", 100)
    chain = WindowChain.geometric(25.0, 1.6, 3)
    gaps = spectrum.detect_gaps(mathieu, -2.0, 2.0, resolution=0.05,
                                chain=chain)
    assert len(gaps) == 2
    a, b = chain.largest
    starts, ends, sizes = zip(*spans)
    assert len(spans) == 3   # 257 nodes, landed 100 at a time
    assert starts[0] == a - rotation.PAD and ends[-1] == b
    assert starts[1:] == ends[:-1]
    assert set(sizes) == {81}


def test_detect_gaps_golden_ids1_gap_is_one_gap():
    # ids-1 gap (9.3569, 10.3606); the 205-long window holds one box state
    # per 0.04 in E next to it, too few for its counts to place the edges
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    spec = PotentialSpec.cosine_sum([(1.0, 1.0, 2.0), (1.0, golden, 0.5)])
    gaps = spectrum.detect_gaps(spec, -2.0, 12.0, resolution=0.02,
                                chain=WindowChain.geometric(25.0, 1.6, 4))
    assert len(gaps) == 1
    assert 9.3569 < gaps[0].e_lower < gaps[0].e_upper < 10.3606


def test_detect_gaps_short_chain_edges(mathieu):
    # a 90-long largest window: the pad before it keeps the Dirichlet
    # start's transient out of rho, which would split or lose a gap
    gaps = spectrum.detect_gaps(mathieu, -1.5, 3.0, resolution=0.04,
                                chain=WindowChain.geometric(20.0, 1.5, 3))
    assert len(gaps) == 3
    for n, gap in enumerate(gaps, start=1):
        lo, hi = mathieu_gap_edges(n)
        assert abs(gap.e_lower - lo) < 0.04 and abs(gap.e_upper - hi) < 0.04


def test_detected_gap_edges_match_band_oracle(mathieu_gaps):
    for n, gap in enumerate(mathieu_gaps[:3], start=1):
        lo, hi = mathieu_gap_edges(n)
        assert abs(gap.e_lower - lo) < 1e-2
        assert abs(gap.e_upper - hi) < 1e-2
        assert gap.confidence == "confirmed"


def test_detected_gap_1_lower_edge_is_exact(mathieu_gaps):
    # was 8.1e-5 inside the gap with the relative phase tolerance
    lower = mathieu_gaps[0].e_lower
    assert abs(lower - mathieu_gap_edges(1)[0]) < 1e-5


def test_floquet_oracle_agrees_with_special_functions(mathieu):
    bands = lattice.floquet_band_edges(mathieu, 2.0 * math.pi, 0.005, 3)
    # gap edges are consecutive band boundaries
    for n in (1, 2):
        lo, hi = mathieu_gap_edges(n)
        assert bands[n - 1][1] == pytest.approx(lo, abs=2e-4)
        assert bands[n][0] == pytest.approx(hi, abs=2e-4)


def test_gap_plateau_invariant(mathieu, gap1):
    # the count on the largest default window is flat across the trimmed gap
    chain = WindowChain.geometric()
    a, b = chain.largest
    lo, hi = gap1.trimmed()
    es = np.linspace(lo, hi, 9)
    counts = _grid_counts(mathieu, a, b, es)
    assert counts.max() - counts.min() <= spectrum.PLATEAU_STATES


def test_gap_interior_eigenvalue_density_vanishes(mathieu, gap1):
    # box eigenvalues strictly inside the trimmed gap stay O(1) as the box
    # grows
    lo, hi = gap1.trimmed()
    for L in (40.0, 80.0):
        eigs = spectrum.dirichlet_eigenvalues(mathieu, -L, L, 0.0, lo, hi)
        assert len(eigs) <= 2


def test_gap_type_validation():
    with pytest.raises(ValueError):
        spectrum.Gap(1.0, 0.5)
    # Gap(-1.06, inf) once reached pi_trace, which ran for 25 s and read
    # gap 1 of 2 cos x as 0.0 +- 1e-5
    for lower, upper in ((-1.06, math.inf), (-math.inf, 0.58),
                         (math.nan, 0.58), (-1.06, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            spectrum.Gap(lower, upper)
    g = spectrum.Gap(0.0, 2.0)
    assert g.mid == 1.0
    assert g.trimmed() == (0.02, 1.98)


@pytest.mark.parametrize("energy, xi, name", [
    (math.nan, 0.0, "energy"), (math.inf, 0.0, "energy"),
    (-1.0, math.inf, "xi"), (-1.0, math.nan, "xi")])
def test_counts_refuse_non_finite_arguments(monkeypatch, energy, xi, name):
    # refused before any pass, not as a step underflow of the integrator
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran")

    monkeypatch.setattr(prufer, "theta_grid", no_pass)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        spectrum.eigenvalue_count(ZERO, -25.0, 25.0, xi, energy)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        spectrum.ids(ZERO, energy, WindowChain.geometric(10.0, 1.6, 2), xi)


def test_count_zeros_equals_eigenvalue_count(mathieu):
    # oscillation equivalence: the zero count of the theta(a) = 0 trace is
    # the box eigenvalue count, exactly
    for (a, b, e) in ((-9.0, 4.0, 1.3), (0.0, 17.0, -0.5), (-6.0, 6.0, 2.2)):
        tr = prufer.integrate(mathieu, e, 0.0, a, b, 0.0)
        assert (len(prufer.crossings(tr, a, b))
                == spectrum.eigenvalue_count(mathieu, a, b, 0.0, e))
