import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, lapack

from gaplab import dirichlet, klabel, lattice, potentials, rotation
from gaplab.potentials import PotentialSpec, WindowChain
from gaplab.spectrum import Gap

from conftest import mathieu_gap_edges

ZERO = PotentialSpec.zero()


def test_halfline_free_box_spectrum():
    op = klabel.build_halfline(ZERO, 0.0, math.pi, math.pi / 1000)
    w = eigvalsh_tridiagonal(op.diag, op.offdiag, select="i",
                             select_range=(0, 0))
    assert abs(float(w[0]) - 1.0) < 1e-4


def test_halfline_diagonal_entries_exact(mathieu):
    op = klabel.build_halfline(mathieu, 0.7, 10.0, 0.01)
    expected = 2.0 / op.h ** 2 + potentials.evaluate(mathieu, op.xs, 0.7)
    assert np.array_equal(op.diag, expected)
    assert np.all(op.offdiag == -1.0 / op.h ** 2)


def test_halfline_second_order_convergence():
    errs = []
    for h in (math.pi / 500, math.pi / 1000):
        op = klabel.build_halfline(ZERO, 0.0, math.pi, h)
        w = eigvalsh_tridiagonal(op.diag, op.offdiag, select="i",
                                 select_range=(0, 0))
        errs.append(abs(float(w[0]) - 1.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_halfline_validation(mathieu):
    with pytest.raises(ValueError):
        klabel.build_halfline(mathieu, 0.0, 60.0, 0.2)  # too coarse
    with pytest.raises(ValueError):
        klabel.build_halfline(ZERO, 0.0, 60.0, 0.0101)
    with pytest.raises(klabel.ResourceLimitError):
        klabel.build_halfline(ZERO, 0.0, 60000.0, 0.01)


def test_edge_projector_empty_below_free_spectrum():
    op = klabel.build_halfline(ZERO, 0.0, 40.0, 0.01)
    unit = klabel.edge_projector(op, Gap(-3.0, -0.5))
    assert unit.rank == 0


def test_edge_projector_matches_shooting_root(mathieu, gap1):
    xi = 3.93
    unit = klabel.edge_projector(
        klabel.build_halfline(mathieu, xi, 60.0, 0.01), gap1)
    assert unit.rank == 1
    shooting = dirichlet.right_dirichlet_values(mathieu, xi, gap1, 60.0)
    assert abs(float(unit.eigenvalues[0]) - shooting[0]) < 5e-4
    assert abs(abs(unit.phases[0]) - 1.0) < 1e-12


def test_edge_projector_truncation_invariance(mathieu, gap1):
    xi = 3.93
    r1 = klabel.edge_projector(
        klabel.build_halfline(mathieu, xi, 60.0, 0.01), gap1).rank
    r2 = klabel.edge_projector(
        klabel.build_halfline(mathieu, xi, 90.0, 0.01), gap1).rank
    assert r1 == r2


def test_edge_projector_orthonormal_basis(mathieu, gap1):
    unit = klabel.edge_projector(
        klabel.build_halfline(mathieu, 3.93, 60.0, 0.01), gap1)
    gram = unit.vectors.T @ unit.vectors
    assert np.allclose(gram, np.eye(unit.rank), atol=1e-10)


def test_pi_trace_zero_without_edge_states():
    fake_gap = Gap(-3.0, -0.5)
    res = klabel.pi_trace(ZERO, fake_gap, (0.0, 1.0), 0.1, 20.0, 0.01)
    assert res.value == 0.0
    assert res.imag_residue == 0.0


def test_pi_trace_first_gap(mathieu, gap1):
    res = klabel.pi_trace(mathieu, gap1, (0.0, 2.0 * math.pi), 0.05)
    assert abs(res.value - 1.0 / (2.0 * math.pi)) < 2e-2
    assert res.imag_residue < 1e-3


def _shifted_mathieu(n: int, phase: float):
    spec = PotentialSpec.cosine_sum([(2.0, 1.0 / (2.0 * math.pi), phase)])
    return spec, Gap(*mathieu_gap_edges(n))


def test_pi_trace_within_error_bar_at_flat_phase():
    # the edge state is nearly flat at the start of this window
    spec, gap = _shifted_mathieu(1, 2.977)
    res = klabel.pi_trace(spec, gap, (-math.pi, math.pi), 0.05, 60.0, 0.01)
    assert abs(res.value - 1.0 / (2.0 * math.pi)) <= res.error_estimate


def test_pi_trace_second_gap_short_halfline():
    spec, gap = _shifted_mathieu(2, 0.393)
    res = klabel.pi_trace(spec, gap, (-math.pi, math.pi), 0.1, 30.0, 0.01)
    assert abs(res.value - 1.0 / math.pi) <= res.error_estimate


@pytest.mark.parametrize("n, phase", [(2, 2.75), (1, 4.0)])
def test_pi_trace_exact_on_whole_periods(n, phase):
    # the settings of the edge_labels benchmark: the window holds two
    # periods, so the end differences telescope to the crossing count
    spec, gap = _shifted_mathieu(n, phase)
    res = klabel.pi_trace(spec, gap, (-2.0 * math.pi, 2.0 * math.pi), 0.05,
                          60.0, 0.005)
    assert abs(res.value - n / (2.0 * math.pi)) < 1e-12
    assert res.error_estimate < 1e-4
    assert len(res.phase) == len(res.xi_nodes) == len(res.retained_counts)


def test_pi_trace_abort_names_gap_and_window():
    # box end differences are exact on whole periods only: (-3, 3) holds
    # six of 2 cos 2 pi x, (-pi, pi) does not
    spec, gap = PotentialSpec.cosine_sum([(2.0, 1.0, 0.0)]), Gap(8.84, 10.8934)
    with pytest.raises(klabel.NumericalDifferentiationError,
                       match=r"in gap \(8\.84, 10\.8934\) "
                             r"on xi window \(-3\.14159, 3\.14159\)$"):
        klabel.pi_trace(spec, gap, (-math.pi, math.pi), 0.05, 60.0, 0.01)
    res = klabel.pi_trace(spec, gap, (-3.0, 3.0), 0.05, 60.0, 0.01)
    assert abs(res.value - 1.0) < 1e-12
    assert res.imag_residue < 1e-12


@pytest.mark.parametrize("phase", [0.1, 2.977])
@pytest.mark.parametrize("n, max_nodes", [(1, 30), (2, 45)])
def test_pi_trace_node_choice_at_edge_trace_settings(n, max_nodes, phase):
    # the nodes come from the slope bound and the counts alone, so dxi does
    # not move them
    spec, gap = _shifted_mathieu(n, phase)
    res = klabel.pi_trace(spec, gap, (-math.pi, math.pi), 0.05, 60.0, 0.01)
    assert abs(res.value - n / (2.0 * math.pi)) < 1e-12
    assert len(res.xi_nodes) <= max_nodes
    coarse = klabel.pi_trace(spec, gap, (-math.pi, math.pi), 0.4, 60.0, 0.01)
    assert np.array_equal(coarse.xi_nodes, res.xi_nodes)


@pytest.mark.parametrize("phase", [0.1, 2.977, 4.0])
@pytest.mark.parametrize("n, fold_nodes", [(1, 25), (2, 39)])
def test_pi_trace_counts_halve_the_solves(monkeypatch, n, fold_nodes, phase):
    # at the edge_trace settings the fold rule alone solved 25-26 units per
    # trace on gap 1 and 39-40 on gap 2; the count rule steps by
    # 0.8 |gap|/sup|V'| whatever the ranks
    spec, gap = _shifted_mathieu(n, phase)
    seen = _recording_projector(monkeypatch)
    res = klabel.pi_trace(spec, gap, (-math.pi, math.pi), 0.05, 60.0, 0.01)
    assert abs(res.value - n / (2.0 * math.pi)) < 1e-12
    assert 2 * len(seen) <= fold_nodes


@pytest.mark.parametrize("n, h", [(1, 0.01), (2, 0.01), (1, 0.005),
                                  (2, 0.005)])
def test_count_below_matches_sturm_oracle_at_gap_edges(n, h):
    # the half-lines of the edge_trace (h 0.01) and edge_labels (h 0.005)
    # settings, at both gap edges and several offsets
    spec, gap = _shifted_mathieu(n, 0.7)
    for xi in (-2.0 * math.pi, -1.3, 0.4, 2.9):
        op = klabel.build_halfline(spec, xi, 60.0, h)
        for e in (gap.e_lower, gap.e_upper):
            assert (lattice.count_below(op.diag, op.offdiag, e)
                    == lattice.sturm_count(op.diag, float(op.offdiag[0]), e))


def test_count_below_random_tridiagonals():
    # off-diagonals of either sign; most eliminations swap rows somewhere
    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(3, 30))
        d, e = 2.0 * rng.standard_normal(n), rng.standard_normal(n - 1)
        w = eigvalsh_tridiagonal(d, e)
        energy = rng.uniform(w[0] - 1.0, w[-1] + 1.0)
        assert lattice.count_below(d, e, energy) == np.sum(w < energy)
        assert (lattice.count_below(d, np.full(n - 1, e[0]), energy)
                == lattice.sturm_count(d, float(e[0]), energy))
    # a zero pivot at an exact eigenvalue: -sqrt 2, 0 and sqrt 2
    assert lattice.count_below(np.zeros(3), np.ones(2), 0.0) == 1
    # 3 rows is the smallest size: dgttrf's wrapper refuses 1 and 2
    assert lattice.count_below(np.array([0.0, 1.0, 2.0]), -np.ones(2),
                               1.5) == 2
    with pytest.raises(ValueError, match="3 rows"):
        lattice.count_below(np.zeros(2), np.ones(1), 0.0)


def _counted(counts, flags):
    """A unit that carries only the counts and flags _wraps reads."""
    return klabel.EdgeUnitary(Gap(0.0, 1.0), np.empty(0), np.empty((3, 0)),
                              _counts=counts, _flags=np.array(flags, bool))


def test_wraps_names_the_retained_crossings_at_each_edge():
    # the node before holds two in-gap branches, the higher one retained
    before = _counted((5, 7), [False, True])
    assert klabel._wraps(before, _counted((5, 6), [False])) == 1
    assert klabel._wraps(before, _counted((5, 8), [False, True, True])) == -1
    assert klabel._wraps(before, _counted((4, 7), [False, False, True])) == 0
    assert klabel._wraps(before, _counted((5, 7), [True, False])) == 0
    # three branches leaving, or entering, through two: one crossed the gap
    assert klabel._wraps(before, _counted((8, 9), [True])) is None
    assert klabel._wraps(before, _counted((2, 3), [True])) is None
    # a retained state appears or vanishes inside the gap
    assert klabel._wraps(before, _counted((5, 7), [False, False])) is None
    assert klabel._wraps(before, _counted((5, 6), [True])) is None
    # a unit without flags is read by the fold rule
    assert klabel._wraps(before, replace(before, _flags=None)) is None


def test_edge_projector_flags_no_branch_of_a_mirror_mixture():
    # at xi = L/2 the mirror-degenerate in-gap vectors are mixtures of the
    # boundary and the truncation state, so the retained state is no single
    # branch; a little off the mirror point it is one
    spec, gap = _shifted_mathieu(2, 0.0)
    mixed = klabel.edge_projector(klabel.build_halfline(spec, 30.0, 60.0,
                                                        0.01), gap)
    assert mixed.rank == 1 and mixed._flags is None
    near = klabel.edge_projector(klabel.build_halfline(spec, 29.7, 60.0, 0.01),
                                 gap)
    assert near._counts == mixed._counts
    assert list(near._flags) == [False, True] and near.rank == 1


def test_pi_trace_unresolved_appearance_names_interval(monkeypatch, mathieu,
                                                        gap1):
    # a state appearing mid-gap (at phase pi) past xi = c is no motion the
    # slope bound allows at any step, so halving must corner it
    c, h = 0.4321, 0.01
    real = klabel.edge_projector

    def with_appearance(op, gap, mass_threshold=0.5, *, start=None):
        unit = real(op, gap, mass_threshold, start=start)
        if op.xi <= c:
            return unit
        mid = np.append(unit.eigenvalues, gap.e_lower + gap.width / 2.0)
        return klabel.EdgeUnitary(gap, np.sort(mid), unit.vectors)

    monkeypatch.setattr(klabel, "edge_projector", with_appearance)
    with pytest.raises(dirichlet.FlowResolutionError) as info:
        klabel.pi_trace(mathieu, gap1, (0.0, 2.0), 0.05, 20.0, h)
    lo, hi = map(float, re.search(r"between xi = (\S+) and xi = (\S+)$",
                                  str(info.value)).groups())
    assert lo <= c < hi
    assert hi - lo <= h


def test_pi_trace_logs_nodes_at_debug_level(caplog, mathieu, gap1):
    with caplog.at_level(logging.DEBUG, logger="gaplab.klabel"):
        res = klabel.pi_trace(mathieu, gap1, (0.0, 2.0), 0.05, 20.0, 0.01)
    steps = len(res.xi_nodes) - 1
    assert (f"{steps + 1} nodes solved, 0 steps shortened, {steps} steps "
            "lifted by counts, 0 by the fold rule") in caplog.text
    assert "window (0.0, 2.0)" in caplog.text
    # at the edge_trace settings every node, the first and those a state
    # enters included, is certified without eigh_tridiagonal
    for n in (1, 2):
        caplog.clear()
        spec, gap = _shifted_mathieu(n, 0.1)
        with caplog.at_level(logging.DEBUG, logger="gaplab.klabel"):
            klabel.pi_trace(spec, gap, (-math.pi, math.pi), 0.05, 60.0, 0.01)
        (nodes, cold, sturms, bisections, solves, residuals, starts,
         bisected) = map(int, re.search(
             r"(\d+) nodes solved, .* (\d+) cold eigensolves, "
             r"(\d+) Sturm counts, (\d+) gap bisections, "
             r"(\d+) tridiagonal solves, (\d+) explicit residuals, "
             r"(\d+) inverse-iteration starts, (\d+) states bisected",
             caplog.text).groups())
        assert cold == 0
        assert solves > 0 and bisected > 0
        # one start per bisected state; two Sturm counts per node, and a
        # bisection of the gap only where they hold more states than the
        # node before left in it; about one residual per vector
        assert starts == bisected
        assert sturms == 2 * nodes
        assert 0 < bisections < nodes
        assert 0 < residuals < solves / 2


def _count(op, gap):
    """Eigenvalues of op in the gap, the count _continue certifies against."""
    return (lattice.count_below(op.diag, op.offdiag, gap.e_upper)
            - lattice.count_below(op.diag, op.offdiag, gap.e_lower))


def _cold_trace(monkeypatch, spec, gap, window, h):
    """pi_trace with every node solved by eigh_tridiagonal."""
    monkeypatch.setattr(klabel, "_continue",
                        lambda op, gap, start, count: (None, None, 0, 0))
    res = klabel.pi_trace(spec, gap, window, 0.05, 60.0, h)
    monkeypatch.undo()
    return res


def _recording_projector(monkeypatch):
    """Records (op, start, unit) of every edge_projector call."""
    real, seen = klabel.edge_projector, []

    def recording(op, gap, mass_threshold=0.5, *, start=None):
        unit = real(op, gap, mass_threshold, start=start)
        seen.append((op, start, unit))
        return unit

    monkeypatch.setattr(klabel, "edge_projector", recording)
    return seen


def _assert_same_trace(warm, cold):
    assert np.array_equal(warm.xi_nodes, cold.xi_nodes)
    assert warm.retained_counts == cold.retained_counts
    assert abs(warm.value - cold.value) <= 1e-12
    assert abs(warm.error_estimate - cold.error_estimate) <= 1e-12


@pytest.mark.parametrize("phase, window, h", [
    (0.1, (-math.pi, math.pi), 0.01),
    (2.977, (-math.pi, math.pi), 0.01),
    (0.7, (-2.0 * math.pi, 2.0 * math.pi), 0.005)])
@pytest.mark.parametrize("n", [1, 2])
def test_pi_trace_continuation_matches_cold_solves(monkeypatch, n, phase,
                                                   window, h):
    # the edge_trace and edge_labels settings
    spec, gap = _shifted_mathieu(n, phase)
    cold = _cold_trace(monkeypatch, spec, gap, window, h)
    seen = _recording_projector(monkeypatch)
    _assert_same_trace(klabel.pi_trace(spec, gap, window, 0.05, 60.0, h), cold)
    # every node shares the first one's grid; its potential is rebuilt by
    # angle addition
    for op, _, _ in seen:
        ref = klabel.build_halfline(spec, op.xi, 60.0, h)
        assert np.allclose(op.diag, ref.diag, rtol=1e-15, atol=0.0)
        assert op.xs is seen[0][0].xs
    op, _, unit = next((op, s, u) for op, s, u in seen
                       if s is not None and not u._cold and u.rank)
    off = float(op.offdiag[0])
    sturm = (lattice.sturm_count(op.diag, off, gap.e_upper)
             - lattice.sturm_count(op.diag, off, gap.e_lower))
    count = lapack.dstebz(op.diag, op.offdiag, 1, gap.e_lower, gap.e_upper,
                          0, 0, gap.width, "B")[0]
    assert unit._in_gap.shape[1] == count == sturm


def test_pi_trace_continuation_refused_where_uncertified(monkeypatch):
    # both window ends sit where the box is mirror-symmetric (xi = L/2 and
    # L/2 - 2 pi) and the boundary and truncation states are degenerate,
    # which the certificate refuses; the node after the first starts from
    # the unmixed states and passes, as do the offsets where a state enters
    # the gap
    spec, gap = _shifted_mathieu(2, 0.0)
    window = (30.0 - 2.0 * math.pi, 30.0)
    cold = _cold_trace(monkeypatch, spec, gap, window, 0.01)
    seen = _recording_projector(monkeypatch)
    eigensolves = []

    def spy(*args, **kwargs):
        eigensolves.append(args)
        return eigh_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(klabel, "eigh_tridiagonal", spy)
    _assert_same_trace(klabel.pi_trace(spec, gap, window, 0.05, 60.0, 0.01),
                       cold)
    assert len(eigensolves) <= 2
    assert not seen[1][2]._cold
    entering = [u for _, s, u in seen[1:]
                if u._in_gap.shape[1] > s._in_gap.shape[1]]
    assert entering
    assert not any(u._cold for u in entering)
    assert all(u._bisected for u in entering)
    # the last steps shorten towards the window end, which is solved once
    ends = [(op, s, u) for op, s, u in seen if op.xi == 30.0]
    assert len(ends) == 1
    op, start, unit = ends[0]
    assert start is not None
    assert klabel._continue(op, gap, start, _count(op, gap))[0] is None
    assert unit._cold and unit.rank == 1


# offsets of gap 2 of 2 cos x between which a state enters the gap, inside
# the window (30 - 2 pi, 30): from none and next to a continued one
ENTERING = [(25.4, 25.65), (29.05, 29.3)]


@pytest.mark.parametrize("x0, x1", ENTERING)
def test_continuation_bisects_entering_states(x0, x1):
    spec, gap = _shifted_mathieu(2, 0.0)
    start = klabel.edge_projector(klabel.build_halfline(spec, x0, 60.0, 0.01),
                                  gap)
    op = klabel.build_halfline(spec, x1, 60.0, 0.01)
    w, _, _, bisected = klabel._continue(op, gap, start, _count(op, gap))
    exact = eigvalsh_tridiagonal(op.diag, op.offdiag, select="v",
                                 select_range=(gap.e_lower, gap.e_upper))
    assert bisected == 1 and len(exact) == start._in_gap.shape[1] + 1
    # eigvalsh resolves eigenvalues to eps ||T||_1 ~ 1e-11; the cold path's
    # Rayleigh quotients of eigh vectors resolve them further
    assert np.max(np.abs(w - exact)) < 1e-11
    vs = eigh_tridiagonal(op.diag, op.offdiag, select="v",
                          select_range=(gap.e_lower, gap.e_upper))[1]
    assert np.max(np.abs(w - [klabel._rayleigh(op, v)[0] for v in vs.T])
                  ) < 1e-12
    off = float(op.offdiag[0])
    sturm = (lattice.sturm_count(op.diag, off, gap.e_upper)
             - lattice.sturm_count(op.diag, off, gap.e_lower))
    unit = klabel.edge_projector(op, gap, start=start)
    assert not unit._cold and unit._in_gap.shape[1] == sturm


def test_entering_states_take_one_inverse_iteration_start_each(monkeypatch):
    # no pairs to continue, and two in-gap states 0.06 apart: each takes one
    # solve from the seeded start vector at its bisected eigenvalue and no
    # dstein call, and the polished pairs pass the certificate
    spec, gap = _shifted_mathieu(1, 0.0)
    op = klabel.build_halfline(spec, 4.75, 60.0, 0.005)
    real, solves, dstein = lapack.dgtsv, [], []

    def spy(dl, d, du, b, **kwargs):
        solves.append((b, float(op.diag[-1] - d[-1])))
        return real(dl, d, du, b, **kwargs)

    monkeypatch.setattr(lapack, "dgtsv", spy)
    monkeypatch.setattr(lapack, "dstein", lambda *args: dstein.append(args))
    w, v, work, bisected = klabel._continue(op, gap, None, _count(op, gap))
    # the starts are the solves that share one right-hand side
    shifts = [x for b, x in solves if sum(c is b for c, _ in solves) > 1]
    assert bisected == work[3] == len(shifts) == 2 and not dstein
    assert w is not None and v.shape == (len(op.diag), 2)
    exact = eigh_tridiagonal(op.diag, op.offdiag, select="v",
                             select_range=(gap.e_lower, gap.e_upper))[0]
    assert len(exact) == 2 and np.max(np.abs(w - exact)) < 1e-11
    assert np.max(np.abs(np.array(shifts) - exact)) < (klabel.BISECT_TOL
                                                       * gap.width)


def test_bisected_pair_short_of_kato_temple_is_refused(monkeypatch):
    # the one solve from the start vector of the entering state returns its
    # polished vector tilted until its residual r has r^2/delta a few times
    # eps ||T||_1, and no step polishes it
    spec, gap = _shifted_mathieu(2, 0.0)
    x0, x1 = ENTERING[0]
    start = klabel.edge_projector(klabel.build_halfline(spec, x0, 60.0, 0.01),
                                  gap)
    op = klabel.build_halfline(spec, x1, 60.0, 0.01)
    tol = np.finfo(float).eps * float(np.max(op.diag) - 2.0 * op.offdiag[0])
    w, z, _, _ = klabel._continue(op, gap, start, _count(op, gap))
    assert start._in_gap.shape[1] == 0 and len(w) == 1
    noise = np.random.default_rng(0).standard_normal(len(op.diag))

    def tilted(eps):
        y = z[:, 0] + eps * noise
        return y / np.sqrt(np.sum(y * y))

    rho, r = klabel._rayleigh(op, tilted(1e-12))
    delta = min(rho - gap.e_lower, gap.e_upper - rho)
    y = tilted(1e-12 * math.sqrt(4.0 * tol * delta) / r)
    rho, r = klabel._rayleigh(op, y)
    assert tol < r * r / delta < 10.0 * tol
    real = lapack.dgtsv

    def dgtsv(*args, **kwargs):
        *rest, _, info = real(*args, **kwargs)
        return (*rest, y, info)

    monkeypatch.setattr(lapack, "dgtsv", dgtsv)
    monkeypatch.setattr(klabel, "RQI_STEPS", 1)
    assert klabel._continue(op, gap, start, _count(op, gap))[0] is None
    assert klabel.edge_projector(op, gap, start=start)._cold


def test_continuation_refuses_pairs_short_of_kato_temple(monkeypatch):
    # one Rayleigh-quotient step leaves a residual near 1e-5: its interval
    # lies disjoint inside the gap, but r^2/delta is far above eps ||T||_1
    spec, gap = _shifted_mathieu(1, 0.1)
    start = klabel.edge_projector(klabel.build_halfline(spec, 0.0, 60.0, 0.01),
                                  gap)
    op = klabel.build_halfline(spec, 0.05, 60.0, 0.01)
    w, _, work, bisected = klabel._continue(op, gap, start, _count(op, gap))
    exact = eigvalsh_tridiagonal(op.diag, op.offdiag, select="v",
                                 select_range=(gap.e_lower, gap.e_upper))
    assert work[1] == 2 and bisected == 0 and len(w) == len(exact) == 1
    assert abs(w[0] - exact[0]) < 1e-10
    monkeypatch.setattr(klabel, "RQI_STEPS", 1)
    assert klabel._continue(op, gap, start, _count(op, gap))[0] is None


def test_continued_vector_takes_one_explicit_residual(monkeypatch):
    # the first shift is the Rayleigh quotient of the continued vector at the
    # new node, the next comes from the solve, and _rayleigh evaluates only
    # the vector that meets the goal
    spec, gap = _shifted_mathieu(1, 0.1)
    start = klabel.edge_projector(klabel.build_halfline(spec, 0.0, 60.0, 0.01),
                                  gap)
    op = klabel.build_halfline(spec, 0.05, 60.0, 0.01)
    real_solve, real_rayleigh, shifts, evaluated = (lapack.dgtsv,
                                                    klabel._rayleigh, [], [])

    def solve(dl, d, du, b, **kwargs):
        shifts.append(float(op.diag[-1] - d[-1]))
        return real_solve(dl, d, du, b, **kwargs)

    def rayleigh(op, v, floor=0.0):
        evaluated.append(v)
        return real_rayleigh(op, v, floor)

    monkeypatch.setattr(lapack, "dgtsv", solve)
    monkeypatch.setattr(klabel, "_rayleigh", rayleigh)
    w, _, work, _ = klabel._continue(op, gap, start, _count(op, gap))
    assert start._in_gap.shape[1] == len(w) == 1
    assert list(work) == [0, 2, 1, 0] and len(evaluated) == 1
    rho = real_rayleigh(op, start._in_gap[:, 0])[0]
    assert abs(shifts[0] - rho) < 1e-9


def test_edge_phases_move_within_slope_bound(mathieu):
    # Hellmann-Feynman: d lambda_j/d xi = <v_j, V'(x + xi) v_j>, so between
    # two offsets every retained eigenvalue has a partner within
    # slope_bound * dxi, or has just crossed a gap edge
    dxi = 0.02
    limit = potentials.slope_bound(mathieu) * dxi + 1e-9
    for n in (1, 2):
        gap = Gap(*mathieu_gap_edges(n))
        levels = [klabel.edge_projector(
            klabel.build_halfline(mathieu, x, 30.0, 0.01), gap).eigenvalues
            for x in np.arange(-math.pi, math.pi, dxi)]
        for now, then in zip(levels, levels[1:]):
            for lam, other in ((now, then), (then, now)):
                for e in lam:
                    near = np.append(other, [gap.e_lower, gap.e_upper])
                    assert np.min(np.abs(near - e)) <= limit


def test_edge_projector_separates_mirror_degenerate_states():
    # at xi = L/2 the box is mirror-symmetric: the boundary state and the
    # truncation state at -L are degenerate and the eigensolver mixes them
    spec, gap = _shifted_mathieu(2, 0.0)
    op = klabel.build_halfline(spec, 30.0, 60.0, 0.01)
    unit = klabel.edge_projector(op, gap)
    assert unit.rank == 1
    near = op.xs >= -op.L / 4.0
    assert np.sum(unit.vectors[near] ** 2) >= 0.999


def test_pi_trace_mass_threshold_sweep(mathieu, gap1):
    vals = {}
    for thresh in (0.3, 0.5, 0.7):
        res = klabel.pi_trace(mathieu, gap1, (0.0, 2.0 * math.pi), 0.1,
                              mass_threshold=thresh)
        vals[thresh] = res
    ref = vals[0.5]
    for thresh, res in vals.items():
        assert abs(res.value - ref.value) <= max(ref.error_estimate, 1e-4)


@pytest.mark.parametrize("value", [math.nan, -1.0, 0.0, 1.0, 2.0])
def test_pi_trace_refuses_mass_threshold_outside_unit_interval(mathieu, gap1,
                                                               value):
    # NaN, -1 and 2 read 0.0 +- 1e-5 on gap 1, where the label is 1/(2 pi)
    with pytest.raises(ValueError, match="mass_threshold"):
        klabel.pi_trace(mathieu, gap1, (0.0, 2.0 * math.pi), 0.1,
                        mass_threshold=value)


def test_pi_trace_h_refinement(mathieu, gap1):
    a = klabel.pi_trace(mathieu, gap1, (0.0, 2.0 * math.pi), 0.1, h=0.01)
    b = klabel.pi_trace(mathieu, gap1, (0.0, 2.0 * math.pi), 0.1, h=0.005)
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def _empty_flow(gap):
    xis = np.linspace(-6.5, 6.5, 3)
    return dirichlet.Flow(gap, xis, {dirichlet.RIGHT: [np.empty(0)] * 3})


def test_pi_curves_empty_flow_is_zero(gap1):
    res = klabel.pi_curves(_empty_flow(gap1), gap1,
                           WindowChain.geometric(4.0, 1.6, 3))
    assert res.value == 0.0


def test_pi_curves_is_bump_mean_of_lift(mathieu, gap1, flow_gap1_period):
    # on windows whose ends are offsets of the flow's grid, the trapezoids
    # over w' times the lift agree with adaptive quadrature of w times the
    # lift's slope (integration by parts) on its linear interpolant; both
    # labels are the last window's mean
    xis = flow_gap1_period.xi
    i, j = 3, len(xis) - 4
    chain = WindowChain(((float(xis[i + 2]), float(xis[j - 2])),
                         (float(xis[i]), float(xis[j]))))
    phi = dirichlet.beta(mathieu, gap1, chain, flow=flow_gap1_period).lift
    slopes = np.diff((np.sin(phi) - phi) / (2.0 * math.pi)) / np.diff(xis)
    pc = klabel.pi_curves(flow_gap1_period, gap1, chain)
    expected = rotation.lambda_mean(
        lambda x: float(slopes[np.searchsorted(xis, x, side="right") - 1]),
        chain)
    assert abs(pc.value - expected.extrapolated) < 1e-6


def test_pi_curves_matches_beta(mathieu, gap1, xi_chain, flow_gap1):
    pc = klabel.pi_curves(flow_gap1, gap1, xi_chain)
    beta = dirichlet.beta(mathieu, gap1, xi_chain, flow=flow_gap1)
    assert abs(pc.value - beta.value) < 1e-3


def test_pi_curves_matches_pi_trace(mathieu, gap1, xi_chain, flow_gap1):
    pc = klabel.pi_curves(flow_gap1, gap1, xi_chain)
    pt = klabel.pi_trace(mathieu, gap1, (0.0, 2.0 * math.pi), 0.05)
    assert abs(pc.value - pt.value) <= pc.error_estimate + pt.error_estimate


def test_boundary_force_empty_flow_is_zero(gap1):
    res = klabel.boundary_force(_empty_flow(gap1), gap1,
                                WindowChain.geometric(4.0, 1.6, 3))
    assert res.value == 0.0
    assert res.max_dirichlet_count == 0


def test_boundary_force_matches_pi_curves(gap1, xi_chain, flow_gap1):
    bf = klabel.boundary_force(flow_gap1, gap1, xi_chain)
    pc = klabel.pi_curves(flow_gap1, gap1, xi_chain)
    assert abs(bf.value - pc.value) < 1e-3


def test_boundary_force_equals_beta_right(mathieu, gap1, xi_chain,
                                          flow_gap1):
    # both are window differences of the summed right-curve energies
    bf = klabel.boundary_force(flow_gap1, gap1, xi_chain)
    beta = dirichlet.beta(mathieu, gap1, xi_chain, flow=flow_gap1)
    assert abs(bf.value - beta.value) < 1e-12


def test_boundary_force_sign_and_hypothesis(gap1, xi_chain, flow_gap1):
    bf = klabel.boundary_force(flow_gap1, gap1, xi_chain)
    assert bf.value > 0  # falling right curves push on the boundary
    assert bf.within_hypothesis
    assert bf.max_dirichlet_count == 1
