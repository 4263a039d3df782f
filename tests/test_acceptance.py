"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line with the measured numbers once its
assertions hold, so a verbose run doubles as the acceptance protocol.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from gaplab import dirichlet, harness, klabel, lattice, rotation, spectrum
from gaplab.potentials import PotentialSpec, WindowChain

TWO_PI = 2.0 * math.pi
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _report(n: int, detail: str) -> None:
    print(f"ACCEPTANCE {n}: PASS  {detail}")


def test_criterion_1_free_particle_ids_and_alpha():
    t0 = time.time()
    free = PotentialSpec.zero()
    ids_res = spectrum.ids(free, 1.0)
    alpha_res = rotation.johnson_moser_alpha(free, 1.0)
    elapsed = time.time() - t0
    target = 1.0 / math.pi
    assert abs(ids_res.value - target) < 2e-3
    assert abs(alpha_res.value - target) < 2e-3
    assert elapsed < 10.0
    _report(1, f"ids={ids_res.value:.6f} alpha={alpha_res.value:.6f} "
               f"target={target:.6f} in {elapsed:.2f}s")


def test_criterion_2_sturm_oscillation_exactness(mathieu):
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    h = 0.005
    mismatches = 0
    for _ in range(50):
        a = float(rng.uniform(-42.0, -6.0))
        length = float(rng.uniform(8.0, 46.0))
        length = round(length / h) * h
        b = a + length
        e = float(rng.uniform(-2.0, 6.0))
        ours = spectrum.eigenvalue_count(mathieu, a, b, 0.0, e)
        oracle = lattice.fd_eigenvalue_count(mathieu, a, b, 0.0, e, h)
        if ours != oracle:
            mismatches += 1
    elapsed = time.time() - t0
    assert mismatches == 0
    assert elapsed < 60.0
    _report(2, f"50/50 exact count matches in {elapsed:.2f}s")


def test_criterion_3_alpha_equals_ids_on_gaps(mathieu, gap1, gap2,
                                              x_chain_long):
    t0 = time.time()
    for n, gap in ((1, gap1), (2, gap2)):
        ids_res = spectrum.ids(mathieu, gap.mid, x_chain_long)
        alpha_res = rotation.johnson_moser_alpha(mathieu, gap.mid,
                                                 chain=x_chain_long,
                                                 in_gap=True)
        assert (abs(alpha_res.value - ids_res.value)
                <= alpha_res.error_estimate + ids_res.error_estimate)
        assert abs(ids_res.value - n / TWO_PI) < 1e-3
        # periodic labelling oracle via matrix eigenvalue counting
        a, b = x_chain_long.largest
        oracle = lattice.fd_eigenvalue_count(mathieu, a, b, 0.0, gap.mid,
                                             0.005) / (b - a)
        assert abs(oracle - n / TWO_PI) < 1e-3
        assert abs(ids_res.value - oracle) <= 4.0 / (b - a)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(3, f"gaps 1, 2: |alpha-ids| within errors, ids within 1e-3 of "
               f"n/(2 pi) in {elapsed:.1f}s")


def test_criterion_4_derivative_identity(mathieu, flow_gap1):
    t0 = time.time()
    points = []
    for c in flow_gap1:
        if c.side != dirichlet.RIGHT or len(c) < 7:
            continue
        for index in (len(c) // 4, len(c) // 2, 3 * len(c) // 4):
            if 0 < index < len(c) - 1:
                points.append((c, index))
        if len(points) >= 20:
            break
    assert len(points) >= 20
    worst = 0.0
    for c, index in points[:20]:
        chk = dirichlet.flow_derivative_check(mathieu, c, index, 60.0)
        assert chk.finite_difference < 0.0
        assert chk.analytic < 0.0
        rel = abs(chk.finite_difference - chk.analytic) / abs(chk.analytic)
        worst = max(worst, rel)
        assert rel < 1e-2
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(4, f"20 interior points, worst relative deviation {worst:.2e}, "
               f"all negative, in {elapsed:.1f}s")


def test_criterion_5_interlacing(mathieu, gap1):
    t0 = time.time()
    rep = dirichlet.interlacing_check(mathieu, gap1, gap1.mid,
                                      (0.0, 2.0 * TWO_PI), 60.0)
    elapsed = time.time() - t0
    assert rep.violations == ()
    assert len(rep.s_points) >= 2
    for a, b in zip(rep.s_points[:-1], rep.s_points[1:]):
        inside = [s for s in rep.s_star_points if a < s < b]
        assert len(inside) == 1
    assert elapsed < 60.0
    _report(5, f"{len(rep.s_points)} right offsets, exactly one left offset "
               f"between each pair, in {elapsed:.1f}s")


def test_criterion_6_beta_equals_alpha(mathieu, gap1, xi_chain, flow_gap1,
                                       x_chain_long):
    t0 = time.time()
    beta_r = dirichlet.beta(mathieu, gap1, xi_chain, flow=flow_gap1)
    beta_t = dirichlet.beta(mathieu, gap1, xi_chain, flow=flow_gap1,
                            variant="two_sided")
    alpha_res = rotation.johnson_moser_alpha(mathieu, gap1.mid,
                                             chain=x_chain_long, in_gap=True)
    elapsed = time.time() - t0
    assert beta_r.error_estimate <= 1e-2
    assert (abs(beta_r.value - alpha_res.value)
            <= beta_r.error_estimate + alpha_res.error_estimate)
    assert (abs(beta_r.value - beta_t.value)
            <= beta_r.error_estimate + beta_t.error_estimate)
    _report(6, f"beta={beta_r.value:.6f}+-{beta_r.error_estimate:.1e} "
               f"alpha={alpha_res.value:.6f} two_sided={beta_t.value:.6f} "
               f"in {elapsed:.1f}s")


def test_criterion_7_pi_equalities(mathieu, gap1, xi_chain, flow_gap1):
    t0 = time.time()
    pt = klabel.pi_trace(mathieu, gap1, (-math.pi, math.pi), 0.05,
                         L=60.0, h=0.01)
    pc = klabel.pi_curves(flow_gap1, gap1, xi_chain)
    beta_r = dirichlet.beta(mathieu, gap1, xi_chain, flow=flow_gap1)
    for a, b in ((pt, pc), (pt, beta_r), (pc, beta_r)):
        assert (abs(a.value - b.value)
                <= a.error_estimate + b.error_estimate)
    for thresh in (0.3, 0.7):
        alt = klabel.pi_trace(mathieu, gap1, (-math.pi, math.pi), 0.05,
                              L=60.0, h=0.01, mass_threshold=thresh)
        assert abs(alt.value - pt.value) < max(pt.error_estimate, 1e-4)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(7, f"pi_trace={pt.value:.6f} pi_curves={pc.value:.6f} "
               f"beta={beta_r.value:.6f}, filter sweep stable, "
               f"in {elapsed:.1f}s")


def test_criterion_8_boundary_force(gap1, xi_chain, flow_gap1):
    t0 = time.time()
    bf = klabel.boundary_force(flow_gap1, gap1, xi_chain)
    pc = klabel.pi_curves(flow_gap1, gap1, xi_chain)
    elapsed = time.time() - t0
    assert abs(bf.value - pc.value) < 1e-3
    _report(8, f"boundary_force={bf.value:.6f} pi_curves={pc.value:.6f} "
               f"diff={abs(bf.value - pc.value):.2e} in {elapsed:.2f}s")


def test_criterion_9_quasiperiodic_gap_labels():
    t0 = time.time()
    spec = PotentialSpec.cosine_sum([(1.0, 1.0, 0.0), (1.0, GOLDEN, 0.0)])
    gaps = spectrum.detect_gaps(spec, -2.0, 12.0, resolution=0.02)
    assert gaps, "no gap detected for the quasi-periodic potential"
    chain = WindowChain.geometric()
    a, b = chain.largest
    labels = sorted(m + n * GOLDEN
                    for m in range(-5, 6) for n in range(-5, 6))
    details = []
    for gap in gaps:
        res = spectrum.ids(spec, gap.mid, chain)
        dist = min(abs(res.value - lab) for lab in labels)
        assert dist < 1e-2
        oracle = lattice.fd_eigenvalue_count(spec, a, b, 0.0, gap.mid,
                                             0.005) / (b - a)
        assert abs(res.value - oracle) <= 4.0 / (b - a)
        details.append(f"ids={res.value:.4f} (lattice dist {dist:.1e})")
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(9, f"{len(gaps)} gap(s): " + "; ".join(details)
            + f" in {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path):
    cfg = harness.ExperimentConfig(
        potential=PotentialSpec.cosine_sum([(2.0, 1.0 / TWO_PI, 0.0)]),
        e_min=-2.0, e_max=1.0, resolution=0.05,
        x_chain=WindowChain.geometric(25.0, 1.6, 6),
        xi_chain=WindowChain.geometric(6.5, 1.6, 5),
        dxi=0.1, max_gaps=1)
    artifacts = ("report.json", "ids_scan.csv", "flow_curves.csv",
                 "mu_tilde_phase.csv", "trace_phase.csv")
    blobs = []
    for run_dir in ("one", "two"):
        out = tmp_path / run_dir
        run_cfg = harness.ExperimentConfig(
            **{**cfg.__dict__, "out_dir": str(out)})
        harness.run(run_cfg)
        assert sorted(os.listdir(out)) == sorted(artifacts)
        blobs.append({name: (out / name).read_bytes() for name in artifacts})
    for name in artifacts:
        assert blobs[0][name] == blobs[1][name], name
        assert blobs[0][name].count(b"\n") > 1, name   # header and data
    parsed = json.loads(blobs[0]["report.json"])
    assert parsed and parsed[0]["verdicts"]
    _report(10, "byte-identical artifacts ("
               + ", ".join(f"{name} {len(blobs[0][name])} bytes"
                           for name in artifacts) + ")")
