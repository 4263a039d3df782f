"""Command-line driver.

Each subcommand exposes one stage of the pipeline so stages can be rerun and
debugged in isolation; `report` runs everything and writes the JSON report
plus CSV artifacts.  Flags override values from --config; --verbose, before
the subcommand, logs the work of each stage to stderr.  Exit codes: 0 on
success (for `report`: all equality verdicts pass), 2 when a verdict fails,
1 on error, USAGE_ERROR (64) on a malformed command line.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

from . import dirichlet, harness, rotation, spectrum
from .harness import ExperimentConfig, load_config, parse_potential_arg
from .potentials import PotentialSpec

USAGE_ERROR = 64   # sysexits EX_USAGE; argparse's own 2 is a failed verdict


def _base_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = ExperimentConfig(potential=PotentialSpec.zero())
    updates = {}
    if getattr(args, "potential", None):
        updates["potential"] = parse_potential_arg(args.potential)
    for flag, attr in (("energy_min", "e_min"), ("energy_max", "e_max"),
                       ("resolution", "resolution"), ("L", "L"), ("h", "h"),
                       ("dxi", "dxi"), ("max_gaps", "max_gaps"),
                       ("out", "out_dir")):
        val = getattr(args, flag, None)
        if val is not None:
            updates[attr] = val
    if updates:
        cfg = replace(cfg, **updates)
    return cfg


def cmd_spectrum(args) -> int:
    cfg = _base_config(args)
    gaps = harness.detect_gaps(cfg)
    print(f"scan [{cfg.e_min}, {cfg.e_max}] resolution {cfg.resolution}: "
          f"{len(gaps)} gap(s)")
    for i, g in enumerate(gaps):
        print(f"  gap {i}: ({g.e_lower:.6f}, {g.e_upper:.6f}) "
              f"width {g.width:.6f} [{g.confidence}]")
    return 0


def cmd_ids(args) -> int:
    cfg = _base_config(args)
    res = spectrum.ids(cfg.potential, args.energy, cfg.x_chain, args.xi)
    print(f"ids({args.energy}) = {res.value!r} +- {res.error_estimate:.2e} "
          f"(converged={res.converged})")
    return 0


def cmd_rotation(args) -> int:
    cfg = _base_config(args)
    res = rotation.johnson_moser_alpha(cfg.potential, args.energy, args.xi,
                                       cfg.x_chain)
    print(f"alpha({args.energy}) = {res.value!r} +- {res.error_estimate:.2e} "
          f"[{res.regime}]")
    print(f"zero-density route: {res.zero_density_mean.extrapolated!r} "
          f"+- {res.zero_density_mean.error_estimate:.2e}")
    return 0


def cmd_flow(args) -> int:
    cfg = _base_config(args)
    gaps = harness.detect_gaps(cfg)
    if not gaps:
        print("no gap detected in the scan range")
        return 1
    gap = gaps[0]
    lo, hi = args.xi_range or cfg.xi_chain.largest
    curves = dirichlet.trace_flow(cfg.potential, gap, lo, hi, cfg.dxi, cfg.L,
                                  sides=(dirichlet.RIGHT, dirichlet.LEFT))
    print(f"gap ({gap.e_lower:.6f}, {gap.e_upper:.6f}): "
          f"{len(curves)} curves over xi in [{lo}, {hi}]")
    for i, c in enumerate(curves):
        print(f"  {i}: {c.side} n={len(c)} xi=[{c.xi[0]:.3f}, {c.xi[-1]:.3f}]"
              f" mu {c.mu[0]:.6f} -> {c.mu[-1]:.6f} events={c.events}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "flow_curves.csv")
        harness.write_flow_curves(path, [curves])
        print(f"wrote {path}")
    return 0


def cmd_klabel(args) -> int:
    cfg = _base_config(args)
    gaps = harness.detect_gaps(cfg)
    if not gaps:
        print("no gap detected in the scan range")
        return 1
    gap = gaps[0]
    a_big, b_big = cfg.xi_chain.largest
    flow = dirichlet.trace_flow(cfg.potential, gap, a_big, b_big, cfg.dxi,
                                cfg.L, sides=(dirichlet.RIGHT,))
    pt, pc, bf = harness.edge_state_labels(cfg, gap, flow)
    print(f"gap ({gap.e_lower:.6f}, {gap.e_upper:.6f}):")
    print(f"  pi_trace       = {pt.value!r} +- {pt.error_estimate:.2e} "
          f"(imag residue {pt.imag_residue:.1e})")
    print(f"  pi_curves      = {pc.value!r} +- {pc.error_estimate:.2e}")
    print(f"  boundary_force = {bf.value!r} +- {bf.error_estimate:.2e} "
          f"(max |D_xi| = {bf.max_dirichlet_count})")
    return 0


def cmd_report(args) -> int:
    cfg = _base_config(args)
    reports = harness.run(cfg)
    print(json.dumps([r.to_dict() for r in reports], indent=2))
    if cfg.out_dir:
        print(f"artifacts written to {cfg.out_dir}", file=sys.stderr)
    if not reports:
        return 0
    return 0 if all(r.all_pass for r in reports) else 2


def cmd_converge(args) -> int:
    cfg = _base_config(args)
    values = None
    if args.values:
        values = [float(v) for v in args.values.split(",")]
    rows = harness.convergence_study(cfg, args.parameter, values)
    for row in rows:
        print("  ".join(f"{k}={v!r}" for k, v in row.items()))
    return 0


def _xi_range(text: str) -> tuple[float, float]:
    """LO:HI with LO < HI, for --xi-range."""
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"want LO:HI, got {text!r}") from None
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"need LO < HI, got {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gaplab",
        description="gap labels of one-dimensional Schrodinger operators")
    ap.add_argument("--verbose", action="store_true",
                    help="log debug detail of every stage to stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, energy=False):
        p.add_argument("--config", help="experiment config file (INI)")
        p.add_argument("--potential",
                       help="'zero' or 'A,f,p[;A,f,p...]' cosine terms")
        p.add_argument("--energy-min", dest="energy_min", type=float)
        p.add_argument("--energy-max", dest="energy_max", type=float)
        p.add_argument("--resolution", type=float)
        p.add_argument("--L", dest="L", type=float)
        p.add_argument("--h", dest="h", type=float)
        p.add_argument("--dxi", type=float)
        p.add_argument("--max-gaps", dest="max_gaps", type=int)
        p.add_argument("--out", help="output directory")
        if energy:
            p.add_argument("--energy", type=float, required=True)
            p.add_argument("--xi", type=float, default=0.0)

    p = sub.add_parser("spectrum", help="detect spectral gaps")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ids", help="integrated density of states at E")
    common(p, energy=True)
    p.set_defaults(func=cmd_ids)

    p = sub.add_parser("rotation", help="phase rotation number at E")
    common(p, energy=True)
    p.set_defaults(func=cmd_rotation)

    p = sub.add_parser("flow", help="Dirichlet-value flow in the first gap")
    common(p)
    p.add_argument("--xi-range", dest="xi_range", metavar="LO:HI",
                   type=_xi_range,
                   help="offset sweep; write --xi-range=LO:HI, since a "
                   "negative LO read apart is taken for an option")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("klabel", help="edge-state trace labels, first gap")
    common(p)
    p.set_defaults(func=cmd_klabel)

    p = sub.add_parser("report", help="full run with verdicts and artifacts")
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("converge", help="convergence sweep of one control")
    common(p)
    p.add_argument("--parameter", required=True,
                   choices=["L", "h", "dxi", "chain"])
    p.add_argument("--values", help="comma-separated sweep values")
    p.set_defaults(func=cmd_converge)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 0 after --help, else 2
        return USAGE_ERROR if exc.code else 0
    log, handler = logging.getLogger("gaplab"), logging.StreamHandler()
    level = log.level
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except Exception as exc:  # surfacing errors as exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
