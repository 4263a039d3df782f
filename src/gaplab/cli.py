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


# (flag, ExperimentConfig field, type, help) of the options that override
# --config; each keeps argparse's dest, the flag without dashes
CONFIG_FLAGS = (
    ("--potential", "potential", None,
     "'zero' or 'A,f,p[;A,f,p...]' cosine terms"),
    ("--energy-min", "e_min", float, None),
    ("--energy-max", "e_max", float, None),
    ("--resolution", "resolution", float, None),
    ("--L", "L", float, None),
    ("--h", "h", float, None),
    ("--dxi", "dxi", float, None),
    ("--max-gaps", "max_gaps", int, None),
    ("--out", "out_dir", None, "output directory"),
)


def _config(args) -> ExperimentConfig:
    """The --config file, or the zero potential's defaults, under the flags."""
    cfg = (load_config(args.config) if args.config
           else ExperimentConfig(potential=PotentialSpec.zero()))
    updates = {attr: getattr(args, flag[2:].replace("-", "_"))
               for flag, attr, _, _ in CONFIG_FLAGS}
    updates = {k: v for k, v in updates.items() if v is not None}
    if "potential" in updates:
        updates["potential"] = parse_potential_arg(updates["potential"])
    return replace(cfg, **updates)


def _first_gap(cfg):
    gaps = harness.detect_gaps(cfg)
    if not gaps:
        raise LookupError("no gap detected in the scan range")
    return gaps[0]


def cmd_spectrum(cfg, args) -> int:
    gaps = harness.detect_gaps(cfg)
    print(f"scan [{cfg.e_min}, {cfg.e_max}] resolution {cfg.resolution}: "
          f"{len(gaps)} gap(s)")
    for i, g in enumerate(gaps):
        print(f"  gap {i}: ({g.e_lower:.6f}, {g.e_upper:.6f}) "
              f"width {g.width:.6f} [{g.confidence}]")
    return 0


def cmd_ids(cfg, args) -> int:
    res = spectrum.ids(cfg.potential, args.energy, cfg.x_chain, args.xi)
    print(f"ids({args.energy}) = {res.value!r} +- {res.error_estimate:.2e} "
          f"(converged={res.converged})")
    return 0


def cmd_rotation(cfg, args) -> int:
    res = rotation.johnson_moser_alpha(cfg.potential, args.energy, args.xi,
                                       cfg.x_chain)
    print(f"alpha({args.energy}) = {res.value!r} +- {res.error_estimate:.2e} "
          f"[{res.regime}]")
    print(f"zero-density route: {res.zero_density_mean.extrapolated!r} "
          f"+- {res.zero_density_mean.error_estimate:.2e}")
    return 0


def cmd_flow(cfg, args) -> int:
    gap = _first_gap(cfg)
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


def cmd_klabel(cfg, args) -> int:
    gap = _first_gap(cfg)
    flow = dirichlet.trace_flow(cfg.potential, gap, *cfg.xi_chain.largest,
                                cfg.dxi, cfg.L, sides=(dirichlet.RIGHT,))
    pt, pc, bf = harness.edge_state_labels(cfg, gap, flow)
    print(f"gap ({gap.e_lower:.6f}, {gap.e_upper:.6f}):")
    print(f"  pi_trace       = {pt.value!r} +- {pt.error_estimate:.2e} "
          f"(imag residue {pt.imag_residue:.1e})")
    print(f"  pi_curves      = {pc.value!r} +- {pc.error_estimate:.2e}")
    print(f"  boundary_force = {bf.value!r} +- {bf.error_estimate:.2e} "
          f"(max |D_xi| = {bf.max_dirichlet_count})")
    return 0


def cmd_report(cfg, args) -> int:
    reports = harness.run(cfg)
    print(json.dumps([r.to_dict() for r in reports], indent=2))
    if cfg.out_dir:
        print(f"artifacts written to {cfg.out_dir}", file=sys.stderr)
    return 0 if all(r.all_pass for r in reports) else 2


def cmd_converge(cfg, args) -> int:
    values = args.values and [float(v) for v in args.values.split(",")]
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

    def command(name, func, help_, energy=False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--config", help="experiment config file (INI)")
        for flag, _, type_, flag_help in CONFIG_FLAGS:
            p.add_argument(flag, type=type_, help=flag_help)
        if energy:
            p.add_argument("--energy", type=float, required=True)
            p.add_argument("--xi", type=float, default=0.0)
        return p

    command("spectrum", cmd_spectrum, "detect spectral gaps")
    command("ids", cmd_ids, "integrated density of states at E", energy=True)
    command("rotation", cmd_rotation, "phase rotation number at E",
            energy=True)
    p = command("flow", cmd_flow, "Dirichlet-value flow in the first gap")
    p.add_argument("--xi-range", metavar="LO:HI", type=_xi_range,
                   help="offset sweep; write --xi-range=LO:HI, since a "
                   "negative LO read apart is taken for an option")
    command("klabel", cmd_klabel, "edge-state trace labels, first gap")
    command("report", cmd_report, "full run with verdicts and artifacts")
    p = command("converge", cmd_converge, "convergence sweep of one control")
    p.add_argument("--parameter", required=True,
                   choices=["L", "h", "dxi", "chain"])
    p.add_argument("--values", help="comma-separated sweep values")
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
        return args.func(_config(args), args)
    except Exception as exc:  # surfacing errors as exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
