import json
import math
import os

import pytest

from gaplab import harness
from gaplab.cli import main
from gaplab.harness import ExperimentConfig, load_config, parse_potential_arg, save_config
from gaplab.potentials import PotentialSpec, WindowChain


def small_mathieu_config(tmp_path=None):
    return ExperimentConfig(
        potential=PotentialSpec.cosine_sum([(2.0, 1.0 / (2 * math.pi), 0.0)]),
        e_min=-2.0, e_max=1.0, resolution=0.05,
        x_chain=WindowChain.geometric(25.0, 1.6, 6),
        xi_chain=WindowChain.geometric(6.5, 1.6, 5),
        dxi=0.1, max_gaps=1,
        out_dir=str(tmp_path) if tmp_path else None)


SMALL_INI = """\
[potential]
kind = cosine_sum
terms =
    2.0 0.15915494309189535 0.0

[scan]
e_min = -2.0
e_max = 1.0
resolution = 0.05

[chain_x]
half_width = 25.0
ratio = 1.6
count = 4

[chain_xi]
half_width = 6.5
ratio = 1.6
count = 2

[numerics]
L = 30.0
dxi = 0.1
max_gaps = 1
"""


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    """One harness run of the smoke config, shared by the report tests."""
    out = tmp_path_factory.mktemp("smoke")
    return harness.run(small_mathieu_config(out)), out


def _labels(text):
    """name -> value for every 'name = value' line of CLI output."""
    out = {}
    for line in text.splitlines():
        name, sep, rest = line.partition("=")
        if sep:
            out[name.strip()] = float(rest.split()[0])
    return out


def test_parse_potential_arg():
    assert parse_potential_arg("zero").kind == "zero"
    spec = parse_potential_arg("2,0.5,0;1,0.25,1.5")
    assert spec.terms == ((2.0, 0.5, 0.0), (1.0, 0.25, 1.5))
    with pytest.raises(ValueError):
        parse_potential_arg("2,0.5")


def test_config_roundtrip(tmp_path):
    cfg = small_mathieu_config()
    path = tmp_path / "exp.ini"
    save_config(cfg, str(path))
    loaded = load_config(str(path))
    assert loaded.potential == cfg.potential
    assert loaded.e_min == cfg.e_min
    assert loaded.e_max == cfg.e_max
    assert loaded.resolution == cfg.resolution
    assert loaded.x_chain == cfg.x_chain
    assert loaded.xi_chain == cfg.xi_chain
    assert loaded.L == cfg.L and loaded.h == cfg.h and loaded.dxi == cfg.dxi
    assert loaded.max_gaps == cfg.max_gaps


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(potential=PotentialSpec.zero(), resolution=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(potential=PotentialSpec.zero(), e_min=2.0, e_max=1.0)


def test_zero_potential_report_is_empty():
    cfg = ExperimentConfig(potential=PotentialSpec.zero(), e_min=0.0,
                           e_max=4.0, resolution=0.05,
                           x_chain=WindowChain.geometric(25.0, 1.6, 5))
    assert harness.run(cfg) == []


def test_full_mathieu_report(smoke_run):
    reports, tmp_path = smoke_run
    assert len(reports) == 1
    rep = reports[0]
    d = rep.to_dict()
    for key in ("gap", "ids", "alpha_lift", "alpha_zero_density",
                "beta_right", "beta_two_sided", "pi_trace", "pi_curves",
                "boundary_force", "max_dirichlet_count", "discrepancies",
                "verdicts"):
        assert key in d
    # all four labels sit near the periodic value 1/(2 pi) even on the
    # deliberately small smoke chains
    target = 1.0 / (2.0 * math.pi)
    for key in ("ids", "alpha_lift", "beta_right", "pi_trace", "pi_curves",
                "boundary_force"):
        assert abs(d[key]["value"] - target) < 0.05
    # the two-sided circle map within its own error bar of the exact label
    two_sided = d["beta_two_sided"]
    assert abs(two_sided["value"] - target) <= two_sided["err"]
    assert rep.all_pass
    # artifacts on disk
    for name in ("report.json", "ids_scan.csv", "flow_curves.csv",
                 "mu_tilde_phase.csv", "trace_integrand.csv"):
        assert os.path.exists(tmp_path / name)
    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        parsed = json.load(fh)
    assert parsed[0]["gap"]["e_lower"] == rep.gap.e_lower
    # every persisted verdict is reproducible from the persisted numbers
    for pair, entry in parsed[0]["discrepancies"].items():
        assert entry["pass"] == (entry["diff"] <= entry["tol"])


def test_csv_artifacts_have_headers(smoke_run):
    _, tmp_path = smoke_run
    with open(tmp_path / "flow_curves.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "gap_id,curve_id,side,xi,mu"
    with open(tmp_path / "ids_scan.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "energy,ids"


def test_convergence_study_h_second_order():
    cfg = ExperimentConfig(potential=PotentialSpec.zero())
    rows = harness.convergence_study(cfg, "h")
    orders = [row["order"] for row in rows if "order" in row]
    assert all(abs(o - 2.0) < 0.2 for o in orders)


def test_convergence_study_L_exponential(mathieu):
    cfg = ExperimentConfig(potential=mathieu, e_min=-2.0, e_max=1.0,
                           resolution=0.05,
                           x_chain=WindowChain.geometric(25.0, 1.6, 6))
    rows = harness.convergence_study(cfg, "L")
    ratios = [row["ratio"] for row in rows if "ratio" in row]
    assert ratios and all(r < 0.2 for r in ratios)


def test_convergence_study_chain_boundary_scaling():
    cfg = ExperimentConfig(potential=PotentialSpec.zero())
    rows = harness.convergence_study(cfg, "chain", [4, 6, 8])
    # zero-count density converges like one over the window length
    errs = [row["zero_density_error"] for row in rows]
    lens = [row["window_length"] for row in rows]
    assert errs[-1] <= errs[0] * (lens[0] / lens[-1]) * 3.0 + 1e-12


def test_convergence_study_rejects_unknown_parameter():
    cfg = ExperimentConfig(potential=PotentialSpec.zero())
    with pytest.raises(ValueError):
        harness.convergence_study(cfg, "tolerance")


def test_cli_spectrum_and_ids_and_rotation(capsys):
    assert main(["spectrum", "--potential", "zero", "--energy-min", "0",
                 "--energy-max", "5"]) == 0
    out = capsys.readouterr().out
    assert "0 gap(s)" in out
    assert main(["ids", "--potential", "zero", "--energy", "1.0"]) == 0
    assert "ids(1.0)" in capsys.readouterr().out
    assert main(["rotation", "--potential", "zero", "--energy", "1.0"]) == 0
    assert "alpha(1.0)" in capsys.readouterr().out


def test_cli_converge(capsys):
    assert main(["converge", "--potential", "zero", "--parameter", "h",
                 "--values", "0.0062831853,0.0031415927"]) == 0
    assert "order" in capsys.readouterr().out


def test_cli_error_paths(capsys):
    assert main(["ids", "--potential", "nonsense", "--energy", "1.0"]) == 1
    capsys.readouterr()
    assert main(["flow", "--potential", "zero", "--energy-min", "0",
                 "--energy-max", "4"]) == 1


def test_cli_report_exit_code_zero_potential(capsys, tmp_path):
    cfg = ExperimentConfig(potential=PotentialSpec.zero(), e_min=0.0,
                           e_max=3.0, resolution=0.05,
                           x_chain=WindowChain.geometric(25.0, 1.6, 5))
    path = tmp_path / "zero.ini"
    save_config(cfg, str(path))
    assert main(["report", "--config", str(path)]) == 0


def test_cli_flow_writes_float_csv(capsys, tmp_path):
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI, encoding="utf-8")
    out = tmp_path / "flow"
    assert main(["flow", "--config", str(ini), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("gap (-1.064903, 0.581355): 8 curves over xi in "
                        "[-10.4, 10.4]")
    spans = [line.split(" mu ")[0].split(": ", 1)[1] for line in lines[1:9]]
    assert spans == [
        "right n=23 xi=[-9.300, -7.100]", "right n=23 xi=[-3.100, -0.900]",
        "right n=23 xi=[3.200, 5.400]", "right n=10 xi=[9.500, 10.400]",
        "left n=10 xi=[-10.400, -9.500]", "left n=23 xi=[-5.400, -3.200]",
        "left n=23 xi=[0.900, 3.100]", "left n=23 xi=[7.100, 9.300]"]
    # the first right curve enters steeply through the upper edge
    assert "events=('enters_from_upper_edge', 'exits_lower_edge')" in lines[1]
    with open(out / "flow_curves.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "gap_id,curve_id,side,xi,mu"
        rows = [line.strip().split(",") for line in fh]
    assert len(rows) == 4 * 23 + 2 * 10 + 2 * 23
    for gap_id, curve_id, side, xi, mu in rows:
        assert gap_id == "0" and side in ("right", "left")
        int(curve_id)
        float(xi)
        float(mu)


def test_cli_klabel_labels(capsys, tmp_path):
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI, encoding="utf-8")
    assert main(["klabel", "--config", str(ini)]) == 0
    labels = _labels(capsys.readouterr().out)
    assert labels["pi_trace"] == pytest.approx(0.15918261628075972, rel=1e-9)
    assert labels["pi_curves"] == pytest.approx(0.1856459713163863, rel=1e-9)
    assert labels["boundary_force"] == pytest.approx(0.1784488747344137,
                                                     rel=1e-9)
