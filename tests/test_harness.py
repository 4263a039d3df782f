import importlib.util
import json
import math
import os
import re
import shlex
from pathlib import Path

import pytest

from gaplab import dirichlet, harness
from gaplab.cli import USAGE_ERROR, build_parser, main
from gaplab.harness import ExperimentConfig, load_config, parse_potential_arg
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


FULL_INI = """\
[potential]
kind = cosine_sum
terms =
    2.0 0.5 0.0
    1.0 0.25 1.5

[scan]
e_min = -1.5
e_max = 3.0
resolution = 0.04

[chain_x]
half_width = 20.0
ratio = 1.5
count = 3

[chain_xi]
half_width = 5.0
ratio = 2.0
count = 4

[numerics]
L = 40.0
h = 0.005
dxi = 0.05
gap_edge_margin = 0.02
mass_threshold = 0.6
trace_window_halfwidth = 2.5
max_gaps = 3

[output]
dir = results
"""


def test_config_roundtrip(tmp_path):
    # every field of the INI file reaches the config
    path = tmp_path / "exp.ini"
    path.write_text(FULL_INI, encoding="utf-8")
    loaded = load_config(str(path))
    expected = ExperimentConfig(
        potential=PotentialSpec.cosine_sum([(2.0, 0.5, 0.0),
                                            (1.0, 0.25, 1.5)]),
        e_min=-1.5, e_max=3.0, resolution=0.04,
        x_chain=WindowChain.geometric(20.0, 1.5, 3),
        xi_chain=WindowChain.geometric(5.0, 2.0, 4),
        L=40.0, h=0.005, dxi=0.05, gap_edge_margin=0.02,
        mass_threshold=0.6, trace_window_halfwidth=2.5, max_gaps=3,
        out_dir="results")
    for name in ExperimentConfig.__dataclass_fields__:
        assert getattr(loaded, name) == getattr(expected, name), name


def test_config_validation():
    zero = PotentialSpec.zero()
    with pytest.raises(ValueError):
        ExperimentConfig(potential=zero, resolution=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(potential=zero, e_min=2.0, e_max=1.0)
    # a negative max_gaps would slice gaps off the end of the scan
    with pytest.raises(ValueError, match="max_gaps"):
        ExperimentConfig(potential=zero, max_gaps=-1)
    # a margin of half the width or more leaves no trimmed gap
    for margin in (0.5, 0.6):
        with pytest.raises(ValueError, match="gap_edge_margin"):
            ExperimentConfig(potential=zero, gap_edge_margin=margin)
    # a fraction of each state's mass: at 2.0 pi_trace kept no edge state
    # and read 0.0 on gap 1 of 2cos x
    for value in (math.nan, -1.0, 0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match="mass_threshold"):
            ExperimentConfig(potential=zero, mass_threshold=value)
    # one window leaves a chain label without an error bar
    one = WindowChain.geometric(25.0, 1.6, 1)
    for name in ("x_chain", "xi_chain"):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(potential=zero, **{name: one})
    assert ExperimentConfig(potential=zero, max_gaps=0).max_gaps == 0


def test_config_rejects_non_finite_values():
    # with a NaN mass_threshold no edge state is kept, and pi_trace read
    # 0.0 on gap 1 of 2cos x, where the label is 1/(2 pi)
    zero = PotentialSpec.zero()
    for name, value in (("mass_threshold", math.nan), ("L", math.nan),
                        ("resolution", math.inf), ("e_max", math.inf),
                        ("e_min", -math.inf), ("dxi", math.nan),
                        ("max_gaps", math.nan)):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(potential=zero, **{name: value})


def test_load_config_reads_percent_verbatim(tmp_path):
    # configparser's default interpolation aborted the load on a '%'
    path = tmp_path / "exp.ini"
    path.write_text("[potential]\nkind = zero\n\n[output]\ndir = out_100%\n",
                    encoding="utf-8")
    assert load_config(str(path)).out_dir == "out_100%"


@pytest.mark.parametrize("section, line, unknown", [
    ("[numerics]", "dxl = 0.05", "dxl"),     # was read as dxi 0.1
    ("[sacn]", "e_min = 5", "[sacn]"),       # was read as e_min -2
    ("[chain_x]", "cont = 3", "cont"),
    ("[output]", "directory = results", "directory"),
])
def test_load_config_rejects_unknown_section_or_key(tmp_path, section, line,
                                                    unknown):
    path = tmp_path / "exp.ini"
    path.write_text(f"[potential]\nkind = zero\n\n{section}\n{line}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(unknown)):
        load_config(str(path))


@pytest.mark.parametrize("kind, terms", [
    ("sine", "1.0 0.5 0.0"),          # unknown kind
    ("cosine_sum", "1.0 0.5"),        # a term of two numbers
    ("cosine_sum", ""),               # no terms
    ("cosine_sum", "zero"),           # the CLI's word for V = 0
    ("cosine_sum", "1.0,0.5,0.0"),    # the CLI's separator
])
def test_load_config_rejects_bad_potential(tmp_path, kind, terms):
    path = tmp_path / "exp.ini"
    path.write_text(f"[potential]\nkind = {kind}\nterms =\n    {terms}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_readme_examples(monkeypatch, tmp_path, capsys):
    # the README's INI block is the config of scripts/run_mathieu.py, and
    # every gaplab line of its CLI block parses
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    ini = tmp_path / "readme.ini"
    ini.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1),
                   encoding="utf-8")
    built = []
    monkeypatch.setattr(harness, "run", lambda cfg: built.append(cfg) or [])
    spec = importlib.util.spec_from_file_location(
        "run_mathieu", root / "scripts" / "run_mathieu.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main("out") == 0
    assert load_config(str(ini)) == built[0]
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("gaplab ")]
    assert len(commands) == 7
    for argv in commands:
        args = build_parser().parse_args(argv)
        assert args.func.__name__ == f"cmd_{argv[0]}"


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
                 "mu_tilde_phase.csv", "trace_phase.csv"):
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
    with open(tmp_path / "trace_phase.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "gap_id,xi,phase"


def test_ids_scan_is_the_label_inside_the_gap(smoke_run):
    # the scan's bump-mean rotation number carries no boundary states
    reports, tmp_path = smoke_run
    lo, hi = reports[0].gap.trimmed()
    with open(tmp_path / "ids_scan.csv", encoding="utf-8") as fh:
        fh.readline()
        rows = [tuple(map(float, line.split(","))) for line in fh]
    inside = [ids for e, ids in rows if lo < e < hi]
    assert len(inside) > 10
    assert all(abs(ids - 1.0 / (2.0 * math.pi)) <= 1e-6 for ids in inside)


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
    # the free phase at E = 1 is linear and its zeros evenly spaced, so both
    # bump means are exact to rounding: no one-over-length boundary term
    for row in rows:
        assert row["error"] < 1e-12
        assert row["zero_density_error"] < 1e-12


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
    assert "error: no gap detected" in capsys.readouterr().err
    assert main(["klabel", "--potential", "zero", "--energy-min", "0",
                 "--energy-max", "4"]) == 1
    assert "error: no gap detected" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["ids", "--energy", "nan"], "error: energy must be finite, got nan"),
    (["ids", "--energy", "1.0", "--xi", "inf"], "error: xi must be finite"),
    (["rotation", "--energy", "inf"], "error: energy must be finite"),
    (["rotation", "--energy", "1.0", "--xi", "inf"],
     "error: xi must be finite, got inf")])
def test_cli_refuses_non_finite_energy_and_offset(capsys, argv, message):
    assert main(argv + ["--potential", "2,0.15915494309189535,0"]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "underflow" not in captured.err and not captured.out


def test_cli_usage_error_exit_code(capsys):
    # a malformed command line is not a failed verdict (2)
    assert main(["flow", "--xi-range", "-5:5"]) == USAGE_ERROR != 2
    assert "expected one argument" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage: gaplab" in capsys.readouterr().out


def test_cli_report_exit_code_zero_potential(capsys, tmp_path):
    path = tmp_path / "zero.ini"
    path.write_text("[potential]\nkind = zero\n\n"
                    "[scan]\ne_min = 0.0\ne_max = 3.0\nresolution = 0.05\n\n"
                    "[chain_x]\nhalf_width = 25.0\nratio = 1.6\ncount = 5\n",
                    encoding="utf-8")
    assert main(["report", "--config", str(path)]) == 0


def test_failed_gap_keeps_its_error_type(monkeypatch, capsys, tmp_path):
    def unresolved(config, gap):
        raise dirichlet.FlowResolutionError("a step folds past its bound")

    monkeypatch.setattr(harness, "label_gap", unresolved)
    with pytest.raises(dirichlet.FlowResolutionError,
                       match=r"^labelling gap 0 \(.*\) failed: a step folds"):
        harness.run(small_mathieu_config())
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI, encoding="utf-8")
    assert main(["report", "--config", str(ini)]) == 1
    assert "error: labelling gap 0" in capsys.readouterr().err


def test_cli_flow_writes_float_csv(capsys, tmp_path):
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI, encoding="utf-8")
    out = tmp_path / "flow"
    assert main(["flow", "--config", str(ini), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # exact edges (-1.064795, 0.579509)
    assert lines[0] == ("gap (-1.064848, 0.580346): 8 curves over xi in "
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


def test_cli_flow_negative_xi_range(capsys, tmp_path):
    # a range starting below zero must be attached with '=', or argparse
    # reads it as an option
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI, encoding="utf-8")
    assert main(["flow", "--config", str(ini), "--xi-range=-1.5:1"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.endswith("curves over xi in [-1.5, 1.0]")


def test_cli_flow_xi_range_is_parsed_before_any_work(monkeypatch, capsys):
    def no_scan(config):
        raise AssertionError("the gap scan ran")

    monkeypatch.setattr(harness, "detect_gaps", no_scan)
    for text in ("5", "3:1", "1:1", "a:2", "1:2:3"):
        assert main(["flow", "--potential", "zero",
                     f"--xi-range={text}"]) == USAGE_ERROR
        assert "argument --xi-range" in capsys.readouterr().err


def test_cli_non_finite_flag_is_refused_before_any_work(monkeypatch,
                                                        capsys):
    # --L nan used to fail only after the whole gap scan
    def no_scan(config):
        raise AssertionError("the gap scan ran")

    monkeypatch.setattr(harness, "detect_gaps", no_scan)
    for flag, message in (("--L", "L must be positive and finite"),
                          ("--h", "h must be positive and finite"),
                          ("--resolution", "resolution must be positive"),
                          ("--energy-max", "need finite e_min < e_max")):
        assert main(["klabel", "--potential", "zero", flag, "nan"]) == 1
        assert f"error: {message}" in capsys.readouterr().err


def test_cli_klabel_labels(capsys, tmp_path):
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI, encoding="utf-8")
    assert main(["klabel", "--config", str(ini)]) == 0
    captured = capsys.readouterr()
    assert "pi_trace:" not in captured.err   # logging is silent by default
    labels = _labels(captured.out)
    assert labels["pi_trace"] == pytest.approx(1.0 / (2.0 * math.pi),
                                               rel=1e-9)
    assert labels["pi_curves"] == pytest.approx(0.1657492165134462, rel=1e-9)
    assert labels["boundary_force"] == pytest.approx(0.16482557842873644,
                                                     rel=1e-9)


def test_cli_verbose_logs_to_stderr(capsys, tmp_path):
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI, encoding="utf-8")
    assert main(["--verbose", "klabel", "--config", str(ini)]) == 0
    captured = capsys.readouterr()
    assert re.search(r"^pi_trace: window .* states bisected$", captured.err,
                     re.MULTILINE)
    assert _labels(captured.out)["pi_trace"] == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-9)
