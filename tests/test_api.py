"""gaplab.__all__ is the package's public contract: pin it."""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import gaplab

PUBLIC = {
    "PotentialSpec", "WindowChain", "Gap", "ExperimentConfig",
    "GapLabelReport",
    "eigenvalue_count", "dirichlet_eigenvalues", "ids", "detect_gaps",
    "lambda_mean", "rotation_number", "johnson_moser_alpha",
    "right_dirichlet_values", "left_dirichlet_values", "trace_flow",
    "interlacing_check", "mu_tilde", "beta",
    "build_halfline", "edge_projector", "pi_trace", "pi_curves",
    "boundary_force",
    "run",
}


def test_public_names_are_pinned():
    assert len(gaplab.__all__) == len(set(gaplab.__all__))
    assert set(gaplab.__all__) == PUBLIC


def test_every_public_name_imports():
    namespace = {}
    exec("from gaplab import *", namespace)
    for name in PUBLIC:
        assert callable(namespace[name]), name


# top-level names that only tests read, each with the reason it stays
TEST_ONLY = {
    "lattice.fd_eigenvalue_count": "matrix oracle for Sturm counts",
    "lattice.fd_eigenvalues": "matrix oracle for box eigenvalues",
    "lattice.floquet_band_edges": "Floquet band-edge oracle",
    "potentials.translate": "covariance checks under translation",
    "prufer.seed_decaying_right": "reference for mirrored left seeds",
    "dirichlet.flow_derivative_check": "eigenvalue-motion identity check",
}


def test_every_top_level_name_is_read():
    # a function or class that no code in the package references (a name, an
    # attribute or an import; words in docstrings do not count) is dead
    # code, unless public or a test oracle listed above
    trees = {p.stem: ast.parse(p.read_text())
             for p in Path(gaplab.__file__).parent.glob("*.py")}
    refs = collections.Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.alias):
                refs[node.name] += 1
    defined = {f"{module}.{node.name}": node.name
               for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unread = {full for full, name in defined.items()
              if not refs[name] and name not in gaplab.__all__}
    assert unread == set(TEST_ONLY)


def test_every_option_is_passed():
    """A defaulted parameter of a top-level function, or of a method of a
    top-level class, that no call in the project passes, by name or by
    position, is an unused option: a configuration that no test or benchmark
    runs.

    Calls are matched by name only, which can miss an unused option but not
    flag a used one.  Two cases stay out of sight: a call that forwards
    *args or **kwargs passes every option of its name (detect_gaps,
    trace_flow and WindowChain.geometric are called so), and a caller that
    passes the default value itself counts as passing it.
    """
    root = Path(gaplab.__file__).parents[2]
    trees = {p: ast.parse(p.read_text())
             for d in ("src", "tests", "perfbench", "scripts")
             for p in (root / d).rglob("*.py")}
    positional = collections.Counter()   # most positional arguments passed
    named, forwarded = collections.defaultdict(set), set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            positional[name] = max(positional[name], len(call.args))
            named[name] |= {k.arg for k in call.keywords}
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or None in named[name]):
                forwarded.add(name)
    functions = []   # (qualified name, definition, implicit first argument)
    for path in Path(gaplab.__file__).parent.glob("*.py"):
        for node in trees[path].body:
            if isinstance(node, ast.FunctionDef):
                functions.append((f"{path.stem}.{node.name}", node, 0))
            elif isinstance(node, ast.ClassDef):
                functions += [
                    (f"{path.stem}.{node.name}.{fn.name}", fn, int(not any(
                        getattr(d, "id", None) == "staticmethod"
                        for d in fn.decorator_list)))
                    for fn in node.body if isinstance(fn, ast.FunctionDef)]
    unused = set()
    for qualified, fn, implicit in functions:
        if fn.name in forwarded:
            continue
        args = fn.args.posonlyargs + fn.args.args
        defaulted = [(i - implicit, a.arg) for i, a in enumerate(args)
                     if i >= len(args) - len(fn.args.defaults)]
        defaulted += [(len(args), a.arg) for a, d in zip(
            fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        unused |= {f"{qualified}({arg}=)" for i, arg in defaulted
                   if i >= positional[fn.name] and arg not in named[fn.name]}
    assert sorted(unused) == []


COLD_START = """
import math, sys
import gaplab, gaplab.cli
spec = gaplab.PotentialSpec.cosine_sum([(2.0, 1.0 / (2.0 * math.pi), 0.0)])
gap = gaplab.Gap(-1.0647957251402358, 0.5795020425266311)  # gap 1 of 2 cos x
gaplab.johnson_moser_alpha(spec, gap.mid, chain=gaplab.WindowChain.geometric(
    10.0, 1.6, 3), in_gap=True)
gaplab.trace_flow(spec, gap, 0.0, 1.0, 0.1, 20.0)
gaplab.pi_trace(spec, gap, (0.0, 1.0), 0.1, 20.0, 0.01)
heavy = {"scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special"}
print(sorted(heavy & sys.modules.keys()))
gaplab.lambda_mean(math.sin, gaplab.WindowChain.geometric(10.0, 2.0, 3))
print("scipy.integrate" in sys.modules)
"""


def test_requests_load_no_scipy_beyond_linalg():
    # the labels need LAPACK alone; only lambda_mean's quad loads
    # scipy.integrate (and with it optimize, sparse and special)
    env = dict(os.environ, PYTHONPATH=str(Path(gaplab.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True"]
