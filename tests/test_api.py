"""gaplab.__all__ is the package's public contract: pin it."""

import ast
import collections
import re
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
    "harness.save_config": "config round-trip check",
}


def test_every_top_level_name_is_read():
    # a function or class that nothing in the package names besides its own
    # definition is dead code, unless public or a test oracle listed above
    src = Path(gaplab.__file__).parent
    texts = {p.stem: p.read_text() for p in src.glob("*.py")}
    words = collections.Counter()
    for text in texts.values():
        words.update(re.findall(r"\w+", text))
    defined = {f"{module}.{node.name}": node.name
               for module, text in texts.items()
               for node in ast.parse(text).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert set(TEST_ONLY) <= set(defined)
    unread = [full for full, name in defined.items()
              if words[name] < 2 and name not in gaplab.__all__
              and full not in TEST_ONLY]
    assert not unread
