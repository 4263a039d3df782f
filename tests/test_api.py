"""gaplab.__all__ is the package's public contract: pin it."""

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
