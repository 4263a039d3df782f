"""Finite-difference tridiagonal discretizations.

This is the second, independent spectral backend: three-point Laplacian on a
uniform grid with Dirichlet ends.  It backs the half-line operators used by
the edge-state trace invariant and serves as the cross-checking oracle for
the shooting code throughout the test suite.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, lapack

from . import potentials
from .potentials import PotentialSpec


def fd_grid(a: float, b: float, h: float) -> np.ndarray:
    """Interior nodes of the uniform grid on [a, b] with step h.

    The span must be a multiple of h up to rounding slack; a relative
    mismatch below 1e-5 displaces the far Dirichlet wall negligibly.
    """
    n = int(round((b - a) / h))
    if abs(n * h - (b - a)) > 1e-5 * max(1.0, abs(b - a)):
        raise ValueError(f"(b - a) = {b - a} is not a multiple of h = {h}")
    if n < 2:
        raise ValueError("grid too coarse")
    return a + h * np.arange(1, n)


def fd_tridiagonal(spec: PotentialSpec, a: float, b: float, xi: float,
                   h: float):
    """Diagonal and off-diagonal of -d^2/dx^2 + V(x + xi) on [a, b], Dirichlet."""
    xs = fd_grid(a, b, h)
    diag = 2.0 / h ** 2 + potentials.evaluate(spec, xs, xi)
    off = np.full(len(xs) - 1, -1.0 / h ** 2)
    return diag, off, xs


def sturm_count(diag: np.ndarray, off_value: float, energy: float) -> int:
    """Number of eigenvalues < energy, by the Sturm sign-count of T - E.

    LDL^T pivots of a symmetric tridiagonal with constant off-diagonal;
    negative pivots count eigenvalues below the shift.
    """
    c, count, q = off_value * off_value, 0, None
    for d in diag:
        q = d - energy if q is None else (d - energy) - c / (q or 1e-300)
        count += q < 0.0
    return int(count)


def count_below(diag: np.ndarray, off: np.ndarray, energy: float) -> int:
    """Number of eigenvalues < energy of the symmetric tridiagonal (diag, off),
    from the inertia of the LU of T - E with partial pivoting (lapack.dgttrf).

    Before step i of the elimination the active diagonal is c_i: the pivot
    u_i, or dl_i u_i where rows i and i + 1 were swapped.  The leading
    minors then satisfy D_{i+1}/D_i = c_i, or -e_{i-1} c_i/c_{i-1} after a
    swap at step i - 1, and the negative ratios count the eigenvalues below
    E (Sturm).  Needs at least 3 rows (dgttrf's wrapper refuses 1 and 2)
    and off free of zeros; an exact zero c_i recounts one ulp lower.
    """
    if len(diag) < 3:
        raise ValueError("count_below needs at least 3 rows")
    dl, u, _, _, piv, _ = lapack.dgttrf(off, diag - energy, off,
                                        overwrite_d=1)
    swap = piv[:-1] != np.arange(1, len(u))   # ipiv is 1-based
    c = u.copy()
    c[:-1][swap] *= dl[swap]
    if not c.all():
        return count_below(diag, off, np.nextafter(energy, -np.inf))
    negative = c < 0.0
    negative[1:] ^= swap & (negative[:-1] ^ (off > 0.0))
    return int(np.count_nonzero(negative))


def fd_eigenvalue_count(spec: PotentialSpec, a: float, b: float, xi: float,
                        energy: float, h: float) -> int:
    diag, off, _ = fd_tridiagonal(spec, a, b, xi, h)
    return sturm_count(diag, float(off[0]), energy)


def fd_eigenvalues(spec: PotentialSpec, a: float, b: float, xi: float,
                   h: float, e_min: float, e_max: float,
                   vectors: bool = False):
    """All eigenvalues of the Dirichlet box in [e_min, e_max]."""
    diag, off, xs = fd_tridiagonal(spec, a, b, xi, h)
    if vectors:
        w, v = eigh_tridiagonal(diag, off, select="v",
                                select_range=(e_min, e_max))
        return w, v, xs
    return eigvalsh_tridiagonal(diag, off, select="v",
                                select_range=(e_min, e_max))


def floquet_band_edges(spec: PotentialSpec, period: float, h: float,
                       n_bands: int) -> list[tuple[float, float]]:
    """Band intervals of a periodic potential from Bloch phases 0 and pi.

    Eigenvalues of one period with periodic boundary conditions interleave
    with the antiperiodic ones as  p0 <= A0 <= A1 <= p1 <= p2 <= A2 <= ...;
    consecutive distinct values bound the bands.  The corner-coupled matrices
    are diagonalized densely, so keep the single-period grid modest.
    """
    n = int(round(period / h))
    xs = np.arange(n) * h
    v = potentials.evaluate(spec, xs, 0.0)
    t = 1.0 / h ** 2
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx, idx] = 2.0 * t + v
    m[idx[:-1], idx[:-1] + 1] = -t
    m[idx[:-1] + 1, idx[:-1]] = -t
    need = 2 * n_bands + 2
    edges = []
    for corner in (-t, +t):  # periodic, antiperiodic
        m[0, -1] = corner
        m[-1, 0] = corner
        w = np.linalg.eigvalsh(m)
        edges.append(np.sort(w)[:need])
    per, anti = edges
    # bands: [per0, anti0], [anti1, per1], [per2, anti2], ...
    return [(float(per[k]), float(anti[k])) if k % 2 == 0
            else (float(anti[k]), float(per[k])) for k in range(n_bands)]
