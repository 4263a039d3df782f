"""Potential families for the operator family H_xi = -d^2/dx^2 + V(x + xi).

Two kinds are supported: the zero potential and finite cosine sums

    V(x) = sum_j  A_j * cos(2*pi*f_j*x + phi_j),

which cover periodic potentials (single frequency or rationally related
frequencies) and quasi-periodic ones (incommensurate frequencies).  Both are
bounded by construction, with |V| <= sum |A_j|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

ZERO = "zero"
COSINE_SUM = "cosine_sum"


@dataclass(frozen=True)
class PotentialSpec:
    """Immutable description of a potential.

    kind is "zero" or "cosine_sum"; terms holds (amplitude, frequency, phase)
    triples, with frequency in cycles per unit length.
    """

    kind: str
    terms: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in (ZERO, COSINE_SUM):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == ZERO and self.terms:
            raise ValueError("zero potential takes no terms")
        if self.kind == COSINE_SUM and not self.terms:
            raise ValueError("cosine_sum potential needs at least one term")
        terms = tuple((float(a), float(f), float(p)) for a, f, p in self.terms)
        if not all(math.isfinite(v) for term in terms for v in term):
            raise ValueError(f"potential terms must be finite, got {terms}")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(ZERO)

    @classmethod
    def cosine_sum(cls, terms) -> "PotentialSpec":
        return cls(COSINE_SUM, tuple(terms))


def require_finite(**values) -> None:
    """ValueError naming the first argument that is not a finite number."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def evaluate(spec: PotentialSpec, x, xi=0.0):
    """Evaluate V(x + xi).  Broadcasts over array-valued x and xi."""
    if spec.kind == ZERO:
        y = np.asarray(x) + np.asarray(xi)
        out = np.zeros_like(y, dtype=float)
        return float(out) if out.ndim == 0 else out
    y = np.asarray(x, dtype=float) + np.asarray(xi, dtype=float)
    out = np.zeros_like(y)
    for a, f, p in spec.terms:
        out = out + a * np.cos(TWO_PI * f * y + p)
    return float(out) if out.ndim == 0 else out


def amplitude_bound(spec: PotentialSpec) -> float:
    """sum |A_j|, a uniform bound on |V|."""
    return sum(abs(a) for a, _, _ in spec.terms) if spec.kind == COSINE_SUM else 0.0


def slope_bound(spec: PotentialSpec) -> float:
    """sum |A_j| 2 pi |f_j|, a uniform bound on |V'|."""
    return sum((abs(a) * TWO_PI * abs(f) for a, f, _ in spec.terms), 0.0)


def max_frequency(spec: PotentialSpec) -> float:
    if spec.kind == ZERO:
        return 0.0
    return max(abs(f) for _, f, _ in spec.terms)


def mean_value(spec: PotentialSpec, a, b):
    """Exact window average (1/(b-a)) * integral_a^b V.  Broadcasts over a, b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    if spec.kind == COSINE_SUM:
        for amp, f, p in spec.terms:
            if f == 0.0:
                out = out + amp * math.cos(p)
            else:
                w = TWO_PI * f
                out = out + amp * (np.sin(w * b + p) - np.sin(w * a + p)) / (w * (b - a))
    return float(out) if out.ndim == 0 else out


def translate(spec: PotentialSpec, shift: float) -> PotentialSpec:
    """The translated potential x -> V(x + shift), folded into the phases."""
    if spec.kind == ZERO:
        return spec
    return PotentialSpec.cosine_sum(
        [(a, f, p + TWO_PI * f * shift) for a, f, p in spec.terms]
    )


def scalar_evaluator(spec: PotentialSpec, xi: float = 0.0, mirror=False):
    """Closure computing V(x + xi), or V(-x + xi) if mirror, with floats."""
    if spec.kind == ZERO:
        return lambda x: 0.0
    s = -TWO_PI if mirror else TWO_PI
    folded = [(a, s * f, p + TWO_PI * f * xi) for a, f, p in spec.terms]
    if len(folded) == 1:
        a0, w0, p0 = folded[0]

        def one_term(x, _a=a0, _w=w0, _p=p0, _cos=math.cos):
            return _a * _cos(_w * x + _p)

        return one_term

    def many_terms(x, _terms=folded, _cos=math.cos):
        total = 0.0
        for a, w, p in _terms:
            total += a * _cos(w * x + p)
        return total

    return many_terms


def offset_evaluator(spec: PotentialSpec, xi, mirror=False):
    """Closure computing V(x + xi), or V(-x + xi) where mirror is set, over
    an array of offsets, for a scalar x or a 1-d array of x.

    By angle addition, a cos(w (+-x + xi) + p) = A cos(w x) -+ B sin(w x)
    with A = a cos(w xi + p) and B = a sin(w xi + p) per offset, computed
    once here.  A scalar x then costs scalar trigonometry and array
    multiply-adds; an array of x costs its trigonometry and one matrix
    product with the stacked A and -B.  The result has the shape of xi and
    mirror, after a leading axis over x when x is an array.
    """
    xi, s = np.broadcast_arrays(np.asarray(xi, float), np.where(mirror, -1, 1))
    if spec.kind == ZERO:
        return lambda x: np.zeros(np.shape(x) + xi.shape)
    factors = [(TWO_PI * f, a * np.cos(TWO_PI * f * xi + p),
                s * a * np.sin(TWO_PI * f * xi + p)) for a, f, p in spec.terms]
    freqs = np.array([w for w, _, _ in factors])
    coefficients = np.reshape([A for _, A, _ in factors]
                              + [-B for _, _, B in factors],
                              (2 * len(factors), -1))

    def at(x, _cos=math.cos, _sin=math.sin):
        if np.ndim(x):
            wx = np.multiply.outer(x, freqs)
            trig = np.concatenate([np.cos(wx), np.sin(wx)], axis=1)
            return np.dot(trig, coefficients).reshape(wx.shape[:1] + xi.shape)
        (w0, A0, B0), *rest = factors
        total = A0 * _cos(w0 * x) - B0 * _sin(w0 * x)
        for wk, A, B in rest:
            total += A * _cos(wk * x) - B * _sin(wk * x)
        return total

    return at


@dataclass(frozen=True)
class WindowChain:
    """Increasing chain of compact intervals used for window means.

    windows[n] = (a_n, b_n) with each window contained in the next one.
    """

    windows: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ws = tuple((float(a), float(b)) for a, b in self.windows)
        if not ws:
            raise ValueError("WindowChain needs at least one window")
        for a, b in ws:
            if not -math.inf < a < b < math.inf:
                raise ValueError(f"window ({a}, {b}) needs finite a < b")
        for (a0, b0), (a1, b1) in zip(ws, ws[1:]):
            if a1 > a0 or b1 < b0:
                raise ValueError("windows must be nested and increasing")
        object.__setattr__(self, "windows", ws)

    @classmethod
    def geometric(cls, half_width: float = 25.0, ratio: float = 1.6,
                  count: int = 8) -> "WindowChain":
        """Symmetric chain [-c*r^n, c*r^n], n = 0..count-1."""
        if not (0 < half_width < math.inf and 1 < ratio < math.inf
                and count >= 1):
            raise ValueError("need finite half_width > 0 and ratio > 1, and "
                             f"count >= 1; got {half_width}, {ratio}, {count}")
        return cls(tuple((-half_width * ratio ** n, half_width * ratio ** n)
                         for n in range(count)))

    @property
    def largest(self) -> tuple[float, float]:
        return self.windows[-1]

    @property
    def lengths(self) -> np.ndarray:
        return np.array([b - a for a, b in self.windows])

    def __len__(self) -> int:
        return len(self.windows)
