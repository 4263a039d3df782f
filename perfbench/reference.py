"""Exact references for the benchmark's gap labels, and the checker.

Periodic workloads use V(x) = 2 cos(x + phi).  With x = 2z the equation
-psi'' + 2 cos(x) psi = E psi becomes Mathieu's y'' + (a - 2q cos 2z) y = 0
with a = 4E and q = 4, so gap n of the operator is the open interval
(b_n(4) / 4, a_n(4) / 4) between Mathieu characteristic values, and its label
is n / (2 pi): n states per period 2 pi.

The quasi-periodic workload uses V(x) = cos(2 pi x + phi1) + cos(2 pi g x +
phi2) with g the golden mean.  By the gap-labelling theorem (Johnson & Moser,
Commun. Math. Phys. 84, 1982) every gap label lies in the frequency module
Z + Z g; the reference of a label is the nearest m + n g with |m|, |n| <= 5.

A translation x -> x + phi changes neither the gap edges nor any label, so
every workload seed keeps its reference.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass, field, replace

from scipy.special import mathieu_a, mathieu_b

MATHIEU_Q = 4.0
MATHIEU_FREQUENCY = 1.0 / (2.0 * math.pi)   # cycles per unit length of cos(x)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
MODULE_RANGE = 5


class ReferenceUnavailable(RuntimeError):
    """A reference value could not be computed, so no check can run."""


def mathieu_gap(n: int) -> tuple[float, float]:
    """Exact edges of gap n of V = 2 cos x."""
    lower = float(mathieu_b(n, MATHIEU_Q)) / 4.0
    upper = float(mathieu_a(n, MATHIEU_Q)) / 4.0
    if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper):
        raise ReferenceUnavailable(
            f"Mathieu edges of gap {n} unavailable: ({lower}, {upper})")
    return lower, upper


def mathieu_label(n: int) -> float:
    return n * MATHIEU_FREQUENCY


def mathieu_points() -> tuple[float, ...]:
    """The labels a potential of period 2 pi admits: k / (2 pi)."""
    return tuple(mathieu_label(k) for k in range(-8, 9))


def module_points() -> tuple[float, ...]:
    """The frequency module points m + n g with |m|, |n| <= 5, sorted."""
    r = range(-MODULE_RANGE, MODULE_RANGE + 1)
    return tuple(sorted(m + n * GOLDEN for m, n in itertools.product(r, r)))


def nearest(points, value: float) -> float:
    return min(points, key=lambda p: abs(p - value))


@dataclass(frozen=True)
class LabelCheck:
    """One computed label against its exact value.

    `points` are the labels the theory admits (k / (2 pi) for the periodic
    workloads, the module points for the golden one); the label a computed
    value identifies is the admissible point nearest it.
    """

    name: str
    value: float
    err: float
    exact: float
    points: tuple[float, ...]

    @property
    def dev(self) -> float:
        return abs(self.value - self.exact)

    @property
    def wrong(self) -> bool:
        """The value identifies another label than the exact one."""
        return (not math.isfinite(self.value)
                or nearest(self.points, self.value) != self.exact)

    @property
    def inside(self) -> bool:
        """The label lies within its own error bar of the exact value."""
        return math.isfinite(self.value) and self.dev <= self.err


@dataclass(frozen=True)
class GapCheck:
    """Every check made on one attempted gap, the benchmark's operation.

    The operation failed when the program did not answer (it raised, exited
    with an error or missed the gap) or when a label identifies another gap
    label than the exact one.  Labels outside their own error bar and the
    program's failed verdicts are defects of the answer's error estimate
    and self-consistency; they do not fail the operation but count in
    `defective`, and the labels inside their bars are a gated metric.
    """

    gap: int
    labels: tuple[LabelCheck, ...] = ()
    edge_err: float | None = None
    errors: tuple[str, ...] = ()
    verdicts: tuple[str, ...] = ()

    @property
    def outside(self) -> list[LabelCheck]:
        return [lab for lab in self.labels if not lab.inside]

    @property
    def failed(self) -> bool:
        return bool(self.errors) or any(lab.wrong for lab in self.labels)

    @property
    def defective(self) -> bool:
        return self.failed or bool(self.verdicts) or bool(self.outside)

    def reasons(self) -> list[str]:
        return list(self.errors) + [
            f"{lab.name}={lab.value:.6g} identifies "
            f"{nearest(lab.points, lab.value):.6g}, not {lab.exact:.6g}"
            for lab in self.labels if lab.wrong]

    def defects(self) -> list[str]:
        return list(self.verdicts) + [
            f"{lab.name}={lab.value:.6g} off {lab.exact:.6g} by "
            f"{lab.dev:.2e} > err {lab.err:.2e}"
            for lab in self.outside if not lab.wrong]


def perturbed(check: GapCheck, value: float, err: float) -> GapCheck:
    """The same gap, answered, with its first label replaced."""
    lab = replace(check.labels[0], value=value, err=err)
    return replace(check, labels=(lab,) + check.labels[1:], errors=(),
                   verdicts=())


def self_check(checks: list[GapCheck]) -> bool:
    """Negative checks of the checker on the first gap that has labels.

    Its first label moved to the nearest other admissible label must fail
    the gap; with an error bar of a hundredth of the spacing of the
    admissible labels, moved three error bars off, it must count as a
    defect but not as a failure.
    """
    for check in checks:
        if check.labels:
            lab = check.labels[0]
            other = nearest([p for p in lab.points if p != lab.exact],
                            lab.exact)
            err = 0.01 * abs(other - lab.exact)
            off = perturbed(check, lab.exact + 3.0 * err, err)
            return (perturbed(check, other, lab.err).failed
                    and off.defective and not off.failed)
    return False


@dataclass
class Tally:
    """Checks accumulated over the requests of one run."""

    gaps: list[GapCheck] = field(default_factory=list)
    gaps_per_request: list[int] = field(default_factory=list)

    def add(self, checks: list[GapCheck], found: int) -> None:
        self.gaps.extend(checks)
        self.gaps_per_request.append(found)

    @property
    def labels(self) -> list[LabelCheck]:
        return [lab for g in self.gaps for lab in g.labels]

    @property
    def attempted(self) -> int:
        return len(self.gaps)

    @property
    def failed(self) -> int:
        return sum(g.failed for g in self.gaps)

    @property
    def defective(self) -> int:
        return sum(g.defective for g in self.gaps)

    def summary(self) -> dict:
        labels = self.labels
        edge = [g.edge_err for g in self.gaps if g.edge_err is not None]
        outside = sum(not lab.inside for lab in labels)
        return {
            "fail_ratio": self.defective / max(1, self.attempted),
            "labels_wrong": sum(lab.wrong for lab in labels),
            "label_dev_max": max((lab.dev for lab in labels), default=math.inf),
            "label_err_max": max((lab.err for lab in labels), default=math.inf),
            "label_err_p50": (statistics.median(lab.err for lab in labels)
                              if labels else math.inf),
            "labels_outside_err": outside,
            "labels_in_err": (len(labels) - outside) / max(1, len(labels)),
            "gaps_found": (sum(self.gaps_per_request)
                           / max(1, len(self.gaps_per_request))),
            "gap_edge_err_max": max(edge, default=0.0),
        }
