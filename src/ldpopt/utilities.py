"""Objective functions: f-divergences, mutual information, and the
per-column sublinear scores that reduce them to sums over mechanism columns.

Every utility here decomposes as U(Q) = sum_y mu(Q_y) for a positively
homogeneous, subadditive mu, which is what makes the extremal-mechanism LP
work. Each generator's term b f(a/b) is written once, as
`FDivergenceKind.terms(b, d)` of the marginal b and d = a - b, and every score
goes through it; mutual information is the KL terms sum_x P(x) D(Q(.|x) || M).
Callers form d before rounding, as (P0 - P1).c or P(x) (c(x) - P.c), so terms
of order e^eps - 1 keep the relative precision that a - b of two rounded
marginals would lose. All logarithms are natural; divergences are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Distribution, DimensionMismatch, Mechanism, PatternMatrix


class AbsoluteContinuityViolated(ValueError):
    """The first argument puts mass where the second has none."""


class ConvexityViolation(ValueError):
    """A user-supplied divergence generator failed the convexity spot-check."""


@dataclass(frozen=True)
class FDivergenceKind:
    """A convex generator f with f(1) = 0 defining an f-divergence.

    Use the module-level presets KL, TV, CHI2, or `custom(f)` for caller
    supplied generators (declared convex; spot-checked on use).
    """

    tag: str
    custom_f: Callable[[float], float] | None = None

    def terms(self, b: np.ndarray, d: np.ndarray) -> np.ndarray:
        """b f(a / b) elementwise for a = b + d; 0 where a = b = 0.

        TV is half |d| everywhere. For the other generators a must vanish
        wherever b does (absolute continuity); callers check that. KL's
        log(a / b) is the log1p of |d| / min(a, b) with the sign of d, which
        keeps its relative precision for a near b and for a or b near 0.
        """
        if self.tag == "kl":
            a = b + d
            lo = np.minimum(a, b)
            r = np.divide(np.abs(d), lo, out=np.zeros(lo.shape), where=lo > 0)
            return a * np.copysign(np.log1p(r, out=r), d, out=r)
        if self.tag == "tv":
            return 0.5 * np.abs(d)
        if self.tag == "chi2":
            return d * np.divide(d, b, out=np.zeros(b.shape), where=b > 0)
        f = np.vectorize(self.custom_f, otypes=[float])
        pos = b > 0
        ratios = 1.0 + d[pos] / b[pos]
        _spot_check_convexity(f, ratios)
        out = np.zeros(b.shape)
        out[pos] = b[pos] * f(ratios)
        return out


KL = FDivergenceKind("kl")
TV = FDivergenceKind("tv")
CHI2 = FDivergenceKind("chi2")


def custom(f: Callable[[float], float]) -> FDivergenceKind:
    """Wrap a caller-supplied convex generator with f(1) = 0."""
    return FDivergenceKind("custom", custom_f=f)


def _spot_check_convexity(f: Callable[[np.ndarray], np.ndarray],
                          ratios: np.ndarray) -> None:
    """100-point midpoint-convexity check of a custom generator over the
    observed ratio range.

    The presets are convex by construction. A non-convex generator voids
    the extremal-mechanism reduction, so this is a hard error.
    """
    lo = float(np.min(ratios, initial=1.0))
    hi = float(np.max(ratios, initial=1.0))
    if hi <= lo:
        hi = lo + 1.0
    grid = np.linspace(lo, hi, 100)
    vals = f(grid)
    scale = max(1.0, float(np.max(np.abs(vals))))
    mid = f((grid[:-2] + grid[2:]) / 2.0)
    if np.any(mid > (vals[:-2] + vals[2:]) / 2.0 + 1e-9 * scale):
        raise ConvexityViolation("custom generator is not convex on the observed range")
    if abs(float(f(np.array([1.0]))[0])) > 1e-9:
        raise ConvexityViolation("custom generator must satisfy f(1) = 0")


@dataclass(frozen=True)
class UtilitySpec:
    """Which objective to maximize: an f-divergence between the induced
    marginals of two priors, or mutual information under one prior."""

    objective: str  # "ht" | "mi"
    kind: FDivergenceKind | None = None
    p0: Distribution | None = None
    p1: Distribution | None = None
    p: Distribution | None = None

    def __post_init__(self):
        if self.objective == "ht":
            if self.kind is None or self.p0 is None or self.p1 is None:
                raise ValueError("hypothesis-testing spec needs kind, p0 and p1")
            if self.p0.k != self.p1.k:
                raise DimensionMismatch("p0 and p1 must share an alphabet")
            if not (self.p0.is_positive and self.p1.is_positive):
                raise ValueError("priors must be positive")
        elif self.objective == "mi":
            if self.p is None:
                raise ValueError("information-preservation spec needs p")
            if not self.p.is_positive:
                raise ValueError("prior must be positive")
        else:
            raise ValueError(f"unknown objective {self.objective!r}")

    @property
    def k(self) -> int:
        return self.p.k if self.objective == "mi" else self.p0.k


def hypothesis_testing(kind: FDivergenceKind, p0: Distribution,
                       p1: Distribution) -> UtilitySpec:
    return UtilitySpec("ht", kind=kind, p0=p0, p1=p1)


def information_preservation(p: Distribution) -> UtilitySpec:
    return UtilitySpec("mi", p=p)


def entropy(P: Distribution) -> float:
    """Shannon entropy in nats, with 0 log 0 = 0."""
    p = P.probs
    pos = p > 0
    return float(-(p[pos] * np.log(p[pos])).sum())


def f_divergence(kind: FDivergenceKind, M0: Distribution, M1: Distribution) -> float:
    """D_f(M0 || M1) = sum_y M1(y) f(M0(y) / M1(y)), with 0 f(0/0) = 0.

    KL (and chi-squared, and custom generators) require M0 absolutely
    continuous with respect to M1; TV is evaluated as half the L1 distance,
    which needs no such condition.
    """
    if M0.k != M1.k:
        raise DimensionMismatch("marginals must share an alphabet")
    a, b = M0.probs, M1.probs
    if kind.tag != "tv" and np.any((b == 0) & (a > 0)):
        raise AbsoluteContinuityViolated("M0 has mass where M1 has none")
    return float(kind.terms(b, a - b).sum())


def mutual_information(P: Distribution, Q: Mechanism) -> float:
    """I(X;Y) for X ~ P privatized through Q, in nats.

    Terms with Q(y|x) = 0 contribute zero. The prior must be positive.
    """
    if P.k != Q.k:
        raise DimensionMismatch(f"P has k={P.k} but Q has k={Q.k}")
    return float(column_scores(information_preservation(P), Q.rows).sum())


def column_scores(spec: UtilitySpec, C: np.ndarray) -> np.ndarray:
    """The sublinear score mu of each column of a k x n nonnegative matrix.

    Hypothesis testing: (P1.c) f(P0.c / P1.c).
    Information preservation: sum_x P(x) c(x) log(c(x) / P.c), with 0 where
    c(x) = 0. An all-zero column scores 0.
    """
    if spec.objective == "ht":
        return spec.kind.terms(spec.p1.probs @ C, (spec.p0.probs - spec.p1.probs) @ C)
    p = spec.p.probs[:, None]
    m = spec.p.probs @ C
    return KL.terms(p * m, p * (C - m)).sum(axis=0)


def pattern_scores(spec: UtilitySpec, pattern: PatternMatrix) -> np.ndarray:
    """`column_scores` of every pattern column, without the k x 2^k matrix.

    Column j is 1 + delta * bits_j, so its score depends on the priors only
    through the masses they put on its 1 + delta entries: m0 = P0 . bits_j
    and m1 = P1 . bits_j, or m = P . bits_j.
    Hypothesis testing: the terms of b = 1 + delta m1, d = delta (m0 - m1).
    Information preservation: the inputs with entry 1 + delta, and those
    with entry 1, give one KL term each against the column mass
    w = 1 + delta m, with d = +-delta m (1 - m).
    """
    bits, delta = pattern.bits, pattern.delta
    if spec.objective == "ht":
        return spec.kind.terms(1.0 + delta * (spec.p1.probs @ bits),
                               delta * ((spec.p0.probs - spec.p1.probs) @ bits))
    m = spec.p.probs @ bits
    w = 1.0 + delta * m
    g = delta * m * (1.0 - m)
    return KL.terms(m * w, g) + KL.terms((1.0 - m) * w, -g)


def column_utility(spec: UtilitySpec, col: np.ndarray) -> float:
    """The sublinear column score mu(Q_y) of one column; see `column_scores`."""
    if np.ndim(col) != 1 or np.size(col) != spec.k:
        raise DimensionMismatch(f"column must have length {spec.k}")
    if np.any(np.less(col, 0)):
        raise ValueError("column entries must be nonnegative")
    return float(column_scores(spec, np.reshape(col, (-1, 1)))[0])


def utility(spec: UtilitySpec, Q: Mechanism) -> float:
    """U(Q) = sum over columns of the sublinear score.

    Agrees with the direct f_divergence / mutual_information evaluation of
    the induced marginals.
    """
    if Q.k != spec.k:
        raise DimensionMismatch(f"spec has k={spec.k} but Q has k={Q.k}")
    return float(column_scores(spec, Q.rows).sum())
