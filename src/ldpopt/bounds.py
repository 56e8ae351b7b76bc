"""Closed-form utilities of the named mechanisms and converse bounds.

These are the analytic oracles the LP solver and the direct evaluators are
cross-checked against: exact divergences of the two-output and randomized
response mechanisms, the universal upper bounds (Pinsker, the
4(e^eps-1)^2 TV^2 bound), per-output marginal-ratio bounds, and the high-
and low-privacy expansion checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, Distribution, Mechanism, exp_eps, induced_marginal
from .mechanisms import binary_ht, binary_mi, ht_partition, mi_partition
from .optsolve import build_lp, solve
from .utilities import (KL, TV, UtilitySpec, entropy, f_divergence,
                        mutual_information, utility)

BOUND_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality lhs <= rhs, with its slack."""

    name: str
    lhs: float
    rhs: float

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs + BOUND_TOL

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _require_pair(P0: Distribution, P1: Distribution) -> None:
    if P0.k != P1.k:
        raise DimensionMismatch("priors must share an alphabet")
    if not (P0.is_positive and P1.is_positive):
        raise ValueError("priors must be positive")


def _kl_terms(b: np.ndarray, d: np.ndarray, scale: float) -> np.ndarray:
    """a log(a / b) / scale for a = b + d, 0 where a or b is 0: the log1p of
    |d| / min(a, b) with the sign of d, so a d formed from delta = e^eps - 1
    keeps its relative precision, and a / scale stays in the float range."""
    a = b + d
    lo = np.minimum(a, b)
    r = np.divide(np.abs(d), lo, out=np.zeros(lo.shape), where=lo > 0)
    return a / scale * np.copysign(np.log1p(r), d)


def _rr_kl(p0: np.ndarray, p1: np.ndarray, eps: float) -> float:
    """KL divergence of the marginals randomized response induces from p0, p1."""
    exp_eps(eps)
    delta = math.expm1(eps)
    return float(_kl_terms(1 + delta * p1, delta * (p0 - p1), delta + p0.size).sum())


def _rr_mi(p: np.ndarray, eps: float) -> float:
    """Mutual information of randomized response under p: each output y
    against input y (entry 1 + delta) and the other inputs (entry 1)."""
    exp_eps(eps)
    delta = math.expm1(eps)
    mass, g = 1 + delta * p, delta * p * (1 - p)
    return float((_kl_terms(p * mass, g, delta + p.size)
                  + _kl_terms((1 - p) * mass, -g, delta + p.size)).sum())


def binary_kl_closed(P0: Distribution, P1: Distribution, eps: float) -> float:
    """Exact KL divergence of the induced marginals under the two-output split:
    randomized response on the split's two masses."""
    _require_pair(P0, P1)
    split = ht_partition(P0, P1)
    t0, t1 = split.mass, P1.mass(split.members)
    return _rr_kl(np.array([t0, 1 - t0]), np.array([t1, 1 - t1]), eps)


def rr_kl_closed(P0: Distribution, P1: Distribution, eps: float) -> float:
    """Exact KL divergence of the induced marginals under randomized response."""
    _require_pair(P0, P1)
    return _rr_kl(P0.probs, P1.probs, eps)


def binary_tv_closed(P0: Distribution, P1: Distribution, eps: float) -> float:
    """Exact (and optimal for every eps) total variation through the split."""
    _require_pair(P0, P1)
    e = exp_eps(eps)
    return (e - 1) / (e + 1) * f_divergence(TV, P0, P1)


def binary_mi_closed(P: Distribution, eps: float) -> float:
    """Exact mutual information of the two-output information split:
    randomized response on the split's two masses."""
    if not P.is_positive:
        raise ValueError("prior must be positive")
    t = mi_partition(P).mass
    return _rr_mi(np.array([t, 1 - t]), eps)


def rr_mi_closed(P: Distribution, eps: float) -> float:
    """Exact mutual information under randomized response."""
    if not P.is_positive:
        raise ValueError("prior must be positive")
    return _rr_mi(P.probs, eps)


def g_correction(P0: Distribution, P1: Distribution) -> float:
    """First-order low-privacy correction sum_x (1 - P0(x)) log(P1(x)/P0(x))."""
    _require_pair(P0, P1)
    return float(((1 - P0.probs) * np.log(P1.probs / P0.probs)).sum())


def kl_residual_scale(P0: Distribution, P1: Distribution) -> float:
    """Exact coefficient of e^(-eps) left after subtracting the first-order
    low-privacy expansion of the randomized-response KL divergence:
    (k-1) KL(P0||P1) + sum P0/P1 - k."""
    kl = f_divergence(KL, P0, P1)
    return (P0.k - 1) * kl + float((P0.probs / P1.probs).sum()) - P0.k


def mi_residual_scale(P: Distribution) -> float:
    """Exact coefficient of e^(-eps) left after subtracting (k-1) eps e^(-eps)
    from the randomized-response mutual information: (k-1) + sum log P + k H(P)."""
    return (P.k - 1) + float(np.log(P.probs).sum()) + P.k * entropy(P)


def converse_suite(P0: Distribution, P1: Distribution, Q: Mechanism,
                   eps: float) -> list[BoundReport]:
    """Converse and expansion checks for a hypothesis-testing mechanism.

    Pinsker and the 4(e^eps-1)^2 TV^2 bound hold for every eps-private Q;
    the remaining reports quantify the high- and low-privacy expansions and
    are only meaningful in their own regimes.
    """
    _require_pair(P0, P1)
    e = exp_eps(eps)
    M0 = induced_marginal(P0, Q)
    M1 = induced_marginal(P1, Q)
    kl01 = f_divergence(KL, M0, M1)
    kl10 = f_divergence(KL, M1, M0)
    tv_m = f_divergence(TV, M0, M1)
    tv_p = f_divergence(TV, P0, P1)

    # No float power of e^eps: (e - 1) ** 2 raises OverflowError past
    # eps = 354.9, while a product that overflows is inf, the true size of a
    # bound beyond the float range.
    lead = (e - 1) * ((e - 1) / (e + 1)) * tv_p**2
    reports = [
        BoundReport("pinsker", 2.0 * tv_m**2, kl01),
        BoundReport("duchi-symmetrized-kl", kl01 + kl10, 4.0 * (e - 1) * tv_p * ((e - 1) * tv_p)),
        BoundReport("symmetrized-kl-high-privacy", kl01 + kl10, 2.0 * lead),
    ]
    if lead > 0:
        ratio = binary_kl_closed(P0, P1, eps) / lead
        reports.append(BoundReport("binary-kl-expansion-ratio", abs(ratio - 1.0), 0.05))
    resid = abs(rr_kl_closed(P0, P1, eps)
                - (f_divergence(KL, P0, P1) - g_correction(P0, P1) * math.exp(-eps)))
    scale = 10.0 * max(1.0, abs(kl_residual_scale(P0, P1))) * math.exp(-eps)
    reports.append(BoundReport("rr-kl-low-privacy-residual", resid, scale))
    return reports


def mi_converse_suite(P: Distribution, Q: Mechanism, eps: float) -> list[BoundReport]:
    """Converse and expansion checks for an information-preservation mechanism."""
    if not P.is_positive:
        raise ValueError("prior must be positive")
    if P.k != Q.k:
        raise DimensionMismatch("prior and mechanism disagree on k")
    exp_eps(eps)
    mi = mutual_information(P, Q)
    h = entropy(P)
    t = mi_partition(P).mass
    reports = [
        BoundReport("mi-vs-entropy", mi, h),
        BoundReport("mi-high-privacy", mi, 0.5 * t * (1 - t) * eps**2),
        BoundReport("mi-low-privacy", mi, h - (P.k - 1) * eps * math.exp(-eps)),
    ]
    lead = 0.5 * t * (1 - t) * eps**2
    if lead > 0:
        ratio = binary_mi_closed(P, eps) / lead
        reports.append(BoundReport("binary-mi-expansion-ratio", abs(ratio - 1.0), 0.05))
    resid = abs(rr_mi_closed(P, eps) - (h - (P.k - 1) * eps * math.exp(-eps)))
    scale = 10.0 * max(1.0, abs(mi_residual_scale(P))) * math.exp(-eps)
    reports.append(BoundReport("rr-mi-low-privacy-residual", resid, scale))
    return reports


def approximation_checks(spec: UtilitySpec, eps: float) -> BoundReport:
    """Worst-case guarantees of the two-output mechanism against the LP optimum.

    KL: BIN >= OPT / (2 (e^eps + 1)^2) for every eps.
    MI: BIN >= OPT / (1 + e^eps), stated for eps <= 1.
    OPT comes from the LP, so `build_lp`'s alphabet cap applies.
    """
    e = exp_eps(eps)
    opt = solve(build_lp(spec, eps)).value
    if spec.objective == "mi":
        bin_value = binary_mi_closed(spec.p, eps)
        return BoundReport("binary-mi-approximation", opt / (1.0 + e), bin_value)
    if spec.kind.tag != "kl":
        raise ValueError("approximation guarantee is stated for KL and MI only")
    bin_value = binary_kl_closed(spec.p0, spec.p1, eps)
    return BoundReport("binary-kl-approximation", opt / (e + 1) / (e + 1) / 2.0, bin_value)


def marginal_ratio_bounds(P0: Distribution, P1: Distribution, Q: Mechanism,
                          eps: float) -> BoundReport:
    """Per-output bounds on M0(y)/M1(y) in terms of the split masses.

    The two-output split meets both bounds with equality at its outputs for
    every eps; for other eps-private mechanisms the bounds hold in the high
    privacy regime. Reported as the worst signed violation against 0.
    """
    _require_pair(P0, P1)
    if P0.k != Q.k:
        raise DimensionMismatch("priors and mechanism disagree on k")
    e = exp_eps(eps)
    split = ht_partition(P0, P1)
    t0, t1 = split.mass, P1.mass(split.members)
    upper = ((e - 1) * t0 + 1) / ((e - 1) * t1 + 1)
    lower = ((e - 1) * (1 - t0) + 1) / ((e - 1) * (1 - t1) + 1)
    m0 = induced_marginal(P0, Q).probs
    m1 = induced_marginal(P1, Q).probs
    worst = 0.0
    for a, b in zip(m0, m1):
        if a <= 0 and b <= 0:
            continue
        ratio = a / b
        worst = max(worst, ratio - upper, lower - ratio)
    return BoundReport("marginal-ratio-bounds", worst, 0.0)


def binary_utility(spec: UtilitySpec, eps: float) -> float:
    """Utility achieved by the matching two-output mechanism (direct path)."""
    return utility(spec, binary_mi(spec.p, eps) if spec.objective == "mi"
                   else binary_ht(spec.p0, spec.p1, eps))
