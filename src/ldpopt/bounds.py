"""Closed-form utilities of the named mechanisms and converse bounds.

The LP solver and the direct evaluators are cross-checked against these:
divergences of the two-output and randomized response mechanisms, the
universal upper bounds (Pinsker, the 4(e^eps-1)^2 TV^2 bound), per-output
marginal-ratio bounds, and the high- and low-privacy expansion checks.
Only binary_tv_closed is analytic. The KL and MI closed forms read
`pattern_scores`, the LP's own score kernel, so they check the simplex and
the staircase read, not the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Distribution, Mechanism, exp_eps, induced_marginal
from .mechanisms import ht_partition, mi_partition, staircase_value
from .optsolve import build_lp, solve
from .utilities import (KL, TV, UtilitySpec, entropy, f_divergence, hypothesis_testing,
                        information_preservation, mutual_information, pattern_scores)

# A report is satisfied with lhs up to this above rhs. It matches
# PARSE_ROW_SUM_TOL: a mechanism read from a file may be off by that much,
# which moves the split's marginal ratios, met with equality, by about as much.
BOUND_TOL = 1e-9

# An expansion report passes with its ratio within EXPANSION_TOL of 1, and a
# low-privacy residual up to MAX_RESIDUAL_FACTOR times its next-order scale
# max(1, |tail|) e^-eps. Each leaves a tenfold margin where the acceptance
# suite reads it: at eps = 0.01 the KL ratio was off by at most 0.005
# (about eps / 2) and MI's by 1.3e-5, and at eps = 10 a residual reached
# 1.03 times its scale (40 Dirichlet(1) prior pairs at each k in
# {2, 3, 4, 6, 8, 12}).
EXPANSION_TOL = 0.05
MAX_RESIDUAL_FACTOR = 10.0


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


def _named_value(spec: UtilitySpec, bits: np.ndarray, eps: float) -> float:
    """Utility of the staircase of a bit matrix (np.eye(k) for randomized
    response, or a split's [1_T, 1_T^c]) from its `pattern_scores`."""
    exp_eps(eps)
    delta = math.expm1(eps)
    return float(staircase_value(pattern_scores(spec, bits, delta), delta))


def binary_kl_closed(P0: Distribution, P1: Distribution, eps: float) -> float:
    """Exact KL divergence of the induced marginals under the two-output split."""
    spec = hypothesis_testing(KL, P0, P1)
    return _named_value(spec, ht_partition(P0, P1), eps)


def rr_kl_closed(P0: Distribution, P1: Distribution, eps: float) -> float:
    """Exact KL divergence of the induced marginals under randomized response."""
    return _named_value(hypothesis_testing(KL, P0, P1), np.eye(P0.k), eps)


def binary_tv_closed(P0: Distribution, P1: Distribution, eps: float) -> float:
    """Exact (and optimal for every eps) total variation through the split.

    The analytic (e^eps - 1) / (e^eps + 1) TV, not the split's
    `pattern_scores`: the LP's TV optima are checked against it."""
    spec = hypothesis_testing(TV, P0, P1)
    e = exp_eps(eps)
    return (e - 1) / (e + 1) * f_divergence(TV, spec.p0, spec.p1)


def binary_mi_closed(P: Distribution, eps: float) -> float:
    """Exact mutual information of the two-output information split."""
    spec = information_preservation(P)
    return _named_value(spec, mi_partition(P), eps)


def rr_mi_closed(P: Distribution, eps: float) -> float:
    """Exact mutual information under randomized response."""
    return _named_value(information_preservation(P), np.eye(P.k), eps)


def converse_suite(P0: Distribution, P1: Distribution, Q: Mechanism,
                   eps: float) -> list[BoundReport]:
    """Converse and expansion checks for a hypothesis-testing mechanism.

    Pinsker and the 4(e^eps-1)^2 TV^2 bound hold for every eps-private Q;
    the remaining reports quantify the high- and low-privacy expansions and
    are only meaningful in their own regimes. The low-privacy residual is
    randomized response's KL less KL(P0||P1) - g e^(-eps), g = sum (1 - P0)
    log(P1/P0), against the e^(-eps) coefficient left, (k-1) KL + sum P0/P1 - k.
    """
    spec = hypothesis_testing(KL, P0, P1)
    rr = _named_value(spec, np.eye(P0.k), eps)
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
        ratio = _named_value(spec, ht_partition(P0, P1), eps) / lead
        reports.append(BoundReport("binary-kl-expansion-ratio", abs(ratio - 1.0), EXPANSION_TOL))
    k, p0, p1 = P0.k, P0.probs, P1.probs
    kl = f_divergence(KL, P0, P1)
    g = float(((1 - p0) * np.log(p1 / p0)).sum())
    resid = abs(rr - (kl - g * math.exp(-eps)))
    tail = (k - 1) * kl + float((p0 / p1).sum()) - k
    reports.append(BoundReport("rr-kl-low-privacy-residual", resid,
                               MAX_RESIDUAL_FACTOR * max(1.0, abs(tail)) * math.exp(-eps)))
    return reports


def mi_converse_suite(P: Distribution, Q: Mechanism, eps: float) -> list[BoundReport]:
    """Converse and expansion checks for an information-preservation mechanism.

    The low-privacy residual is randomized response's MI less H(P) - (k-1)
    eps e^(-eps), against the e^(-eps) coefficient left, (k-1) + sum log P + k H(P).
    """
    spec = information_preservation(P)
    rr = _named_value(spec, np.eye(P.k), eps)
    mi = mutual_information(P, Q)
    h = entropy(P)
    split = mi_partition(P)
    t = P.mass(np.flatnonzero(split[:, 0]))
    lead = 0.5 * t * (1 - t) * eps**2
    low = h - (P.k - 1) * eps * math.exp(-eps)
    reports = [
        BoundReport("mi-vs-entropy", mi, h),
        BoundReport("mi-high-privacy", mi, lead),
        BoundReport("mi-low-privacy", mi, low),
    ]
    if lead > 0:
        ratio = _named_value(spec, split, eps) / lead
        reports.append(BoundReport("binary-mi-expansion-ratio", abs(ratio - 1.0), EXPANSION_TOL))
    resid = abs(rr - low)
    tail = (P.k - 1) + float(np.log(P.probs).sum()) + P.k * h
    reports.append(BoundReport("rr-mi-low-privacy-residual", resid,
                               MAX_RESIDUAL_FACTOR * max(1.0, abs(tail)) * math.exp(-eps)))
    return reports


def approximation_checks(spec: UtilitySpec, eps: float) -> BoundReport:
    """Worst-case guarantees of the two-output mechanism against the LP optimum.

    KL: BIN >= OPT / (2 (e^eps + 1)^2) for every eps.
    MI: BIN >= OPT / (1 + e^eps), stated for eps <= 1.
    OPT comes from the LP, so `build_lp`'s alphabet cap applies.
    """
    e = exp_eps(eps)
    if spec.objective != "mi" and spec.kind.tag != "kl":
        raise ValueError("approximation guarantee is stated for KL and MI only")
    opt = solve(build_lp(spec, eps)).value
    if spec.objective == "mi":
        bin_value = binary_mi_closed(spec.p, eps)
        return BoundReport("binary-mi-approximation", opt / (1.0 + e), bin_value)
    bin_value = binary_kl_closed(spec.p0, spec.p1, eps)
    return BoundReport("binary-kl-approximation", opt / (e + 1) / (e + 1) / 2.0, bin_value)


def marginal_ratio_bounds(P0: Distribution, P1: Distribution, Q: Mechanism,
                          eps: float) -> BoundReport:
    """Per-output bounds on M0(y)/M1(y) in terms of the split masses.

    The two-output split meets both bounds with equality at its outputs for
    every eps; for other eps-private mechanisms the bounds hold in the high
    privacy regime. Reported as the worst signed violation against 0.
    """
    # Positive priors put M1(y) > 0 wherever M0(y) > 0, so no ratio below
    # divides by zero; ht_partition and induced_marginal check the sizes.
    if not (P0.is_positive and P1.is_positive):
        raise ValueError("priors must be positive")
    e = exp_eps(eps)
    T = np.flatnonzero(ht_partition(P0, P1)[:, 0])
    t0, t1 = P0.mass(T), P1.mass(T)
    upper = ((e - 1) * t0 + 1) / ((e - 1) * t1 + 1)
    lower = ((e - 1) * (1 - t0) + 1) / ((e - 1) * (1 - t1) + 1)
    m0 = induced_marginal(P0, Q).probs
    m1 = induced_marginal(P1, Q).probs
    carried = (m0 > 0) | (m1 > 0)
    ratio = m0[carried] / m1[carried]
    worst = np.maximum(ratio - upper, lower - ratio).max(initial=0.0)
    return BoundReport("marginal-ratio-bounds", float(worst), 0.0)

