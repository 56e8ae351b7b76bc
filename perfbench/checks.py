"""Checks on ldpopt's outputs, computed without ldpopt.

Every checker returns a list of problems; an empty list means the output
passed. Only numpy, and scipy's HiGHS solver where scipy is importable, is
used here, so a fault in the program cannot hide by also being in its check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Recomputed utility, TV closed form, lower bounds and sweep properties.
REL_TOL = 1e-9
# The program's own vertex oracle (the acceptance suite uses the same bound).
ORACLE_TOL = 1e-8
# HiGHS works to a primal/dual feasibility tolerance of 1e-7.
HIGHS_TOL = 1e-7
# HiGHS itself fails on these LPs at large eps ("Solve error" at eps = 23),
# so it is a reference only up to here.
HIGHS_MAX_EPS = 8.0
# Absolute slack on top of the relative ones. Column scores come from O(1)
# marginals, so their rounding error is absolute: near eps = 0.01 a KL
# optimum of 1e-7 carries about 1e-15 of it, which is 1e-8 relative.
ABS_TOL = 1e-13


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + ABS_TOL


def column_scores(utility: str, p0: np.ndarray, p1: np.ndarray | None,
                  C: np.ndarray) -> np.ndarray:
    """Score of each column of a k x n nonnegative matrix.

    A mechanism's utility is the sum of the scores of its columns: KL, TV
    and chi-squared between the induced marginals p0 @ Q and p1 @ Q, or,
    for "mi", the mutual information of X ~ p0 through Q.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if utility == "mi":
            m = p0 @ C
            terms = p0[:, None] * C * (np.log(C) - np.log(m)[None, :])
            return np.where(C > 0, terms, 0.0).sum(axis=0)
        a, b = p0 @ C, p1 @ C
        if utility == "tv":
            return 0.5 * np.abs(a - b)
        if utility == "chi2":
            return np.where(b > 0, (a - b) ** 2 / b, 0.0)
        return np.where(a > 0, a * np.log(a / b), 0.0)


def utility_of(utility: str, p0, p1, Q: np.ndarray) -> float:
    return float(column_scores(utility, p0, p1, Q).sum())


def privacy_problems(Q: np.ndarray, eps: float) -> list[str]:
    """Direct likelihood-ratio test: max_x Q(y|x) <= e^eps min_x Q(y|x)."""
    if Q.min() < 0:
        return ["negative mechanism entry"]
    hi, lo = Q.max(axis=0), Q.min(axis=0)
    bad = np.flatnonzero(hi > math.exp(eps) * lo * (1.0 + REL_TOL))
    return [f"output {y}: likelihood ratio {hi[y] / lo[y] if lo[y] else math.inf:.6g} "
            f"exceeds e^eps = {math.exp(eps):.6g}" for y in bad]


def rr_value(utility: str, p0, p1, eps: float) -> float:
    k, e = p0.size, math.exp(eps)
    Q = np.full((k, k), 1.0 / (k - 1 + e))
    np.fill_diagonal(Q, e / (k - 1 + e))
    return utility_of(utility, p0, p1, Q)


def best_split_value(utility: str, p0, p1, eps: float) -> float:
    """Best utility over all two-output split mechanisms.

    Output 0 has mass e^eps/(1+e^eps) on a subset A and 1/(1+e^eps) off it.
    Subsets without the last input cover each unordered split once.
    """
    k, e = p0.size, math.exp(eps)
    masks = np.arange(1, 2 ** (k - 1))
    inside = (masks[None, :] >> np.arange(k)[:, None]) & 1
    A = np.where(inside == 1, e / (1 + e), 1 / (1 + e))
    scores = column_scores(utility, p0, p1, A) + column_scores(utility, p0, p1, 1 - A)
    return float(scores.max())


def import_linprog():
    """scipy's linprog, or None when scipy is not importable."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    return linprog


def highs_optimum(linprog, utility: str, p0, p1, eps: float) -> float:
    """The pattern LP built here and solved by HiGHS: maximize the column
    scores of the {1, e^eps} patterns, scaled so every row sums to 1."""
    k = p0.size
    S = np.array(list(itertools.product((1.0, math.exp(eps)), repeat=k))).T
    c = column_scores(utility, p0, p1, S)
    # HiGHS's tolerances are absolute: scale the scores, which are O(eps^2)
    # at small eps, to a largest score of 1.
    scale = float(c.max())
    if scale <= 0:
        return 0.0
    res = linprog(-c / scale, A_eq=S, b_eq=np.ones(k), bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    return -res.fun * scale if res.status == 0 else math.nan


def certify_problems(utility: str, p0, p1, eps: float, value: float, Q: np.ndarray,
                     oracle: float | None = None,
                     highs: float | None = None) -> list[str]:
    """Checks on one optimum printed by `ldpopt opt` and the mechanism it wrote.

    p1 is None for "mi". oracle and highs are the optimum by other means
    where those are available.
    """
    k = p0.size
    if Q.ndim != 2 or Q.shape[0] != k or not 1 <= Q.shape[1] <= k:
        return [f"mechanism of shape {Q.shape}, expected {k} rows and 1..{k} outputs"]
    problems = privacy_problems(Q, eps)
    if np.abs(Q.sum(axis=1) - 1.0).max() > REL_TOL:
        problems.append("mechanism rows do not sum to 1")
    recomputed = utility_of(utility, p0, p1, Q)
    if not close(recomputed, value, REL_TOL):
        problems.append(f"printed optimum {value!r} but the mechanism achieves {recomputed!r}")
    for name, lower in (("rr", rr_value(utility, p0, p1, eps)),
                        ("binary split", best_split_value(utility, p0, p1, eps))):
        if value < lower - REL_TOL * abs(lower) - ABS_TOL:
            problems.append(f"optimum {value!r} below the {name} value {lower!r}")
    if utility == "tv":
        e = math.exp(eps)
        closed = (e - 1) / (e + 1) * 0.5 * float(np.abs(p0 - p1).sum())
        if not close(value, closed, REL_TOL):
            problems.append(f"TV optimum {value!r}, closed form {closed!r}")
    if oracle is not None and not close(value, oracle, ORACLE_TOL):
        problems.append(f"optimum {value!r}, vertex oracle {oracle!r}")
    if highs is not None and not close(value, highs, HIGHS_TOL):
        problems.append(f"optimum {value!r}, HiGHS {highs!r}")
    return problems


def region_problems(vertices: list[tuple[float, float]], eps: float) -> list[str]:
    """An error region of an eps-private mechanism: a boundary from p_md = 0
    to p_fa = 0, monotone, and above both privacy lines
    p_fa + e^eps p_md >= 1 and e^eps p_fa + p_md >= 1."""
    if not vertices:
        return ["empty region"]
    md, fa = np.array(vertices).T
    problems = []
    if md[0] != 0.0 or fa[-1] != 0.0:
        problems.append("boundary does not run from p_md = 0 to p_fa = 0")
    if np.any(np.diff(md) <= 0) or np.any(np.diff(fa) >= 0):
        problems.append("boundary is not monotone")
    # The CLI prints 12 significant digits, so e^eps * p_md is good to ~1e-12.
    e = math.exp(eps)
    slack = np.minimum(fa + e * md, e * fa + md) - 1.0
    if slack.min() < -REL_TOL:
        problems.append(f"region crosses the eps privacy boundary by {-slack.min():.3g}")
    return problems


def sweep_problems(rows, utility: str, eps_grid, mechanisms) -> list[str]:
    """Properties every sweep over one instance has, whatever its priors.

    rows need the attributes eps, mechanism, utility_value, opt_value, ratio.
    """
    by_eps: dict[float, dict[str, object]] = {}
    for r in rows:
        by_eps.setdefault(r.eps, {})[r.mechanism] = r
    problems = []
    if len(rows) != len(eps_grid) * len(mechanisms) or sorted(by_eps) != sorted(eps_grid) \
            or any(sorted(m) != sorted(mechanisms) for m in by_eps.values()):
        return [f"{len(rows)} rows do not cover eps {eps_grid} x mechanisms {mechanisms}"]
    opts, tv_scaled = [], []
    for eps in sorted(by_eps):
        got = by_eps[eps]
        opt = got["optimal"].opt_value
        opts.append(opt)
        for r in got.values():
            if r.opt_value != opt:
                problems.append(f"eps={eps}: rows disagree on the optimum")
            if r.ratio > 1.0 + REL_TOL:
                problems.append(f"eps={eps}: {r.mechanism} ratio {r.ratio!r} above 1")
        mixed = max(got["binary"].utility_value, got["rr"].utility_value)
        if not close(got["mixed"].utility_value, mixed, 1e-12):
            problems.append(f"eps={eps}: mixed is not max(binary, rr)")
        if utility == "tv":
            if not close(got["binary"].utility_value, opt, REL_TOL):
                problems.append(f"eps={eps}: TV binary split {got['binary'].utility_value!r} "
                                f"misses the optimum {opt!r}")
            e = math.exp(eps)
            tv_scaled.append(opt * (e + 1) / (e - 1))
            if not close(tv_scaled[-1], tv_scaled[0], REL_TOL):
                problems.append(f"eps={eps}: TV optimum does not scale as (e^eps-1)/(e^eps+1)")
    for (e_lo, lo), (e_hi, hi) in itertools.pairwise(zip(sorted(by_eps), opts)):
        if hi < lo - REL_TOL * abs(lo) - ABS_TOL:
            problems.append(f"optimum falls from {lo!r} at eps={e_lo} to {hi!r} at eps={e_hi}")
    return problems
