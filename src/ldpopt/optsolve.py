"""Exact maximization of sublinear-sum utilities over eps-private mechanisms.

The search space collapses to scalings of the {1, e^eps} pattern columns:
maximize mu^T theta subject to S theta = 1, theta >= 0, where S is the
k x 2^k pattern matrix. The LP is solved with a dense two-phase primal
simplex; a brute-force vertex enumeration serves as an independent oracle at
small k.

The simplex runs on pattern columns scaled to a largest entry of 1. Every
column score is positively homogeneous, so column j scaled by 1/s_j scores
obj_j / s_j and carries weight theta_j * s_j, which is O(1/k) at every eps.
Unscaled, entries and reduced costs grow like e^eps while PIVOT_TOL is
absolute. Phase 1 prices by Bland's rule, whose basis lies next to
randomized response; phase 2 prices by Dantzig's rule (most improving
reduced cost) and falls back to Bland's rule after BLAND_AFTER degenerate
pivots in a row, until a pivot makes progress again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import AlphabetTooLarge, PatternMatrix, Mechanism, pattern_matrix
from .utilities import UtilitySpec, column_scores

# LP solving is capped at k = 12 (4096 pattern columns).
MAX_LP_K = 12

PIVOT_TOL = 1e-10

# Basic variables below this threshold are pivot noise, not support.
EXTRACT_TOL = 1e-10

MAX_ITERATIONS = 200_000

# Phase 2 switches from Dantzig's to Bland's rule after this many degenerate
# pivots in a row, so it cannot cycle; a step at or below DEGENERATE_STEP in
# a scaled weight counts as degenerate.
BLAND_AFTER = 50
DEGENERATE_STEP = 1e-12

# Oracle-side acceptance thresholds for candidate vertices.
ORACLE_RESIDUAL_TOL = 1e-10
ORACLE_NEG_TOL = 1e-12


class NumericalBreakdown(RuntimeError):
    """The simplex could not make progress within tolerance."""


class DegenerateBasis(RuntimeError):
    """More than k columns survived extraction thresholding."""


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class StaircaseLP:
    """maximize obj . theta subject to pattern @ theta = 1, theta >= 0."""

    k: int
    eps: float
    obj: np.ndarray
    pattern: PatternMatrix

    @property
    def rhs(self) -> np.ndarray:
        return np.ones(self.k)

    @property
    def num_columns(self) -> int:
        return self.obj.size


@dataclass(frozen=True)
class LPSolution:
    theta: np.ndarray
    value: float
    basis: tuple[int, ...]
    status: LPStatus
    # Simplex pivots taken in phase 1 and in phase 2.
    pivots: tuple[int, int] = (0, 0)


def build_lp(spec: UtilitySpec, eps: float) -> StaircaseLP:
    """Assemble the pattern-column LP for a utility spec at privacy level eps."""
    k = spec.k
    if k > MAX_LP_K:
        raise AlphabetTooLarge(f"LP solving capped at k={MAX_LP_K}")
    pat = pattern_matrix(k, eps)
    obj = column_scores(spec, pat.matrix)
    obj.flags.writeable = False
    return StaircaseLP(k=k, eps=eps, obj=obj, pattern=pat)


def _pivot(T: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    T[:, j] = 0.0
    T[r, j] = 1.0


def _run_simplex(T: np.ndarray, basis: np.ndarray, cost: np.ndarray, ncols: int,
                 bland_after: int) -> tuple[LPStatus, int]:
    """Primal simplex on an already-canonical tableau; returns status and pivots.

    Entering: the column with the most improving reduced cost (Dantzig),
    or, once `bland_after` pivots in a row have been degenerate, the
    lowest-index improving column (Bland) until a pivot moves the
    solution. `bland_after=0` is Bland's rule throughout. Leaving: among
    minimum-ratio rows, the one holding the lowest-index basic variable.
    """
    degenerate = 0
    for pivots in range(MAX_ITERATIONS):
        reduced = cost[basis] @ T[:, :ncols] - cost[:ncols]
        if degenerate >= bland_after:
            candidates = np.flatnonzero(reduced < -PIVOT_TOL)
            if candidates.size == 0:
                return LPStatus.OPTIMAL, pivots
            j = int(candidates[0])
        else:
            j = int(np.argmin(reduced))
            if reduced[j] >= -PIVOT_TOL:
                return LPStatus.OPTIMAL, pivots
        col = T[:, j]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return LPStatus.UNBOUNDED, pivots
        ratios = T[rows, -1] / col[rows]
        rmin = float(ratios.min())
        ties = rows[ratios <= rmin + 1e-12 * max(1.0, abs(rmin))]
        r = int(ties[np.argmin(basis[ties])])
        _pivot(T, r, j)
        basis[r] = j
        degenerate = degenerate + 1 if rmin <= DEGENERATE_STEP else 0
    raise NumericalBreakdown("simplex iteration limit reached")


def solve(lp: StaircaseLP) -> LPSolution:
    """Optimal basic feasible solution of the pattern LP.

    Phase 1 starts from an artificial identity basis and also removes
    redundant constraint rows (every row is identical at eps = 0); Phase 2
    maximizes the utility objective over the original columns only. Both
    run on the unit-max-scaled columns; the refine and the feasibility
    certificate run on the original pattern matrix.
    """
    S = lp.pattern.matrix
    c = lp.obj
    k, n = S.shape
    scale = S.max(axis=0)

    T = np.hstack([S / scale, np.eye(k), np.ones((k, 1))])
    basis = np.arange(n, n + k)
    cost1 = np.zeros(n + k)
    cost1[n:] = -1.0
    status, pivots1 = _run_simplex(T, basis, cost1, ncols=n + k, bland_after=0)
    if status is not LPStatus.OPTIMAL:
        raise NumericalBreakdown("phase 1 did not terminate at an optimum")
    infeasibility = sum(T[r, -1] for r in range(k) if basis[r] >= n)
    if infeasibility > 1e-9:
        return LPSolution(theta=np.zeros(n), value=float("nan"), basis=(),
                          status=LPStatus.INFEASIBLE, pivots=(pivots1, 0))

    # Drive leftover artificials out of the basis; rows that cannot pivot to
    # an original column are redundant constraints and are dropped.
    redundant = []
    for r in range(k):
        if basis[r] >= n:
            pivots = np.flatnonzero(np.abs(T[r, :n]) > PIVOT_TOL)
            if pivots.size:
                _pivot(T, r, int(pivots[0]))
                basis[r] = int(pivots[0])
            else:
                redundant.append(r)
    if redundant:
        keep = [r for r in range(k) if r not in redundant]
        T = T[keep]
        basis = basis[keep]
    T = np.hstack([T[:, :n], T[:, -1:]])

    status, pivots2 = _run_simplex(T, basis, c / scale, ncols=n, bland_after=BLAND_AFTER)
    if status is LPStatus.UNBOUNDED:
        # The feasible region is a bounded polytope, so this is numerical.
        raise NumericalBreakdown("no admissible pivot in a bounded LP")

    theta = np.zeros(n)
    theta[basis] = T[:, -1] / scale[basis]

    # Re-solve on the final basis to strip accumulated pivot error.
    cols = sorted(int(j) for j in set(basis))
    refined, *_ = np.linalg.lstsq(S[:, cols], np.ones(k), rcond=None)
    residual = float(np.abs(S[:, cols] @ refined - 1.0).max())
    if residual <= 1e-9 and refined.min() >= -1e-12:
        theta = np.zeros(n)
        theta[cols] = refined
    if float(np.abs(S @ theta - 1.0).max()) > 1e-9 or theta.min() < -1e-12:
        raise NumericalBreakdown("solution fails its feasibility certificate")
    theta.flags.writeable = False
    return LPSolution(theta=theta, value=float(c @ theta), basis=tuple(cols),
                      status=LPStatus.OPTIMAL, pivots=(pivots1, pivots2))


def extract_mechanism(sol: LPSolution, lp: StaircaseLP) -> Mechanism:
    """Materialize the optimal mechanism from the solved LP.

    Keeps pattern columns with weight above EXTRACT_TOL, merges columns that
    are scalar multiples of each other (the all-ones and all-e^eps patterns,
    or everything at eps = 0), and normalizes rows exactly.
    """
    if sol.status is not LPStatus.OPTIMAL:
        raise ValueError("can only extract from an optimal solution")
    S = lp.pattern.matrix
    keep = np.flatnonzero(sol.theta > EXTRACT_TOL)
    if keep.size == 0 or keep.size > lp.k:
        raise DegenerateBasis(f"{keep.size} columns above threshold, expected 1..{lp.k}")
    weights, *_ = np.linalg.lstsq(S[:, keep], np.ones(lp.k), rcond=None)
    weights = np.clip(weights, 0.0, None)
    cols = [S[:, j] * w for j, w in zip(keep, weights) if w > 0]

    merged: list[np.ndarray] = []
    for col in cols:
        direction = col / col.sum()
        for i, existing in enumerate(merged):
            if np.abs(existing / existing.sum() - direction).max() <= 1e-9:
                merged[i] = existing + col
                break
        else:
            merged.append(col)

    rows = np.column_stack(merged)
    rows = rows / rows.sum(axis=1, keepdims=True)
    return Mechanism(rows)


def vertex_oracle(lp: StaircaseLP) -> float:
    """Brute-force optimum by enumerating candidate basic feasible solutions.

    Every vertex of {theta : S theta = 1, theta >= 0} is supported on at
    most k linearly independent columns, so trying every column subset of
    size <= k and keeping the consistent nonnegative solutions is exact.
    Only intended for k <= 4.
    """
    if lp.k > 4:
        raise AlphabetTooLarge("vertex oracle is capped at k=4")
    S = lp.pattern.matrix
    k, n = S.shape
    ones = np.ones(k)
    colmax = S.max(axis=0)
    best = -np.inf
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(n), size):
            idx = list(subset)
            A = S[:, idx]
            if size == k:
                try:
                    th = np.linalg.solve(A, ones)
                except np.linalg.LinAlgError:
                    th, *_ = np.linalg.lstsq(A, ones, rcond=None)
            else:
                th, *_ = np.linalg.lstsq(A, ones, rcond=None)
            if not np.all(np.isfinite(th)):
                continue
            if np.abs(A @ th - 1.0).max() > ORACLE_RESIDUAL_TOL:
                continue
            # Judge each weight by the mass it puts in its column: e^eps
            # magnifies a slightly negative weight on an e^eps entry.
            if (th * colmax[idx]).min() < -ORACLE_NEG_TOL:
                continue
            best = max(best, float(lp.obj[idx] @ th))
    return best
