"""Exact maximization of sublinear-sum utilities over eps-private mechanisms.

The search space collapses to scalings of the {1, e^eps} pattern columns:
maximize mu^T theta subject to S theta = 1, theta >= 0, where S is the
k x 2^k pattern matrix. The LP is solved with a dense one-phase primal
simplex; a brute-force vertex enumeration serves as an independent oracle at
small k.

The simplex runs on pattern columns scaled to a largest entry of 1. Every
column score is positively homogeneous, so column j scaled by 1/s_j scores
obj_j / s_j and carries weight theta_j * s_j, which is O(1/k) at every eps.
Row 0 stays; row x >= 1 becomes (row x - row 0) * e^eps / (e^eps - 1),
which on the scaled columns is exactly the bit difference bits_x - bits_0,
so the rows do not collapse together as eps -> 0 and the right-hand side
is e_0. In these rows the randomized-response columns form a well
conditioned feasible basis at every eps, so no phase 1 is needed. The
objective is divided by its largest entry, making PIVOT_TOL relative.
Pricing is Dantzig's rule (most improving reduced cost), falling back to
Bland's rule after BLAND_AFTER degenerate pivots in a row, until a pivot
makes progress again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (AlphabetTooLarge, PatternMatrix, Mechanism, _pattern_bits,
                   pattern_matrix)
from .utilities import UtilitySpec, column_scores

# LP solving is capped at k = 12 (4096 pattern columns).
MAX_LP_K = 12

PIVOT_TOL = 1e-10

# Basic columns whose mass theta_j * s_j (s_j the column's largest entry) is
# below this threshold are pivot noise, not support.
EXTRACT_TOL = 1e-10

MAX_ITERATIONS = 200_000

# The simplex switches from Dantzig's to Bland's rule after this many
# degenerate pivots in a row, so it cannot cycle; a step at or below
# DEGENERATE_STEP in a scaled weight counts as degenerate.
BLAND_AFTER = 50
DEGENERATE_STEP = 1e-12

# Oracle-side acceptance thresholds for candidate vertices.
ORACLE_RESIDUAL_TOL = 1e-10
ORACLE_NEG_TOL = 1e-12


class NumericalBreakdown(RuntimeError):
    """The simplex could not make progress within tolerance."""


class DegenerateBasis(RuntimeError):
    """No basis column survived extraction thresholding."""


class LPStatus(Enum):
    OPTIMAL = "optimal"
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
    # Simplex pivots taken from the randomized-response basis.
    pivots: int = 0


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


def _run_simplex(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> tuple[LPStatus, int]:
    """Primal simplex on a canonical tableau [A | b]; returns status and pivots.

    Entering: the column with the most improving reduced cost (Dantzig),
    or, once BLAND_AFTER pivots in a row have been degenerate, the
    lowest-index improving column (Bland) until a pivot moves the
    solution. Leaving: among minimum-ratio rows, the one holding the
    lowest-index basic variable.
    """
    degenerate = 0
    for pivots in range(MAX_ITERATIONS):
        reduced = cost[basis] @ T[:, :-1] - cost
        if degenerate >= BLAND_AFTER:
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

    One simplex phase on the scaled difference rows, started from the
    randomized-response basis, which is feasible at every eps. The final
    basis is re-solved in the same rows to strip pivot error, and the
    result must pass the feasibility certificate on the original pattern
    matrix.
    """
    S = lp.pattern.matrix
    k, n = S.shape
    scale = S.max(axis=0)
    bits = _pattern_bits(k)
    A = np.vstack([S[0] / scale, bits[1:] - bits[0]])
    rhs = np.zeros(k)
    rhs[0] = 1.0

    basis = 1 << (k - 1 - np.arange(k))
    # In these rows the basis has condition number at most 13 (k <= 12), so
    # its inverse is accurate, and one product costs far less than a solve
    # with 2^k + 1 right-hand sides.
    T = np.linalg.inv(A[:, basis]) @ np.column_stack([A, rhs])
    cost = lp.obj / scale
    cost /= np.abs(cost).max() or 1.0
    status, pivots = _run_simplex(T, basis, cost)
    if status is LPStatus.UNBOUNDED:
        # The feasible region is a bounded polytope, so this is numerical.
        raise NumericalBreakdown("no admissible pivot in a bounded LP")

    theta = np.zeros(n)
    theta[basis] = np.linalg.solve(A[:, basis], rhs) / scale[basis]
    if float(np.abs(S @ theta - 1.0).max()) > 1e-9 or theta.min() < -1e-12:
        raise NumericalBreakdown("solution fails its feasibility certificate")
    theta.flags.writeable = False
    return LPSolution(theta=theta, value=float(lp.obj @ theta),
                      basis=tuple(sorted(int(j) for j in basis)),
                      status=LPStatus.OPTIMAL, pivots=pivots)


def extract_mechanism(sol: LPSolution, lp: StaircaseLP) -> Mechanism:
    """Materialize the optimal mechanism from the solved LP.

    Keeps the basis columns whose mass theta_j * s_j (s_j the column's
    largest entry) exceeds EXTRACT_TOL, weights them by the refined theta,
    merges columns that are scalar multiples of each other (the all-ones
    and all-e^eps patterns, or everything at eps = 0), and normalizes rows
    exactly.
    """
    if sol.status is not LPStatus.OPTIMAL:
        raise ValueError("can only extract from an optimal solution")
    S = lp.pattern.matrix
    basis = np.array(sol.basis, dtype=int)
    keep = basis[sol.theta[basis] * S[:, basis].max(axis=0) > EXTRACT_TOL]
    if keep.size == 0:
        raise DegenerateBasis("no basis column carries mass above EXTRACT_TOL")
    cols = [S[:, j] * sol.theta[j] for j in keep]

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
