"""Exact maximization of sublinear-sum utilities over eps-private mechanisms.

The search space collapses to scalings of the {1, e^eps} pattern columns:
maximize mu^T theta subject to S theta = 1, theta >= 0, where S is the
k x 2^k pattern matrix. The LP is solved with a one-phase revised primal
simplex; a brute-force enumeration of the basic solutions of every k-column
basis serves as an independent oracle at small k.

The LP is posed on pattern columns scaled to a largest entry of 1: column
j scaled by 1/s_j carries the mass theta_j * s_j, which is at most 1 at
every eps, and its cost is the score of the scaled column, which is
finite at every eps for the presets. The value is the sum of cost times
mass. Row 0 stays; row x >= 1 becomes (row x - row 0) * e^eps / (e^eps - 1),
which on the scaled columns is exactly the bit difference bits_x - bits_0,
so the rows do not collapse together as eps -> 0 and the right-hand side
is e_0. In these rows the randomized-response columns form a well
conditioned feasible basis at every eps, so no phase 1 is needed. The
costs are divided by their largest entry, making PIVOT_TOL relative.

S itself is never built here. The costs come from the prior masses on
the eps-free bit matrix (`utilities.pattern_scores`), and they are the only
part of the LP that depends on the priors. The bit-difference rows are
cached per k; the rest of the prior-free part, the difference rows with
row 0, the column scales and the randomized-response start basis with its
inverse, is cached per (k, eps), about 427 KB per entry at k = 12, so
solves at a repeated eps build none of it. The certificate and the
extraction build just the basis columns.
The oracle solves its bases by Cramer's rule: in these rows a basis's
row-0 cofactors are integer minors of the bit differences, so they and the
basis's determinant, up to one eps-dependent term, are cached per k.
The simplex keeps only the k x k inverse of its basis, so pricing all 2^k
columns is the one O(k 2^k) product a pivot takes (Bertsimas and
Tsitsiklis, Introduction to Linear Optimization, sec. 3.3); the rest of a
pivot is a fixed number of small numpy calls on k-vectors. Pricing is
Dantzig's rule (most improving reduced cost), falling back to Bland's rule
after BLAND_AFTER degenerate pivots in a row, until a pivot makes progress
again. Ties in the ratio test go to the basic column of lowest cost under
Dantzig's rule and to the lowest index under Bland's. The simplex stops
when no reduced cost is below -PIVOT_TOL or below minus the reduced costs'
rounding noise, so it does not stop while a pivot still gains more than
rounding can explain.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (PARSE_ROW_SUM_TOL, AlphabetTooLarge, PatternMatrix, Mechanism,
                   _pattern_bits, pattern_matrix)
from .utilities import UtilitySpec, pattern_scores

# The vertex oracle enumerates the C(2^k, k) bases: 1,820 at k = 4 and
# 201,376 at k = 5, of which 1,336 and 140,856 are nonsingular at some eps.
# At k = 5 its cached table took 0.17 s to build, peaked at 48 MB and holds
# 13 MB; a call took 26-35 ms and 43 MB more, and peak RSS rose by 63 MB
# (2-vCPU Xeon, one BLAS thread). k = 6 would have 7.5e7 bases.
MAX_ORACLE_K = 5

# solve's prior-free start per (k, eps) (_lp_start): at MAX_LP_K an entry
# holds 12 x 4,096 difference rows and 4,096 column scales in floats, plus a
# 12-column basis and its 12 x 12 inverse: 427,232 bytes, so the cache
# holds at most LP_CACHE_SIZE x 427 KB (13.7 MB); at k = 6 an entry is 4.4 KB.
# 32 entries hold the largest sweep grid (11 eps) at once, and all 32
# (k, eps) pairs of the benchmark's certify workload.
LP_CACHE_SIZE = 32

PIVOT_TOL = 1e-10

# Below -PIVOT_TOL a reduced cost always enters. Above it, a column still
# enters while its reduced cost is below -PRICING_NOISE * k * (1 + |y|_1),
# the rounding noise of y . A_j - c_j on the scaled rows: with |A| <= 1 and
# |c| <= 1, the k-term dot product and the subtraction err by at most about
# (k + 1) u (1 + |y|_1) (u = machine epsilon), and a factor of 4 covers the
# rounding already in y and in the updated basis inverse. A stop at
# PIVOT_TOL alone can end up to 7.6e-11 short of the TV optimum at
# eps >= 22, where the last improving pivots gain less than it.
PRICING_NOISE = 4 * np.finfo(float).eps

# solve's feasibility certificate on the original S. S theta holds the
# mechanism's row sums before normalization, so it gets the wire format's
# PARSE_ROW_SUM_TOL. The scaled weights are at most 1 and come from a well
# conditioned basis, so a weight below -1e-12 marks an infeasible basis.
CERT_NEG_TOL = 1e-12

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


@dataclass(frozen=True)
class StaircaseLP:
    """maximize sum_j cost_j theta_j s_j subject to pattern @ theta = 1,
    theta >= 0: cost_j scores column j over its largest entry s_j (1 for
    column 0, else 1 + delta), and theta_j s_j is the mass it carries."""

    k: int
    eps: float
    cost: np.ndarray
    pattern: PatternMatrix

    @property
    def num_columns(self) -> int:
        return self.cost.size


@dataclass(frozen=True)
class LPSolution:
    theta: np.ndarray
    value: float
    basis: tuple[int, ...]
    # Simplex pivots taken from the randomized-response basis.
    pivots: int = 0


def build_lp(spec: UtilitySpec, eps: float) -> StaircaseLP:
    """Assemble the pattern-column LP for a utility spec at privacy level eps."""
    pat = pattern_matrix(spec.k, eps)
    delta = pat.delta
    cost = pattern_scores(spec, pat.bits, delta)
    # Column 0 is all ones, its own unit-max form, and pattern_scores scored
    # it over 1 + delta. Every preset scores it 0; a custom f scores f(1).
    cost[0] *= 1.0 + delta
    cost.flags.writeable = False
    return StaircaseLP(k=spec.k, eps=eps, cost=cost, pattern=pat)


def _pricing_noise(y: np.ndarray) -> float:
    """The rounding noise of the reduced costs under duals y; see
    PRICING_NOISE. A k-vector sums faster in Python than in numpy."""
    return PRICING_NOISE * y.size * (1.0 + sum(map(abs, y.tolist())))


def _run_simplex(A: np.ndarray, Binv: np.ndarray, basis: np.ndarray,
                 cost: np.ndarray) -> int:
    """Revised primal simplex on A theta = e_0; returns the pivot count.

    Binv is the inverse of the basis columns A[:, basis]; each pivot prices
    every column through it and updates it in place by the pivot's row
    operations, so the basic solution is always Binv[:, 0]. Entering: the
    column with the most improving reduced cost (Dantzig), or, once
    BLAND_AFTER pivots in a row have been degenerate, the lowest-index
    improving column (Bland) until a pivot moves the solution. A reduced
    cost improves when it is below -PIVOT_TOL or below the rounding noise
    -PRICING_NOISE * k * (1 + |y|_1); the noise is computed only when the
    Dantzig minimum is above -PIVOT_TOL, and in Bland mode. Leaving: among
    minimum-ratio rows, Dantzig mode takes the one whose basic variable has
    the lowest cost, then the lowest index, which steers degenerate pivots
    out of the columns that score least; Bland mode takes the lowest-index
    basic variable. The feasible region is a bounded polytope, so an
    entering column with no admissible row is numerical breakdown.

    The pricing product writes into one buffer, the basic costs are kept
    in step with the basis, and the k-row ratio test runs on Python floats.
    """
    k = basis.size
    basic_cost = cost[basis]
    y = np.empty(k)
    reduced = np.empty(cost.size)
    outer = np.empty((k, k))
    degenerate = 0
    for pivots in range(MAX_ITERATIONS):
        np.dot(basic_cost, Binv, out=y)
        np.dot(y, A, out=reduced)
        reduced -= cost
        if degenerate >= BLAND_AFTER:
            candidates = np.flatnonzero(reduced < -_pricing_noise(y))
            if candidates.size == 0:
                return pivots
            j = int(candidates[0])
        else:
            j = int(reduced.argmin())
            if reduced[j] >= -PIVOT_TOL and reduced[j] >= -_pricing_noise(y):
                return pivots
        d = Binv @ A[:, j]
        step, x = d.tolist(), Binv[:, 0].tolist()
        rows = [i for i in range(k) if step[i] > PIVOT_TOL]
        if not rows:
            raise NumericalBreakdown("no admissible pivot in a bounded LP")
        ratios = [x[i] / step[i] for i in rows]
        rmin = min(ratios)
        cut = rmin + 1e-12 * max(1.0, abs(rmin))
        tied = (i for i, q in zip(rows, ratios) if q <= cut)
        if degenerate >= BLAND_AFTER:
            r = min(tied, key=basis.__getitem__)
        else:
            r = min(tied, key=lambda i: (basic_cost[i], basis[i]))
        Binv[r] /= step[r]
        d[r] = 0.0
        Binv -= np.multiply(d[:, None], Binv[r], out=outer)
        basis[r] = j
        basic_cost[r] = cost[j]
        degenerate = degenerate + 1 if rmin <= DEGENERATE_STEP else 0
    raise NumericalBreakdown("simplex iteration limit reached")


@functools.cache
def _bit_differences(k: int) -> np.ndarray:
    """The eps-free rows bits_x - bits_0, x = 1 .. k - 1, read-only."""
    bits = _pattern_bits(k)
    rows = bits[1:] - bits[0]
    rows.flags.writeable = False
    return rows


def _difference_rows(pattern: PatternMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Rows A and column scales s with S theta = 1 iff A (theta * s) = e_0
    at eps > 0: row 0 of S / s above the eps-free bit differences. Both are
    read-only and shared; see _lp_start."""
    A, scale, _, _ = _lp_start(pattern.k, pattern.eps)
    return A, scale


@functools.lru_cache(maxsize=LP_CACHE_SIZE)
def _lp_start(k: int, eps: float) -> tuple[np.ndarray, ...]:
    """The prior-free part of solve at (k, eps), read-only: the difference
    rows A, the column scales s, the randomized-response basis and its
    inverse in A.

    s_j is column j's largest entry: 1 for the all-ones column 0 and
    (e^eps - 1) + 1 for every other column. Row 0 of S / s is 1 where bit 0
    is set (j >= 2^(k-1)) and at j = 0, and 1 / s_j elsewhere. Only solve
    uses these rows; the vertex oracle needs just the bit differences.
    solve copies the basis and its inverse, which the simplex updates.
    """
    n = 2**k
    scale = np.full(n, PatternMatrix(k, eps).delta + 1.0)
    scale[0] = 1.0
    row0 = 1.0 / scale
    row0[n // 2:] = 1.0
    start = (np.vstack([row0, _bit_differences(k)]), scale,
             1 << (k - 1 - np.arange(k)), _rr_inverse(k, 1.0 / float(scale[1])))
    for arr in start:
        arr.flags.writeable = False
    return start


def _rr_inverse(k: int, a: float) -> np.ndarray:
    """Inverse of the randomized-response basis in the difference rows.

    Its columns are the one-bit patterns from bit 0 down, so the basis is
    [[1, a, ..., a], [-1, I]] with a = 1 / (1 + delta), and its inverse is
    I - a c 11^T with column 0 replaced by c = 1 / (1 + a (k - 1)). The
    basis has condition number at most 13 (k <= 12), so an explicit
    inverse is accurate.
    """
    c = 1.0 / (1.0 + a * (k - 1))
    Binv = np.eye(k)
    Binv -= a * c
    Binv[:, 0] = c
    return Binv


def solve(lp: StaircaseLP) -> LPSolution:
    """Optimal basic feasible solution of the pattern LP.

    One simplex phase on the scaled difference rows, started from the
    randomized-response basis, which is feasible at every eps. The final
    basis is re-solved in the same rows to strip pivot error, and the
    result must pass the feasibility certificate on the basis columns of
    the original pattern matrix. The value is the basic costs times the
    re-solved masses. No preset cost overflows, but a custom generator's
    can; a cost that is not finite is numerical breakdown.
    """
    k, n = lp.k, lp.num_columns
    A, scale, start, start_inv = _lp_start(k, lp.pattern.eps)
    rhs = np.zeros(k)
    rhs[0] = 1.0

    basis = start.copy()
    Binv = start_inv.copy()
    top = float(np.abs(lp.cost).max())
    if not math.isfinite(top):
        raise NumericalBreakdown("a column score is not finite at this eps")
    pivots = _run_simplex(A, Binv, basis, lp.cost / (top or 1.0))

    mass = np.linalg.solve(A[:, basis], rhs)
    basic = mass / scale[basis]
    if (float(np.abs(lp.pattern.column(basis) @ basic - 1.0).max()) > PARSE_ROW_SUM_TOL
            or basic.min() < -CERT_NEG_TOL):
        raise NumericalBreakdown("solution fails its feasibility certificate")
    theta = np.zeros(n)
    theta[basis] = basic
    theta.flags.writeable = False
    return LPSolution(theta=theta, value=float(lp.cost[basis] @ mass),
                      basis=tuple(sorted(int(j) for j in basis)), pivots=pivots)


def extract_mechanism(sol: LPSolution, lp: StaircaseLP) -> Mechanism:
    """Materialize the optimal mechanism from the solved LP.

    Keeps the basis columns whose mass theta_j * s_j (s_j the column's
    largest entry) exceeds EXTRACT_TOL and weights them by theta. Two
    distinct {1, e^eps} columns are proportional only when both are
    constant (the all-ones and all-e^eps patterns, or every pattern at
    eps = 0), so the kept constant columns are summed into one output.
    Rows are then normalized exactly.
    """
    basis = np.array(sol.basis, dtype=int)
    keep = basis[sol.theta[basis] * lp.pattern.column(basis).max(axis=0) > EXTRACT_TOL]
    if keep.size == 0:
        raise DegenerateBasis("no basis column carries mass above EXTRACT_TOL")
    pat = lp.pattern.column(keep)
    cols = pat * sol.theta[keep]
    const = pat.min(axis=0) == pat.max(axis=0)
    if const.any():
        cols = np.column_stack([cols[:, ~const], cols[:, const].sum(axis=1)])
    return Mechanism(cols / cols.sum(axis=1, keepdims=True))


def _combinations(n: int, r: int) -> np.ndarray:
    """The C(n, r) x r array of r-subsets of range(n) (n <= 256), in
    itertools order, streamed without a list of tuples."""
    m = math.comb(n, r)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), r))
    return np.fromiter(flat, dtype=np.uint8, count=m * r).reshape(m, r)


@functools.cache
def _oracle_bases(k: int) -> tuple[np.ndarray, ...]:
    """The eps-free part of every k-column basis M of the difference rows
    that is nonsingular at some eps, read-only and column-major over bases.

    Returns the k x m basis columns, the k x m row-0 cofactors of M, and
    per basis C1 + C2 and C2, where C1 and C2 sum the cofactors over the
    basis columns whose row-0 entry is 1 and 1 / s. Rows 1 .. k - 1 of M
    are integer bit differences, so each cofactor is +-1 times the
    determinant of k - 1 columns of them; each such minor is computed once,
    stored at the colex rank of its columns, and shared by the bases that
    contain those columns. A basis with C1 = C2 = 0 has det M = 0 at every
    eps and is dropped.
    """
    n = 2**k
    subsets = _combinations(n, k).T
    minor_cols = _combinations(n, k - 1)
    binom = np.array([[math.comb(a, i) for a in range(n)] for i in range(k + 1)])
    minors = np.empty(len(minor_cols))
    minors[binom[np.arange(1, k)[:, None], minor_cols.T].sum(axis=0)] = np.rint(
        np.linalg.det(_bit_differences(k)[:, minor_cols].transpose(1, 0, 2)))
    # Dropping column i of a basis leaves the columns before it in place,
    # adding C(a, i + 1) to the rank, and moves those after it down one,
    # adding C(a, i).
    i = np.arange(k)[:, None]
    stay, shift = binom[i + 1, subsets], binom[i, subsets]
    rank = stay.cumsum(axis=0) - stay + shift[::-1].cumsum(axis=0)[::-1] - shift
    cofactors = minors[rank]
    cofactors[1::2] *= -1.0
    total = cofactors.sum(axis=0)
    c2 = np.where((subsets == 0) | (subsets >= n // 2), 0.0, cofactors).sum(axis=0)
    keep = (total != 0) | (c2 != 0)
    table = (subsets[:, keep].astype(np.intp), cofactors[:, keep], total[keep], c2[keep])
    for arr in table:
        arr.flags.writeable = False
    return table


def vertex_oracle(lp: StaircaseLP) -> float:
    """Brute-force optimum over the basic solutions of every k-column basis.

    Every vertex of {theta : S theta = 1, theta >= 0} is the basic solution
    of a k-column basis M of the difference rows for the right side e_0,
    so its masses theta_j * s_j are column 0 of M^-1: the row-0 cofactors
    over det M = C1 + C2 / s (see _oracle_bases), computed as
    (C1 + C2) - C2 * delta / (1 + delta). No linear system is solved per
    eps. A candidate must pass ORACLE_RESIDUAL_TOL on the original S and
    ORACLE_NEG_TOL on its masses; at an isolated eps where det M vanishes
    its masses are inf or NaN and fail the residual test.
    """
    if lp.k > MAX_ORACLE_K:
        raise AlphabetTooLarge(f"vertex oracle is capped at k={MAX_ORACLE_K}")
    cols, cofactors, total, c2 = _oracle_bases(lp.k)
    delta = lp.pattern.delta
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = cofactors / (total - c2 * (delta / (1.0 + delta)))
        # Every column but the all-ones column 0 has largest entry 1 + delta.
        theta = mass / (1.0 + delta)
        np.copyto(theta[0], mass[0], where=cols[0] == 0)
        fit = np.einsum("xjm,jm->xm", lp.pattern.matrix.take(cols, axis=1), theta)
        # Judge each weight by the mass it puts in its column: e^eps
        # magnifies a slightly negative weight on an e^eps entry.
        ok = ((np.abs(fit - 1.0) <= ORACLE_RESIDUAL_TOL).all(axis=0)
              & (mass >= -ORACLE_NEG_TOL).all(axis=0))
    value = np.einsum("jm,jm->m", lp.cost.take(cols[:, ok]), mass[:, ok])
    return float(value.max(initial=-np.inf))
