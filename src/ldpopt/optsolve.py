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

An LP is (k, eps) and its costs; `core.pattern_matrix` writes its columns.
The costs come from the prior masses on the eps-free bit matrix
(`utilities.pattern_scores`), and they are the only part of the LP that
depends on the priors; `build_lps` scores a whole eps grid from one set
of masses, and `build_lp` is its one-eps case. The prior-free part is
cached per (k, eps) (_lp_start), so solves at a repeated eps build none
of it. The certificate and the extraction build just the basis columns.
The oracle solves its bases by Cramer's rule: in these rows a basis's
row-0 cofactors are its own (k - 1)-minors in the integer bit-difference
rows, so they and the basis's determinant, up to one eps-dependent term,
are cached per k.
The simplex keeps only the k x k inverse of its basis with the dual row
y = c_B B^-1 under it, and moves y with the inverse's own row operations,
as the zeroth row of a tableau moves (Bertsimas and Tsitsiklis,
Introduction to Linear Optimization, sec. 3.3). Pricing all 2^k columns
is then the one O(k 2^k) product a pivot takes; the rest of a pivot is a
fixed number of small numpy calls on k-vectors. Pricing is
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

from .core import (PARSE_ROW_SUM_TOL, AlphabetTooLarge, Mechanism, _pattern_bits,
                   _pattern_delta, pattern_index, pattern_matrix)
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
# The vertex oracle's certified vertices per (k, eps) (_oracle_vertices) share
# the size: an entry holds 1.8 KB at k = 3, 60 KB at k = 4 and 6.0 MB at
# MAX_ORACLE_K = 5 (75,336 vertices), so at worst 32 x 6.0 MB (193 MB).
# 32 entries hold the largest sweep grid (11 eps) at once, and all 32
# (k, eps) pairs of the benchmark's certify workload.
LP_CACHE_SIZE = 32

# A pivot element at or below this would shrink the basis determinant by
# that factor, so the next basis's masses could keep only about 6 of 16
# digits (1e10 u). On the costs scaled to a largest of 1 it is also the
# relative reduced cost below which a column always enters.
PIVOT_TOL = 1e-10

# Below -PIVOT_TOL a reduced cost always enters. Above it, a column still
# enters while its reduced cost is below -PRICING_NOISE * k * (1 + |y|_1),
# the rounding noise of y . A_j - c_j on the scaled rows: with |A| <= 1 and
# |c| <= 1, the k-term dot product and the subtraction err by at most about
# (k + 1) u (1 + |y|_1) (u = machine epsilon), and a factor of 4 covers the
# rounding already in y and in the updated basis inverse. y is carried
# through the pivots' row operations, not recomputed, so it accumulates
# their rounding as the inverse does; test_tv_large_eps_grid_reaches_closed_form
# checks that the factor of 4 still covers it. A stop at PIVOT_TOL alone
# can end up to 7.6e-11 short of the TV optimum at eps >= 22, where the
# last improving pivots gain less than it.
PRICING_NOISE = 4 * np.finfo(float).eps

# The feasibility certificate of solve and of the vertex oracle on the
# original S. S theta holds the mechanism's row sums before normalization,
# so it gets the wire format's PARSE_ROW_SUM_TOL. Every basic solution
# passes that, so the sign test reads the masses theta_j * s_j (at eps = 30
# a weight of -1e-12 is a mass of -10). They are at most 1 and come from a
# well conditioned basis, so a mass below -1e-12 marks an infeasible basis.
CERT_NEG_TOL = 1e-12

# Basic columns whose mass theta_j * s_j (s_j the column's largest entry) is
# below this threshold are pivot noise, not support.
EXTRACT_TOL = 1e-10

# No solve measured took more than 78 pivots (3,160 LPs at k <= 12: the
# domain-probe grid and seeded sweeps at k = 6 and 12); 200,000 pivots of
# 19 us at k = 12 (2-vCPU Xeon, one BLAS thread) stop a cycling solve in 4 s.
MAX_ITERATIONS = 200_000

# The simplex switches from Dantzig's to Bland's rule after this many
# degenerate pivots in a row, so it cannot cycle; a step at or below
# DEGENERATE_STEP in a scaled weight counts as degenerate, and ratios
# within DEGENERATE_STEP (relative, or absolute below 1) of the least tie
# in the ratio test.
BLAND_AFTER = 50
DEGENERATE_STEP = 1e-12


class NumericalBreakdown(RuntimeError):
    """The simplex could not make progress within tolerance."""


class DegenerateBasis(RuntimeError):
    """No basis column survived extraction thresholding."""


@dataclass(frozen=True)
class StaircaseLP:
    """maximize sum_j cost_j theta_j s_j subject to
    pattern_matrix(k, eps) @ theta = 1, theta >= 0: cost_j scores column j
    over its largest entry s_j (1 for column 0, else 1 + delta), and
    theta_j s_j is the mass it carries."""

    k: int
    eps: float
    cost: np.ndarray

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


def build_lps(spec: UtilitySpec, eps_grid) -> tuple[np.ndarray, list[StaircaseLP]]:
    """The pattern-column LPs of a utility spec at each eps of eps_grid.

    Returns the read-only len(eps_grid) x 2^k cost grid and one LP per eps,
    whose cost is its row of the grid. The prior masses on the bit matrix
    are computed once, for every eps.
    """
    k = spec.k
    delta = np.array([_pattern_delta(k, eps) for eps in eps_grid])[:, None]
    cost = pattern_scores(spec, _pattern_bits(k), delta)
    # Column 0 is all ones, its own unit-max form, and pattern_scores scored
    # it over 1 + delta. Every preset scores it 0; a custom f scores f(1).
    cost[:, :1] *= 1.0 + delta
    cost.flags.writeable = False
    return cost, [StaircaseLP(k=k, eps=eps, cost=row) for eps, row in zip(eps_grid, cost)]


def build_lp(spec: UtilitySpec, eps: float) -> StaircaseLP:
    """The LP of `build_lps` at one privacy level eps."""
    return build_lps(spec, (eps,))[1][0]


def _pricing_noise(y: np.ndarray) -> float:
    """The rounding noise of the reduced costs under duals y; see
    PRICING_NOISE. A k-vector sums faster in Python than in numpy."""
    return PRICING_NOISE * y.size * (1.0 + sum(map(abs, y.tolist())))


def _run_simplex(A: np.ndarray, Binv: np.ndarray, basis: np.ndarray,
                 cost: np.ndarray) -> int:
    """Revised primal simplex on A theta = e_0; returns the pivot count and
    leaves the final basis in `basis`.

    Binv is the inverse of the basis columns A[:, basis] and is only read.
    The simplex works on one (k + 1) x k array G: the basis inverse on top
    and the duals y = c_B B^-1 as its last row, so the basic solution is
    G[:k, 0] and pricing every column is y . A - c. A pivot on column j
    computes d = G A_j, sets d[k] to j's reduced cost and applies one
    rank-1 row operation to G, which moves the inverse and y together, as
    the zeroth row of a tableau moves (Bertsimas and Tsitsiklis, sec. 3.3).
    Entering: the column with the most improving reduced cost (Dantzig),
    or, once BLAND_AFTER pivots in a row have been degenerate, the
    lowest-index improving column (Bland) until a pivot moves the solution.
    A reduced cost improves when it is below -PIVOT_TOL or below the
    rounding noise -PRICING_NOISE * k * (1 + |y|_1); the noise is computed
    only when the Dantzig minimum is above -PIVOT_TOL, and in Bland mode.
    Leaving: among minimum-ratio rows, Dantzig mode takes the one whose
    basic variable has the lowest cost, then the lowest index, which steers
    degenerate pivots out of the columns that score least; Bland mode takes
    the lowest-index basic variable. The feasible region is a bounded
    polytope, so an entering column with no admissible row is numerical
    breakdown.

    The pricing product writes into one buffer, the basic costs and indices
    are Python lists kept in step with the basis, and the k-row ratio test
    runs on Python floats.
    """
    k = basis.size
    G = np.empty((k + 1, k))
    G[:k] = Binv
    np.dot(cost[basis], Binv, out=G[k])
    y = G[k]
    index, basic_cost = basis.tolist(), cost[basis].tolist()
    reduced = np.empty(cost.size)
    outer = np.empty((k + 1, k))
    degenerate = 0
    for pivots in range(MAX_ITERATIONS):
        np.dot(y, A, out=reduced)
        reduced -= cost
        if degenerate >= BLAND_AFTER:
            candidates = np.flatnonzero(reduced < -_pricing_noise(y))
            if candidates.size == 0:
                break
            j = int(candidates[0])
        else:
            j = int(reduced.argmin())
            if reduced[j] >= -PIVOT_TOL and reduced[j] >= -_pricing_noise(y):
                break
        d = G @ A[:, j]
        d[k] = reduced[j]
        step, x = d.tolist(), G[:, 0].tolist()
        rows = [i for i in range(k) if step[i] > PIVOT_TOL]
        if not rows:
            raise NumericalBreakdown("no admissible pivot in a bounded LP")
        ratios = [x[i] / step[i] for i in rows]
        rmin = min(ratios)
        cut = rmin + DEGENERATE_STEP * max(1.0, abs(rmin))
        if degenerate >= BLAND_AFTER:
            r = min([i for i, q in zip(rows, ratios) if q <= cut], key=index.__getitem__)
        else:
            r = min([(basic_cost[i], index[i], i)
                     for i, q in zip(rows, ratios) if q <= cut])[2]
        G[r] /= step[r]
        d[r] = 0.0
        G -= np.multiply(d[:, None], G[r], out=outer)
        index[r] = j
        basic_cost[r] = float(cost[j])
        degenerate = degenerate + 1 if rmin <= DEGENERATE_STEP else 0
    else:
        raise NumericalBreakdown("simplex iteration limit reached")
    basis[:] = index
    return pivots


@functools.lru_cache(maxsize=LP_CACHE_SIZE)
def _lp_start(k: int, eps: float) -> tuple[np.ndarray, ...]:
    """The prior-free part of solve at (k, eps), computed once per (k, eps)
    and read-only: the difference rows A, the column scales s, and the
    randomized-response basis with its inverse in A.

    s_j is column j's largest entry: 1 for the all-ones column 0 and
    1 + delta for every other column; row 0 of A is row 0 of the pattern
    matrix over s, and rows 1 .. k - 1 are the bit differences
    bits_x - bits_0. Only solve uses these rows; the vertex oracle reads
    the scales and takes its own bit differences once per k. The
    randomized-response basis is the one-bit patterns; its condition
    number is at most 13 (k <= 12), so an explicit inverse is accurate. solve copies the basis, which the
    simplex updates; the simplex only reads the inverse.
    """
    scale = np.full(2**k, math.expm1(eps) + 1.0)
    scale[0] = 1.0
    bits = _pattern_bits(k)
    A = np.vstack([pattern_matrix(k, eps)[0] / scale, bits[1:] - bits[0]])
    basis = pattern_index(np.eye(k))
    start = (A, scale, basis, np.linalg.inv(A[:, basis]))
    for arr in start:
        arr.flags.writeable = False
    return start


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
    A, scale, start, start_inv = _lp_start(k, lp.eps)
    rhs = np.zeros(k)
    rhs[0] = 1.0

    basis = start.copy()
    top = float(np.abs(lp.cost).max())
    if not math.isfinite(top):
        raise NumericalBreakdown("a column score is not finite at this eps")
    pivots = _run_simplex(A, start_inv, basis, lp.cost / (top or 1.0))

    mass = np.linalg.solve(A[:, basis], rhs)
    basic = mass / scale[basis]
    fit = pattern_matrix(k, lp.eps, basis) @ basic
    if float(np.abs(fit - 1.0).max()) > PARSE_ROW_SUM_TOL or mass.min() < -CERT_NEG_TOL:
        raise NumericalBreakdown("solution fails its feasibility certificate")
    theta = np.zeros(n)
    theta[basis] = basic
    theta.flags.writeable = False
    return LPSolution(theta=theta, value=float(lp.cost[basis] @ mass),
                      basis=tuple(sorted(basis.tolist())), pivots=pivots)


def extract_mechanism(sol: LPSolution, lp: StaircaseLP) -> Mechanism:
    """Materialize the optimal mechanism from the solved LP.

    Weights the basis columns by theta and keeps those whose largest entry,
    the mass theta_j * s_j, exceeds EXTRACT_TOL. Two
    distinct {1, e^eps} columns are proportional only when both are
    constant (the all-ones and all-e^eps patterns, or every pattern at
    eps = 0), so the kept constant columns are summed into one output.
    Rows are then normalized exactly.
    """
    basis = np.array(sol.basis, dtype=int)
    pat = pattern_matrix(lp.k, lp.eps, basis)
    cols = pat * sol.theta[basis]
    kept = cols.max(axis=0) > EXTRACT_TOL
    if not kept.any():
        raise DegenerateBasis("no basis column carries mass above EXTRACT_TOL")
    pat, cols = pat[:, kept], cols[:, kept]
    const = pat.min(axis=0) == pat.max(axis=0)
    if const.any():
        cols = np.column_stack([cols[:, ~const], cols[:, const].sum(axis=1)])
    return Mechanism(cols / cols.sum(axis=1, keepdims=True))


@functools.cache
def _oracle_bases(k: int) -> tuple[np.ndarray, ...]:
    """The eps-free part of every k-column basis M of the difference rows
    that is nonsingular at some eps, read-only and column-major over bases.

    Returns the k x m basis columns, the k x m row-0 cofactors of M, and
    per basis C1 + C2 and C2, where C1 and C2 sum the cofactors over the
    basis columns whose row-0 entry is 1 and 1 / s. Rows 1 .. k - 1 of M
    are integer bit differences, so the cofactor of basis position i is
    (-1)^i times the determinant of the basis's other k - 1 columns in
    those rows, rounded to its integer. A basis with C1 = C2 = 0 has
    det M = 0 at every eps and is dropped.
    """
    n = 2**k
    bits = _pattern_bits(k)
    diffs = bits[1:] - bits[0]
    bases = np.fromiter(itertools.combinations(range(n), k), dtype=(np.uint8, k),
                        count=math.comb(n, k))
    others = np.array([[j for j in range(k) if j != i] for i in range(k)])
    # Blocks of 4,096 bases hold the k = 5 minor stack to a few MB, not 130.
    minors = [np.linalg.det(diffs[:, bases[i:i + 4096, others]].transpose(2, 1, 0, 3))
              for i in range(0, len(bases), 4096)]
    cofactors = np.rint(np.concatenate(minors, axis=1))
    cofactors[1::2] *= -1.0
    subsets = bases.T
    total = cofactors.sum(axis=0)
    c2 = np.where((subsets == 0) | (subsets >= n // 2), 0.0, cofactors).sum(axis=0)
    keep = (total != 0) | (c2 != 0)
    table = (subsets[:, keep].astype(np.intp), cofactors[:, keep], total[keep], c2[keep])
    for arr in table:
        arr.flags.writeable = False
    return table


@functools.lru_cache(maxsize=LP_CACHE_SIZE)
def _oracle_vertices(k: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The prior-free part of vertex_oracle at (k, eps), computed once per
    (k, eps) and read-only: the k x v basis columns and the k x v masses
    theta_j * s_j of the v bases whose basic solution passes solve's
    certificate.

    Every vertex of {theta : S theta = 1, theta >= 0} is the basic solution
    of a k-column basis M of the difference rows for the right side e_0,
    so its masses are column 0 of M^-1: the row-0 cofactors over
    det M = C1 + C2 / s (see _oracle_bases), computed as
    (C1 + C2) - C2 * delta / (1 + delta). No linear system is solved. A
    candidate must pass PARSE_ROW_SUM_TOL on its residual on the original
    S, with theta the masses over the column scales of _lp_start, and
    CERT_NEG_TOL on its masses. At an isolated eps where det M vanishes its
    masses are inf or NaN and fail the residual test.
    """
    cols, cofactors, total, c2 = _oracle_bases(k)
    scale = _lp_start(k, eps)[1]
    delta = math.expm1(eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = cofactors / (total - c2 * (delta / (1.0 + delta)))
        theta = mass / scale.take(cols)
        fit = np.einsum("xjm,jm->xm", pattern_matrix(k, eps).take(cols, axis=1), theta)
        ok = ((np.abs(fit - 1.0) <= PARSE_ROW_SUM_TOL).all(axis=0)
              & (mass >= -CERT_NEG_TOL).all(axis=0))
    vertices = (cols[:, ok], mass[:, ok])
    for arr in vertices:
        arr.flags.writeable = False
    return vertices


def vertex_oracle(lp: StaircaseLP) -> float:
    """Brute-force optimum over the basic solutions of every k-column basis:
    the largest cost of the vertices of _oracle_vertices(k, eps)."""
    if lp.k > MAX_ORACLE_K:
        raise AlphabetTooLarge(f"vertex oracle is capped at k={MAX_ORACLE_K}")
    cols, mass = _oracle_vertices(lp.k, lp.eps)
    value = np.einsum("jm,jm->m", lp.cost.take(cols), mass)
    return float(value.max(initial=-np.inf))
