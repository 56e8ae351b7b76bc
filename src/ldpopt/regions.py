"""Hypothesis-testing error regions and their containment order.

The lower-left boundary of achievable (miss-detection, false-alarm) pairs
characterizes a binary-input mechanism up to garbling: region containment
is statistical dominance, and (eps, delta) privacy is exactly containment
in the two-half-plane region cut out by the privacy constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_RATIO_TOL, DimensionMismatch, Distribution, Mechanism, exp_eps

# Masses below this are treated as zero when classifying likelihood ratios.
MASS_FLOOR = 1e-15

# Vertex coordinates are partial sums of up to 4,096 masses in [0, 1], so
# each is off by at most the rounding bound behind ROW_SUM_TOL (1e-12).
# Three vertices whose cross product is at most COLLINEAR_TOL are one
# straight run of the boundary, and a vertex may lie SQUARE_TOL outside the
# unit square.
COLLINEAR_TOL = 1e-12
SQUARE_TOL = 1e-12


def _canonical(points: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Minimal vertex list: trim the vertical run at p_md = 0 and the
    horizontal run at p_fa = 0, then drop collinear interior vertices."""
    pts = [(float(md), float(fa)) for md, fa in points]
    at_zero_md = [p for p in pts if p[0] <= MASS_FLOOR]
    if at_zero_md:
        lowest = min(at_zero_md, key=lambda p: p[1])
        pts = [(0.0, lowest[1])] + [p for p in pts if p[0] > MASS_FLOOR]
    at_zero_fa = [p for p in pts if p[1] <= MASS_FLOOR]
    if at_zero_fa:
        leftmost = min(at_zero_fa, key=lambda p: p[0])
        pts = [p for p in pts if p[1] > MASS_FLOOR] + [(leftmost[0], 0.0)]
    out: list[tuple[float, float]] = []
    for p in pts:
        while len(out) >= 2:
            (ax, ay), (bx, by) = out[-2], out[-1]
            cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
            if abs(cross) <= COLLINEAR_TOL:
                out.pop()
            else:
                break
        out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class TradeoffRegion:
    """Lower-left boundary of achievable (p_md, p_fa) pairs.

    Vertices run from (0, beta0) to (alpha0, 0) with p_md increasing,
    p_fa strictly decreasing, and a convex piecewise-linear boundary.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        v = self.vertices
        if not v:
            raise ValueError("region needs at least one vertex")
        for md, fa in v:
            if not (-SQUARE_TOL <= md <= 1 + SQUARE_TOL and -SQUARE_TOL <= fa <= 1 + SQUARE_TOL):
                raise ValueError("vertices must lie in the unit square")
        mds = [md for md, _ in v]
        fas = [fa for _, fa in v]
        if any(b <= a for a, b in zip(mds, mds[1:])):
            raise ValueError("p_md must be strictly increasing")
        if any(b >= a for a, b in zip(fas, fas[1:])):
            raise ValueError("p_fa must be strictly decreasing")
        if v[0][0] > MASS_FLOOR or v[-1][1] > MASS_FLOOR:
            raise ValueError("boundary must start at p_md=0 and end at p_fa=0")

    def evaluate(self, p_md: np.ndarray) -> np.ndarray:
        """Boundary p_fa at the requested p_md values (flat beyond the ends)."""
        mds = np.array([md for md, _ in self.vertices])
        fas = np.array([fa for _, fa in self.vertices])
        return np.interp(np.asarray(p_md, dtype=float), mds, fas)

    @property
    def abscissae(self) -> np.ndarray:
        return np.array([md for md, _ in self.vertices])


def region_from_marginals(M0: Distribution, M1: Distribution) -> TradeoffRegion:
    """Neyman-Pearson lower boundary for testing M0 against M1.

    Outputs are ordered by decreasing likelihood ratio M0(y)/M1(y) (infinite
    ratios first), equal-ratio outputs are merged, and the cumulative
    (M1-mass, remaining M0-mass) points are the vertices.
    """
    if M0.k != M1.k:
        raise DimensionMismatch("marginals must share an alphabet")
    a, b = M0.probs, M1.probs
    keep = (a > MASS_FLOOR) | (b > MASS_FLOOR)
    a, b = a[keep], b[keep]
    ratio = np.divide(a, b, out=np.full(a.shape, math.inf), where=b > MASS_FLOOR)
    order = np.argsort(-ratio, kind="stable")
    a, b, ratio = a[order], b[order], ratio[order]

    groups: list[tuple[float, float]] = []
    i = 0
    while i < len(ratio):
        j = i + 1
        while j < len(ratio) and _same_ratio(ratio[i], ratio[j]):
            j += 1
        groups.append((float(a[i:j].sum()), float(b[i:j].sum())))
        i = j

    ga, gb = np.array(groups).T
    # The remaining M0 mass is summed from the tail: 1 minus a prefix sum
    # would lose the e^-eps masses that the privacy line multiplies by e^eps.
    fa = np.append(np.cumsum(ga[::-1])[::-1][1:], 0.0)
    points = [(0.0, 1.0)] + list(zip(np.cumsum(gb), fa))
    return TradeoffRegion(_canonical(points))


def _same_ratio(r1: float, r2: float) -> bool:
    if math.isinf(r1) or math.isinf(r2):
        return math.isinf(r1) and math.isinf(r2)
    return abs(r1 - r2) <= DEFAULT_RATIO_TOL * max(1.0, r1, r2)


def tradeoff_region(Q: Mechanism, x0: int = 0, x1: int = 1) -> TradeoffRegion:
    """Error region for deciding between inputs x0 and x1 through Q."""
    if x0 == x1 or not (0 <= x0 < Q.k and 0 <= x1 < Q.k):
        raise DimensionMismatch("x0 and x1 must be distinct valid input indices")
    return region_from_marginals(Distribution(Q.rows[x0]), Distribution(Q.rows[x1]))


def region_eps_delta(eps: float, delta: float) -> TradeoffRegion:
    """The (eps, delta) privacy region: the part of the unit square above
    p_fa + e^eps p_md >= 1-delta and e^eps p_fa + p_md >= 1-delta."""
    e = exp_eps(eps, delta)
    reach = 1.0 - delta
    cross = reach / (1.0 + e)
    return TradeoffRegion(_canonical([(0.0, reach), (cross, cross), (reach, 0.0)]))


def contains(outer: TradeoffRegion, inner: TradeoffRegion) -> bool:
    """True iff inner's boundary lies on or above outer's boundary, to
    within DEFAULT_RATIO_TOL, the slack of is_approx_private.

    Both boundaries are piecewise linear, so checking at the union of their
    vertex abscissae is complete.
    """
    mds = np.union1d(outer.abscissae, inner.abscissae)
    return bool(np.all(inner.evaluate(mds) >= outer.evaluate(mds) - DEFAULT_RATIO_TOL))


def operational_privacy_check(Q: Mechanism, eps: float, delta: float) -> bool:
    """Region-based (eps, delta) privacy test for binary-input mechanisms.

    Equivalent to the algebraic subset check: Q is (eps, delta)-private
    iff its error region sits inside the (eps, delta) region.
    """
    if Q.k != 2:
        raise DimensionMismatch("operational check needs exactly 2 input rows")
    return contains(region_eps_delta(eps, delta), tradeoff_region(Q, 0, 1))
