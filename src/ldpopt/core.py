"""Foundational types for discrete privatization mechanisms.

Distributions over finite alphabets, row-stochastic mechanisms, the
{1, e^eps}-valued pattern matrix behind extremal mechanisms, and the
privacy predicates used everywhere else in the package. All objects are
immutable after construction and all functions are pure.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Default relative tolerance on likelihood ratios.
DEFAULT_RATIO_TOL = 1e-9

# Row sums of constructed mechanisms / distributions must match 1 this tightly.
ROW_SUM_TOL = 1e-12

# Parsers reject serialized rows whose sums deviate from 1 by more than this.
PARSE_ROW_SUM_TOL = 1e-9

# Pattern matrices, and so the LPs over them, are capped at k = 12 (4096
# columns): the solver, its tests and the sweeps stop there, and nothing
# builds a larger one.
MAX_LP_K = 12

# The information-preservation split lists the masses of all 2^k input
# subsets: at k = 24, 1.7e7 floats (134 MB).
MAX_SUBSET_K = 24

# The largest eps whose e^eps is a finite float (about 709.78).
MAX_EPS = math.log(np.finfo(float).max)


class NegativeMass(ValueError):
    """A probability mass was negative."""


class NotNormalizable(ValueError):
    """Input masses do not sum to a positive finite number."""


class DimensionMismatch(ValueError):
    """Operands have incompatible alphabet sizes."""


class AlphabetTooLarge(ValueError):
    """Alphabet size exceeds the supported dense-materialization cap."""


class MechanismFormatError(ValueError):
    """Serialized mechanism violates the wire format."""


def exp_eps(eps: float, delta: float = 0.0) -> float:
    """e^eps for a valid privacy level: 0 <= eps <= MAX_EPS, 0 <= delta <= 1.

    The one check of (eps, delta) in the package; NaN fails it. Raises a
    ValueError naming both values.
    """
    if not (0.0 <= eps <= MAX_EPS and 0.0 <= delta <= 1.0):
        raise ValueError(f"need eps in [0, {MAX_EPS:.2f}] and delta in [0, 1], "
                         f"got eps={eps}, delta={delta}")
    return math.exp(eps)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Distribution:
    """Point on the probability simplex over a finite alphabet of size k >= 2."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen(np.atleast_1d(self.probs))
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size < 2:
            raise DimensionMismatch("distribution needs at least 2 outcomes")
        # One pass accepts every valid vector: a NaN or -inf fails the
        # minimum, and a +inf makes the sum inf. Anything else goes through
        # the checks below, which name what is wrong.
        if probs.min() >= 0 and abs(float(probs.sum()) - 1.0) <= ROW_SUM_TOL:
            return
        if not np.all(np.isfinite(probs)):
            raise NotNormalizable("non-finite probability mass")
        if np.any(probs < 0):
            raise NegativeMass("negative probability mass")
        if abs(float(probs.sum()) - 1.0) > ROW_SUM_TOL:
            raise NotNormalizable(f"masses sum to {probs.sum()!r}, not 1")

    @property
    def k(self) -> int:
        return self.probs.size

    @property
    def is_positive(self) -> bool:
        """True when every outcome has strictly positive mass."""
        return bool(np.all(self.probs > 0))

    def mass(self, subset: Iterable[int]) -> float:
        """Total mass of a subset of outcome indices."""
        idx = list(subset)
        return float(self.probs[idx].sum()) if idx else 0.0

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and np.array_equal(self.probs, other.probs)


def make_distribution(values: Sequence[float]) -> Distribution:
    """Build a Distribution from nonnegative masses, normalizing by their sum.

    Raises NegativeMass on any negative entry and NotNormalizable when the
    sum is zero or not finite.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DimensionMismatch("need at least 2 masses")
    if not np.all(np.isfinite(arr)):
        raise NotNormalizable("non-finite mass")
    if np.any(arr < 0):
        raise NegativeMass("negative mass")
    total = float(arr.sum())
    if total <= 0:
        raise NotNormalizable("masses sum to zero")
    return Distribution(arr / total)


@dataclass(frozen=True)
class Mechanism:
    """A k x l row-stochastic conditional distribution rows[x][y] = Q(y|x)."""

    rows: np.ndarray

    def __post_init__(self):
        rows = _frozen(np.atleast_2d(self.rows))
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DimensionMismatch("mechanism must be a 2-d matrix")
        # One pass accepts every valid matrix, as in Distribution; the row
        # sums are tested by the same expression as in the check below.
        if rows.min() >= 0 and np.abs(rows.sum(axis=1) - 1.0).max() <= ROW_SUM_TOL:
            return
        if not np.all(np.isfinite(rows)):
            raise ValueError("non-finite mechanism entry")
        if np.any(rows < 0):
            raise NegativeMass("negative mechanism entry")
        row_sums = rows.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            bad = int(np.argmax(np.abs(row_sums - 1.0)))
            raise NotNormalizable(f"row {bad} sums to {row_sums[bad]!r}, not 1")

    @property
    def k(self) -> int:
        return self.rows.shape[0]

    @property
    def l(self) -> int:
        return self.rows.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Mechanism) and np.array_equal(self.rows, other.rows)


@dataclass(frozen=True)
class PatternMatrix:
    """The k x 2^k matrix whose columns are all {1, e^eps}-valued patterns.

    Column j (1-indexed) is (e^eps - 1) * b_{j-1} + 1 where b_m is the k-bit
    binary representation of m with row k holding the least-significant bit.
    Only k and eps are stored: `matrix` is built on first access and then
    cached, and `column` builds the columns it is asked for, so an LP that
    never needs all 2^k columns at once never materializes them.
    """

    k: int
    eps: float

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense, read-only k x 2^k pattern matrix."""
        return self.column(slice(None))

    @property
    def num_columns(self) -> int:
        return 2**self.k

    @property
    def bits(self) -> np.ndarray:
        """The eps-free, read-only k x 2^k {0, 1} matrix: the pattern is
        1 + delta * bits."""
        return _pattern_bits(self.k)

    @property
    def delta(self) -> float:
        """e^eps - 1, by expm1: full relative precision at small eps."""
        return math.expm1(self.eps)

    def column(self, j) -> np.ndarray:
        """Pattern column j, 0-indexed; an index array or slice gives the
        k x len(j) block of those columns."""
        cols = self.bits[:, j] * self.delta
        cols += 1.0
        cols.flags.writeable = False
        return cols


def pattern_matrix(k: int, eps: float) -> PatternMatrix:
    """The staircase pattern matrix for alphabet size k at privacy level eps."""
    if not 2 <= k <= MAX_LP_K:
        raise AlphabetTooLarge(f"k={k} outside [2, {MAX_LP_K}]")
    exp_eps(eps)
    return PatternMatrix(k=k, eps=eps)


@functools.cache
def _pattern_bits(k: int) -> np.ndarray:
    """The read-only k x 2^k {0, 1} bit matrix behind pattern_matrix."""
    j = np.arange(2**k, dtype=np.int64)
    bits = ((j[None, :] >> (k - 1 - np.arange(k)[:, None])) & 1).astype(float)
    bits.flags.writeable = False
    return bits


def is_locally_private(Q: Mechanism, eps: float) -> bool:
    """True iff Q is eps-locally private: Q(y|x) <= e^eps Q(y|x') for every
    output y and inputs x, x', so no output's likelihoods differ by a ratio
    above e^eps.

    Reads the largest log-ratio from effective_epsilon, with a relative
    slack of DEFAULT_RATIO_TOL on the ratio; a column mixing zero and
    nonzero masses fails at every eps.
    """
    exp_eps(eps)
    return effective_epsilon(Q) <= eps + math.log1p(DEFAULT_RATIO_TOL)


def is_approx_private(Q: Mechanism, eps: float, delta: float,
                      tol: float = DEFAULT_RATIO_TOL) -> bool:
    """Check (eps, delta) privacy via the worst output subset.

    For each ordered pair (x, x') the maximizing subset is
    S* = {y : Q(y|x) > e^eps Q(y|x')} since each output contributes
    independently and positively; the check is Q(S*|x) - e^eps Q(S*|x') <= delta.
    """
    e = exp_eps(eps, delta)
    rows = Q.rows
    gap = rows[:, None, :] - e * rows[None, :, :]
    worst = np.clip(gap, 0.0, None).sum(axis=2)
    return bool(np.all(worst <= delta + tol))


def is_staircase(Q: Mechanism, eps: float, tol: float = 1e-7) -> bool:
    """True iff every column's pairwise |log-ratio| is within tol of 0 or eps.

    All-zero columns are allowed; columns mixing zero and positive masses
    are not a staircase (the ratio is unbounded). An entry counts as zero
    below its column's largest entry times e^-(eps + tol), the smallest
    level a staircase column holds; an absolute floor would read the low
    level of a staircase as zero at large eps.
    """
    exp_eps(eps)
    floor = Q.rows.max(axis=0) * math.exp(-(eps + tol))
    pos = Q.rows > floor
    live = pos.any(axis=0)
    if (pos != live).any():
        return False
    logs = np.log(Q.rows[:, live])
    diff = np.abs(logs[:, None, :] - logs[None, :, :])
    return bool((np.minimum(diff, np.abs(diff - eps)) <= tol).all())


def effective_epsilon(Q: Mechanism) -> float:
    """Smallest eps at which Q is eps-locally private; inf when none exists.

    Equals the largest |log Q(y|x) - log Q(y|x')| over outputs with positive
    mass everywhere; a column mixing zero and nonzero entries forces inf.
    """
    pos = Q.rows > 0
    live = pos.any(axis=0)
    if (pos != live).any():
        return math.inf
    cols = Q.rows[:, live]
    return float((np.log(cols.max(axis=0)) - np.log(cols.min(axis=0))).max(initial=0.0))


def induced_marginal(P: Distribution, Q: Mechanism) -> Distribution:
    """Output distribution M(y) = sum_x P(x) Q(y|x) seen by the analyst."""
    if P.k != Q.k:
        raise DimensionMismatch(f"P has k={P.k} but Q has k={Q.k}")
    return Distribution(P.probs @ Q.rows)


# -- JSON wire format ------------------------------------------------------
#
# {"k": int, "l": int, "rows": [[...], ...], "eps_claimed": float|null,
#  "delta_claimed": float|null}, row-major.


@dataclass(frozen=True)
class MechanismRecord:
    """A mechanism together with the privacy level claimed for it on disk."""

    mechanism: Mechanism
    eps_claimed: float | None = None
    delta_claimed: float | None = None


def mechanism_to_dict(Q: Mechanism, eps_claimed: float | None = None,
                      delta_claimed: float | None = None) -> dict:
    return {
        "k": Q.k,
        "l": Q.l,
        "rows": [[float(v) for v in row] for row in Q.rows],
        "eps_claimed": None if eps_claimed is None else float(eps_claimed),
        "delta_claimed": None if delta_claimed is None else float(delta_claimed),
    }


def mechanism_from_dict(obj: dict) -> MechanismRecord:
    """Parse and validate the wire format, renormalizing rows that pass the gate."""
    if not isinstance(obj, dict):
        raise MechanismFormatError("expected a JSON object")
    for key in ("k", "l", "rows"):
        if key not in obj:
            raise MechanismFormatError(f"missing key {key!r}")
    k, l, rows = obj["k"], obj["l"], obj["rows"]
    if not isinstance(k, int) or not isinstance(l, int) or k < 1 or l < 1:
        raise MechanismFormatError("k and l must be positive integers")
    if not isinstance(rows, list) or len(rows) != k:
        raise MechanismFormatError(f"expected {k} rows, found {len(rows) if isinstance(rows, list) else 'none'}")
    mat = np.zeros((k, l))
    for x, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != l:
            raise MechanismFormatError(f"row {x}: expected {l} entries")
        for y, v in enumerate(row):
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise MechanismFormatError(f"row {x}, column {y}: not a finite number")
            if v < 0:
                raise MechanismFormatError(f"row {x}, column {y}: negative mass {v!r}")
            mat[x, y] = float(v)
        s = float(mat[x].sum())
        if abs(s - 1.0) > PARSE_ROW_SUM_TOL:
            raise MechanismFormatError(f"row {x}: sums to {s!r}, outside the 1e-9 gate")
        mat[x] /= s
    eps_claimed = obj.get("eps_claimed")
    delta_claimed = obj.get("delta_claimed")
    for name, v, hi in (("eps_claimed", eps_claimed, MAX_EPS),
                        ("delta_claimed", delta_claimed, 1.0)):
        if v is None:
            continue
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise MechanismFormatError(f"{name} must be a number or null")
        if not 0.0 <= v <= hi:
            raise MechanismFormatError(f"{name} must lie in [0, {hi:.2f}], got {v!r}")
    return MechanismRecord(
        mechanism=Mechanism(mat),
        eps_claimed=None if eps_claimed is None else float(eps_claimed),
        delta_claimed=None if delta_claimed is None else float(delta_claimed),
    )


def mechanism_to_json(Q: Mechanism, eps_claimed: float | None = None,
                      delta_claimed: float | None = None) -> str:
    return json.dumps(mechanism_to_dict(Q, eps_claimed, delta_claimed), indent=2)


def mechanism_from_json(text: str) -> MechanismRecord:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MechanismFormatError(f"invalid JSON: {exc}") from exc
    return mechanism_from_dict(obj)
