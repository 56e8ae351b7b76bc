"""Foundational types for discrete privatization mechanisms.

Distributions over finite alphabets, row-stochastic mechanisms, the
{1, e^eps}-valued pattern columns behind extremal mechanisms
(`pattern_matrix`, the one rule that writes them), and the
privacy predicates used everywhere else in the package. All objects are
immutable after construction and all functions are pure.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Rounding slack of the (eps, delta) predicate, wherever it is decided: a
# likelihood ratio may reach e^eps (1 + this) and a worst-subset excess
# delta + this (is_locally_private, is_approx_private); an error region may
# dip this far below the privacy region (regions.contains, which decides
# is_approx_private again by containment), and two likelihood ratios this
# close (relative) are one region vertex. It matches PARSE_ROW_SUM_TOL, by
# which a mechanism read from a file may be off before renormalization.
DEFAULT_RATIO_TOL = 1e-9

# Slack of is_staircase on a log-ratio. Mechanisms are normalized from row
# sums within a few 1e-9 of 1 (solve's certificate, PARSE_ROW_SUM_TOL),
# which moves a log-ratio by about 1e-8 at most.
STAIRCASE_LOG_TOL = 1e-7

# Row sums of constructed mechanisms / distributions must match 1 this
# tightly: n floats divided by their own sum add up to 1 within about n u
# (u = 2^-53), which is 4.5e-13 at n = 4,096.
ROW_SUM_TOL = 1e-12

# Parsers reject serialized rows whose sums deviate from 1 by more than
# this, and solve's certificate bounds the residual of S theta by it. The
# largest residual measured there was 6.7e-16 (3,160 LPs at k <= 12), and a
# row of up to 20 entries printed to 10 significant digits still passes.
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


def _check_masses(arr: np.ndarray, lo: float, what: str) -> None:
    """Raise NotNormalizable if arr has a non-finite entry, else NegativeMass
    if lo, its minimum, is negative. Past this, a failed one-pass test can
    only be a bad sum."""
    if not np.all(np.isfinite(arr)):
        raise NotNormalizable(f"non-finite {what}")
    if lo < 0:
        raise NegativeMass(f"negative {what}")


@dataclass(frozen=True)
class Distribution:
    """Point on the probability simplex over a finite alphabet of size k >= 1.

    One outcome is allowed: the marginals of a one-output mechanism are
    [1.0]. Priors need two, which make_distribution and the LP's k cap check.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = _frozen(np.atleast_1d(self.probs))
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size < 1:
            raise DimensionMismatch("distribution must be a nonempty 1-d vector")
        # One pass accepts every valid vector: a NaN or -inf fails the
        # minimum, and a +inf makes the sum inf.
        lo = probs.min()
        if lo >= 0:
            with np.errstate(over="ignore"):  # finite masses may sum past the float range
                total = float(probs.sum())
            if abs(total - 1.0) <= ROW_SUM_TOL:
                return
        _check_masses(probs, lo, "probability mass")
        raise NotNormalizable(f"masses sum to {total!r}, not 1")

    @property
    def k(self) -> int:
        return self.probs.size

    @property
    def is_positive(self) -> bool:
        """True when every outcome has strictly positive mass."""
        return bool(np.all(self.probs > 0))

    def mass(self, subset: Iterable[int]) -> float:
        """Total mass of a subset of outcome indices."""
        return float(self.probs[list(subset)].sum())

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and np.array_equal(self.probs, other.probs)


def make_distribution(values: Sequence[float]) -> Distribution:
    """Build a Distribution from nonnegative masses, normalizing by their sum.

    Raises NegativeMass on any negative entry and NotNormalizable when the
    sum is zero or not finite. Valid masses are checked once, by
    Distribution on the normalized vector: a positive finite sum leaves a
    negative mass negative there. Any other sum, from a NaN, an infinity,
    a negative or an overflow, is diagnosed here.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DimensionMismatch("need at least 2 masses")
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if not 0.0 < total < math.inf:
        _check_masses(arr, arr.min(), "probability mass")
        raise NotNormalizable(f"masses sum to {total!r}")
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
        # One pass accepts every valid matrix, as in Distribution.
        lo = rows.min()
        if lo >= 0:
            with np.errstate(over="ignore"):
                sums = rows.sum(axis=1)
            off = np.abs(sums - 1.0)
            if off.max() <= ROW_SUM_TOL:
                return
        _check_masses(rows, lo, "mechanism entry")
        bad = int(off.argmax())
        raise NotNormalizable(f"row {bad} sums to {float(sums[bad])!r}, not 1")

    @property
    def k(self) -> int:
        return self.rows.shape[0]

    @property
    def l(self) -> int:
        return self.rows.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Mechanism) and np.array_equal(self.rows, other.rows)


def _pattern_delta(k: int, eps: float) -> float:
    """e^eps - 1 by expm1, full relative precision at small eps, after the
    one check of a pattern's (k, eps): k in [2, MAX_LP_K] and a valid eps."""
    if not 2 <= k <= MAX_LP_K:
        raise AlphabetTooLarge(f"k={k} outside [2, {MAX_LP_K}]")
    exp_eps(eps)
    return math.expm1(eps)


def pattern_matrix(k: int, eps: float, j=slice(None)) -> np.ndarray:
    """Columns j of the read-only k x 2^k staircase pattern matrix at
    privacy level eps: all of them by default; an index array or a slice
    gives the k x len(j) block of those columns, and an int one column.

    Column j (0-indexed) is (e^eps - 1) * b_j + 1, where b_j is the k-bit
    binary representation of j with row 0 holding the most significant bit.
    """
    delta = _pattern_delta(k, eps)
    cols = _pattern_bits(k)[:, j] * delta
    cols += 1.0
    cols.flags.writeable = False
    return cols


@functools.cache
def _pattern_bits(k: int) -> np.ndarray:
    """The read-only k x 2^k {0, 1} bit matrix behind pattern_matrix."""
    j = np.arange(2**k, dtype=np.int64)
    bits = ((j[None, :] >> (k - 1 - np.arange(k)[:, None])) & 1).astype(float)
    bits.flags.writeable = False
    return bits


def pattern_index(bits: np.ndarray) -> np.ndarray:
    """The pattern-matrix column index of each column of a k x n {0, 1}
    matrix, row 0 the most significant bit: the inverse of _pattern_bits."""
    return (1 << np.arange(bits.shape[0])[::-1]) @ bits.astype(np.int64)


def is_locally_private(Q: Mechanism, eps: float) -> bool:
    """True iff Q is eps-locally private: Q(y|x) <= e^eps Q(y|x') for every
    output y and inputs x, x', so no output's likelihoods differ by a ratio
    above e^eps.

    Reads the largest log-ratio from effective_epsilon, with a relative
    slack of DEFAULT_RATIO_TOL on the ratio; a column mixing zero and
    nonzero masses fails at every eps.
    """
    exp_eps(eps)
    return is_private_at(effective_epsilon(Q), eps)


def is_private_at(effective: float, eps: float) -> bool:
    """True iff a mechanism whose effective_epsilon is `effective` is
    eps-locally private: the rule of is_locally_private, for a caller that
    has the effective eps already. eps is not checked here."""
    return effective <= eps + math.log1p(DEFAULT_RATIO_TOL)


def is_approx_private(Q: Mechanism, eps: float, delta: float) -> bool:
    """Check (eps, delta) privacy via the worst output subset.

    For each ordered pair (x, x') the maximizing subset is
    S* = {y : Q(y|x) > e^eps Q(y|x')} since each output contributes
    independently and positively; the check is Q(S*|x) - e^eps Q(S*|x') <= delta
    up to DEFAULT_RATIO_TOL.
    """
    e = exp_eps(eps, delta)
    rows = Q.rows
    gap = rows[:, None, :] - e * rows[None, :, :]
    worst = np.clip(gap, 0.0, None).sum(axis=2)
    return bool(np.all(worst <= delta + DEFAULT_RATIO_TOL))


def is_staircase(Q: Mechanism, eps: float) -> bool:
    """True iff each column's log-ratios are within STAIRCASE_LOG_TOL of 0 or eps.

    All-zero columns are allowed; columns mixing zero and positive masses
    are not a staircase (the ratio is unbounded). An entry counts as zero
    below its column's largest entry times e^-(eps + STAIRCASE_LOG_TOL),
    the smallest level a staircase column holds; an absolute floor would
    read the low level of a staircase as zero at large eps.
    """
    exp_eps(eps)
    floor = Q.rows.max(axis=0) * math.exp(-(eps + STAIRCASE_LOG_TOL))
    pos = Q.rows > floor
    live = pos.any(axis=0)
    if (pos != live).any():
        return False
    logs = np.log(Q.rows[:, live])
    diff = np.abs(logs[:, None, :] - logs[None, :, :])
    return bool((np.minimum(diff, np.abs(diff - eps)) <= STAIRCASE_LOG_TOL).all())


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
        "rows": Q.rows.tolist(),
        "eps_claimed": None if eps_claimed is None else float(eps_claimed),
        "delta_claimed": None if delta_claimed is None else float(delta_claimed),
    }


def _first_fault(rows: list, l: int) -> tuple[int, str | None]:
    """The index of the first row that breaks a row or entry rule of the
    wire format, with the message naming its first fault; (len(rows), None)
    when every row keeps them."""
    for x, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != l:
            return x, f"row {x}: expected {l} entries"
        for y, v in enumerate(row):
            # An exact comparison: a NaN or an int too large for a float fails.
            if (not isinstance(v, (int, float)) or isinstance(v, bool)
                    or not abs(v) <= sys.float_info.max):
                return x, f"row {x}, column {y}: not a finite number"
            if v < 0:
                return x, f"row {x}, column {y}: negative mass {v!r}"
    return len(rows), None


def mechanism_from_dict(obj: dict) -> MechanismRecord:
    """Parse and validate the wire format, renormalizing rows that pass the gate.

    Names the first fault in file order, where a row's sum comes after its
    entries and before the next row.
    """
    if not isinstance(obj, dict):
        raise MechanismFormatError("expected a JSON object")
    for key in ("k", "l", "rows"):
        if key not in obj:
            raise MechanismFormatError(f"missing key {key!r}")
    k, l, rows = obj["k"], obj["l"], obj["rows"]
    for name, v in (("k", k), ("l", l)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise MechanismFormatError(f"{name} must be a positive integer")
    if not isinstance(rows, list) or len(rows) != k:
        raise MechanismFormatError(f"expected {k} rows, found {len(rows) if isinstance(rows, list) else 'none'}")
    x, fault = _first_fault(rows, l)
    mat = np.array(rows[:x], dtype=float).reshape(x, l)
    with np.errstate(over="ignore"):  # finite entries may sum past the float range
        sums = mat.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > PARSE_ROW_SUM_TOL)
    if bad.size:
        x = bad[0]
        raise MechanismFormatError(f"row {x}: sums to {float(sums[x])!r}, outside the 1e-9 gate")
    if fault is not None:
        raise MechanismFormatError(fault)
    mat /= sums[:, None]
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
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4,300 digits
        raise MechanismFormatError(f"invalid JSON: {exc}") from exc
    return mechanism_from_dict(obj)
