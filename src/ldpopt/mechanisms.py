"""Closed-form privatization mechanisms for finite alphabets.

Binary split mechanisms for hypothesis testing and information
preservation, randomized response, a truncated-geometric baseline, and the
four-output mechanism that is extremal under (eps, delta) privacy on
binary inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (MAX_SUBSET_K, AlphabetTooLarge, DimensionMismatch, Distribution,
                   Mechanism, exp_eps)

# Float gaps within this window of the best are treated as tied.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class PartitionSet:
    """A subset of input indices (0-based) and its mass under the defining prior."""

    members: tuple[int, ...]
    mass: float

    def indicator(self, k: int) -> np.ndarray:
        out = np.zeros(k, dtype=bool)
        out[list(self.members)] = True
        return out


def ht_partition(P0: Distribution, P1: Distribution) -> PartitionSet:
    """The split {x : P0(x) >= P1(x)}, which maximizes P0(A) - P1(A)."""
    if P0.k != P1.k:
        raise DimensionMismatch("priors must share an alphabet")
    members = tuple(int(i) for i in np.flatnonzero(P0.probs >= P1.probs))
    return PartitionSet(members=members, mass=P0.mass(members))


def mi_partition(P: Distribution) -> PartitionSet:
    """Exhaustive search for the subset whose mass is closest to 1/2.

    Ties (within TIE_TOL of the best gap) are broken by smallest
    cardinality, then lexicographic member order, so the choice is
    deterministic. Capped at k = MAX_SUBSET_K inputs.
    """
    k = P.k
    if k > MAX_SUBSET_K:
        raise AlphabetTooLarge(f"subset search capped at k={MAX_SUBSET_K}")
    masses = np.zeros(1)
    for i in range(k):
        masses = np.concatenate([masses, masses + P.probs[i]])
    gaps = np.abs(masses - 0.5)
    best = float(gaps.min())
    candidates = np.flatnonzero(gaps <= best + TIE_TOL)

    def sort_key(mask: int) -> tuple:
        members = tuple(i for i in range(k) if (mask >> i) & 1)
        return (len(members), members)

    winner = min((int(m) for m in candidates), key=sort_key)
    members = tuple(i for i in range(k) if (winner >> i) & 1)
    return PartitionSet(members=members, mass=float(masses[winner]))


def _two_output_split(in_split: np.ndarray, eps: float) -> Mechanism:
    e = exp_eps(eps)
    high = e / (1.0 + e)
    low = 1.0 / (1.0 + e)
    # Both columns from the two levels: 1 - high loses the bits of low
    # below 1e-16, and is 0 from eps ~ 37.
    return Mechanism(np.where(in_split[:, None], (high, low), (low, high)))


def binary_ht(P0: Distribution, P1: Distribution, eps: float) -> Mechanism:
    """Two-output mechanism releasing whether x looks more like P0 than P1.

    Output 0 gets mass e^eps/(1+e^eps) on {x : P0(x) >= P1(x)} and
    1/(1+e^eps) elsewhere; output 1 complements. Saturates the eps
    constraint and is a staircase for every eps.
    """
    if P0.k != P1.k:
        raise DimensionMismatch("priors must share an alphabet")
    return _two_output_split(P0.probs >= P1.probs, eps)


def binary_mi(P: Distribution, eps: float) -> Mechanism:
    """Two-output mechanism releasing the most informative single bit.

    The split set is chosen by exhaustive search to bring its mass as close
    to 1/2 as possible (deterministic tie-breaking; see mi_partition).
    """
    split = mi_partition(P)
    return _two_output_split(split.indicator(P.k), eps)


def randomized_response(k: int, eps: float) -> Mechanism:
    """Release the truth with probability e^eps/(k-1+e^eps), else any lie.

    Prior-independent; optimal in the low-privacy regime.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    e = exp_eps(eps)
    rows = np.full((k, k), 1.0 / (k - 1 + e))
    np.fill_diagonal(rows, e / (k - 1 + e))
    return Mechanism(rows)


def geometric(k: int, eps: float) -> Mechanism:
    """Integer-relabelled geometric noise with ratio e^(-eps/(k-1)),
    truncated by folding all mass below 1 into 1 and above k into k.

    The folded tails make the edge outputs saturate the eps constraint, so
    the result is exactly eps-locally private, but interior likelihood
    ratios are fractional powers of e^eps: not a staircase for k >= 3.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    exp_eps(eps)
    if eps == 0:
        raise ValueError(f"geometric noise needs eps > 0, got eps={eps}")
    alpha = math.exp(-eps / (k - 1))
    x = np.arange(k)[:, None]
    y = np.arange(k)[None, :]
    rows = ((1 - alpha) / (1 + alpha)) * alpha ** np.abs(y - x).astype(float)
    rows[:, 0] = alpha ** x[:, 0] / (1 + alpha)
    rows[:, k - 1] = alpha ** (k - 1 - x[:, 0]) / (1 + alpha)
    rows /= rows.sum(axis=1, keepdims=True)
    return Mechanism(rows)


def quaternary(eps: float, delta: float) -> Mechanism:
    """Binary-input, four-output mechanism extremal under (eps, delta) privacy.

    Passes the input through with probability delta (outputs 0/1) and
    otherwise applies the two-output eps mechanism (outputs 2/3).
    """
    e = exp_eps(eps, delta)
    lo = (1.0 - delta) / (1.0 + e)
    hi = (1.0 - delta) * e / (1.0 + e)
    rows = np.array([
        [delta, 0.0, lo, hi],
        [0.0, delta, hi, lo],
    ])
    return Mechanism(rows)
