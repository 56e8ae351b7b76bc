"""Closed-form privatization mechanisms for finite alphabets.

Binary split mechanisms for hypothesis testing and information
preservation, randomized response, a truncated-geometric baseline, and the
four-output mechanism that is extremal under (eps, delta) privacy on
binary inputs. Randomized response and the splits are staircases of a
k x n bit matrix B, the identity or [1_T, 1_T^c]: output y is the scaled
{1, e^eps} pattern column (1 + delta B[:, y]) / (n + delta), delta = e^eps - 1.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (MAX_SUBSET_K, AlphabetTooLarge, DimensionMismatch, Distribution,
                   Mechanism, exp_eps)

# Float gaps within this window of the best are treated as tied: a sum of
# at most MAX_SUBSET_K masses is off by at most 23 u (2.6e-15), so two
# subsets of equal exact mass always tie.
TIE_TOL = 1e-12


def ht_partition(P0: Distribution, P1: Distribution) -> np.ndarray:
    """The k x 2 bit matrix [1_T, 1_T^c] of the split T = {x : P0(x) >= P1(x)},
    which maximizes P0(T) - P1(T)."""
    if P0.k != P1.k:
        raise DimensionMismatch(f"p0 has k={P0.k} but p1 has k={P1.k}")
    t = P0.probs >= P1.probs
    return np.column_stack([t, ~t]).astype(float)


def mi_partition(P: Distribution) -> np.ndarray:
    """The k x 2 bit matrix [1_T, 1_T^c] of the subset T whose mass is
    closest to 1/2, found by exhaustive search.

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
    t = ((winner >> np.arange(k)) & 1).astype(bool)
    return np.column_stack([t, ~t]).astype(float)


def _staircase(bits: np.ndarray, eps: float) -> Mechanism:
    """The staircase of a k x n bit matrix with one set bit per row. Written
    with e = e^eps, each entry is one quotient of e or 1 by n - 1 + e; in
    delta, 1 + delta would round once more from eps ~ 37."""
    e = exp_eps(eps)
    return Mechanism(np.where(bits, e, 1.0) / (bits.shape[1] - 1 + e))


def staircase_value(scores: np.ndarray, delta):
    """Utility of a staircase from the scores of its n unit-max pattern
    columns (1 + delta b_y) / (1 + delta): output y is column y times
    (1 + delta) / (n + delta), and column scores are positively homogeneous.
    A 2-D array holds one staircase per row, with delta an array of one
    delta per row, and gives an array of values."""
    n = scores.shape[-1]
    return scores.sum(axis=-1) * ((1.0 + delta) / (n + delta))


def binary_ht(P0: Distribution, P1: Distribution, eps: float) -> Mechanism:
    """Two-output mechanism releasing whether x looks more like P0 than P1.

    Output 0 gets mass e^eps/(1+e^eps) on {x : P0(x) >= P1(x)} and
    1/(1+e^eps) elsewhere; output 1 complements. Saturates the eps
    constraint and is a staircase for every eps.
    """
    return _staircase(ht_partition(P0, P1), eps)


def binary_mi(P: Distribution, eps: float) -> Mechanism:
    """Two-output mechanism releasing the most informative single bit.

    The split set is chosen by exhaustive search to bring its mass as close
    to 1/2 as possible (deterministic tie-breaking; see mi_partition).
    """
    return _staircase(mi_partition(P), eps)


def randomized_response(k: int, eps: float) -> Mechanism:
    """Release the truth with probability e^eps/(k-1+e^eps), else any lie.

    Prior-independent; optimal in the low-privacy regime.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    return _staircase(np.eye(k, dtype=bool), eps)


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
