import json
import math
import sys
import warnings

import numpy as np
import pytest

import ldpopt as L
from ldpopt.core import (DEFAULT_RATIO_TOL, MAX_EPS, PARSE_ROW_SUM_TOL, ROW_SUM_TOL, _pattern_bits,
                         pattern_index)


def _random_staircase_rows(rng, k, eps):
    """Random convex mix of known feasible pattern scalings: the all-ones
    column, randomized response, and a few random two-set splits."""
    e = math.exp(eps)
    n = 2**k
    thetas = [np.zeros(n) for _ in range(5)]
    thetas[0][0] = 1.0
    for i in range(k):
        thetas[1][1 << (k - 1 - i)] = 1.0 / (e + k - 1)
    for t, j in zip(thetas[2:], rng.integers(1, n - 1, size=3)):
        t[j] = 1.0 / (1.0 + e)
        t[(n - 1) ^ j] = 1.0 / (1.0 + e)
    weights = rng.dirichlet(np.ones(len(thetas)))
    theta = sum(w * t for w, t in zip(weights, thetas))
    pat = L.pattern_matrix(k, eps)
    return pat * theta


class TestMakeDistribution:
    def test_uniform(self):
        d = L.make_distribution([0.5, 0.5])
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

    def test_already_normalized(self):
        d = L.make_distribution([0.7, 0.3])
        np.testing.assert_allclose(d.probs, [0.7, 0.3])

    def test_normalizes_by_sum(self):
        d = L.make_distribution([1, 1, 2])
        np.testing.assert_allclose(d.probs, [0.25, 0.25, 0.5])

    def test_negative_mass(self):
        with pytest.raises(L.NegativeMass):
            L.make_distribution([0.5, -0.1, 0.6])

    def test_zero_sum(self):
        with pytest.raises(L.NotNormalizable):
            L.make_distribution([0.0, 0.0])

    def test_non_finite(self):
        with pytest.raises(L.NotNormalizable):
            L.make_distribution([0.5, math.inf])

    def test_too_short(self):
        with pytest.raises(L.DimensionMismatch):
            L.make_distribution([1.0])

    @pytest.mark.parametrize("values, error", [
        ([0.5, math.nan], L.NotNormalizable),
        ([0.5, -math.inf], L.NotNormalizable),
        ([math.nan, -1.0], L.NotNormalizable),
        ([-1.0, -1.0], L.NegativeMass),
        ([-1.0, 0.5], L.NegativeMass),
        ([1.5, -0.5, 0.0], L.NegativeMass),
        ([1e308, 1e308, -1.0], L.NegativeMass),
        ([1e308, 1e308], L.NotNormalizable),
        ([-0.0, 0.0], L.NotNormalizable),
    ])
    def test_error_types(self, values, error):
        # A positive finite sum leaves the checks to Distribution; every
        # other sum (negative, zero, NaN, infinite or overflowed) is
        # diagnosed by make_distribution with the same error types.
        with pytest.raises(error):
            L.make_distribution(values)

    def test_subset_mass(self):
        d = L.make_distribution([0.2, 0.3, 0.5])
        assert d.mass([0, 2]) == pytest.approx(0.7)
        assert d.mass([]) == 0.0

    def test_positivity_flag(self):
        assert L.make_distribution([0.2, 0.8]).is_positive
        assert not L.Distribution(np.array([0.0, 1.0])).is_positive

    @pytest.mark.parametrize("probs", [[], [[0.5, 0.5], [0.5, 0.5]]])
    def test_constructor_rejects_shape(self, probs):
        with pytest.raises(L.DimensionMismatch,
                           match="^distribution must be a nonempty 1-d vector$"):
            L.Distribution(np.array(probs))

    def test_constructor_accepts_one_outcome(self):
        # The marginals of a one-output mechanism; priors still need two.
        assert L.Distribution(np.array([1.0])).k == 1
        with pytest.raises(L.DimensionMismatch, match="^need at least 2 masses$"):
            L.make_distribution([1.0])


class TestMechanismValidation:
    def test_rejects_negative(self):
        with pytest.raises(L.NegativeMass):
            L.Mechanism(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(L.NotNormalizable):
            L.Mechanism(np.array([[0.6, 0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize("rows", [np.ones((1, 1, 2)), np.empty((0, 2)),
                                      np.empty((2, 0))])
    def test_rejects_shape(self, rows):
        with pytest.raises(L.DimensionMismatch, match="^mechanism must be a 2-d matrix$"):
            L.Mechanism(rows)

    def test_equality_is_on_rows(self):
        Q = L.randomized_response(3, 1.0)
        assert Q == L.Mechanism(Q.rows.copy())
        assert Q != L.randomized_response(3, 2.0)
        assert Q != L.Mechanism(Q.rows[:, :2] / Q.rows[:, :2].sum(axis=1, keepdims=True))
        assert Q != Q.rows

    def test_immutable(self):
        Q = L.randomized_response(3, 1.0)
        with pytest.raises(ValueError):
            Q.rows[0, 0] = 0.9

    def test_constructor_row_sums(self):
        for Q in (L.randomized_response(5, 2.0), L.geometric(4, 1.0),
                  L.quaternary(1.0, 0.3),
                  L.binary_ht(L.make_distribution([0.6, 0.4]),
                              L.make_distribution([0.4, 0.6]), 1.0)):
            np.testing.assert_allclose(Q.rows.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(Q.rows >= 0)


def _check_by_check_distribution(probs):
    """The check-by-check rule Distribution applies to a 1-d vector of at
    least 2 entries: None to accept, else (exception class, message)."""
    if not np.all(np.isfinite(probs)):
        return L.NotNormalizable, "non-finite probability mass"
    if np.any(probs < 0):
        return L.NegativeMass, "negative probability mass"
    if abs(float(probs.sum()) - 1.0) > ROW_SUM_TOL:
        return L.NotNormalizable, f"masses sum to {float(probs.sum())!r}, not 1"
    return None


def _check_by_check_mechanism(rows):
    """The same for Mechanism on a nonempty 2-d matrix."""
    if not np.all(np.isfinite(rows)):
        return L.NotNormalizable, "non-finite mechanism entry"
    if np.any(rows < 0):
        return L.NegativeMass, "negative mechanism entry"
    row_sums = rows.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
        bad = int(np.argmax(np.abs(row_sums - 1.0)))
        return L.NotNormalizable, f"row {bad} sums to {float(row_sums[bad])!r}, not 1"
    return None


def _assert_same_verdict(arr):
    """Distribution (1-d) or Mechanism (2-d) accepts arr exactly when the
    check-by-check rule does, and otherwise raises its class and message."""
    arr = np.array(arr, dtype=float)
    ctor, rule = ((L.Distribution, _check_by_check_distribution) if arr.ndim == 1
                  else (L.Mechanism, _check_by_check_mechanism))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = rule(arr)
        try:
            ctor(arr)
            got = None
        except ValueError as exc:
            got = type(exc), str(exc)
    assert got == expected, arr


# Entries the one-pass test must treat as the check-by-check rule does.
_SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, -1e-300, -5e-324, 5e-324, 1e300)


def _near(x, ulps=3):
    """x and the floats up to `ulps` steps either side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


class TestOnePassValidation:
    def test_row_sum_edges(self):
        # Row sums at 1 +- ROW_SUM_TOL and a few ulps either side; the float
        # nearest 1 + ROW_SUM_TOL is above it and must be rejected.
        for edge in (1.0 - ROW_SUM_TOL, 1.0 + ROW_SUM_TOL, 1.0):
            for s in _near(edge):
                for arr in ([s, 0.0], [0.0, s], [s - 0.25, 0.25],
                            [[s]], [[s, 0.0], [0.5, 0.5]], [[0.5, 0.5], [-0.0, s]]):
                    _assert_same_verdict(arr)
        with pytest.raises(L.NotNormalizable):
            L.Distribution(np.array([1.0 + ROW_SUM_TOL, 0.0]))

    def test_special_entries(self):
        for v in _SPECIAL:
            for arr in ([v, 1.0], [1.0, v], [v, 0.5, 0.5], [v, v],
                        [[v, 1.0]], [[0.5, 0.5], [1.0, v]], [[v]], [[v, -v]]):
                _assert_same_verdict(arr)

    def test_seeded(self):
        rng = np.random.default_rng(2024)
        for _ in range(400):
            k, l = rng.integers(1, 6, size=2)
            rows = rng.dirichlet(np.ones(l), size=k)
            rows *= rng.choice([1.0, 1.0 - ROW_SUM_TOL, 1.0 + ROW_SUM_TOL,
                                1.0 - 2e-12, 1.0 + 2e-12], size=(k, 1))
            if rng.random() < 0.5:
                rows[rng.integers(k), rng.integers(l)] = rng.choice(_SPECIAL)
            _assert_same_verdict(rows)
            if l >= 2:
                _assert_same_verdict(rows[0])

    def test_hypothesis(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, strategies as st

        entries = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                            st.sampled_from(_SPECIAL), st.floats())
        scales = st.sampled_from([1.0, *_near(1.0 - ROW_SUM_TOL, 2),
                                  *_near(1.0 + ROW_SUM_TOL, 2)])

        @st.composite
        def matrices(draw):
            k, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
            rows = np.array(draw(st.lists(st.lists(entries, min_size=l, max_size=l),
                                          min_size=k, max_size=k)))
            with np.errstate(all="ignore"):
                if draw(st.booleans()):
                    sums = rows.sum(axis=1, keepdims=True)
                    rows = np.where(sums > 0, rows / sums, rows)
                return rows * draw(scales)

        @given(matrices())
        def check(rows):
            _assert_same_verdict(rows)
            if rows.shape[1] >= 2:
                _assert_same_verdict(rows[0])

        check()


_P0 = L.make_distribution([0.5, 0.2, 0.3])
_P1 = L.make_distribution([0.1, 0.6, 0.3])
_RR = L.randomized_response(3, 1.0)
_SPEC = L.hypothesis_testing(L.KL, _P0, _P1)

# Every public function that takes eps, called with a valid everything-else.
EPS_ENTRY_POINTS = {
    "pattern_matrix": lambda eps: L.pattern_matrix(3, eps),
    "build_lp": lambda eps: L.build_lp(_SPEC, eps),
    "is_locally_private": lambda eps: L.is_locally_private(_RR, eps),
    "is_approx_private": lambda eps: L.is_approx_private(_RR, eps, 0.0),
    "is_staircase": lambda eps: L.is_staircase(_RR, eps),
    "binary_ht": lambda eps: L.binary_ht(_P0, _P1, eps),
    "binary_mi": lambda eps: L.binary_mi(_P0, eps),
    "randomized_response": lambda eps: L.randomized_response(3, eps),
    "geometric": lambda eps: L.geometric(3, eps),
    "quaternary": lambda eps: L.quaternary(eps, 0.1),
    "region_eps_delta": lambda eps: L.region_eps_delta(eps, 0.0),
    "binary_kl_closed": lambda eps: L.binary_kl_closed(_P0, _P1, eps),
    "rr_kl_closed": lambda eps: L.rr_kl_closed(_P0, _P1, eps),
    "binary_tv_closed": lambda eps: L.binary_tv_closed(_P0, _P1, eps),
    "binary_mi_closed": lambda eps: L.binary_mi_closed(_P0, eps),
    "rr_mi_closed": lambda eps: L.rr_mi_closed(_P0, eps),
    "converse_suite": lambda eps: L.converse_suite(_P0, _P1, _RR, eps),
    "mi_converse_suite": lambda eps: L.mi_converse_suite(_P0, _RR, eps),
    "approximation_checks": lambda eps: L.approximation_checks(_SPEC, eps),
    "marginal_ratio_bounds": lambda eps: L.marginal_ratio_bounds(_P0, _P1, _RR, eps),
    "SweepConfig": lambda eps: L.SweepConfig(seed=0, k=3, num_instances=1,
                                             eps_grid=(1.0, eps), utility="kl"),
}

DELTA_ENTRY_POINTS = {
    "is_approx_private": lambda delta: L.is_approx_private(_RR, 1.0, delta),
    "quaternary": lambda delta: L.quaternary(1.0, delta),
    "region_eps_delta": lambda delta: L.region_eps_delta(1.0, delta),
}


class TestPrivacyLevelDomain:
    """eps must lie in [0, MAX_EPS], where e^eps is a finite float, and delta
    in [0, 1]; every entry point rejects anything else with a ValueError
    that names the bad value."""

    @pytest.mark.parametrize("name", sorted(EPS_ENTRY_POINTS))
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0, 710.0])
    def test_bad_eps(self, name, eps):
        with pytest.raises(ValueError, match=f"eps={eps}"):
            EPS_ENTRY_POINTS[name](eps)

    @pytest.mark.parametrize("name", sorted(DELTA_ENTRY_POINTS))
    @pytest.mark.parametrize("delta", [math.nan, -0.1, 1.5])
    def test_bad_delta(self, name, delta):
        with pytest.raises(ValueError, match=f"delta={delta}"):
            DELTA_ENTRY_POINTS[name](delta)

    def test_closed_range_accepted(self):
        from ldpopt.core import MAX_EPS, exp_eps
        assert exp_eps(0.0, 1.0) == 1.0
        assert math.isfinite(exp_eps(MAX_EPS))


class TestPatternMatrix:
    def test_k3_matches_display(self):
        eps = 0.7
        e = math.exp(eps)
        expected = np.array([
            [1, 1, 1, 1, e, e, e, e],
            [1, 1, e, e, 1, 1, e, e],
            [1, e, 1, e, 1, e, 1, e],
        ])
        np.testing.assert_allclose(L.pattern_matrix(3, eps), expected)

    def test_k2_eps0_all_ones(self):
        mat = L.pattern_matrix(2, 0.0)
        np.testing.assert_array_equal(mat, np.ones((2, 4)))

    def test_k2_ln3(self):
        mat = L.pattern_matrix(2, math.log(3))
        np.testing.assert_allclose(mat.T, [[1, 1], [1, 3], [3, 1], [3, 3]])

    def test_first_and_last_columns(self):
        np.testing.assert_allclose(L.pattern_matrix(4, 1.3, 0), 1.0)
        np.testing.assert_allclose(L.pattern_matrix(4, 1.3, 15), math.exp(1.3))

    @pytest.mark.parametrize("k", [2, 5, 12])
    def test_columns_are_the_dense_matrix_columns(self, k):
        # An index array, a slice or one index gives exactly those columns
        # of the dense matrix, read-only.
        rng = np.random.default_rng([31, k])
        for eps in (0.0, 1e-6, 0.3, 30.0):
            mat = L.pattern_matrix(k, eps)
            for j in (rng.choice(2**k, size=k, replace=False), slice(1, None, 3), 3):
                cols = L.pattern_matrix(k, eps, j)
                assert cols.tobytes() == mat[:, j].tobytes()
                assert not cols.flags.writeable

    def test_distinct_columns(self):
        mat = L.pattern_matrix(3, 0.5)
        assert len({tuple(c) for c in mat.T}) == 8
        mat0 = L.pattern_matrix(3, 0.0)
        assert len({tuple(c) for c in mat0.T}) == 1

    def test_cap(self):
        for k in (1, 13, 64):
            with pytest.raises(L.AlphabetTooLarge):
                L.pattern_matrix(k, 1.0)

    def test_matches_direct_construction_and_is_frozen(self):
        # the cached bit matrix gives the same bits as building them afresh
        for k in (2, 5, 12):
            j = np.arange(2**k, dtype=np.int64)
            bits = (j[None, :] >> (k - 1 - np.arange(k)[:, None])) & 1
            for eps in (0.0, 0.3, 8.0):
                mat = L.pattern_matrix(k, eps)
                np.testing.assert_array_equal(
                    mat, (math.exp(eps) - 1.0) * bits.astype(float) + 1.0)
                assert not mat.flags.writeable
                with pytest.raises(ValueError):
                    mat[0, 0] = 0.0

    @pytest.mark.parametrize("k", [2, 5, 12])
    def test_pattern_index_inverts_the_bits(self, k):
        bits = _pattern_bits(k)
        np.testing.assert_array_equal(pattern_index(bits), np.arange(2**k))
        # The one-bit columns are randomized response's, row 0 the top bit.
        np.testing.assert_array_equal(pattern_index(np.eye(k, dtype=bool)),
                                      2 ** np.arange(k - 1, -1, -1))


class TestLocalPrivacy:
    def test_rr_saturates(self):
        Q = L.randomized_response(3, math.log(2))
        assert L.is_locally_private(Q, math.log(2))
        assert not L.is_locally_private(Q, math.log(2) - 1e-3)

    def test_identity_never_private(self):
        Q = L.Mechanism(np.eye(3))
        assert not L.is_locally_private(Q, 50.0)

    def test_binary_threshold(self):
        P0 = L.make_distribution([0.7, 0.3])
        P1 = L.make_distribution([0.3, 0.7])
        Q = L.binary_ht(P0, P1, 0.5)
        assert L.is_locally_private(Q, 0.5)
        assert not L.is_locally_private(Q, 0.49)

    def test_mixed_zero_column_violates(self):
        Q = L.Mechanism(np.array([[0.5, 0.5, 0.0], [0.5, 0.25, 0.25]]))
        assert not L.is_locally_private(Q, 100.0)

    def test_tiny_masses_get_no_floor(self):
        # Violations below 1e-12 in absolute terms still violate the ratio.
        for rows in ([[1 - 5e-13, 5e-13], [1.0, 0.0]],
                     [[1 - 5e-13, 5e-13], [1 - 1e-16, 1e-16]]):
            assert not L.is_locally_private(L.Mechanism(np.array(rows)), 1.0)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 2.0, 30.0])
    def test_matches_pairwise_definition(self, eps):
        rng = np.random.default_rng([12, int(eps * 10)])
        seen = set()
        for _ in range(300):
            k, l = rng.integers(2, 7, size=2)
            rows = rng.uniform(0.2, 1.0, size=(k, l))
            if rng.random() < 0.25:
                rows[:] = rows[0]
            rows[rng.random((k, l)) < 0.1] = 0.0
            tiny = rng.random((k, l)) < 0.15
            rows[tiny] = rng.uniform(0.5e-13, 2e-13, size=tiny.sum())
            if rng.random() < 0.2:
                rows[:, rng.integers(l)] = 0.0
            if (rows.sum(axis=1) == 0).any():
                continue
            Q = L.Mechanism(rows / rows.sum(axis=1, keepdims=True))
            # Q(y|x) <= e^eps Q(y|x') for every output y and inputs x, x'.
            bound = math.exp(eps) * (1.0 + DEFAULT_RATIO_TOL)
            pairwise = bool(np.all(Q.rows[:, None, :] <= bound * Q.rows[None, :, :]))
            assert L.is_locally_private(Q, eps) == pairwise
            seen.add(pairwise)
        assert seen == {True, False}


class TestApproxPrivacy:
    def test_quaternary_saturates(self):
        Q = L.quaternary(1.0, 0.1)
        assert L.is_approx_private(Q, 1.0, 0.1)
        assert not L.is_approx_private(Q, 1.0, 0.09)

    def test_pure_implies_approx(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            Q = L.Mechanism(rng.dirichlet(np.ones(4), size=3))
            eps = L.effective_epsilon(Q)
            assert L.is_locally_private(Q, eps)
            assert L.is_approx_private(Q, eps, 0.0)

    def test_identity_needs_delta_one(self):
        Q = L.Mechanism(np.eye(2))
        assert L.is_approx_private(Q, 3.0, 1.0)
        assert not L.is_approx_private(Q, 3.0, 0.999)

    def test_monotone_in_eps_and_delta(self):
        rng = np.random.default_rng(5)
        grid = [0.0, 0.2, 0.5, 1.0, 2.0]
        deltas = [0.0, 0.05, 0.2, 0.6, 1.0]
        for _ in range(10):
            Q = L.Mechanism(rng.dirichlet(np.ones(5), size=3))
            table = {(e, d): L.is_approx_private(Q, e, d) for e in grid for d in deltas}
            for i, e in enumerate(grid[:-1]):
                for j, d in enumerate(deltas[:-1]):
                    assert not (table[(e, d)] and not table[(grid[i + 1], d)])
                    assert not (table[(e, d)] and not table[(e, deltas[j + 1])])


class TestStaircase:
    def test_rr_is_staircase(self):
        assert L.is_staircase(L.randomized_response(4, 1.0), 1.0)

    def test_binary_is_staircase(self):
        P0 = L.make_distribution([0.5, 0.2, 0.3])
        P1 = L.make_distribution([0.2, 0.5, 0.3])
        assert L.is_staircase(L.binary_ht(P0, P1, 0.8), 0.8)

    def test_geometric_is_not(self):
        assert not L.is_staircase(L.geometric(6, 2.0), 2.0)

    def test_zero_and_mixed_columns(self):
        Q = L.Mechanism(np.array([[1 / 3, 2 / 3, 0.0], [2 / 3, 1 / 3, 0.0]]))
        assert L.is_staircase(Q, math.log(2))
        assert not L.is_staircase(L.Mechanism(np.array([[0.5, 0.5], [0.0, 1.0]])), 1.0)

    @pytest.mark.parametrize("eps", [0.5, 2.0, 10.0, 28.0, 40.0, 60.0, 400.0, MAX_EPS])
    def test_named_mechanisms_at_large_eps(self, eps):
        # Randomized response's low level 1 / (k - 1 + e^eps) is below the
        # old absolute zero floor of 1e-12 from eps ~ 28; at MAX_EPS the
        # ratio bound e^eps * Q * (1 + tol) exceeds the float range.
        mechanisms = (L.randomized_response(3, eps), L.randomized_response(12, eps),
                      L.binary_ht(_P0, _P1, eps), L.binary_mi(_P0, eps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for Q in mechanisms:
                assert L.is_locally_private(Q, eps)
                assert L.is_approx_private(Q, eps, 0.0)
                assert L.is_staircase(Q, eps)

    def test_staircase_implies_private(self):
        rng = np.random.default_rng(11)
        for k, eps in ((3, 0.7), (4, 1.5), (2, 0.0)):
            for _ in range(5):
                Q = L.Mechanism(_random_staircase_rows(rng, k, eps))
                assert L.is_staircase(Q, eps)
                assert L.is_locally_private(Q, eps)


class TestInducedMarginal:
    def test_hand_example(self):
        P = L.make_distribution([0.7, 0.3])
        Q = L.binary_ht(P, L.make_distribution([0.3, 0.7]), math.log(3))
        np.testing.assert_allclose(L.induced_marginal(P, Q).probs, [0.6, 0.4], atol=1e-15)

    def test_identity(self):
        P = L.make_distribution([0.2, 0.3, 0.5])
        assert L.induced_marginal(P, L.Mechanism(np.eye(3))) == P

    def test_identical_rows(self):
        row = np.array([0.1, 0.2, 0.7])
        Q = L.Mechanism(np.tile(row, (3, 1)))
        P = L.make_distribution([0.5, 0.25, 0.25])
        np.testing.assert_allclose(L.induced_marginal(P, Q).probs, row, atol=1e-15)

    def test_linear_in_prior(self):
        rng = np.random.default_rng(2)
        Q = L.Mechanism(rng.dirichlet(np.ones(4), size=3))
        p = L.make_distribution(rng.dirichlet(np.ones(3)))
        q = L.make_distribution(rng.dirichlet(np.ones(3)))
        for alpha in (0.0, 0.25, 0.7, 1.0):
            mix = L.make_distribution(alpha * p.probs + (1 - alpha) * q.probs)
            lhs = L.induced_marginal(mix, Q).probs
            rhs = (alpha * L.induced_marginal(p, Q).probs
                   + (1 - alpha) * L.induced_marginal(q, Q).probs)
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(L.DimensionMismatch):
            L.induced_marginal(L.make_distribution([0.5, 0.5]), L.randomized_response(3, 1.0))


class TestEffectiveEpsilon:
    def test_randomized_response(self):
        assert L.effective_epsilon(L.randomized_response(5, 1.7)) == pytest.approx(1.7)

    def test_identity_is_infinite(self):
        assert L.effective_epsilon(L.Mechanism(np.eye(2))) == math.inf

    def test_skips_all_zero_columns(self):
        Q = L.Mechanism(np.array([[1 / 3, 2 / 3, 0.0], [2 / 3, 1 / 3, 0.0]]))
        assert L.effective_epsilon(Q) == pytest.approx(math.log(2))


class TestSerialization:
    def test_round_trip(self):
        Q = L.randomized_response(3, 0.9)
        rec = L.mechanism_from_json(L.mechanism_to_json(Q, eps_claimed=0.9, delta_claimed=0.0))
        np.testing.assert_allclose(rec.mechanism.rows, Q.rows, atol=1e-15)
        assert rec.eps_claimed == 0.9
        assert rec.delta_claimed == 0.0

    def test_rejects_row_sum_gate(self):
        obj = {"k": 2, "l": 2, "rows": [[0.6, 0.41], [0.5, 0.5]],
               "eps_claimed": None, "delta_claimed": None}
        with pytest.raises(L.MechanismFormatError, match="row 0"):
            L.mechanism_from_dict(obj)

    def test_renormalizes_within_gate(self):
        obj = {"k": 2, "l": 2, "rows": [[0.6, 0.4 + 5e-10], [0.5, 0.5]],
               "eps_claimed": None, "delta_claimed": None}
        rec = L.mechanism_from_dict(obj)
        np.testing.assert_allclose(rec.mechanism.rows.sum(axis=1), 1.0, atol=1e-15)

    @pytest.mark.parametrize("rows, message", [
        ([[1e308, 1e308], [0.5, 0.5]], "^row 0: sums to inf, outside the 1e-9 gate$"),
        ([[0.5, 0.5], [1e308, 1e308]], "^row 1: sums to inf, outside the 1e-9 gate$"),
    ])
    def test_overflowing_row_sum(self, rows, message):
        # Finite entries whose sum passes the float range: a format error,
        # not numpy's overflow warning, which the test settings make an error.
        with pytest.raises(L.MechanismFormatError, match=message):
            L.mechanism_from_dict({"k": 2, "l": 2, "rows": rows})

    def test_rejects_negative_entry(self):
        obj = {"k": 2, "l": 2, "rows": [[1.1, -0.1], [0.5, 0.5]],
               "eps_claimed": None, "delta_claimed": None}
        with pytest.raises(L.MechanismFormatError, match="row 0, column 1"):
            L.mechanism_from_dict(obj)

    def test_rejects_malformed_json(self):
        with pytest.raises(L.MechanismFormatError, match="invalid JSON"):
            L.mechanism_from_json("{not json")
        # json.loads accepts NaN and Infinity; the wire format does not.
        rows = '"k": 2, "l": 2, "rows": [[0.5, 0.5], [0.5, 0.5]]'
        for name, bad in (("eps_claimed", "NaN"), ("eps_claimed", "Infinity"),
                          ("eps_claimed", "-1.0"), ("eps_claimed", "1000.0"),
                          ("delta_claimed", "NaN"),
                          ("delta_claimed", "-0.1"), ("delta_claimed", "1.5")):
            with pytest.raises(L.MechanismFormatError, match=name):
                L.mechanism_from_json(f'{{{rows}, "{name}": {bad}}}')
        # A JSON true is a Python int. A JSON integer may be too large for a
        # float, or, past 4,300 digits, for json.loads itself.
        for text, where in (('"k": true, "l": 2, "rows": [[0.5, 0.5]]', "^k "),
                            ('"k": 2, "l": true, "rows": [[1.0], [1.0]]', "^l "),
                            (f'"k": 1, "l": 2, "rows": [[0.5, 1{"0" * 400}]]',
                             "^row 0, column 1: not a finite number"),
                            (f'"k": 1, "l": 2, "rows": [[0.5, 1{"0" * 5000}]]', "^invalid JSON")):
            with pytest.raises(L.MechanismFormatError, match=where):
                L.mechanism_from_json(f"{{{text}}}")

    @pytest.mark.parametrize("obj, message", [
        ([[1.0], [1.0]], "^expected a JSON object$"),
        ({"k": 2, "rows": [[1.0], [1.0]]}, "^missing key 'l'$"),
        ({"k": 2, "l": 1, "rows": [[1.0]]}, "^expected 2 rows, found 1$"),
        ({"k": 2, "l": 1, "rows": {"0": [1.0]}}, "^expected 2 rows, found none$"),
        ({"k": 1, "l": 1, "rows": [[1.0]], "eps_claimed": "1.0"},
         "^eps_claimed must be a number or null$"),
        ({"k": 1, "l": 1, "rows": [[1.0]], "delta_claimed": False},
         "^delta_claimed must be a number or null$"),
    ])
    def test_rejects_malformed_objects(self, obj, message):
        with pytest.raises(L.MechanismFormatError, match=message):
            L.mechanism_from_dict(obj)

    def test_rejects_shape_mismatch(self):
        obj = {"k": 2, "l": 3, "rows": [[0.5, 0.5], [0.5, 0.5]]}
        with pytest.raises(L.MechanismFormatError, match="row 0"):
            L.mechanism_from_dict(obj)

    def test_json_shape(self):
        Q = L.quaternary(1.0, 0.2)
        obj = json.loads(L.mechanism_to_json(Q, 1.0, 0.2))
        assert obj["k"] == 2 and obj["l"] == 4
        assert len(obj["rows"]) == 2 and len(obj["rows"][0]) == 4


# -- wire format: the one-pass reader and writer against their references ----


def _reference_rows(rows, k, l):
    """The rows as mechanism_from_dict reads them element by element: the
    renormalized matrix, or the message naming the first fault."""
    mat = np.zeros((k, l))
    for x, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != l:
            return f"row {x}: expected {l} entries"
        for y, v in enumerate(row):
            if (not isinstance(v, (int, float)) or isinstance(v, bool)
                    or not abs(v) <= sys.float_info.max):
                return f"row {x}, column {y}: not a finite number"
            if v < 0:
                return f"row {x}, column {y}: negative mass {v!r}"
            mat[x, y] = float(v)
        s = float(mat[x].sum())
        if abs(s - 1.0) > PARSE_ROW_SUM_TOL:
            return f"row {x}: sums to {s!r}, outside the 1e-9 gate"
        mat[x] /= s
    return mat


def _assert_reads_as_reference(rows, l):
    k = len(rows)
    want = _reference_rows(rows, k, l)
    try:
        got = L.mechanism_from_dict({"k": k, "l": l, "rows": rows}).mechanism.rows
    except L.MechanismFormatError as exc:
        got = str(exc)
    if isinstance(want, str):
        assert got == want, rows
    else:  # bit for bit, signed zeros included
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes(), rows


def _wire_mechanisms():
    """Named, LP-extracted and hand-made mechanisms, with -0.0 and subnormal
    entries and rows up to 4,096 entries wide."""
    mechs = [f(k, eps) for k in range(2, 13) for eps in (0.3, 1.0, 5.0, 40.0)
             for f in (L.randomized_response, L.geometric)]
    mechs += [L.randomized_response(k, 0.0) for k in (2, 12)]
    mechs += [L.quaternary(eps, delta) for eps, delta in ((1.0, 0.1), (0.5, 0.0), (3.0, 0.9))]
    rng = np.random.default_rng(1407)
    for k in (2, 3, 4, 6):
        p0, p1 = (L.make_distribution(rng.dirichlet(np.ones(k))) for _ in range(2))
        specs = [L.hypothesis_testing(kind, p0, p1) for kind in (L.KL, L.TV, L.CHI2)]
        for spec in [*specs, L.information_preservation(p0)]:
            for eps in (0.1, 1.0, 4.0):
                lp = L.build_lp(spec, eps)
                mechs.append(L.extract_mechanism(L.solve(lp), lp))
    mechs += [L.Mechanism(np.array([[-0.0, 1.0], [0.5, 0.5]])),
              L.Mechanism(np.array([[5e-324, 1.0], [1.0, 1e-310]])),
              L.Mechanism(np.array([[1.0], [1.0]]))]
    for l in (7, 9, 100, 129, 1000, 4096):
        mechs.append(L.Mechanism(rng.dirichlet(np.ones(l), size=2)))
    return mechs


_CLAIMS = ((None, None), (0.0, 0.0), (1e-300, 1e-300), (MAX_EPS, 1.0), (math.inf, None),
           (1.0, 0.2))


class TestWireFormat:
    def test_json_is_json_dumps_indent_2(self):
        for Q in _wire_mechanisms():
            for eps, delta in _CLAIMS:
                want = json.dumps(L.mechanism_to_dict(Q, eps, delta), indent=2)
                assert L.mechanism_to_json(Q, eps, delta) == want

    def test_reads_as_the_element_loop(self):
        rng = np.random.default_rng(1338)
        for Q in _wire_mechanisms():
            rows = L.mechanism_to_dict(Q)["rows"]
            _assert_reads_as_reference(rows, Q.l)
            # Inside the gate: scaled rows, and rows printed to 10 digits.
            scale = rng.choice([1.0 - 9e-10, 1.0 + 5e-10, 1.0 + 9e-10], size=len(rows))
            _assert_reads_as_reference([[v * s for v in row] for row, s in zip(rows, scale)],
                                       Q.l)
            _assert_reads_as_reference([[float(f"{v:.10g}") for v in row] for row in rows], Q.l)
        _assert_reads_as_reference([[1, 0], [0, 1]], 2)
        _assert_reads_as_reference([[1, 0.0], [0.25, 0.75]], 2)
        for edge in (1.0 - PARSE_ROW_SUM_TOL, 1.0 + PARSE_ROW_SUM_TOL):
            for s in _near(edge):
                _assert_reads_as_reference([[0.5, 0.5], [s - 0.25, 0.25]], 2)
                _assert_reads_as_reference([[s], [1.0]], 1)

    @pytest.mark.parametrize("rows, message", [
        ([[0.6, 0.6], [-0.5, 1.5]], "row 0: sums to 1.2, outside the 1e-9 gate"),
        ([[math.nan, 1.0], [True, 0.0]], "row 0, column 0: not a finite number"),
        ([[0.5, 0.5], [True, 0.0]], "row 1, column 0: not a finite number"),
        ([[10**400, 0], [0.5, 0.5]], "row 0, column 0: not a finite number"),
        ([[0.5, 0.5], [0.5, 10**400]], "row 1, column 1: not a finite number"),
        ([[0.5, 0.5], [0.5, "0.5"]], "row 1, column 1: not a finite number"),
        ([[0.5, 0.5], [0.5, None]], "row 1, column 1: not a finite number"),
        ([[0.5, 0.7], [0.5]], "row 0: sums to 1.2, outside the 1e-9 gate"),
        ([[0.5, 0.5], [0.5]], "row 1: expected 2 entries"),
        ([[0.5, 0.5], (0.5, 0.5)], "row 1: expected 2 entries"),
        ([[math.inf, -math.inf], [0.5, 0.5]], "row 0, column 0: not a finite number"),
        ([[-0.0, 1.0], [-1e-300, 1.0]], "row 1, column 0: negative mass -1e-300"),
        ([[2.0, -1.0], [0.5, 0.5]], "row 0, column 1: negative mass -1.0"),
        ([[1.0, 0.0], [0.5, 0.5 + 2e-9]],
         "row 1: sums to 1.0000000020000002, outside the 1e-9 gate"),
        ([[0.5, 0.5], [math.inf, 0.0]], "row 1, column 0: not a finite number"),
    ])
    def test_multi_fault_names_the_first(self, rows, message):
        assert _reference_rows(rows, 2, 2) == message
        with pytest.raises(L.MechanismFormatError) as info:
            L.mechanism_from_dict({"k": 2, "l": 2, "rows": rows})
        assert str(info.value) == message

    def test_seeded_faults(self):
        faults = (math.nan, math.inf, -math.inf, -1e-300, -0.0, True, False, None, "0.5",
                  [0.5], 10**400, 2**64, 1e-320, 0.5 + 2e-9, 1, 0)
        rng = np.random.default_rng(31)
        for _ in range(600):
            k, l = (int(n) for n in rng.integers(1, 6, size=2))
            rows = rng.dirichlet(np.ones(l), size=k).tolist()
            for _ in range(rng.integers(1, 4)):
                rows[rng.integers(k)][rng.integers(l)] = faults[rng.integers(len(faults))]
            if rng.random() < 0.1:
                x = rng.integers(k)
                rows[x] = rows[x][:-1] or "row"
            _assert_reads_as_reference(rows, l)
