import math

import numpy as np
import pytest

import ldpopt as L
from ldpopt.core import MAX_EPS


class TestPartitions:
    def test_ht_partition_priors_share_an_alphabet(self):
        with pytest.raises(L.DimensionMismatch, match="^p0 has k=2 but p1 has k=3$"):
            L.ht_partition(L.make_distribution([0.5, 0.5]),
                           L.make_distribution([0.2, 0.3, 0.5]))

    def test_ht_partition_uses_geq(self):
        P = L.make_distribution([0.5, 0.5])
        split = L.ht_partition(P, P)
        T = np.flatnonzero(split[:, 0])
        assert T.tolist() == [0, 1]  # ties resolve into the set
        assert P.mass(T) == pytest.approx(1.0)

    def test_mi_partition_exact_half(self):
        P = L.make_distribution([0.2, 0.3, 0.5])
        T = np.flatnonzero(L.mi_partition(P)[:, 0])
        assert T.tolist() == [2]
        assert P.mass(T) == pytest.approx(0.5)

    def test_mi_partition_cardinality_tiebreak(self):
        split = L.mi_partition(L.make_distribution([0.7, 0.2, 0.1]))
        assert np.flatnonzero(split[:, 0]).tolist() == [0]

    def test_mi_partition_uniform_binary(self):
        split = L.mi_partition(L.make_distribution([0.5, 0.5]))
        assert np.flatnonzero(split[:, 0]).tolist() == [0]

    @pytest.mark.parametrize("k", [2, 3, 6, 12])
    def test_splits_are_complementary_bit_columns(self, k):
        # A split is the float64 k x 2 bit matrix [1_T, 1_T^c].
        rng = np.random.default_rng([40, k])
        p0, p1 = (L.make_distribution(rng.dirichlet(np.ones(k))) for _ in range(2))
        for split in (L.ht_partition(p0, p1), L.mi_partition(p0)):
            assert split.dtype == np.float64 and split.shape == (k, 2)
            assert np.isin(split, (0.0, 1.0)).all()
            assert (split.sum(axis=1) == 1.0).all()

    def test_mi_partition_cap(self):
        with pytest.raises(L.AlphabetTooLarge):
            L.mi_partition(L.Distribution(np.full(25, 1.0 / 25)))


class TestBinaryHT:
    def test_example_values(self):
        Q = L.binary_ht(L.make_distribution([0.7, 0.3]),
                        L.make_distribution([0.3, 0.7]), math.log(3))
        np.testing.assert_allclose(Q.rows, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)

    def test_equal_priors_constant_column(self):
        P = L.make_distribution([0.4, 0.6])
        Q = L.binary_ht(P, P, 1.0)
        e = math.exp(1.0)
        np.testing.assert_allclose(Q.rows[:, 0], e / (1 + e), atol=1e-15)

    def test_eps0_is_uniform(self):
        Q = L.binary_ht(L.make_distribution([0.7, 0.3]),
                        L.make_distribution([0.3, 0.7]), 0.0)
        np.testing.assert_allclose(Q.rows, 0.5, atol=1e-15)

    def test_saturates_eps(self):
        P0 = L.make_distribution([0.5, 0.2, 0.3])
        P1 = L.make_distribution([0.1, 0.6, 0.3])
        for eps in (0.3, 1.0, 4.0):
            Q = L.binary_ht(P0, P1, eps)
            assert L.is_locally_private(Q, eps)
            assert not L.is_locally_private(Q, eps - 1e-3)
            assert L.is_staircase(Q, eps)

    def test_k2_matches_randomized_response(self):
        P0 = L.make_distribution([0.7, 0.3])
        P1 = L.make_distribution([0.2, 0.8])
        for eps in (0.5, 2.0):
            B = L.binary_ht(P0, P1, eps)
            R = L.randomized_response(2, eps)
            direct = np.allclose(B.rows, R.rows)
            swapped = np.allclose(B.rows, R.rows[:, ::-1])
            assert direct or swapped


class TestBinaryLargeEps:
    @pytest.mark.parametrize("eps", [20.0, 25.0, 30.0, 40.0, 100.0, MAX_EPS])
    def test_exactly_eps_private(self, eps):
        # The low level 1 / (1 + e^eps) is below 1e-8 here; taken as
        # 1 - e^eps / (1 + e^eps) it lost its low bits, and was 0 from
        # eps ~ 37.
        P0 = L.make_distribution([0.5, 0.2, 0.3])
        P1 = L.make_distribution([0.1, 0.6, 0.3])
        for Q in (L.binary_ht(P0, P1, eps), L.binary_mi(P0, eps)):
            assert L.is_locally_private(Q, eps)
            assert L.is_staircase(Q, eps)
            assert L.effective_epsilon(Q) == pytest.approx(eps, rel=1e-12)


class TestBinaryMI:
    def test_uniform_binary_is_rr(self):
        P = L.make_distribution([0.5, 0.5])
        for eps in (0.4, 1.5):
            assert np.allclose(L.binary_mi(P, eps).rows,
                               L.randomized_response(2, eps).rows)

    def test_staircase_and_saturation(self):
        P = L.make_distribution([0.15, 0.25, 0.6])
        for eps in (0.2, 1.0):
            Q = L.binary_mi(P, eps)
            assert L.is_staircase(Q, eps)
            assert L.is_locally_private(Q, eps)
            assert not L.is_locally_private(Q, eps - 1e-3)


class TestRandomizedResponse:
    def test_k3_ln2(self):
        Q = L.randomized_response(3, math.log(2))
        np.testing.assert_allclose(np.diag(Q.rows), 0.5, atol=1e-15)
        off = Q.rows[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.25, atol=1e-15)

    def test_k2_ln3(self):
        np.testing.assert_allclose(L.randomized_response(2, math.log(3)).rows,
                                   [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)

    def test_eps0_uniform(self):
        np.testing.assert_allclose(L.randomized_response(4, 0.0).rows, 0.25, atol=1e-15)

    def test_saturates(self):
        Q = L.randomized_response(5, 1.2)
        assert L.is_locally_private(Q, 1.2)
        assert not L.is_locally_private(Q, 1.2 - 1e-3)


class TestGeometric:
    def test_rows_sum_to_one(self):
        for k, eps in ((2, 0.5), (6, 2.0), (9, 1.0)):
            Q = L.geometric(k, eps)
            np.testing.assert_allclose(Q.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_effective_epsilon_is_construction_eps(self):
        for k, eps in ((2, 1.0), (6, 2.0), (4, 0.3)):
            Q = L.geometric(k, eps)
            assert L.effective_epsilon(Q) == pytest.approx(eps, abs=1e-12)
            assert L.is_locally_private(Q, eps)

    def test_not_staircase_beyond_k2(self):
        for k in (3, 6):
            assert not L.is_staircase(L.geometric(k, 2.0), 2.0)

    def test_below_lp_optimum(self):
        rng = np.random.default_rng(8)
        p0 = L.make_distribution(rng.dirichlet(np.ones(6)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(6)))
        spec = L.hypothesis_testing(L.KL, p0, p1)
        opt = L.solve(L.build_lp(spec, 2.0)).value
        geo = L.utility(spec, L.geometric(6, 2.0))
        assert geo < opt

    def test_rejects_eps0(self):
        with pytest.raises(ValueError):
            L.geometric(4, 0.0)

    def test_rejects_k1(self):
        with pytest.raises(ValueError, match="^k must be >= 2$"):
            L.geometric(1, 1.0)


class TestQuaternary:
    def test_delta0_reduces_to_binary(self):
        Q = L.quaternary(1.0, 0.0)
        np.testing.assert_allclose(Q.rows[:, :2], 0.0)
        e = math.exp(1.0)
        np.testing.assert_allclose(Q.rows[:, 2:],
                                   [[1 / (1 + e), e / (1 + e)],
                                    [e / (1 + e), 1 / (1 + e)]], atol=1e-15)

    def test_eps0_delta03(self):
        Q = L.quaternary(0.0, 0.3)
        np.testing.assert_allclose(Q.rows, [[0.3, 0.0, 0.35, 0.35],
                                            [0.0, 0.3, 0.35, 0.35]], atol=1e-15)

    def test_ln3_delta02(self):
        Q = L.quaternary(math.log(3), 0.2)
        np.testing.assert_allclose(Q.rows, [[0.2, 0.0, 0.2, 0.6],
                                            [0.0, 0.2, 0.6, 0.2]], atol=1e-15)

    def test_saturates_both_parameters(self):
        Q = L.quaternary(1.0, 0.1)
        assert L.is_approx_private(Q, 1.0, 0.1)
        assert not L.is_approx_private(Q, 1.0 - 1e-3, 0.1)
        assert not L.is_approx_private(Q, 1.0, 0.1 - 1e-3)

    def test_restriction_to_noisy_columns_is_binary(self):
        Q = L.quaternary(0.8, 0.25)
        sub = Q.rows[:, 2:]
        sub = sub / sub.sum(axis=1, keepdims=True)
        e = math.exp(0.8)
        np.testing.assert_allclose(sub, [[1 / (1 + e), e / (1 + e)],
                                         [e / (1 + e), 1 / (1 + e)]], atol=1e-14)
