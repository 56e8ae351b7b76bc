import math
import warnings

import numpy as np
import pytest

import ldpopt as L


def _entropy_binary(p):
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


class TestFDivergence:
    def test_kl_zero_on_equal(self):
        M = L.make_distribution([0.3, 0.7])
        assert L.f_divergence(L.KL, M, M) == 0.0

    def test_tv_example(self):
        M0 = L.make_distribution([0.6, 0.4])
        M1 = L.make_distribution([0.4, 0.6])
        assert L.f_divergence(L.TV, M0, M1) == pytest.approx(0.2, abs=1e-15)

    def test_kl_example(self):
        M0 = L.make_distribution([0.6, 0.4])
        M1 = L.make_distribution([0.4, 0.6])
        assert L.f_divergence(L.KL, M0, M1) == pytest.approx(0.2 * math.log(1.5), abs=1e-15)

    def test_chi2(self):
        M0 = L.make_distribution([0.6, 0.4])
        M1 = L.make_distribution([0.5, 0.5])
        assert L.f_divergence(L.CHI2, M0, M1) == pytest.approx(0.01 / 0.5 + 0.01 / 0.5)

    def test_kl_absolute_continuity(self):
        M0 = L.Distribution(np.array([0.6, 0.4, 0.0]))
        M1 = L.Distribution(np.array([0.5, 0.5, 0.0]))
        assert L.f_divergence(L.KL, M0, M1) >= 0  # 0 f(0/0) = 0
        M2 = L.Distribution(np.array([0.5, 0.0, 0.5]))
        with pytest.raises(L.AbsoluteContinuityViolated):
            L.f_divergence(L.KL, M0, M2)

    def test_tv_tolerates_zeros(self):
        M0 = L.Distribution(np.array([1.0, 0.0]))
        M1 = L.Distribution(np.array([0.0, 1.0]))
        assert L.f_divergence(L.TV, M0, M1) == pytest.approx(1.0)

    def test_custom_matches_chi2(self):
        kind = L.custom(lambda x: (x - 1.0) ** 2)
        M0 = L.make_distribution([0.6, 0.4])
        M1 = L.make_distribution([0.45, 0.55])
        assert L.f_divergence(kind, M0, M1) == pytest.approx(
            L.f_divergence(L.CHI2, M0, M1), abs=1e-14)

    def test_custom_rejects_nonconvex(self):
        kind = L.custom(lambda x: -((x - 1.0) ** 2))
        M0 = L.make_distribution([0.6, 0.4])
        M1 = L.make_distribution([0.45, 0.55])
        with pytest.raises(L.ConvexityViolation):
            L.f_divergence(kind, M0, M1)

    def test_custom_rejects_f1_nonzero(self):
        kind = L.custom(lambda x: x * x)
        M0 = L.make_distribution([0.6, 0.4])
        M1 = L.make_distribution([0.45, 0.55])
        with pytest.raises(L.ConvexityViolation):
            L.f_divergence(kind, M0, M1)

    def test_terms_zero_where_the_rule_says(self):
        # (b, d) with a = b + d: an all-zero column, a = 0 < b, and b = 0 < a.
        # KL's term at b = 0 < a is outside its support and left out.
        b = np.array([0.0, 0.5, 0.0])
        d = np.array([0.0, -0.5, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kl = L.KL.terms(b[:2], d[:2])
            tv = L.TV.terms(b, d)
            chi2 = L.CHI2.terms(b, d)
            custom = L.custom(lambda x: (x - 1.0) ** 2).terms(b, d)
            kl_zero_mass = L.f_divergence(L.KL, L.Distribution(np.array([0.0, 1.0])),
                                          L.make_distribution([0.5, 0.5]))
        assert kl.tolist() == [0.0, 0.0]
        assert tv.tolist() == [0.0, 0.25, 0.15]
        assert chi2.tolist() == [0.0, 0.5, 0.0]
        assert custom.tolist() == [0.0, 0.5, 0.0]
        assert kl_zero_mass == pytest.approx(math.log(2.0), rel=1e-15)


class TestMutualInformation:
    def test_identity_gives_entropy(self):
        P = L.make_distribution([0.2, 0.3, 0.5])
        assert L.mutual_information(P, L.Mechanism(np.eye(3))) == pytest.approx(
            L.entropy(P), abs=1e-14)

    def test_constant_rows_give_zero(self):
        P = L.make_distribution([0.4, 0.6])
        Q = L.Mechanism(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert L.mutual_information(P, Q) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_channel_closed_form(self):
        P = L.make_distribution([0.5, 0.5])
        Q = L.randomized_response(2, math.log(3))
        expected = math.log(2) - _entropy_binary(0.75)
        assert L.mutual_information(P, Q) == pytest.approx(expected, abs=1e-14)

    def test_bounded_by_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            P = L.make_distribution(rng.dirichlet(np.ones(4)))
            Q = L.Mechanism(rng.dirichlet(np.ones(5), size=4))
            mi = L.mutual_information(P, Q)
            assert -1e-12 <= mi <= L.entropy(P) + 1e-12


class TestColumnUtility:
    def test_zero_column(self):
        spec = L.hypothesis_testing(L.KL, L.make_distribution([0.7, 0.3]),
                                    L.make_distribution([0.3, 0.7]))
        assert L.column_utility(spec, np.zeros(2)) == 0.0
        spec_mi = L.information_preservation(L.make_distribution([0.5, 0.5]))
        assert L.column_utility(spec_mi, np.zeros(2)) == 0.0

    def test_zero_column_every_kind(self):
        p0, p1 = L.make_distribution([0.7, 0.3]), L.make_distribution([0.3, 0.7])
        kinds = (L.KL, L.TV, L.CHI2, L.custom(lambda x: (x - 1.0) ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in kinds:
                spec = L.hypothesis_testing(kind, p0, p1)
                assert L.column_utility(spec, np.zeros(2)) == 0.0

    def test_scores_match_60_digit_values(self):
        # A column's KL score is a log(a / b) itself, not shifted by a
        # multiple of a - b: such a shift cancels in a mechanism's sum but not
        # in one column. Its MI score sum_x P(x) c(x) log(c(x) / P.c) is
        # pinned too. Each score sums at most k terms whose inputs are k-term
        # dot products, so it errs by at most 16 k u times the masses and the
        # terms' sizes (u the unit roundoff).
        mp = pytest.importorskip("mpmath")
        u = np.finfo(float).eps / 2
        rng = np.random.default_rng(72)
        for k in (2, 3, 6):
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            kl = L.hypothesis_testing(L.KL, p0, p1)
            mi = L.information_preservation(p0)
            for _ in range(20):
                col = rng.random(k)
                with mp.workdps(60):
                    c = [mp.mpf(float(x)) for x in col]
                    q0 = [mp.mpf(float(x)) for x in p0.probs]
                    q1 = [mp.mpf(float(x)) for x in p1.probs]
                    a = mp.fsum(x * y for x, y in zip(q0, c))
                    b = mp.fsum(x * y for x, y in zip(q1, c))
                    kl_terms = [a * mp.log(a / b)]
                    mi_terms = [x * y * mp.log(y / a) for x, y in zip(q0, c)]
                for spec, terms, mass in ((kl, kl_terms, a + b), (mi, mi_terms, 2 * a)):
                    size = float(mass + mp.fsum(abs(t) for t in terms))
                    want = float(mp.fsum(terms))
                    assert abs(L.column_utility(spec, col) - want) <= 16 * k * u * size

    def test_ht_kl_example(self):
        spec = L.hypothesis_testing(L.KL, L.make_distribution([0.7, 0.3]),
                                    L.make_distribution([0.3, 0.7]))
        val = L.column_utility(spec, np.array([0.75, 0.25]))
        assert val == pytest.approx(0.6 * math.log(1.5), abs=1e-15)

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(9)
        p0 = L.make_distribution(rng.dirichlet(np.ones(3)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(3)))
        p = L.make_distribution(rng.dirichlet(np.ones(3)))
        specs = [L.hypothesis_testing(L.KL, p0, p1),
                 L.hypothesis_testing(L.TV, p0, p1),
                 L.hypothesis_testing(L.CHI2, p0, p1),
                 L.information_preservation(p)]
        for spec in specs:
            for _ in range(20):
                z = rng.random(3)
                v = L.column_utility(spec, z)
                assert L.column_utility(spec, 2.0 * z) == pytest.approx(2.0 * v, rel=1e-12)
                assert L.column_utility(spec, 0.0 * z) == 0.0

    def test_subadditive_sampled(self):
        rng = np.random.default_rng(10)
        p0 = L.make_distribution(rng.dirichlet(np.ones(4)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(4)))
        p = L.make_distribution(rng.dirichlet(np.ones(4)))
        specs = [L.hypothesis_testing(L.KL, p0, p1),
                 L.hypothesis_testing(L.TV, p0, p1),
                 L.information_preservation(p)]
        for spec in specs:
            for _ in range(50):
                z1, z2 = rng.random(4), rng.random(4)
                lhs = L.column_utility(spec, z1 + z2)
                rhs = L.column_utility(spec, z1) + L.column_utility(spec, z2)
                assert lhs <= rhs + 1e-12


class TestUtility:
    def test_binary_tv_closed_form(self):
        p0 = L.make_distribution([0.65, 0.25, 0.10])
        p1 = L.make_distribution([0.20, 0.35, 0.45])
        for eps in (0.1, 1.0, 4.0):
            spec = L.hypothesis_testing(L.TV, p0, p1)
            got = L.utility(spec, L.binary_ht(p0, p1, eps))
            e = math.exp(eps)
            want = (e - 1) / (e + 1) * L.f_divergence(L.TV, p0, p1)
            assert got == pytest.approx(want, abs=1e-14)

    def test_mi_identity(self):
        p = L.make_distribution([0.2, 0.5, 0.3])
        spec = L.information_preservation(p)
        assert L.utility(spec, L.Mechanism(np.eye(3))) == pytest.approx(L.entropy(p))

    def test_eps0_gives_zero(self):
        p0 = L.make_distribution([0.7, 0.3])
        p1 = L.make_distribution([0.4, 0.6])
        Q = L.randomized_response(2, 0.0)
        for spec in (L.hypothesis_testing(L.KL, p0, p1),
                     L.hypothesis_testing(L.TV, p0, p1),
                     L.information_preservation(p0)):
            assert L.utility(spec, Q) == pytest.approx(0.0, abs=1e-15)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p0 = L.make_distribution(rng.dirichlet(np.ones(4)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(4)))
            p = L.make_distribution(rng.dirichlet(np.ones(4)))
            Q = L.Mechanism(rng.dirichlet(np.ones(5), size=4))
            m0, m1 = L.induced_marginal(p0, Q), L.induced_marginal(p1, Q)
            for kind in (L.KL, L.TV, L.CHI2):
                spec = L.hypothesis_testing(kind, p0, p1)
                assert L.utility(spec, Q) == pytest.approx(
                    L.f_divergence(kind, m0, m1), abs=1e-12)
            spec = L.information_preservation(p)
            assert L.utility(spec, Q) == pytest.approx(
                L.mutual_information(p, Q), abs=1e-12)

    def test_merge_invariance(self):
        p0 = L.make_distribution([0.6, 0.4])
        p1 = L.make_distribution([0.3, 0.7])
        split = L.Mechanism(np.array([[0.5, 0.25, 0.25], [0.2, 0.4, 0.4]]))
        merged = L.Mechanism(np.array([[0.5, 0.5], [0.2, 0.8]]))
        for spec in (L.hypothesis_testing(L.KL, p0, p1),
                     L.hypothesis_testing(L.TV, p0, p1),
                     L.information_preservation(p0)):
            assert L.utility(spec, split) == pytest.approx(
                L.utility(spec, merged), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        p0 = L.make_distribution(rng.dirichlet(np.ones(3)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(3)))
        Q = L.Mechanism(rng.dirichlet(np.ones(4), size=3))
        perm = rng.permutation(4)
        Qp = L.Mechanism(Q.rows[:, perm])
        for spec in (L.hypothesis_testing(L.KL, p0, p1),
                     L.information_preservation(p0)):
            assert L.utility(spec, Q) == pytest.approx(L.utility(spec, Qp), abs=1e-13)

    def test_data_processing(self):
        rng = np.random.default_rng(14)
        p0 = L.make_distribution(rng.dirichlet(np.ones(3)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(3)))
        for _ in range(15):
            Q = L.Mechanism(rng.dirichlet(np.ones(4), size=3))
            W = rng.dirichlet(np.ones(5), size=4)
            QW = L.Mechanism(Q.rows @ W)
            for spec in (L.hypothesis_testing(L.KL, p0, p1),
                         L.hypothesis_testing(L.TV, p0, p1),
                         L.information_preservation(p0)):
                assert L.utility(spec, QW) <= L.utility(spec, Q) + 1e-12

    def test_pinsker_on_random_marginals(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            m0 = L.make_distribution(rng.dirichlet(np.ones(5)))
            m1 = L.make_distribution(rng.dirichlet(np.ones(5)))
            kl = L.f_divergence(L.KL, m0, m1)
            tv = L.f_divergence(L.TV, m0, m1)
            assert kl >= 2.0 * tv**2 - 1e-12
