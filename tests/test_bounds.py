import math

import numpy as np
import pytest

import ldpopt as L
from ldpopt.core import MAX_EPS

EPS_GRID = (0.0, 0.01, 0.1, 1.0, 5.0, 10.0)


def _priors(rng, k, n=20):
    return [(L.make_distribution(rng.dirichlet(np.ones(k))),
             L.make_distribution(rng.dirichlet(np.ones(k)))) for _ in range(n)]


class TestClosedFormsAgainstDirectEvaluation:
    def test_binary_and_rr_kl(self):
        rng = np.random.default_rng(40)
        for k in (2, 3, 6):
            for p0, p1 in _priors(rng, k):
                for eps in EPS_GRID:
                    spec = L.hypothesis_testing(L.KL, p0, p1)
                    got_b = L.binary_kl_closed(p0, p1, eps)
                    want_b = L.utility(spec, L.binary_ht(p0, p1, eps))
                    assert got_b == pytest.approx(want_b, abs=1e-12)
                    got_r = L.rr_kl_closed(p0, p1, eps)
                    want_r = L.utility(spec, L.randomized_response(k, eps))
                    assert got_r == pytest.approx(want_r, abs=1e-12)

    def test_binary_tv(self):
        rng = np.random.default_rng(41)
        for k in (2, 3, 6):
            for p0, p1 in _priors(rng, k, n=10):
                for eps in EPS_GRID:
                    spec = L.hypothesis_testing(L.TV, p0, p1)
                    got = L.binary_tv_closed(p0, p1, eps)
                    want = L.utility(spec, L.binary_ht(p0, p1, eps))
                    assert got == pytest.approx(want, abs=1e-12)

    def test_binary_and_rr_mi(self):
        rng = np.random.default_rng(42)
        for k in (2, 3, 6):
            for _ in range(20):
                p = L.make_distribution(rng.dirichlet(np.ones(k)))
                for eps in EPS_GRID:
                    got_b = L.binary_mi_closed(p, eps)
                    want_b = L.mutual_information(p, L.binary_mi(p, eps))
                    assert got_b == pytest.approx(want_b, abs=1e-12)
                    got_r = L.rr_mi_closed(p, eps)
                    want_r = L.mutual_information(p, L.randomized_response(k, eps))
                    assert got_r == pytest.approx(want_r, abs=1e-12)


class TestBinaryUtility:
    def test_matches_utility_of_matching_mechanism(self):
        rng = np.random.default_rng(61)
        for p0, p1 in _priors(rng, 5, n=5):
            for eps in (0.1, 1.0, 5.0):
                kl = L.hypothesis_testing(L.KL, p0, p1)
                assert L.binary_utility(kl, eps) == L.utility(kl, L.binary_ht(p0, p1, eps))
                mi = L.information_preservation(p0)
                assert L.binary_utility(mi, eps) == L.utility(mi, L.binary_mi(p0, eps))
                assert L.binary_utility(mi, eps) == pytest.approx(
                    L.mutual_information(p0, L.binary_mi(p0, eps)), rel=1e-12)


class TestClosedFormValues:
    def test_binary_kl_hand_value(self):
        p0 = L.make_distribution([0.7, 0.3])
        p1 = L.make_distribution([0.3, 0.7])
        assert L.binary_kl_closed(p0, p1, math.log(3)) == pytest.approx(
            0.2 * math.log(1.5), abs=1e-15)
        assert L.binary_kl_closed(p0, p1, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert L.binary_kl_closed(p0, p0, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_rr_equals_binary_at_k2(self):
        p0 = L.make_distribution([0.8, 0.2])
        p1 = L.make_distribution([0.35, 0.65])
        for eps in (0.2, 1.0, 4.0):
            assert L.rr_kl_closed(p0, p1, eps) == pytest.approx(
                L.binary_kl_closed(p0, p1, eps), abs=1e-13)

    def test_binary_tv_values(self):
        p0 = L.make_distribution([0.7, 0.3])
        p1 = L.make_distribution([0.3, 0.7])
        assert L.binary_tv_closed(p0, p1, math.log(3)) == pytest.approx(0.2, abs=1e-15)
        assert L.binary_tv_closed(p0, p1, 0.0) == 0.0
        assert L.binary_tv_closed(p0, p1, 30.0) == pytest.approx(0.4, abs=1e-9)

    def test_mi_uniform_binary(self):
        p = L.make_distribution([0.5, 0.5])
        for eps in (0.0, 0.5, 2.0):
            e = math.exp(eps)
            q = e / (1 + e)
            hb = 0.0 if q in (0.0, 1.0) else -(q * math.log(q) + (1 - q) * math.log(1 - q))
            want = math.log(2) - hb
            assert L.binary_mi_closed(p, eps) == pytest.approx(want, abs=1e-13)
            assert L.rr_mi_closed(p, eps) == pytest.approx(want, abs=1e-13)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(43)
        p0 = L.make_distribution(rng.dirichlet(np.ones(4)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(4)))
        p = L.make_distribution(rng.dirichlet(np.ones(4)))
        for fn in (lambda e: L.binary_kl_closed(p0, p1, e),
                   lambda e: L.rr_kl_closed(p0, p1, e),
                   lambda e: L.binary_tv_closed(p0, p1, e),
                   lambda e: L.binary_mi_closed(p, e),
                   lambda e: L.rr_mi_closed(p, e)):
            vals = [fn(e) for e in EPS_GRID]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_large_eps_limits(self):
        rng = np.random.default_rng(44)
        p0 = L.make_distribution(rng.dirichlet(np.ones(3)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(3)))
        p = L.make_distribution(rng.dirichlet(np.ones(3)))
        assert L.rr_kl_closed(p0, p1, 30.0) == pytest.approx(
            L.f_divergence(L.KL, p0, p1), abs=1e-6)
        assert L.rr_mi_closed(p, 30.0) == pytest.approx(L.entropy(p), abs=1e-6)


def _mp_normalized(mp, P):
    """The float prior's masses divided by their sum in mpmath."""
    q = [mp.mpf(float(x)) for x in P.probs]
    total = mp.fsum(q)
    return [x / total for x in q]


def _mp_kl_terms(mp, q0, q1, Q):
    """The terms a log(a / b) of KL(q0 Q || q1 Q), one per output."""
    terms = []
    for y in range(len(Q[0])):
        a = mp.fsum(x * row[y] for x, row in zip(q0, Q))
        b = mp.fsum(x * row[y] for x, row in zip(q1, Q))
        terms.append(a * mp.log(a / b))
    return terms


def _mp_mi_terms(mp, q, Q):
    """The terms q(x) Q(y|x) log(Q(y|x) / (q Q)(y)) of I(X; Y)."""
    marginal = [mp.fsum(x * row[y] for x, row in zip(q, Q)) for y in range(len(Q[0]))]
    return [x * row[y] * mp.log(row[y] / m)
            for x, row in zip(q, Q) for y, m in enumerate(marginal)]


class TestClosedFormPrecision:
    # At small eps each closed form sums terms of order delta = e^eps - 1
    # that cancel to a value of order delta^2. Its error is then the rounding
    # of those terms and of their inputs: a few units of the roundoff u each,
    # and k u from the split masses and from the priors' float sums. That is
    # at most 8 k u times the sum of the terms' sizes, or c u / delta
    # relative to the value. The reference is the same mechanism in 60
    # digits, built from its definition, with the priors normalized there.
    @pytest.mark.parametrize("k", [2, 3, 6, 12])
    def test_matches_60_digit_values(self, k):
        mp = pytest.importorskip("mpmath")
        u = np.finfo(float).eps / 2
        for i in range(5):
            rng = np.random.default_rng([31, k, i])
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            ht_split = L.ht_partition(p0, p1).members
            mi_split = L.mi_partition(p0).members
            for eps in (1e-8, 1e-6, 1e-4, 1e-2):
                with mp.workdps(60):
                    q0, q1 = _mp_normalized(mp, p0), _mp_normalized(mp, p1)
                    e = mp.exp(mp.mpf(eps))
                    rr = [[(e if x == y else 1) / (e + k - 1) for y in range(k)]
                          for x in range(k)]

                    def binary(split):
                        return [[e / (1 + e), 1 / (1 + e)] if x in split
                                else [1 / (1 + e), e / (1 + e)] for x in range(k)]

                    cases = [
                        (L.binary_kl_closed(p0, p1, eps),
                         _mp_kl_terms(mp, q0, q1, binary(ht_split))),
                        (L.rr_kl_closed(p0, p1, eps), _mp_kl_terms(mp, q0, q1, rr)),
                        (L.binary_mi_closed(p0, eps), _mp_mi_terms(mp, q0, binary(mi_split))),
                        (L.rr_mi_closed(p0, eps), _mp_mi_terms(mp, q0, rr)),
                    ]
                    for got, terms in cases:
                        tol = 8 * k * u * float(mp.fsum(abs(t) for t in terms))
                        assert abs(got - float(mp.fsum(terms))) <= tol


class TestConverseSuite:
    def test_duchi_and_pinsker_on_mechanism_zoo(self):
        rng = np.random.default_rng(45)
        for k in (2, 4):
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            for eps in (0.1, 1.0, 5.0):
                zoo = [L.binary_ht(p0, p1, eps), L.randomized_response(k, eps),
                       L.geometric(k, eps)]
                for Q in zoo:
                    reports = {r.name: r for r in L.converse_suite(p0, p1, Q, eps)}
                    assert reports["pinsker"].satisfied
                    assert reports["duchi-symmetrized-kl"].satisfied

    def test_duchi_for_lp_optimum(self):
        rng = np.random.default_rng(46)
        p0 = L.make_distribution(rng.dirichlet(np.ones(3)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(3)))
        tv = L.f_divergence(L.TV, p0, p1)
        spec = L.hypothesis_testing(L.KL, p0, p1)
        for eps in (0.1, 0.5, 2.0):
            opt = L.solve(L.build_lp(spec, eps)).value
            # one-sided KL is below the symmetrized-KL bound
            assert opt <= 4.0 * (math.exp(eps) - 1) ** 2 * tv**2 + 1e-9

    def test_small_eps_expansion_ratios(self):
        rng = np.random.default_rng(47)
        for k in (2, 3, 6):
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p = L.make_distribution(rng.dirichlet(np.ones(k)))
            reports = {r.name: r for r in L.converse_suite(
                p0, p1, L.binary_ht(p0, p1, 0.01), 0.01)}
            assert reports["binary-kl-expansion-ratio"].satisfied
            mi_reports = {r.name: r for r in L.mi_converse_suite(
                p, L.binary_mi(p, 0.01), 0.01)}
            assert mi_reports["binary-mi-expansion-ratio"].satisfied

    def test_large_eps_residuals(self):
        rng = np.random.default_rng(48)
        for k in (2, 3, 6):
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p = L.make_distribution(rng.dirichlet(np.ones(k)))
            reports = {r.name: r for r in L.converse_suite(
                p0, p1, L.randomized_response(k, 10.0), 10.0)}
            assert reports["rr-kl-low-privacy-residual"].satisfied
            mi_reports = {r.name: r for r in L.mi_converse_suite(
                p, L.randomized_response(k, 10.0), 10.0)}
            assert mi_reports["rr-mi-low-privacy-residual"].satisfied

    def test_mi_entropy_bound(self):
        rng = np.random.default_rng(49)
        p = L.make_distribution(rng.dirichlet(np.ones(4)))
        for Q in (L.randomized_response(4, 2.0), L.binary_mi(p, 1.0)):
            reports = {r.name: r for r in L.mi_converse_suite(p, Q, 2.0)}
            assert reports["mi-vs-entropy"].satisfied


class TestVeryLargeEps:
    # (e^eps)^2 exceeds the float range past eps = 354.9, though e^eps stays
    # finite up to MAX_EPS.
    @pytest.mark.parametrize("eps", [100.0, 400.0, MAX_EPS])
    def test_reports_and_closed_forms(self, eps):
        p0 = L.make_distribution([0.5, 0.2, 0.3])
        p1 = L.make_distribution([0.1, 0.6, 0.3])
        Q = L.randomized_response(3, eps)
        reports = {r.name: r for r in [*L.converse_suite(p0, p1, Q, eps),
                                       *L.mi_converse_suite(p0, Q, eps)]}
        assert all(math.isfinite(r.lhs) and not math.isnan(r.rhs) for r in reports.values())
        for name in ("pinsker", "duchi-symmetrized-kl", "mi-vs-entropy",
                     "rr-kl-low-privacy-residual", "rr-mi-low-privacy-residual"):
            assert reports[name].satisfied
        # e^-eps < 1e-43, so randomized response is at its eps -> inf limit.
        assert L.rr_kl_closed(p0, p1, eps) == pytest.approx(
            L.f_divergence(L.KL, p0, p1), rel=1e-12)
        assert L.rr_mi_closed(p0, eps) == pytest.approx(L.entropy(p0), rel=1e-12)
        for spec in (L.hypothesis_testing(L.KL, p0, p1), L.information_preservation(p0)):
            assert L.approximation_checks(spec, eps).satisfied


class TestApproximationChecks:
    def test_kl_all_eps(self):
        rng = np.random.default_rng(50)
        p0 = L.make_distribution(rng.dirichlet(np.ones(4)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(4)))
        spec = L.hypothesis_testing(L.KL, p0, p1)
        for eps in (0.1, 1.0, 5.0):
            report = L.approximation_checks(spec, eps)
            assert report.satisfied
            assert report.slack > 0

    def test_mi_small_eps(self):
        rng = np.random.default_rng(51)
        p = L.make_distribution(rng.dirichlet(np.ones(4)))
        spec = L.information_preservation(p)
        for eps in (0.1, 0.5, 1.0):
            assert L.approximation_checks(spec, eps).satisfied

    def test_eps0_zero_slack(self):
        p0 = L.make_distribution([0.6, 0.4])
        p1 = L.make_distribution([0.3, 0.7])
        report = L.approximation_checks(L.hypothesis_testing(L.KL, p0, p1), 0.0)
        assert report.satisfied
        assert report.lhs == pytest.approx(0.0, abs=1e-12)

    def test_rejects_tv(self):
        p0 = L.make_distribution([0.6, 0.4])
        p1 = L.make_distribution([0.3, 0.7])
        with pytest.raises(ValueError):
            L.approximation_checks(L.hypothesis_testing(L.TV, p0, p1), 1.0)


class TestMarginalRatioBounds:
    def test_binary_meets_bounds_with_equality(self):
        rng = np.random.default_rng(52)
        for eps in (0.1, 1.0, 5.0):
            p0 = L.make_distribution(rng.dirichlet(np.ones(4)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(4)))
            B = L.binary_ht(p0, p1, eps)
            report = L.marginal_ratio_bounds(p0, p1, B, eps)
            assert report.satisfied
            # both outputs sit exactly on the two bounds
            e = math.exp(eps)
            split = L.ht_partition(p0, p1)
            t0, t1 = split.mass, p1.mass(split.members)
            m0 = L.induced_marginal(p0, B).probs
            m1 = L.induced_marginal(p1, B).probs
            upper = ((e - 1) * t0 + 1) / ((e - 1) * t1 + 1)
            lower = ((e - 1) * (1 - t0) + 1) / ((e - 1) * (1 - t1) + 1)
            ratios = sorted(m0 / m1)
            assert ratios[0] == pytest.approx(lower, rel=1e-12)
            assert ratios[-1] == pytest.approx(upper, rel=1e-12)

    def test_rr_in_high_privacy_regime(self):
        rng = np.random.default_rng(53)
        p0 = L.make_distribution(rng.dirichlet(np.ones(5)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(5)))
        report = L.marginal_ratio_bounds(p0, p1, L.randomized_response(5, 0.05), 0.05)
        assert report.satisfied

    def test_equal_priors(self):
        p = L.make_distribution([0.25, 0.25, 0.5])
        report = L.marginal_ratio_bounds(p, p, L.randomized_response(3, 1.0), 1.0)
        assert report.satisfied
        assert report.lhs == pytest.approx(0.0, abs=1e-12)


class TestBoundReport:
    def test_satisfied_definition(self):
        assert L.BoundReport("x", 1.0, 1.0).satisfied
        assert L.BoundReport("x", 1.0, 1.0 - 5e-10).satisfied
        assert not L.BoundReport("x", 1.0, 0.5).satisfied
        assert L.BoundReport("x", 0.3, 0.5).slack == pytest.approx(0.2)
