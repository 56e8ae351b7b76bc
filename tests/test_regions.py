import math

import numpy as np
import pytest

import ldpopt as L


def _vertices_close(r1, r2, tol=1e-9):
    if len(r1.vertices) != len(r2.vertices):
        return False
    return all(abs(a - c) <= tol and abs(b - d) <= tol
               for (a, b), (c, d) in zip(r1.vertices, r2.vertices))


class TestTradeoffRegion:
    def test_identity_reaches_origin(self):
        region = L.tradeoff_region(L.Mechanism(np.eye(2)))
        assert region.vertices == ((0.0, 0.0),)

    def test_blind_mechanism_is_diagonal(self):
        Q = L.Mechanism(np.array([[0.3, 0.7], [0.3, 0.7]]))
        region = L.tradeoff_region(Q)
        assert _vertices_close(region, L.TradeoffRegion(((0.0, 1.0), (1.0, 0.0))))

    def test_quaternary_matches_privacy_region(self):
        for eps, delta in ((1.0, 0.05), (0.3, 0.2), (2.0, 0.0), (0.0, 0.4)):
            got = L.tradeoff_region(L.quaternary(eps, delta))
            want = L.region_eps_delta(eps, delta)
            assert _vertices_close(got, want)

    def test_convex_and_monotone(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            l = int(rng.integers(2, 7))
            Q = L.Mechanism(rng.dirichlet(np.ones(l), size=2))
            v = L.tradeoff_region(Q).vertices
            mds = [md for md, _ in v]
            fas = [fa for _, fa in v]
            assert all(b > a for a, b in zip(mds, mds[1:]))
            assert all(b < a for a, b in zip(fas, fas[1:]))
            for (ax, ay), (bx, by), (cx, cy) in zip(v, v[1:], v[2:]):
                cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                assert cross >= -1e-12

    def test_requires_distinct_rows(self):
        with pytest.raises(L.DimensionMismatch):
            L.tradeoff_region(L.Mechanism(np.eye(2)), 1, 1)

    @pytest.mark.parametrize("vertices, message", [
        ((), "region needs at least one vertex"),
        (((0.0, 1.0), (1.5, 0.0)), "vertices must lie in the unit square"),
        (((0.0, 1.0), (0.0, 0.5), (1.0, 0.0)), "p_md must be strictly increasing"),
        (((0.0, 1.0), (0.5, 1.0), (1.0, 0.0)), "p_fa must be strictly decreasing"),
        (((0.1, 1.0), (1.0, 0.0)), "boundary must start at p_md=0 and end at p_fa=0"),
    ])
    def test_rejects_vertices(self, vertices, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            L.TradeoffRegion(vertices)

    def test_marginals_share_an_alphabet(self):
        with pytest.raises(L.DimensionMismatch, match="^marginals must share an alphabet$"):
            L.region_from_marginals(L.make_distribution([0.5, 0.5]),
                                    L.make_distribution([0.2, 0.3, 0.5]))


class TestRegionEpsDelta:
    def test_eps0_delta0_diagonal(self):
        region = L.region_eps_delta(0.0, 0.0)
        assert _vertices_close(region, L.TradeoffRegion(((0.0, 1.0), (1.0, 0.0))))

    def test_crossing_point(self):
        region = L.region_eps_delta(math.log(3), 0.0)
        assert any(abs(md - 0.25) < 1e-12 and abs(fa - 0.25) < 1e-12
                   for md, fa in region.vertices)

    def test_delta1_is_whole_square(self):
        region = L.region_eps_delta(1.0, 1.0)
        assert region.vertices == ((0.0, 0.0),)


class TestContains:
    def test_reflexive(self):
        for region in (L.region_eps_delta(1.0, 0.1),
                       L.tradeoff_region(L.quaternary(0.5, 0.2))):
            assert L.contains(region, region)

    def test_identity_dominates_everything(self):
        rng = np.random.default_rng(32)
        ident = L.tradeoff_region(L.Mechanism(np.eye(2)))
        for _ in range(20):
            Q = L.Mechanism(rng.dirichlet(np.ones(4), size=2))
            assert L.contains(ident, L.tradeoff_region(Q))

    def test_privacy_region_contains_quaternary_with_equality(self):
        outer = L.region_eps_delta(1.0, 0.05)
        inner = L.tradeoff_region(L.quaternary(1.0, 0.05))
        assert L.contains(outer, inner)
        assert L.contains(inner, outer)  # boundaries coincide

    def test_garbling_shrinks_region(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            Q = L.Mechanism(rng.dirichlet(np.ones(4), size=2))
            W = rng.dirichlet(np.ones(3), size=4)
            QW = L.Mechanism(Q.rows @ W)
            assert L.contains(L.tradeoff_region(Q), L.tradeoff_region(QW))

    def test_dominance_implies_utility_order(self):
        rng = np.random.default_rng(34)
        p0 = L.make_distribution([0.6, 0.4])
        p1 = L.make_distribution([0.25, 0.75])
        specs = (L.hypothesis_testing(L.KL, p0, p1),
                 L.hypothesis_testing(L.TV, p0, p1),
                 L.hypothesis_testing(L.CHI2, p0, p1),
                 L.information_preservation(p0))
        for _ in range(15):
            Q1 = L.Mechanism(rng.dirichlet(np.ones(4), size=2))
            W = rng.dirichlet(np.ones(4), size=4)
            Q2 = L.Mechanism(Q1.rows @ W)
            assert L.contains(L.tradeoff_region(Q1), L.tradeoff_region(Q2))
            for spec in specs:
                assert L.utility(spec, Q1) >= L.utility(spec, Q2) - 1e-9


    def test_rr_at_large_eps_respects_privacy_lines(self):
        # k = 3 randomized response at eps = 30 as `ldpopt opt` writes it.
        # The e^-eps masses must not be lost to 1 minus a prefix sum: the
        # privacy lines multiply them by e^eps.
        eps = 30.0
        off, diag = 9.357622968838423e-14, 0.9999999999998129
        Q = L.Mechanism(np.full((3, 3), off) + (diag - off) * np.eye(3))
        e = math.exp(eps)
        for x0, x1 in ((0, 1), (1, 2), (2, 0)):
            for md, fa in L.tradeoff_region(Q, x0, x1).vertices:
                assert fa + e * md >= 1.0 - 1e-9
                assert e * fa + md >= 1.0 - 1e-9


class TestOperationalCheck:
    def test_quaternary_exact(self):
        assert L.operational_privacy_check(L.quaternary(1.0, 0.1), 1.0, 0.1)
        assert not L.operational_privacy_check(L.quaternary(1.0, 0.1), 1.0, 0.09)
        assert not L.operational_privacy_check(L.quaternary(1.0, 0.1), 0.99, 0.1)

    def test_randomized_response_pure(self):
        Q = L.randomized_response(2, 0.7)
        assert L.operational_privacy_check(Q, 0.7, 0.0)
        assert not L.operational_privacy_check(Q, 0.69, 0.0)

    def test_identity_fails(self):
        Q = L.Mechanism(np.eye(2))
        assert not L.operational_privacy_check(Q, 30.0, 0.5)
        assert L.operational_privacy_check(Q, 1.0, 1.0)

    def test_requires_binary_input(self):
        with pytest.raises(L.DimensionMismatch):
            L.operational_privacy_check(L.randomized_response(3, 1.0), 1.0, 0.0)

    def test_agrees_with_algebraic_predicate(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            l = int(rng.integers(2, 7))
            Q = L.Mechanism(rng.dirichlet(np.ones(l), size=2))
            for eps in (0.0, 0.5, 1.5):
                for delta in (0.0, 0.1, 0.4):
                    assert (L.operational_privacy_check(Q, eps, delta)
                            == L.is_approx_private(Q, eps, delta))
