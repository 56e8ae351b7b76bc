import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import ldpopt as L
from ldpopt import optsolve
from ldpopt.cli import _instance_priors
from ldpopt.core import MAX_EPS
from ldpopt.optsolve import (ORACLE_NEG_TOL, PIVOT_TOL, _difference_rows,
                             _rr_inverse, _run_simplex)


def _random_specs(rng, k):
    p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
    p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
    p = L.make_distribution(rng.dirichlet(np.ones(k)))
    return (L.hypothesis_testing(L.KL, p0, p1),
            L.hypothesis_testing(L.TV, p0, p1),
            L.information_preservation(p))


class TestBuildLP:
    def test_k2_shape_and_constant_columns(self):
        spec = L.hypothesis_testing(L.KL, L.make_distribution([0.7, 0.3]),
                                    L.make_distribution([0.3, 0.7]))
        lp = L.build_lp(spec, 1.0)
        assert lp.num_columns == 4
        # all-ones and all-e^eps columns have ratio 1, so f(1) = 0
        assert lp.cost[0] == pytest.approx(0.0, abs=1e-15)
        assert lp.cost[3] == pytest.approx(0.0, abs=1e-15)

    def test_eps0_objective_vanishes(self):
        spec = L.information_preservation(L.make_distribution([0.2, 0.8]))
        np.testing.assert_allclose(L.build_lp(spec, 0.0).cost, 0.0, atol=1e-15)

    def test_objective_matches_column_utility(self):
        rng = np.random.default_rng(21)
        for k in (2, 3):
            specs = _random_specs(rng, k)
            p0, p1 = specs[0].p0, specs[0].p1
            specs += (L.hypothesis_testing(L.CHI2, p0, p1),
                      L.hypothesis_testing(L.custom(lambda x: x * math.log(x) - x + 1.0),
                                           p0, p1))
            for spec in specs:
                lp = L.build_lp(spec, 1.3)
                cols = [lp.pattern.column(j) for j in range(lp.num_columns)]
                direct = [L.column_utility(spec, c / c.max()) for c in cols]
                np.testing.assert_allclose(lp.cost, direct, rtol=1e-12, atol=1e-15)

    # First-order sensitivity a |f'(r)| + b |f(r) - r f'(r)|, r = a / b, of
    # each generator's term b f(a / b) to relative changes in a and b.
    SENSITIVITY = {
        "kl": lambda a, b: a * np.abs(np.log(a / b) + 1.0) + a,
        "tv": lambda a, b: 0.5 * (a + b),
        "chi2": lambda a, b: np.abs(a - b) * (3.0 * a + b) / b,
        "custom": lambda a, b: a * np.abs(np.log(a / b)) + np.abs(a - b),
    }

    @pytest.mark.parametrize("k", [2, 3, 6, 12])
    def test_objective_matches_scores_of_the_matrix(self, k):
        # lp.cost comes from the prior masses on each column's e^eps
        # entries; column_scores evaluates the materialized columns scaled
        # to a largest entry of 1. With u the unit roundoff:
        # - either side's marginal a = P0 . c (likewise b) is within
        #   (k + 5) u of its exact value, relatively: a k-term sum, the
        #   factors 1 / (1 + delta) and delta / (1 + delta) with their
        #   product and sum (or the entries of S / scale), and the prior's
        #   own sum, within k u of 1;
        # - that moves b f(a / b) by at most (k + 5) u times SENSITIVITY,
        #   and evaluating the term errs by a few u of a + b;
        # - for mutual information either side errs by at most (k + 5) u
        #   times twice a (1 + log1p delta), the size of the terms it sums
        #   (a = P . c, the column's marginal).
        # Both sides err, hence 4 (k + 5) u times these weights. On the
        # scaled columns no score overflows, up to MAX_EPS.
        u = np.finfo(float).eps / 2
        rng = np.random.default_rng([17, k])
        p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
        kinds = {"kl": L.KL, "tv": L.TV, "chi2": L.CHI2,
                 "custom": L.custom(lambda x: x * math.log(x) - x + 1.0)}
        for eps in (0.0, 1e-6, 0.1, 2.0, 30.0, 400.0, MAX_EPS):
            S = L.pattern_matrix(k, eps).matrix
            scale = S.max(axis=0)
            a, b = p0.probs @ (S / scale), p1.probs @ (S / scale)
            cases = [(L.hypothesis_testing(kind, p0, p1),
                      self.SENSITIVITY[name](a, b) + a + b)
                     for name, kind in kinds.items()]
            cases.append((L.information_preservation(p0),
                          2.0 * a * (1.0 + math.log1p(math.exp(eps) - 1.0))))
            for spec, weight in cases:
                got = L.build_lp(spec, eps).cost
                want = L.column_scores(spec, S / scale)
                assert np.isfinite(got).all()
                assert (np.abs(got - want) <= 4 * (k + 5) * u * weight).all()

    def test_lp_leaves_the_matrix_unbuilt(self):
        rng = np.random.default_rng([18, 12])
        p0 = L.make_distribution(rng.dirichlet(np.ones(12)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(12)))
        for spec in (L.hypothesis_testing(L.KL, p0, p1), L.information_preservation(p0)):
            lp = L.build_lp(spec, 2.0)
            L.extract_mechanism(L.solve(lp), lp)
            assert "matrix" not in vars(lp.pattern)
        assert lp.pattern.matrix.shape == (12, 4096)
        assert "matrix" in vars(lp.pattern)

    def test_custom_kind_objective(self):
        spec = L.hypothesis_testing(L.custom(lambda x: (x - 1.0) ** 2),
                                    L.make_distribution([0.6, 0.4]),
                                    L.make_distribution([0.4, 0.6]))
        ref = L.hypothesis_testing(L.CHI2, spec.p0, spec.p1)
        np.testing.assert_allclose(L.build_lp(spec, 1.0).cost,
                                   L.build_lp(ref, 1.0).cost, rtol=1e-12)

    def test_rejects_nonconvex_custom_kind(self):
        spec = L.hypothesis_testing(L.custom(lambda x: -((x - 1.0) ** 2)),
                                    L.make_distribution([0.6, 0.4]),
                                    L.make_distribution([0.4, 0.6]))
        with pytest.raises(L.ConvexityViolation):
            L.build_lp(spec, 1.0)

    def test_cap(self):
        spec = L.information_preservation(L.Distribution(np.full(13, 1 / 13)))
        with pytest.raises(L.AlphabetTooLarge):
            L.build_lp(spec, 1.0)


class TestSolve:
    def test_k2_kl_known_value(self):
        spec = L.hypothesis_testing(L.KL, L.make_distribution([0.7, 0.3]),
                                    L.make_distribution([0.3, 0.7]))
        sol = L.solve(L.build_lp(spec, math.log(3)))
        assert sol.value == pytest.approx(0.2 * math.log(1.5), abs=1e-12)

    def test_eps0(self):
        spec = L.hypothesis_testing(L.KL, L.make_distribution([0.7, 0.3]),
                                    L.make_distribution([0.3, 0.7]))
        sol = L.solve(L.build_lp(spec, 0.0))
        assert sol.value == pytest.approx(0.0, abs=1e-15)
        assert np.abs(sol.theta.sum() - 1.0) < 1e-9

    def test_tv_equals_closed_form(self):
        rng = np.random.default_rng(22)
        p0 = L.make_distribution(rng.dirichlet(np.ones(3)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(3)))
        spec = L.hypothesis_testing(L.TV, p0, p1)
        sol = L.solve(L.build_lp(spec, 1.0))
        assert sol.value == pytest.approx(L.binary_tv_closed(p0, p1, 1.0), abs=1e-12)

    def test_feasibility_certificate(self):
        rng = np.random.default_rng(23)
        for k in (2, 4):
            for spec in _random_specs(rng, k):
                for eps in (0.1, 2.0, 20.0):
                    lp = L.build_lp(spec, eps)
                    sol = L.solve(lp)
                    residual = np.abs(lp.pattern.matrix @ sol.theta - 1.0).max()
                    assert residual <= 1e-9
                    assert sol.theta.min() >= -1e-12
                    assert int((sol.theta > 1e-10).sum()) <= k

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(24)
        for spec in _random_specs(rng, 3):
            values = [L.solve(L.build_lp(spec, e)).value
                      for e in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0)]
            assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_dominates_feasible_mechanisms(self):
        rng = np.random.default_rng(25)
        for k in (3, 5):
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p = L.make_distribution(rng.dirichlet(np.ones(k)))
            for eps in (0.5, 2.0):
                for spec, bin_mech in ((L.hypothesis_testing(L.KL, p0, p1),
                                        L.binary_ht(p0, p1, eps)),
                                       (L.information_preservation(p),
                                        L.binary_mi(p, eps))):
                    opt = L.solve(L.build_lp(spec, eps)).value
                    for Q in (bin_mech, L.randomized_response(k, eps),
                              L.geometric(k, eps)):
                        assert L.utility(spec, Q) <= opt + 1e-9

    def test_dominates_random_staircases(self):
        rng = np.random.default_rng(26)
        k, eps = 3, 1.0
        spec = _random_specs(rng, k)[0]
        lp = L.build_lp(spec, eps)
        opt = L.solve(lp).value
        e = math.exp(eps)
        n = 2**k
        for _ in range(20):
            # convex mix of feasible pattern scalings stays feasible
            uniform = np.zeros(n)
            uniform[0] = 1.0
            rr = np.zeros(n)
            rr[[1 << i for i in range(k)]] = 1.0 / (e + k - 1)
            split = np.zeros(n)
            j = int(rng.integers(1, n - 1))
            split[j] = split[(n - 1) ^ j] = 1.0 / (1.0 + e)
            w = rng.dirichlet(np.ones(3))
            theta = w[0] * uniform + w[1] * rr + w[2] * split
            rows = lp.pattern.matrix * theta
            assert L.utility(spec, L.Mechanism(rows)) <= opt + 1e-9

    def test_rr_closes_gap_at_large_eps(self):
        rng = np.random.default_rng(61)
        for k in (2, 3, 4):
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            spec = L.hypothesis_testing(L.KL, p0, p1)
            for eps in (10.0, 15.0):
                opt = L.solve(L.build_lp(spec, eps)).value
                assert opt - L.rr_kl_closed(p0, p1, eps) <= 1e-8 * opt

    def test_k12_mi_phase2_pivots(self):
        # Bland's rule alone took over 1900 phase-2 pivots on this LP.
        rng = np.random.default_rng([99, 12, 0])
        spec = L.information_preservation(L.make_distribution(rng.dirichlet(np.ones(12))))
        sol = L.solve(L.build_lp(spec, 0.5))
        assert 0 < sol.pivots < 300

    def test_tv_large_eps_fixed_input(self):
        # On unscaled columns this LP hit the iteration limit: reduced costs
        # are about e^eps and their rounding error exceeds PIVOT_TOL.
        rng = np.random.default_rng([7, 6, 1])
        p0 = L.make_distribution(rng.dirichlet(np.ones(6)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(6)))
        sol = L.solve(L.build_lp(L.hypothesis_testing(L.TV, p0, p1), 18.0))
        e = math.exp(18.0)
        expected = (e - 1) / (e + 1) * 0.5 * np.abs(p0.probs - p1.probs).sum()
        assert sol.value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", [4, 6])
    @pytest.mark.parametrize("eps", [16.0, 20.0, 30.0])
    def test_tv_large_eps_matches_closed_form(self, k, eps):
        for i in range(30):
            rng = np.random.default_rng([13, k, i])
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            sol = L.solve(L.build_lp(L.hypothesis_testing(L.TV, p0, p1), eps))
            assert sol.value == pytest.approx(L.binary_tv_closed(p0, p1, eps), abs=1e-12)

    def test_tv_large_eps_grid_reaches_closed_form(self):
        # A stop at PIVOT_TOL alone left 241 of these 480 LPs more than
        # 1e-12 short of the closed form (worst 7.6e-11); the stop at the
        # reduced costs' rounding noise leaves none.
        for k in (3, 4, 6, 8):
            for i in range(40):
                rng = np.random.default_rng([77, k, i])
                p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
                p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
                spec = L.hypothesis_testing(L.TV, p0, p1)
                tv = 0.5 * np.abs(p0.probs - p1.probs).sum()
                for eps in (22.0, 24.0, 26.0):
                    sol = L.solve(L.build_lp(spec, eps))
                    assert sol.value == pytest.approx(math.tanh(eps / 2) * tv, rel=1e-12)

    def test_kl_k12_pivot_budget(self):
        # 80 LPs: the k = 12 KL instance 0 of sweep seeds 0-19 at the
        # sweep-k12 eps grid. Most pivots here are degenerate; breaking
        # ratio-test ties by the lowest basic cost takes 21.9 pivots per LP
        # on average, the lowest basic index took 31.2. KL's pivot path has
        # no ties in its reduced costs, so the count repeats exactly.
        pivots = []
        for seed in range(20):
            cfg = L.SweepConfig(seed=seed, k=12, num_instances=1, eps_grid=(0.5,),
                                utility="kl")
            spec = _instance_priors(cfg, 0)
            for eps in (0.5, 2.0, 4.0, 8.0):
                pivots.append(L.solve(L.build_lp(spec, eps)).pivots)
        assert np.mean(pivots) <= 24.0

    @pytest.mark.parametrize("eps", [400.0, 700.0, MAX_EPS])
    def test_chi2_very_large_eps(self, eps):
        # An unscaled pattern score grows as e^eps and leaves the float
        # range near MAX_EPS; the unit-max costs stay in it. The identity
        # mechanism is optimal to within e^-eps here, so the optimum is
        # chi2(P0 || P1), KL(P0 || P1) or H(P).
        def opt(spec):
            return L.solve(L.build_lp(spec, eps)).value

        priors = [([0.5, 0.2, 0.3], [0.1, 0.6, 0.3])]
        rng = np.random.default_rng([19, 3])
        priors += [(rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)))
                   for k in (2, 3, 3, 4, 6)]
        for q0, q1 in priors:
            p0, p1 = L.make_distribution(q0), L.make_distribution(q1)
            assert opt(L.hypothesis_testing(L.CHI2, p0, p1)) == pytest.approx(
                L.f_divergence(L.CHI2, p0, p1), rel=1e-12)
            assert opt(L.information_preservation(p0)) == pytest.approx(
                L.entropy(p0), rel=1e-12)
        p0 = L.make_distribution([0.9, 0.05, 0.05])
        p1 = L.make_distribution([0.01, 0.9, 0.09])
        assert opt(L.hypothesis_testing(L.KL, p0, p1)) == pytest.approx(
            L.f_divergence(L.KL, p0, p1), rel=1e-12)

    @pytest.mark.parametrize("k", [6, 12])
    def test_tiny_eps_solves(self, k):
        rng = np.random.default_rng([5, k])
        p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
        for spec in (L.hypothesis_testing(L.KL, p0, p1), L.information_preservation(p0)):
            for eps in (1e-10, 1e-9, 1e-8):
                sol = L.solve(L.build_lp(spec, eps))
                assert 0.0 <= sol.value <= 1e-12

    @pytest.mark.parametrize("k", [3, 6, 12])
    @pytest.mark.parametrize("utility", ["kl", "mi"])
    def test_high_privacy_at_least_binary(self, k, utility):
        # The binary mechanism is feasible, so the optimum is at least its
        # utility, up to rounding and the stopping rule. Each of the <= k
        # basic columns carries about 2 eps_mach of score rounding per unit
        # mass, and the binary utility as much again (4 eps_mach in all).
        # The stop on the normalized costs leaves at most
        # PIVOT_TOL * max_j |cost_j| per unit of mass, and the masses sum to
        # at most k.
        eps_mach = np.finfo(float).eps
        for i in range(5):
            rng = np.random.default_rng([31, k, i])
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            for eps in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                if utility == "kl":
                    spec = L.hypothesis_testing(L.KL, p0, p1)
                    binary = L.binary_ht(p0, p1, eps)
                else:
                    spec = L.information_preservation(p0)
                    binary = L.binary_mi(p0, eps)
                lp = L.build_lp(spec, eps)
                tol = k * (4 * eps_mach + PIVOT_TOL * np.abs(lp.cost).max())
                assert L.solve(lp).value >= L.utility(spec, binary) - tol

    @pytest.mark.parametrize("k", [3, 6, 12])
    @pytest.mark.parametrize("utility", ["kl", "mi"])
    def test_high_privacy_matches_60_digit_binary(self, k, utility):
        # At eps <= 1e-3 the binary mechanism is optimal on these priors, so
        # the optimum is its value, here in 60 digits. The priors are
        # normalized in mpmath: their float sums are off 1 by up to k u (u
        # the unit roundoff), which would outweigh an O(delta^2) optimum at
        # small eps. Each basic column's score is O(delta) and errs by about
        # k u delta, as its difference is a k-term dot product times delta
        # = e^eps - 1; against the O(delta^2) optimum that is c k u / delta
        # relative, and c = 32 covers the priors' spread.
        mp = pytest.importorskip("mpmath")
        u = np.finfo(float).eps / 2
        for i in range(5):
            rng = np.random.default_rng([31, k, i])
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            if utility == "kl":
                spec = L.hypothesis_testing(L.KL, p0, p1)
                split = L.ht_partition(p0, p1).members
            else:
                spec = L.information_preservation(p0)
                split = L.mi_partition(p0).members
            for eps in (1e-6, 1e-5, 1e-4, 1e-3):
                with mp.workdps(60):
                    q0 = [mp.mpf(float(x)) for x in p0.probs]
                    q0 = [x / mp.fsum(q0) for x in q0]
                    q1 = [mp.mpf(float(x)) for x in p1.probs]
                    q1 = [x / mp.fsum(q1) for x in q1]
                    e = mp.exp(mp.mpf(eps))
                    # Output 0 is e / (1 + e) on the split and 1 / (1 + e)
                    # off it, output 1 the reverse: (1 + e) times the output
                    # marginal of a prior with mass t on the split.
                    def marginal(q):
                        t = mp.fsum(q[x] for x in split)
                        return t * e + (1 - t), (1 - t) * e + t

                    m0 = marginal(q0)
                    if utility == "kl":
                        m1 = marginal(q1)
                        want = mp.fsum(a * mp.log(a / b) for a, b in zip(m0, m1)) / (1 + e)
                    else:
                        t = mp.fsum(q0[x] for x in split)
                        want = (t * (e * mp.log(e / m0[0]) + mp.log(1 / m0[1]))
                                + (1 - t) * (mp.log(1 / m0[0]) + e * mp.log(e / m0[1]))) / (1 + e)
                got = L.solve(L.build_lp(spec, eps)).value
                tol = 32 * k * u / math.expm1(eps) * float(want)
                assert abs(got - float(want)) <= tol

    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_returned_basis_prices_out(self, k):
        # Re-price the returned basis from a fresh solve of its dual, not
        # from the simplex's updated basis inverse. The simplex stops at
        # PIVOT_TOL; drift in its inverse may add at most as much again.
        for i in range(3):
            rng = np.random.default_rng([41, k, i])
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            specs = [L.hypothesis_testing(kind, p0, p1) for kind in (L.KL, L.TV, L.CHI2)]
            for spec in [*specs, L.information_preservation(p0)]:
                for eps in (1e-6, 0.01, 0.5, 2.0, 8.0, 20.0, 30.0):
                    lp = L.build_lp(spec, eps)
                    A, _ = _difference_rows(lp.pattern)
                    cost = lp.cost / (np.abs(lp.cost).max() or 1.0)
                    basis = list(L.solve(lp).basis)
                    y = np.linalg.solve(A[:, basis].T, cost[basis])
                    assert (y @ A - cost).min() >= -2 * PIVOT_TOL

    @pytest.mark.parametrize("k, priors", [(8, 4), (12, 1)])
    def test_matches_highs(self, k, priors):
        # Beyond the vertex oracle's reach. HiGHS's tolerances are absolute,
        # so it gets the columns scaled to a largest entry of 1 and their
        # costs over the largest cost. One HiGHS call takes about 6 ms at
        # k = 8 but 60-160 ms at k = 12.
        linprog = pytest.importorskip("scipy.optimize").linprog
        for i in range(priors):
            rng = np.random.default_rng([89, k, i])
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            for spec in (L.hypothesis_testing(L.KL, p0, p1),
                         L.hypothesis_testing(L.CHI2, p0, p1),
                         L.information_preservation(p0)):
                for eps in (0.5, 2.0, 8.0):
                    lp = L.build_lp(spec, eps)
                    top = np.abs(lp.cost).max()
                    S = lp.pattern.matrix
                    res = linprog(-lp.cost / top, A_eq=S / S.max(axis=0), b_eq=np.ones(lp.k),
                                  bounds=(0, None), method="highs")
                    assert res.status == 0
                    assert L.solve(lp).value == pytest.approx(-res.fun * top, rel=1e-9)

    def test_merge_invariance_of_value(self):
        # mass on the all-ones column can move to the all-e^eps column
        # (they are proportional patterns) without changing anything
        rng = np.random.default_rng(27)
        spec = _random_specs(rng, 3)[0]
        lp = L.build_lp(spec, 1.0)
        sol = L.solve(lp)
        theta = sol.theta.copy()
        e = math.exp(1.0)
        moved = theta.copy()
        moved[-1] += theta[0] / e
        moved[0] = 0.0
        np.testing.assert_allclose(lp.pattern.matrix @ moved, 1.0, atol=1e-9)
        mass = moved * lp.pattern.matrix.max(axis=0)
        assert lp.cost @ mass == pytest.approx(sol.value, abs=1e-12)


class TestStartInverse:
    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_inv(self, k):
        # Every entry of the inverse is O(1), so 1e-14 is absolute.
        basis = 1 << (k - 1 - np.arange(k))
        for eps in (0.0, 1e-12, 1e-8, 0.5, 5.0, 30.0, 700.0, MAX_EPS):
            A, scale = _difference_rows(L.pattern_matrix(k, eps))
            np.testing.assert_allclose(_rr_inverse(k, 1.0 / scale[1]),
                                       np.linalg.inv(A[:, basis]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 8, 12])
    def test_solve_follows_the_inv_start(self, k):
        # solve from the closed-form inverse reaches the value of the simplex
        # started from np.linalg.inv of the basis, and for KL, chi^2 and MI
        # by the same pivots to the same basis. TV's best reduced costs tie
        # to the last bit, so which tied column enters follows the rounding
        # of the start inverse: its path may differ, but not its optimum.
        for i in range(2):
            rng = np.random.default_rng([53, k, i])
            p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
            p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
            specs = [L.hypothesis_testing(kind, p0, p1) for kind in (L.KL, L.TV, L.CHI2)]
            for spec in [*specs, L.information_preservation(p0)]:
                for eps in (0.0, 0.01, 0.5, 2.0, 8.0, 30.0):
                    lp = L.build_lp(spec, eps)
                    A, _ = _difference_rows(lp.pattern)
                    cost = lp.cost / (np.abs(lp.cost).max() or 1.0)
                    basis = 1 << (k - 1 - np.arange(k))
                    pivots = _run_simplex(A, np.linalg.inv(A[:, basis]), basis, cost)
                    sol = L.solve(lp)
                    if spec.kind is not L.TV:
                        assert (sol.basis, sol.pivots) == (tuple(sorted(basis.tolist())),
                                                           pivots)
                    mass = np.linalg.solve(A[:, basis], np.eye(k)[0])
                    assert sol.value == pytest.approx(lp.cost[basis] @ mass, rel=1e-15,
                                                      abs=1e-300)


class TestStartCache:
    """solve's prior-free start is cached per (k, eps) and shared read-only,
    so no result may depend on whether the cache is cold or warm."""

    @staticmethod
    def _specs(k, seed):
        rng = np.random.default_rng([seed, k])
        p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
        return ([L.hypothesis_testing(kind, p0, p1) for kind in (L.KL, L.TV, L.CHI2)]
                + [L.information_preservation(p0)])

    @staticmethod
    def _result(sol):
        return sol.value, sol.basis, sol.pivots, sol.theta.tobytes()

    @pytest.mark.parametrize("k", [2, 3, 6, 12])
    def test_cold_and_warm_solves_agree(self, k):
        for spec in self._specs(k, 61):
            for eps in (0.0, 1e-6, 0.5, 8.0, 30.0):
                lp = L.build_lp(spec, eps)
                optsolve._lp_start.cache_clear()
                cold = self._result(L.solve(lp))
                assert optsolve._lp_start.cache_info().currsize == 1
                assert self._result(L.solve(lp)) == cold

    @pytest.mark.parametrize("k", [3, 6, 12])
    def test_alternating_priors_leave_results_unchanged(self, k):
        # The simplex updates its basis and inverse in place; were they the
        # cached arrays, the second prior would start from the first's
        # optimum and the third solve would differ from the first.
        for eps in (0.5, 8.0):
            for a, b in zip(self._specs(k, 62), self._specs(k, 63)):
                lps = [L.build_lp(a, eps), L.build_lp(b, eps)]
                want = []
                for lp in lps:
                    optsolve._lp_start.cache_clear()
                    want.append(self._result(L.solve(lp)))
                optsolve._lp_start.cache_clear()
                for _ in range(3):
                    assert [self._result(L.solve(lp)) for lp in lps] == want

    def test_cached_arrays_are_read_only(self):
        start = optsolve._lp_start(6, 0.5)
        assert len(start) == 4
        for arr in (*start, *_difference_rows(L.pattern_matrix(6, 0.5))):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 0
        with pytest.raises(ValueError, match="read-only"):
            L.cli._sweep_geometric(6, 0.5).rows[0, 0] = 0.0

    def test_cache_is_bounded(self):
        assert optsolve._lp_start.cache_info().maxsize == optsolve.LP_CACHE_SIZE
        assert L.cli._sweep_geometric.cache_info().maxsize == optsolve.LP_CACHE_SIZE

    def test_sweep_geometric_rows_cold_and_warm(self):
        cfg = L.SweepConfig(seed=5, k=6, num_instances=3, eps_grid=(0.0, 0.5, 2.0),
                            utility="kl", mechanisms=("geometric", "optimal"))
        L.cli._sweep_geometric.cache_clear()
        optsolve._lp_start.cache_clear()
        cold = L.run_sweep(cfg)
        assert cold == L.run_sweep(cfg)
        geo = [r for r in cold if r.mechanism == "geometric"]
        assert len(geo) == 6
        for r in geo:
            spec = _instance_priors(cfg, r.instance_id)
            assert r.utility_value == L.utility(spec, L.geometric(6, r.eps))

    def test_mech_command_caches_nothing(self, capsys):
        before = L.cli._sweep_geometric.cache_info().currsize
        assert L.cli.main(["mech", "geometric", "--k", "20", "--eps", "1.0"]) == 0
        capsys.readouterr()
        assert L.cli._sweep_geometric.cache_info().currsize == before


class TestSimplexBreakdown:
    def test_no_admissible_pivot(self):
        # Column 2 improves the objective but has no positive entry in the
        # basis's rows, which only an unbounded LP allows.
        A = np.array([[1.0, 0.0, -1.0],
                      [0.0, 1.0, 0.0]])
        with pytest.raises(L.NumericalBreakdown, match="no admissible pivot"):
            _run_simplex(A, np.eye(2), np.array([0, 1]), np.array([0.0, 0.0, 1.0]))

    def test_iteration_limit(self, monkeypatch):
        # The LP of test_k12_mi_phase2_pivots needs more than one pivot.
        monkeypatch.setattr(optsolve, "MAX_ITERATIONS", 1)
        rng = np.random.default_rng([99, 12, 0])
        spec = L.information_preservation(L.make_distribution(rng.dirichlet(np.ones(12))))
        with pytest.raises(L.NumericalBreakdown, match="simplex iteration limit reached"):
            L.solve(L.build_lp(spec, 0.5))


def _positive_dirichlet(rng, alpha, k):
    """A Dirichlet(alpha, ..., alpha) draw, redrawn until every mass is
    positive: at alpha = 0.05 some masses underflow to 0."""
    while True:
        q = rng.dirichlet(np.full(k, alpha))
        if q.min() > 0:
            return q


class TestDomainProbe:
    # Every prior shape, eps and utility the API accepts either solves to a
    # private mechanism or raises a typed error; on this grid none raises,
    # and the pytest RuntimeWarning filter turns an escaping numpy warning
    # into a failure. Unscaled pattern scores overflow on 13 of these 288
    # cases, at eps = 700 and MAX_EPS.
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_grid(self, k):
        rng = np.random.default_rng([23, k])
        tiny0, tiny1 = np.full(k, 1e-12), np.full(k, 1e-12)
        tiny0[0] = tiny1[-1] = 1.0
        shapes = [(tiny0, tiny1),
                  (_positive_dirichlet(rng, 0.05, k), _positive_dirichlet(rng, 0.05, k)),
                  (np.full(k, 1.0 / k), np.full(k, 1.0 / k) + 1e-9 * np.arange(k)),
                  (_positive_dirichlet(rng, 1.0, k), _positive_dirichlet(rng, 1.0, k))]
        for q0, q1 in shapes:
            p0, p1 = L.make_distribution(q0), L.make_distribution(q1)
            specs = [L.hypothesis_testing(kind, p0, p1) for kind in (L.KL, L.TV, L.CHI2)]
            for spec in [*specs, L.information_preservation(p0)]:
                for eps in (0.0, 1e-9, 1.0, 30.0, 700.0, MAX_EPS):
                    lp = L.build_lp(spec, eps)
                    Q = L.extract_mechanism(L.solve(lp), lp)
                    assert math.isfinite(L.utility(spec, Q))
                    assert L.is_locally_private(Q, eps)


class TestExtract:
    def test_eps0_single_column(self):
        specs = [L.hypothesis_testing(L.KL, L.make_distribution([0.7, 0.3]),
                                      L.make_distribution([0.3, 0.7])),
                 *_random_specs(np.random.default_rng([32, 3]), 3),
                 *_random_specs(np.random.default_rng([32, 6]), 6)]
        for spec in specs:
            lp = L.build_lp(spec, 0.0)
            Q = L.extract_mechanism(L.solve(lp), lp)
            assert Q.l == 1
            np.testing.assert_allclose(Q.rows, 1.0, atol=1e-12)

    def test_constant_columns_merge(self):
        # The all-ones and all-e^eps columns are the only proportional
        # pair at eps > 0; weight on both is one output.
        k, e = 3, math.exp(1.0)
        spec = L.information_preservation(L.make_distribution([0.2, 0.3, 0.5]))
        lp = L.build_lp(spec, 1.0)
        n = lp.num_columns
        theta = np.zeros(n)
        theta[0], theta[n - 1] = 0.5, 0.5 / e
        sol = L.LPSolution(theta=theta, value=0.5 * (lp.cost[0] + lp.cost[n - 1]),
                           basis=(0, n - 1))
        Q = L.extract_mechanism(sol, lp)
        assert Q.l == 1
        np.testing.assert_allclose(Q.rows, np.ones((k, 1)), atol=1e-15)

    def test_k2_kl_recovers_randomized_response(self):
        spec = L.hypothesis_testing(L.KL, L.make_distribution([0.7, 0.3]),
                                    L.make_distribution([0.3, 0.7]))
        lp = L.build_lp(spec, math.log(3))
        Q = L.extract_mechanism(L.solve(lp), lp)
        R = L.randomized_response(2, math.log(3))
        assert (np.allclose(Q.rows, R.rows, atol=1e-12)
                or np.allclose(Q.rows, R.rows[:, ::-1], atol=1e-12))

    def test_tv_recovers_binary(self):
        rng = np.random.default_rng(28)
        p0 = L.make_distribution(rng.dirichlet(np.ones(4)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(4)))
        spec = L.hypothesis_testing(L.TV, p0, p1)
        lp = L.build_lp(spec, 1.0)
        Q = L.extract_mechanism(L.solve(lp), lp)
        B = L.binary_ht(p0, p1, 1.0)
        cols_q = sorted(map(tuple, Q.rows.T))
        cols_b = sorted(map(tuple, B.rows.T))
        np.testing.assert_allclose(cols_q, cols_b, atol=1e-9)

    def test_extract_contract(self):
        rng = np.random.default_rng(29)
        for k in (2, 3, 4, 6):
            for spec in _random_specs(rng, k):
                for eps in (0.3, 1.0, 5.0):
                    lp = L.build_lp(spec, eps)
                    sol = L.solve(lp)
                    Q = L.extract_mechanism(sol, lp)
                    assert Q.l <= k
                    assert L.is_locally_private(Q, eps)
                    assert L.is_staircase(Q, eps, 1e-7)
                    assert L.utility(spec, Q) == pytest.approx(sol.value, abs=1e-9)


    @pytest.mark.parametrize("k, utility, eps", [(3, "kl", 30.0), (4, "tv", 24.0),
                                                 (6, "chi2", 30.0), (3, "mi", 24.0)])
    def test_large_eps_extracts(self, k, utility, eps):
        # theta scales as e^-eps here, so an absolute cut on theta drops
        # support; the cut is on the column mass theta_j * s_j.
        rng = np.random.default_rng([7, k, 1])
        p0 = L.make_distribution(rng.dirichlet(np.ones(k)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(k)))
        kinds = {"kl": L.KL, "tv": L.TV, "chi2": L.CHI2}
        spec = (L.information_preservation(p0) if utility == "mi"
                else L.hypothesis_testing(kinds[utility], p0, p1))
        lp = L.build_lp(spec, eps)
        sol = L.solve(lp)
        Q = L.extract_mechanism(sol, lp)
        assert L.is_locally_private(Q, eps)
        assert L.utility(spec, Q) == pytest.approx(sol.value, abs=1e-9)
        if k <= 4:
            assert L.vertex_oracle(lp) == pytest.approx(sol.value, abs=1e-9)


class TestVertexOracle:
    def test_matches_solver(self):
        rng = np.random.default_rng(30)
        for k in (2, 3):
            for spec in _random_specs(rng, k):
                for eps in (0.5, 1.5):
                    lp = L.build_lp(spec, eps)
                    assert L.solve(lp).value == pytest.approx(
                        L.vertex_oracle(lp), abs=1e-8)

    def test_large_eps_matches_tv_closed_form(self):
        # At eps = 30 a weight of -1e-14 on an e^eps column is a mass of
        # -0.1; the oracle must reject such vertices.
        rng = np.random.default_rng([7, 4, 1])
        p0 = L.make_distribution(rng.dirichlet(np.ones(4)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(4)))
        lp = L.build_lp(L.hypothesis_testing(L.TV, p0, p1), 30.0)
        assert L.vertex_oracle(lp) == pytest.approx(
            L.binary_tv_closed(p0, p1, 30.0), abs=1e-12)

    def test_eps0_is_zero(self):
        # At eps = 0 every score is zero, and every basis that is
        # nonsingular in the difference rows gives a feasible vertex.
        specs = [L.information_preservation(L.make_distribution([0.3, 0.7]))]
        for k in (3, 4):
            kl, tv, mi = _random_specs(np.random.default_rng([33, k]), k)
            chi2 = L.hypothesis_testing(L.CHI2, kl.p0, kl.p1)
            specs += [kl, tv, chi2, mi]
        for spec in specs:
            assert L.vertex_oracle(L.build_lp(spec, 0.0)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_tiny_eps_matches_solver(self, k):
        # The bases of S have condition numbers near 1/eps here; solved in
        # the rows of S, the useful vertices fail the residual test.
        uniform = L.make_distribution(np.ones(k) / k)
        specs = [*_random_specs(np.random.default_rng([34, k]), k),
                 L.hypothesis_testing(L.KL, uniform, uniform)]
        for spec in specs:
            for eps in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
                lp = L.build_lp(spec, eps)
                # solve may stop k * PIVOT_TOL short on the normalized costs.
                top = np.abs(lp.cost).max()
                assert L.vertex_oracle(lp) == pytest.approx(
                    L.solve(lp).value, rel=1e-9, abs=k * PIVOT_TOL * top + 1e-15)

    def test_k5_matches_solver(self):
        rng = np.random.default_rng([35, 5])
        kl, tv, mi = _random_specs(rng, 5)
        for spec in (kl, tv, mi, L.hypothesis_testing(L.CHI2, kl.p0, kl.p1)):
            for eps in (0.1, 1.0, 8.0):
                lp = L.build_lp(spec, eps)
                assert L.solve(lp).value == pytest.approx(
                    L.vertex_oracle(lp), abs=1e-8)

    @pytest.mark.parametrize("k, priors", [(2, 3), (3, 3), (4, 1)])
    def test_matches_60_digit_enumeration(self, k, priors):
        # The reference enumerates the same bases of S in exact rationals,
        # with e^eps rounded to 60 digits, the same float lp.cost and the
        # same mass filter. The oracle's value is a k-term dot product,
        # which errs by k u times sum |cost_j mass_j| (u the unit roundoff).
        # Each mass_j adds a few u, and det M adds |C2| 2.5 u / |det M|. A
        # feasible vertex has |det M| >= 1, as its masses are at most 1 and
        # its cofactors are integers, and |C2| is at most k times the
        # largest (k - 1)-minor of a {-1, 0, 1} matrix: 2, 6 and 16 at
        # k = 2, 3, 4. All of it is below 16 k u times that sum. Rounding
        # e^eps moves the reference's masses by 1e-60 times the condition
        # number of S's basis, at most about delta^(1 - k) <= 1e30 here.
        u = np.finfo(float).eps / 2
        for i in range(priors):
            kl, tv, mi = _random_specs(np.random.default_rng([36, k, i]), k)
            specs = (kl, tv, L.hypothesis_testing(L.CHI2, kl.p0, kl.p1), mi)
            for eps in (1e-10, 1e-6, 0.01, 0.1, 2.0, 30.0):
                vertices = _exact_vertices(k, eps)
                for spec in specs:
                    lp = L.build_lp(spec, eps)
                    cost = [Fraction(v) for v in lp.cost.tolist()]
                    basis, mass = max(vertices, key=lambda v: sum(
                        cost[j] * m for j, m in zip(*v)))
                    terms = [cost[j] * m for j, m in zip(basis, mass)]
                    tol = (16 * k * u * float(sum(map(abs, terms)))
                           + 1e-30 * float(sum(abs(cost[j]) for j in basis)))
                    assert abs(L.vertex_oracle(lp) - float(sum(terms))) <= tol

    def test_cap(self):
        spec = L.information_preservation(L.Distribution(np.full(6, 1 / 6)))
        with pytest.raises(L.AlphabetTooLarge):
            L.vertex_oracle(L.build_lp(spec, 1.0))


@functools.cache
def _exact_vertices(k, eps):
    """Every basic solution of S theta = 1 whose masses theta_j s_j are at
    least -ORACLE_NEG_TOL, as (basis, masses) in exact rationals, with
    e^eps rounded to 60 digits: fraction-free (Bareiss) elimination on the
    columns of S scaled to integers, then fraction-free back substitution."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        man, exp = mp.exp(mp.mpf(eps)).man_exp
    s = Fraction(man) * Fraction(2) ** exp
    hi, lo = s.numerator, s.denominator
    vertices = []
    for basis in itertools.combinations(range(2**k), k):
        a = [[hi if (j >> (k - 1 - x)) & 1 else lo for j in basis] + [lo]
             for x in range(k)]
        prev = 1
        for c in range(k):
            p = next((r for r in range(c, k) if a[r][c]), None)
            if p is None:
                break
            a[c], a[p] = a[p], a[c]
            for r in range(c + 1, k):
                a[r] = [(a[c][c] * a[r][j] - a[r][c] * a[c][j]) // prev
                        for j in range(k + 1)]
            prev = a[c][c]
        else:
            # prev is det M up to sign, so theta * prev is integral.
            num = [0] * k
            for c in reversed(range(k)):
                rest = sum(a[c][j] * num[j] for j in range(c + 1, k))
                num[c] = (a[c][k] * prev - rest) // a[c][c]
            mass = [Fraction(n, prev) * (s if j else 1) for j, n in zip(basis, num)]
            if min(mass) >= -Fraction(ORACLE_NEG_TOL):
                vertices.append((basis, mass))
    return vertices
