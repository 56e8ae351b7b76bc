"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. Shared LP solutions are cached across criteria, so the
first tests do the heavy lifting.

The statistical sweep thresholds (criterion 6) are checked on seed 42 and,
on failure, on the documented fallback seeds 43 and 44; the criterion
passes when at least two of the three seeds meet every threshold.
"""

import math
import time

import numpy as np
import pytest

import ldpopt as L

K_VALUES = (2, 3, 4)
NUM_INSTANCES = 20
ORACLE_EPS = (0.1, 1.0, 5.0)
UTILITIES = ("kl", "tv", "mi")

SWEEP_SEEDS = (42, 43, 44)
SWEEP_GRID_K6 = (0.1, 0.5, 1.0, 2.0, 4.0, 6.0, 10.0)
SWEEP_GRID_K12 = (0.5, 2.0, 4.0, 8.0)
SWEEP_THRESHOLDS = {("kl", 6): 0.70, ("kl", 12): 0.55,
                    ("mi", 6): 0.75, ("mi", 12): 0.65}


def _report(num, name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")


class InstancePool:
    """Fixed random instances plus a cache of LP solutions keyed by
    (k, instance, utility, eps)."""

    def __init__(self):
        self.triples = {}
        for k in K_VALUES:
            rng = np.random.default_rng(9000 + k)
            self.triples[k] = [
                (L.make_distribution(rng.dirichlet(np.ones(k))),
                 L.make_distribution(rng.dirichlet(np.ones(k))),
                 L.make_distribution(rng.dirichlet(np.ones(k))))
                for _ in range(NUM_INSTANCES)
            ]
        self._solutions = {}

    def spec(self, k, i, tag):
        p0, p1, p = self.triples[k][i]
        if tag == "kl":
            return L.hypothesis_testing(L.KL, p0, p1)
        if tag == "tv":
            return L.hypothesis_testing(L.TV, p0, p1)
        return L.information_preservation(p)

    def solve(self, k, i, tag, eps):
        key = (k, i, tag, eps)
        if key not in self._solutions:
            lp = L.build_lp(self.spec(k, i, tag), eps)
            self._solutions[key] = (lp, L.solve(lp))
        return self._solutions[key]


@pytest.fixture(scope="module")
def pool():
    return InstancePool()


def test_criterion_1_oracle_equivalence(pool):
    """solve() and the brute-force vertex oracle agree to 1e-8 in < 60 s."""
    start = time.time()
    worst = 0.0
    for k in K_VALUES:
        for i in range(NUM_INSTANCES):
            for tag in UTILITIES:
                for eps in ORACLE_EPS:
                    lp, sol = pool.solve(k, i, tag, eps)
                    gap = abs(sol.value - L.vertex_oracle(lp))
                    worst = max(worst, gap)
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(1, "oracle equivalence", ok,
            f"max gap {worst:.2e}, {elapsed:.1f}s over "
            f"{len(K_VALUES) * NUM_INSTANCES * len(UTILITIES) * len(ORACLE_EPS)} LPs")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_2_staircase_structure(pool):
    """Extracted optima: <= k columns, log-ratios in {0, eps} at 1e-7,
    and <= k support entries above 1e-10."""
    ok = True
    checked = 0
    for k in K_VALUES:
        for i in range(NUM_INSTANCES):
            for tag in UTILITIES:
                for eps in ORACLE_EPS:
                    lp, sol = pool.solve(k, i, tag, eps)
                    Q = L.extract_mechanism(sol, lp)
                    checked += 1
                    if Q.l > k or not L.is_staircase(Q, eps):
                        ok = False
                    if int((sol.theta > 1e-10).sum()) > k:
                        ok = False
    _report(2, "staircase structure of extracted optima", ok,
            f"{checked} mechanisms")
    assert ok


def test_criterion_3_tv_exact_optimality(pool):
    """LP optimum for total variation equals the closed form to 1e-9."""
    worst = 0.0
    for k in K_VALUES:
        for i in range(NUM_INSTANCES):
            p0, p1, _ = pool.triples[k][i]
            for eps in (0.1, 1.0, 5.0, 10.0):
                _, sol = pool.solve(k, i, "tv", eps)
                worst = max(worst, abs(sol.value - L.binary_tv_closed(p0, p1, eps)))
    ok = worst <= 1e-9
    _report(3, "exact TV optimality", ok, f"max deviation {worst:.2e}")
    assert ok


def test_criterion_4_regime_optimality(pool):
    """Per instance: the binary mechanism hits the optimum at some small eps
    and randomized response at some large eps, each at relative 1e-6."""
    def rel_gap(opt, achieved):
        return (opt - achieved) / max(opt, 1e-12)

    ok = True
    for k in K_VALUES:
        for i in range(NUM_INSTANCES):
            p0, p1, p = pool.triples[k][i]
            bin_kl = min(rel_gap(pool.solve(k, i, "kl", e)[1].value,
                                 L.binary_kl_closed(p0, p1, e))
                         for e in (0.001, 0.01, 0.1))
            rr_kl = min(rel_gap(pool.solve(k, i, "kl", e)[1].value,
                                L.rr_kl_closed(p0, p1, e))
                        for e in (10.0, 15.0))
            bin_mi = min(rel_gap(pool.solve(k, i, "mi", e)[1].value,
                                 L.binary_mi_closed(p, e))
                         for e in (0.001, 0.01, 0.1))
            rr_mi = min(rel_gap(pool.solve(k, i, "mi", e)[1].value,
                                L.rr_mi_closed(p, e))
                        for e in (10.0, 15.0))
            if max(bin_kl, rr_kl, bin_mi, rr_mi) > 1e-6:
                ok = False
    _report(4, "high/low-privacy regime optimality", ok)
    assert ok


def test_criterion_5_approximation_guarantees(pool):
    """BIN >= OPT / (2 (e^eps+1)^2) for KL and BIN >= OPT / (1+e^eps) for MI."""
    violations = 0
    for k in K_VALUES:
        for i in range(NUM_INSTANCES):
            p0, p1, p = pool.triples[k][i]
            for eps in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
                opt = pool.solve(k, i, "kl", eps)[1].value
                if L.binary_kl_closed(p0, p1, eps) < opt / (2 * (math.exp(eps) + 1) ** 2) - 1e-12:
                    violations += 1
            for eps in (0.1, 0.5, 1.0):
                opt = pool.solve(k, i, "mi", eps)[1].value
                if L.binary_mi_closed(p, eps) < opt / (1 + math.exp(eps)) - 1e-12:
                    violations += 1
    ok = violations == 0
    _report(5, "binary-mechanism approximation guarantees", ok,
            f"{violations} violations")
    assert ok


def _sweep_min_ratios(seed):
    """Min mixed-strategy ratio per (utility, k) for one seed."""
    out = {}
    for utility in ("kl", "mi"):
        for k, grid in ((6, SWEEP_GRID_K6), (12, SWEEP_GRID_K12)):
            cfg = L.SweepConfig(seed=seed, k=k, num_instances=100,
                                eps_grid=grid, utility=utility,
                                mechanisms=("binary", "rr", "optimal", "mixed"))
            rows = L.run_sweep(cfg)
            out[(utility, k)] = min(r.ratio for r in rows if r.mechanism == "mixed")
    return out


def _meets_thresholds(ratios):
    return all(ratios[key] >= SWEEP_THRESHOLDS[key] for key in SWEEP_THRESHOLDS)


def test_criterion_6_sweep_thresholds():
    """Caption-level minimum mixed-strategy ratios at k=6 and k=12, and
    k=12 LP solve time under 5 s per instance."""
    slowest = 0.0
    for instance_id in range(10):
        rng = np.random.default_rng(42 ^ instance_id)
        p0 = L.make_distribution(rng.dirichlet(np.ones(12)))
        p1 = L.make_distribution(rng.dirichlet(np.ones(12)))
        for spec in (L.hypothesis_testing(L.KL, p0, p1),
                     L.information_preservation(p0)):
            for eps in SWEEP_GRID_K12:
                t0 = time.time()
                L.solve(L.build_lp(spec, eps))
                slowest = max(slowest, time.time() - t0)

    results = {}
    for seed in SWEEP_SEEDS:
        results[seed] = _sweep_min_ratios(seed)
        if seed == SWEEP_SEEDS[0] and _meets_thresholds(results[seed]):
            break
    passing = sum(_meets_thresholds(r) for r in results.values())
    need = 1 if len(results) == 1 else 2
    ok = passing >= need and slowest < 5.0
    detail = "; ".join(
        f"seed {s}: " + ", ".join(f"{u}/k={k}:{v:.3f}" for (u, k), v in sorted(r.items()))
        for s, r in results.items())
    _report(6, "figure-caption sweep thresholds", ok,
            detail + f"; slowest k=12 LP {slowest:.2f}s")
    assert slowest < 5.0
    assert passing >= need


def test_criterion_7_converse_bounds(pool):
    """Duchi and Pinsker everywhere; expansion ratios at eps=0.01 within 5%;
    low-privacy expansion residuals at eps=10 bounded by ten times the exact
    next-order coefficient."""
    duchi_pinsker_bad = 0
    for k in K_VALUES:
        for i in range(NUM_INSTANCES):
            p0, p1, _ = pool.triples[k][i]
            for eps in ORACLE_EPS:
                lp, sol = pool.solve(k, i, "kl", eps)
                zoo = [L.binary_ht(p0, p1, eps), L.randomized_response(k, eps),
                       L.geometric(k, eps), L.extract_mechanism(sol, lp)]
                for Q in zoo:
                    reports = {r.name: r for r in L.converse_suite(p0, p1, Q, eps)}
                    if not (reports["pinsker"].satisfied
                            and reports["duchi-symmetrized-kl"].satisfied):
                        duchi_pinsker_bad += 1

    expansion_bad = 0
    for k in K_VALUES:
        for i in range(NUM_INSTANCES):
            p0, p1, p = pool.triples[k][i]
            small = {r.name: r for r in L.converse_suite(
                p0, p1, L.binary_ht(p0, p1, 0.01), 0.01)}
            small_mi = {r.name: r for r in L.mi_converse_suite(
                p, L.binary_mi(p, 0.01), 0.01)}
            large = {r.name: r for r in L.converse_suite(
                p0, p1, L.randomized_response(k, 10.0), 10.0)}
            large_mi = {r.name: r for r in L.mi_converse_suite(
                p, L.randomized_response(k, 10.0), 10.0)}
            for rep in (small["binary-kl-expansion-ratio"],
                        small_mi["binary-mi-expansion-ratio"],
                        large["rr-kl-low-privacy-residual"],
                        large_mi["rr-mi-low-privacy-residual"]):
                if not rep.satisfied:
                    expansion_bad += 1

    ok = duchi_pinsker_bad == 0 and expansion_bad == 0
    _report(7, "converse bounds and expansions", ok,
            f"duchi/pinsker violations {duchi_pinsker_bad}, "
            f"expansion violations {expansion_bad}")
    assert ok


def test_criterion_8_operational_equivalence():
    """Region-based and algebraic (eps, delta) checks agree on 200 random
    binary-input mechanisms over a 5x5 grid."""
    rng = np.random.default_rng(777)
    disagreements = 0
    for _ in range(200):
        l = int(rng.integers(2, 7))
        Q = L.Mechanism(rng.dirichlet(np.ones(l), size=2))
        for eps in (0.0, 0.5, 1.0, 2.0, 5.0):
            for delta in (0.0, 0.05, 0.1, 0.3, 0.7):
                if (L.operational_privacy_check(Q, eps, delta)
                        != L.is_approx_private(Q, eps, delta)):
                    disagreements += 1
    ok = disagreements == 0
    _report(8, "operational (eps, delta) equivalence", ok,
            f"{disagreements} disagreements over 5000 checks")
    assert ok


def test_criterion_9_quaternary_extremality():
    """Quaternary boundary equals the privacy region exactly, and its KL/MI
    utilities dominate random (eps, delta)-private binary-input mechanisms."""
    rng = np.random.default_rng(778)
    p0 = L.make_distribution([0.6, 0.4])
    p1 = L.make_distribution([0.25, 0.75])
    kl_spec = L.hypothesis_testing(L.KL, p0, p1)
    mi_spec = L.information_preservation(L.make_distribution([0.35, 0.65]))

    boundary_ok = True
    dominance_bad = 0
    for eps, delta in ((0.5, 0.1), (1.0, 0.05), (2.0, 0.2)):
        quat = L.quaternary(eps, delta)
        got = L.tradeoff_region(quat).vertices
        want = L.region_eps_delta(eps, delta).vertices
        if len(got) != len(want) or any(
                abs(a - c) > 1e-9 or abs(b - d) > 1e-9
                for (a, b), (c, d) in zip(got, want)):
            boundary_ok = False
        kl_quat = L.utility(kl_spec, quat)
        mi_quat = L.utility(mi_spec, quat)
        for _ in range(100):
            l = int(rng.integers(2, 6))
            W = rng.dirichlet(np.ones(l), size=4)
            Q = L.Mechanism(quat.rows @ W)
            # garblings are (eps, delta)-private; verify independently
            assert L.is_approx_private(Q, eps, delta)
            if (L.utility(kl_spec, Q) > kl_quat + 1e-9
                    or L.utility(mi_spec, Q) > mi_quat + 1e-9):
                dominance_bad += 1
    ok = boundary_ok and dominance_bad == 0
    _report(9, "quaternary extremality", ok,
            f"boundary exact: {boundary_ok}, dominance violations: {dominance_bad}")
    assert ok


def test_criterion_10_chernoff_stein_sanity():
    """Monte-Carlo type-II exponent within 20% of the KL rate."""
    P0 = L.make_distribution([0.8, 0.15, 0.05])
    P1 = L.make_distribution([0.1, 0.2, 0.7])
    Q = L.binary_ht(P0, P1, 1.5)
    report = L.run_exponent_sim(P0, P1, Q, n=5000, trials=200,
                                alpha_star=0.05, seed=3)
    rel = abs(report.exponent - report.kl_rate) / report.kl_rate
    ok = rel <= 0.20
    _report(10, "Chernoff-Stein exponent sanity", ok,
            f"estimate {report.exponent:.4f} vs rate {report.kl_rate:.4f} "
            f"({100 * rel:.1f}%)")
    assert ok
