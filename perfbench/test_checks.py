"""The benchmark's checkers must be able to fail.

Each test shows a checker accepting a correct case and rejecting one built
to be wrong. Run with: python3 -m pytest -q perfbench/test_checks.py
"""

import math
from collections import namedtuple

import numpy as np

import checks

P0 = np.array([0.6, 0.4])
P1 = np.array([0.25, 0.75])
EPS = 1.0


def rr(k: int, eps: float) -> np.ndarray:
    e = math.exp(eps)
    Q = np.full((k, k), 1.0 / (k - 1 + e))
    np.fill_diagonal(Q, e / (k - 1 + e))
    return Q


def test_non_private_mechanism_is_rejected():
    assert checks.privacy_problems(rr(3, EPS), EPS) == []
    assert checks.privacy_problems(rr(3, 1.5 * EPS), EPS)
    assert checks.privacy_problems(np.array([[0.5, 0.5], [1.0, 0.0]]), 30.0)


def test_perturbed_optimum_is_rejected():
    # On two inputs randomized response is the optimal mechanism.
    Q = rr(2, EPS)
    for utility in ("kl", "tv", "chi2", "mi"):
        p1 = None if utility == "mi" else P1
        value = checks.utility_of(utility, P0, p1, Q)
        highs = None
        linprog = checks.import_linprog()
        if linprog is not None:
            highs = checks.highs_optimum(linprog, utility, P0, p1, EPS)
        assert checks.certify_problems(utility, P0, p1, EPS, value, Q, value, highs) == []
        assert checks.certify_problems(utility, P0, p1, EPS, value * (1 + 1e-6), Q)
        leaky = rr(2, 2 * EPS)
        assert checks.certify_problems(utility, P0, p1, EPS,
                                       checks.utility_of(utility, P0, p1, leaky), leaky)


def test_region_inside_the_privacy_boundary_is_rejected():
    cross = 1 / (1 + math.exp(EPS))
    assert checks.region_problems([(0.0, 1.0), (cross, cross), (1.0, 0.0)], EPS) == []
    assert checks.region_problems([(0.0, 1.0), (0.2, 0.2), (1.0, 0.0)], EPS)


Row = namedtuple("Row", "eps mechanism utility_value opt_value ratio")


def tv_rows(eps_grid):
    tv = 0.5 * np.abs(P0 - P1).sum()
    rows = []
    for eps in eps_grid:
        e = math.exp(eps)
        opt = (e - 1) / (e + 1) * tv
        values = {"binary": opt, "rr": 0.9 * opt, "optimal": opt}
        values["mixed"] = max(values["binary"], values["rr"])
        rows += [Row(eps, m, v, opt, v / opt) for m, v in values.items()]
    return rows


def test_non_monotone_sweep_is_rejected():
    grid = (0.5, 2.0, 4.0)
    mechanisms = ("binary", "rr", "optimal", "mixed")
    rows = tv_rows(grid)
    assert checks.sweep_problems(rows, "tv", grid, mechanisms) == []
    # The same rows with the optimum at eps = 4 falling below that at eps = 2.
    falling = [r._replace(opt_value=r.opt_value * 0.5) if r.eps == 4.0 else r
               for r in rows]
    assert any("falls" in p for p in checks.sweep_problems(falling, "kl", grid, mechanisms))
    assert checks.sweep_problems(rows[:-1], "tv", grid, mechanisms)
