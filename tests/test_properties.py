"""Property tests of the LP solver against independent oracles."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

import ldpopt as L  # noqa: E402
from ldpopt.optsolve import PIVOT_TOL  # noqa: E402

EPS = st.floats(min_value=0.0, max_value=40.0, allow_nan=False)
ORACLE_EPS = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)


@st.composite
def priors(draw, k):
    """A distribution on k outcomes with every mass at least 0.05 / k."""
    masses = draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                           min_size=k, max_size=k))
    return L.make_distribution(np.array(masses) / sum(masses))


@st.composite
def specs(draw, k):
    kind = draw(st.sampled_from(["kl", "tv", "chi2", "mi"]))
    if kind == "mi":
        return L.information_preservation(draw(priors(k)))
    div = {"kl": L.KL, "tv": L.TV, "chi2": L.CHI2}[kind]
    return L.hypothesis_testing(div, draw(priors(k)), draw(priors(k)))


@given(data=st.data(), k=st.sampled_from([2, 3, 4]), eps=ORACLE_EPS)
def test_solve_matches_vertex_oracle(data, k, eps):
    lp = L.build_lp(data.draw(specs(k)), eps)
    assert L.solve(lp).value == pytest.approx(L.vertex_oracle(lp), abs=1e-8)


@given(data=st.data(), k=st.integers(min_value=2, max_value=8), eps=EPS)
def test_tv_matches_closed_form(data, k, eps):
    p0, p1 = data.draw(priors(k)), data.draw(priors(k))
    sol = L.solve(L.build_lp(L.hypothesis_testing(L.TV, p0, p1), eps))
    e = math.exp(eps)
    expected = (e - 1) / (e + 1) * 0.5 * np.abs(p0.probs - p1.probs).sum()
    # Phase 2 stops once no scaled reduced cost is below -PIVOT_TOL. The
    # scaled weights sum to at most k, so the value may fall short of the
    # optimum by up to k * PIVOT_TOL, and never exceeds it.
    assert expected - k * PIVOT_TOL - 1e-12 <= sol.value <= expected + 1e-12
