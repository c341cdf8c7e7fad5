import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigm.graphs import degrees
from eigm.oddsproduct import (
    EXCLUDED_LOGIT,
    FitConvergenceError,
    degree_jacobian,
    fit_odds_product,
    predicted_degrees,
)
from eigm.probmatrix import (
    DEFAULT_DENSE_CAP,
    CapacityError,
    ProbMatrix,
    convex_combine,
    to_dense,
)

from conftest import random_connected_graph, small_graphs


def test_predicted_degrees_zero_logits():
    assert predicted_degrees(np.zeros(3)) == pytest.approx([1.0, 1.0, 1.0])


def test_predicted_degrees_limits():
    low = predicted_degrees(np.full(4, -40.0))
    assert np.all(low < 1e-12)
    # all logits equal with sigmoid(2*ell) = 0.5 -> every degree (n-1)/2
    d = predicted_degrees(np.zeros(5))
    assert d == pytest.approx([2.0] * 5)


def test_predicted_degrees_rejects_nonfinite():
    with pytest.raises(ValueError):
        predicted_degrees(np.array([0.0, np.inf]))


def test_jacobian_hand_value():
    # n=2, P01 = 0.5: B = [[0, .25], [.25, 0]], J = B + diag(B @ 1)
    p = ProbMatrix.from_array([[0.0, 0.5], [0.5, 0.0]])
    j = degree_jacobian(p)
    assert j == pytest.approx(np.array([[0.25, 0.25], [0.25, 0.25]]))


def test_jacobian_degenerate_cases():
    zero = ProbMatrix.from_array(np.zeros((3, 3)))
    assert degree_jacobian(zero) == pytest.approx(np.zeros((3, 3)))
    binary = ProbMatrix.from_array(np.ones((3, 3)) - np.eye(3))
    assert degree_jacobian(binary) == pytest.approx(np.zeros((3, 3)))


@given(st.integers(2, 8), st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_jacobian_matches_finite_differences(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    logits = rng.normal(0.0, 1.5, size=n)
    from scipy.special import expit

    p = expit(np.add.outer(logits, logits))
    np.fill_diagonal(p, 0.0)
    jac = degree_jacobian(p)
    assert jac == pytest.approx(jac.T)
    h = 1e-6
    fd = np.empty((n, n))
    for j in range(n):
        up, down = logits.copy(), logits.copy()
        up[j] += h
        down[j] -= h
        fd[:, j] = (predicted_degrees(up) - predicted_degrees(down)) / (2 * h)
    assert np.abs(jac - fd).max() < 1e-5


def test_fit_five_cycle_uniform(cycle5):
    logits, p, report = fit_odds_product(degrees(cycle5))
    assert report.converged
    off = p.mat[~np.eye(5, dtype=bool)]
    assert off == pytest.approx(0.5)


def test_fit_star_saturates(star4):
    d = degrees(star4)
    logits, p, report = fit_odds_product(d, eps=1e-6)
    assert report.converged
    assert np.abs(p.mat.sum(axis=1) - d).max() <= 1e-6
    assert np.all(p.mat[0, 1:] > 0.999)
    assert logits[0] > 0  # hub logit pushed upward


def test_fit_zero_degree_nodes_reinserted():
    d = np.array([1, 1, 0, 0])
    logits, p, report = fit_odds_product(d)
    assert report.converged
    assert p.mat[2].sum() == 0.0 and p.mat[3].sum() == 0.0
    assert logits[2] == EXCLUDED_LOGIT and logits[3] == EXCLUDED_LOGIT
    assert np.all(np.isfinite(logits))
    assert p.mat.sum(axis=1) == pytest.approx(d, abs=1e-6)


def test_fit_all_zero_degrees():
    logits, p, report = fit_odds_product(np.zeros(3, dtype=int))
    assert report.converged
    assert p.mat.sum() == 0.0


def test_fit_refuses_n_above_the_dense_cap():
    # a cheap degree vector would otherwise build an 800 MB n x n P
    with pytest.raises(CapacityError):
        fit_odds_product(np.ones(DEFAULT_DENSE_CAP + 1))


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_odds_product(np.array([5, 1, 1]))  # degree > n-1
    with pytest.raises(ValueError):
        fit_odds_product(np.array([-1, 1]))
    with pytest.raises(ValueError):
        fit_odds_product(np.array([1, 1]), eps=0.0)


def test_fit_infeasible_raises_with_report():
    # (3,3,1,1) fails Erdos-Gallai at k=2 and is infeasible even for
    # expected degrees: two full rows force the other row sums above 1
    with pytest.raises(FitConvergenceError) as exc:
        fit_odds_product(np.array([3, 3, 1, 1]))
    report = exc.value.report
    assert not report.converged
    assert len(report.residual_history) >= 1


def test_fit_nongraphical_but_feasible_expected_degrees():
    # odd degree sum: no simple graph realizes (1,1,1), but the uniform
    # 0.5 matrix has those expected degrees, so the fit still succeeds
    _, p, report = fit_odds_product(np.array([1, 1, 1]))
    assert report.converged
    assert p.mat[0, 1] == pytest.approx(0.5)


def test_fit_report_trace_monotone(star4):
    _, _, report = fit_odds_product(degrees(star4))
    hist = report.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert hist[-1] <= 1e-6


@given(small_graphs(min_n=3, max_n=9, min_degree=1))
@settings(max_examples=30, deadline=None)
def test_fit_matches_graph_degrees(g):
    d = degrees(g)
    _, p, report = fit_odds_product(d, eps=1e-8)
    assert report.converged
    n = g.n
    assert np.abs(p.mat.sum(axis=1) - d).max() <= 10 * 1e-8 / np.sqrt(n)
    assert np.array_equal(p.mat, p.mat.T)


def test_degree_preservation_under_convex_combination():
    g = random_connected_graph(40, 0.08, seed=5)
    d = degrees(g)
    _, p, _ = fit_odds_product(d, eps=1e-8)
    a = to_dense(g)
    for omega in (0.0, 0.25, 0.6, 1.0):
        combined = convex_combine(p, a, omega)
        assert np.abs(combined.mat.sum(axis=1) - d).max() <= 1e-6


def test_fit_larger_graph_infinity_norm():
    g = random_connected_graph(200, 0.03, seed=11)
    d = degrees(g)
    _, p, report = fit_odds_product(d, eps=1e-6)
    assert report.converged
    assert np.abs(p.mat.sum(axis=1) - d).max() <= 10 * 1e-6 / np.sqrt(200)
