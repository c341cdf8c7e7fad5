import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import softmax

from eigm.cell import (
    EMBED_NODE_CAP,
    _row_softmax,
    cell_symmetrize,
    unconstrained_optimum,
    vandermonde_embedding,
    verify_embedding,
)
from eigm.graphs import Graph, degrees
from eigm.probmatrix import volume
from eigm.synth import random_bounded_degree_graph

from conftest import complete_graph, random_connected_graph


def cell_objective(a: Graph, row_stochastic: np.ndarray) -> float:
    """Edge log-likelihood sum(A_ij * log Q_ij); -inf if an edge has Q = 0."""
    total = 0.0
    for i in range(a.n):
        q = row_stochastic[i, a.neighbors(i)]
        if np.any(q <= 0.0):
            return float("-inf")
        total += float(np.log(q).sum())
    return total


def test_unconstrained_optimum_small_graphs(triangle, path3, star4):
    q = unconstrained_optimum(triangle)
    assert q[0] == pytest.approx([0.0, 0.5, 0.5])
    q = unconstrained_optimum(star4)
    assert q[0] == pytest.approx([0.0, 1 / 3, 1 / 3, 1 / 3])
    assert q[1] == pytest.approx([1.0, 0.0, 0.0, 0.0])
    q = unconstrained_optimum(path3)
    assert q[1] == pytest.approx([0.5, 0.0, 0.5])


def test_unconstrained_optimum_isolated_node():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        unconstrained_optimum(g)


@given(st.integers(2, 6), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_unconstrained_optimum_maximizes_objective(n, seed):
    g = random_connected_graph(n, 0.3, seed=seed)
    target = unconstrained_optimum(g)
    best = cell_objective(g, target)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        # random perturbed row-stochastic candidates, near and far from target
        w = np.log(target + 1e-12) + rng.normal(0, rng.uniform(0.01, 3), (g.n, g.n))
        q = softmax(w, axis=1)
        assert cell_objective(g, q) <= best + 1e-9


def test_objective_on_zero_support():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    q = np.eye(3)  # zero probability on every edge
    assert cell_objective(g, q) == float("-inf")


def test_cell_symmetrize_recovers_scaled_adjacency(path3, star4):
    for g in (path3, star4, random_connected_graph(12, 0.2, seed=4)):
        p_star = unconstrained_optimum(g)
        p = cell_symmetrize(p_star)
        # pi ~ degrees, so diag(pi) P* = A / (2m)
        expected = np.zeros((g.n, g.n))
        for i in range(g.n):
            expected[i, g.neighbors(i)] = 1.0
        expected /= 2.0 * g.m
        assert p.mat == pytest.approx(expected, abs=1e-10)


def test_cell_symmetrize_stationarity_tolerance():
    g = random_connected_graph(15, 0.25, seed=9)
    p_star = unconstrained_optimum(g)
    from eigm.cell import _stationary_distribution

    pi = _stationary_distribution(p_star)
    assert np.abs(pi @ p_star - pi).max() <= 1e-10
    assert pi.sum() == pytest.approx(1.0)


@given(st.integers(1, 12), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_stationary_distribution_solves_the_fixed_point(n, seed):
    from eigm.cell import _stationary_distribution

    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    a[np.arange(n), (np.arange(n) + 1) % n] += 0.5  # a cycle: irreducible
    p_star = a / a.sum(axis=1, keepdims=True)
    pi = _stationary_distribution(p_star)
    assert np.all(pi > 0) and pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(pi @ p_star - pi).max() <= 1e-12


def test_stationary_distribution_of_a_periodic_walk():
    from eigm.cell import _stationary_distribution

    # the walk on a path is periodic (bipartite); pi is still d / 2m
    path = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    pi = _stationary_distribution(unconstrained_optimum(path))
    assert pi == pytest.approx(degrees(path) / 8.0, abs=1e-15)


def test_cell_symmetrize_uniform():
    n = 4
    # uniform P* carries self-transition mass; the constructor zeroes the
    # diagonal with a warning since self-loops are never sampled
    with pytest.warns(UserWarning, match="diagonal"):
        p = cell_symmetrize(np.full((n, n), 1.0 / n))
    off = p.mat[~np.eye(n, dtype=bool)]
    assert off == pytest.approx(np.full(n * n - n, 1.0 / n**2))


def test_cell_symmetrize_two_node_edge():
    p_star = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = cell_symmetrize(p_star)
    assert p.mat == pytest.approx(np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_cell_symmetrize_rejects_bad_input():
    with pytest.raises(ValueError):
        cell_symmetrize(np.array([[0.5, 0.5], [0.7, 0.7]]))  # not stochastic
    reducible = np.eye(3)
    with pytest.raises(ValueError):
        cell_symmetrize(reducible)
    with pytest.raises(ValueError, match=r"^P\* must be square$"):
        cell_symmetrize(np.full((2, 3), 1 / 3))


def test_embedding_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    w = vandermonde_embedding(g, scale=1e4)
    q = softmax(w, axis=1)
    assert q[0, 1] >= 1 - 1e-3
    assert q[1, 0] >= 1 - 1e-3


def test_embedding_path3_explicit_eps(path3):
    w = vandermonde_embedding(path3, scale=1e4)  # root half-width eps = 1e-4
    max_error, numerical_rank = verify_embedding(path3, w)
    assert max_error <= 1e-3
    assert numerical_rank <= 5


def test_embedding_rank_bound_random_graphs():
    for seed in range(8):
        g = random_bounded_degree_graph(12, 3, seed=seed)
        w = vandermonde_embedding(g, scale=1e4)
        max_error, numerical_rank = verify_embedding(g, w)
        dmax = int(degrees(g).max())
        assert numerical_rank <= 2 * dmax + 1
        assert max_error <= 1e-3


def test_embedding_error_shrinks_with_scale():
    for seed in range(6):
        g = random_bounded_degree_graph(10, 3, seed=seed)
        if int(degrees(g).max()) < 3:
            continue
        e_lo, _ = verify_embedding(g, vandermonde_embedding(g, scale=1e2))
        e_hi, _ = verify_embedding(g, vandermonde_embedding(g, scale=1e4))
        assert e_hi < e_lo


def test_embedding_input_validation(path3):
    with pytest.raises(ValueError):
        vandermonde_embedding(Graph.from_edges(3, [(0, 1)]))  # isolated node
    with pytest.raises(ValueError):
        vandermonde_embedding(random_connected_graph(25, 0.1, seed=0))  # cap
    for scale in (-1.0, 2.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="scale must be finite and > 2"):
            vandermonde_embedding(path3, scale=scale)


def test_verify_embedding_direct_logits(star4):
    # explicit logits of D^-1 A: log(1/d_i) on neighbors, -1e6 elsewhere
    target = unconstrained_optimum(star4)
    w = np.log(target, out=np.full_like(target, -1e6), where=target > 0)
    max_error, _ = verify_embedding(star4, w)
    assert max_error <= 1e-6


def test_verify_embedding_zero_matrix(star4):
    target = unconstrained_optimum(star4)
    max_error, rank = verify_embedding(star4, np.zeros((4, 4)))
    assert max_error == pytest.approx(np.abs(0.25 - target).max())
    assert rank == 0


def test_verify_embedding_dimension_mismatch(star4):
    with pytest.raises(ValueError):
        verify_embedding(star4, np.zeros((3, 3)))


def test_embedding_on_complete_graph():
    g = complete_graph(5)
    w = vandermonde_embedding(g, scale=1e4)
    max_error, numerical_rank = verify_embedding(g, w)
    assert max_error <= 1e-3
    assert numerical_rank <= 2 * 4 + 1  # max degree 4


@given(st.integers(3, EMBED_NODE_CAP), st.integers(2, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([1e2, 1e3, 1e4]))
@settings(max_examples=40, deadline=None)
def test_row_softmax_is_scipys_on_embedding_logits(n, dmax, seed, scale):
    w = vandermonde_embedding(random_bounded_degree_graph(n, dmax, seed=seed), scale=scale)
    assert np.array_equal(_row_softmax(w), softmax(w, axis=1))


@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
              elements=st.floats(-1e4, 1e4)))
@settings(max_examples=200, deadline=None)
def test_row_softmax_is_scipys_on_random_logits(x):
    assert np.array_equal(_row_softmax(x), softmax(x, axis=1))
