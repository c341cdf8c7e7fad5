import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from eigm.graphs import Graph, degrees
from eigm.rng import make_rng
from eigm.stats import (
    DisconnectedGraphError,
    StatsRecord,
    assortativity,
    char_path_length,
    compare,
    fit_power_law,
    global_clustering,
    powerlaw_alpha,
    triangle_counts,
)

from conftest import complete_graph, random_connected_graph, small_graphs


def brute_force_triangles(g: Graph):
    """Oracle: test all C(n,3) node triples directly."""
    t = np.zeros(g.n, dtype=int)
    total = 0
    adj = [set(map(int, g.neighbors(i))) for i in range(g.n)]
    for a, b, c in itertools.combinations(range(g.n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            total += 1
            t[a] += 1
            t[b] += 1
            t[c] += 1
    return t, total


def floyd_warshall_mean_distance(g: Graph) -> float:
    """Oracle: dense Floyd-Warshall all-pairs distances."""
    n = g.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u in range(n):
        dist[u, g.neighbors(u)] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    iu = np.triu_indices(n, 1)
    return float(dist[iu].mean())


def test_triangle_counts_examples(triangle, k4_minus_edge):
    t, total = triangle_counts(triangle)
    assert t.tolist() == [1, 1, 1] and total == 1
    t, total = triangle_counts(complete_graph(4))
    assert t.tolist() == [3, 3, 3, 3] and total == 4
    t, total = triangle_counts(k4_minus_edge)
    assert total == 2 and t.tolist() == [2, 2, 1, 1]


def test_triangle_identity_three_total(cycle5):
    for g in (cycle5, complete_graph(6)):
        t, total = triangle_counts(g)
        assert t.sum() == 3 * total


@given(small_graphs(max_n=8))
@settings(max_examples=50, deadline=None)
def test_triangle_counts_match_brute_force(g):
    t, total = triangle_counts(g)
    t_ref, total_ref = brute_force_triangles(g)
    assert total == total_ref
    assert np.array_equal(t, t_ref)


def test_global_clustering_examples(triangle, path3, k4_minus_edge):
    assert global_clustering(triangle) == pytest.approx(1.0)
    assert global_clustering(path3) == 0.0
    # diamond: 2 triangles close 6 of the 8 wedges
    assert global_clustering(k4_minus_edge) == pytest.approx(0.75)


def test_global_clustering_no_wedges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert math.isnan(global_clustering(g))


def test_global_clustering_complete_graphs():
    for n in range(3, 7):
        assert global_clustering(complete_graph(n)) == pytest.approx(1.0)


@given(small_graphs(max_n=8))
@settings(max_examples=40, deadline=None)
def test_global_clustering_in_unit_interval(g):
    c = global_clustering(g)
    if not math.isnan(c):
        assert 0.0 <= c <= 1.0 + 1e-12


def test_assortativity_star():
    star = Graph.from_edges(5, [(0, k) for k in range(1, 5)])
    assert assortativity(star) == pytest.approx(-1.0)


def test_assortativity_path4():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert assortativity(g) == pytest.approx(-0.5)


def test_assortativity_regular_undefined(cycle5):
    assert math.isnan(assortativity(cycle5))
    single = Graph.from_edges(2, [(0, 1)])
    assert math.isnan(assortativity(single))


def test_powerlaw_synthetic_exponent():
    # degrees drawn from P(d) ~ d^-2.5; the MLE should recover ~2.5
    rng = make_rng(2024)
    ds = np.arange(1, 100000)
    w = ds.astype(float) ** -2.5
    w /= w.sum()
    sample = rng.choice(ds, size=5000, p=w)
    fit = fit_power_law(sample)
    assert fit is not None
    assert 2.3 <= fit.alpha <= 2.7
    assert fit.ks_distance < 0.2
    assert fit.n_tail >= 10


def test_powerlaw_all_equal_undefined():
    assert math.isnan(powerlaw_alpha(np.full(50, 7)))


def test_powerlaw_too_few_points():
    assert math.isnan(powerlaw_alpha(np.array([3, 2, 5])))


def test_powerlaw_geometric_tail_reports_fit():
    rng = make_rng(7)
    sample = rng.geometric(0.4, size=2000)
    fit = fit_power_law(sample)
    assert fit is not None
    assert fit.alpha > 2.5  # steep tail -> large exponent
    assert math.isfinite(fit.ks_distance)


def test_char_path_length_examples(path3):
    assert char_path_length(path3) == pytest.approx(4.0 / 3.0)
    for n in (3, 5, 8):
        assert char_path_length(complete_graph(n)) == pytest.approx(1.0)
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert char_path_length(c6) == pytest.approx(1.8)


def test_char_path_length_disconnected_raises():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        char_path_length(g)


def test_char_path_length_single_node():
    g = Graph.from_edges(1, [])
    assert math.isnan(char_path_length(g))


@given(small_graphs(min_n=2, max_n=10, min_degree=1))
@settings(max_examples=30, deadline=None)
def test_char_path_length_matches_floyd_warshall(g):
    from eigm.graphs import connected_components

    if len(connected_components(g)) != 1:
        return
    assert char_path_length(g) == pytest.approx(floyd_warshall_mean_distance(g))


def test_char_path_length_oracle_larger_graphs():
    for seed in range(5):
        g = random_connected_graph(50, 0.05, seed=seed)
        assert char_path_length(g) == pytest.approx(floyd_warshall_mean_distance(g))


def test_compare_identity(k4_minus_edge):
    rec = compare(k4_minus_edge, k4_minus_edge)
    assert rec.degree_pearson == pytest.approx(1.0)
    assert rec.triangle_pearson == pytest.approx(1.0)
    assert rec.triangle_count == 2
    assert rec.max_degree == 3
    assert rec.clustering_coeff == pytest.approx(0.75)
    assert rec.char_path_length == pytest.approx(floyd_warshall_mean_distance(k4_minus_edge))


def test_compare_empty_sample(k4_minus_edge):
    empty = Graph.from_edges(4, [])
    rec = compare(k4_minus_edge, empty)
    assert math.isnan(rec.degree_pearson)
    assert math.isnan(rec.triangle_pearson)
    assert rec.triangle_count == 0
    assert rec.max_degree == 0
    assert math.isnan(rec.char_path_length)


def test_compare_node_count_mismatch(triangle, k4_minus_edge):
    with pytest.raises(ValueError):
        compare(triangle, k4_minus_edge)


def test_compare_disconnected_sample_uses_lcc(cycle5):
    sample = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    rec = compare(cycle5, sample)
    # LCC of the sample is the path 0-1-2
    assert rec.char_path_length == pytest.approx(4.0 / 3.0)


def test_stats_record_csv(k4_minus_edge):
    rec = compare(k4_minus_edge, k4_minus_edge)
    row = rec.to_csv_row()
    fields = row.split(",")
    assert len(fields) == 8
    assert fields[0] == "1.0"
    assert fields[5] == "2"
    # undefined stats serialize as the literal "nan"
    empty_rec = compare(k4_minus_edge, Graph.from_edges(4, []))
    assert "nan" in empty_rec.to_csv_row().split(",")


def test_stats_record_rejects_out_of_range():
    with pytest.raises(AssertionError):
        StatsRecord(
            degree_pearson=1.5,
            max_degree=1,
            powerlaw_alpha=float("nan"),
            assortativity=0.0,
            triangle_pearson=0.0,
            triangle_count=0,
            clustering_coeff=0.0,
            char_path_length=1.0,
        )
