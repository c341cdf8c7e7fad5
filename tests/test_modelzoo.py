import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import eigsh

from eigm.graphs import Graph, degrees
from eigm.modelzoo import (
    ModelSpec,
    build_model,
    ccop,
    fit_volume_shift,
    hdop,
    linear_model,
    tsvd_model,
)
from eigm.oddsproduct import fit_odds_product
from eigm.probmatrix import DEFAULT_DENSE_CAP, CapacityError, overlap, to_dense, volume
from eigm.synth import clustered_graph

from conftest import complete_graph, random_connected_graph


@pytest.fixture
def test_graphs(cycle5, star4):
    return [
        cycle5,
        star4,
        random_connected_graph(24, 0.12, seed=3),
    ]


def test_linear_extremes(path3, cycle5):
    for g in (path3, cycle5):
        assert linear_model(g, 1.0) == to_dense(g)
        assert overlap(linear_model(g, 1.0)) == 1.0
    # n=4, m=3: base entry q = 6/12 = 0.5
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    p = linear_model(g, 0.0)
    assert p.mat[0, 2] == pytest.approx(0.5)
    assert volume(p) == pytest.approx(3.0)


def test_linear_triangle_halfway(triangle):
    # triangle is complete: q = 1, so every omega returns the adjacency
    p = linear_model(triangle, 0.5)
    assert p == to_dense(triangle)
    with pytest.raises(ValueError):
        linear_model(triangle, 1.2)


def test_linear_overlap_monotone(test_graphs):
    for g in test_graphs:
        omegas = np.linspace(0.0, 1.0, 11)
        ovs = [overlap(linear_model(g, w)) for w in omegas]
        for a, b in zip(ovs, ovs[1:]):
            assert b >= a - 1e-12


def test_ccop_extremes(cycle5):
    assert ccop(cycle5, 1.0) == to_dense(cycle5)
    p0 = ccop(cycle5, 0.0)
    off = p0.mat[~np.eye(5, dtype=bool)]
    assert off == pytest.approx(0.5)


@pytest.mark.parametrize("omega", [1.5, -0.1, float("nan")])
def test_omega_is_refused_before_any_fit(cycle5, monkeypatch, omega):
    def fail(*args):
        raise AssertionError("fit_odds_product called")

    monkeypatch.setattr("eigm.modelzoo.fit_odds_product", fail)
    for build in (ccop, linear_model):
        with pytest.raises(ValueError, match=re.escape(f"omega must be in [0, 1], got {omega}")):
            build(cycle5, omega)


def test_ccop_degree_preservation(test_graphs):
    for g in test_graphs:
        d = degrees(g)
        for omega in (0.0, 0.5, 1.0):
            p = ccop(g, omega)
            assert np.abs(p.mat.sum(axis=1) - d).max() <= 1e-5


def test_hdop_extremes(cycle5):
    assert hdop(cycle5, cycle5.n) == to_dense(cycle5)
    assert overlap(hdop(cycle5, cycle5.n)) == 1.0
    assert hdop(cycle5, 0) == ccop(cycle5, 0.0)


def test_hdop_star_all_edges_pinned():
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert hdop(star, 1) == to_dense(star)


def test_hdop_row_sums(test_graphs):
    for g in test_graphs:
        d = degrees(g)
        for h in (0, 1, g.n // 2, g.n):
            p = hdop(g, h)
            assert np.abs(p.mat.sum(axis=1) - d).max() <= 1e-5


def test_hdop_tie_break_by_node_id():
    # path 0-1-2-3: degrees (1,2,2,1); h=1 must pin node 1, not node 2
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    p = hdop(g, 1)
    assert np.array_equal(p.mat[1], to_dense(g).mat[1])
    with pytest.raises(ValueError):
        hdop(g, -1)
    with pytest.raises(ValueError):
        hdop(g, 5)


def test_hdop_overlap_grows(test_graphs):
    for g in test_graphs:
        assert overlap(hdop(g, g.n)) >= overlap(hdop(g, 0)) - 1e-12


def test_models_take_no_fit_tolerances():
    import dataclasses
    import inspect

    assert [f.name for f in dataclasses.fields(ModelSpec)] == ["kind", "knob"]
    for fn, params in ((ccop, ["a", "omega"]), (hdop, ["a", "h"]),
                       (fit_volume_shift, ["l", "target_volume"])):
        assert list(inspect.signature(fn).parameters) == params


def test_fit_volume_shift_cases():
    n = 5
    l0 = np.zeros((n, n))
    npairs = n * (n - 1) / 2
    t = 4.2
    s = fit_volume_shift(l0, t)
    assert s == pytest.approx(t / npairs)
    # already satisfied -> zero shift
    a = to_dense(complete_graph(4)).mat
    assert fit_volume_shift(a, 6.0) == 0.0
    # pure translation when no clipping binds
    shifted = a - 0.2
    np.fill_diagonal(shifted, 0.0)
    # off-diagonal entries are 0.8; target 6 needs +0.2
    assert fit_volume_shift(shifted, 6.0) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        fit_volume_shift(l0, 0.0)
    with pytest.raises(ValueError):
        fit_volume_shift(l0, npairs + 1)


@given(st.integers(0, 10**9), st.floats(0.05, 0.95))
@settings(max_examples=30, deadline=None)
def test_fit_volume_shift_random(seed, frac):
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = 8
    l = rng.normal(0, 1, size=(n, n))
    l = 0.5 * (l + l.T)
    npairs = n * (n - 1) / 2
    target = frac * npairs
    s = fit_volume_shift(l, target)
    iu = np.triu_indices(n, 1)
    achieved = float(np.clip(l[iu] + s, 0, 1).sum())
    assert achieved == pytest.approx(target, rel=1e-8, abs=1e-9)


def test_tsvd_full_rank_recovers_adjacency(cycle5):
    p = tsvd_model(cycle5, cycle5.n)
    assert np.abs(p.mat - to_dense(cycle5).mat).max() < 1e-8
    assert volume(p) == pytest.approx(cycle5.m, rel=1e-6)


def test_tsvd_k5_rank1():
    k5 = complete_graph(5)
    p = tsvd_model(k5, 1)
    assert volume(p) == pytest.approx(10.0, rel=1e-6)
    assert overlap(p) <= 1.0


def test_tsvd_path3_rank1(path3):
    p = tsvd_model(path3, 1)
    assert volume(p) == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("k", [32, 128])  # eigsh, eigh
def test_tsvd_without_open_twins_equals_the_unreduced_solve(k):
    g = clustered_graph(86, 7, 5e-4, seed=0)  # n = 602, no two equal neighbor sets
    assert len({tuple(g.neighbors(i)) for i in range(g.n)}) == g.n
    a = g.to_csr()
    if 8 * k <= g.n:
        lam, v = eigsh(a, k=k, which="LM", v0=np.ones(g.n))
    else:
        lam, v = np.linalg.eigh(a.toarray())
    top = np.argsort(-np.abs(lam), kind="stable")[:k]
    x, pos = v[:, top] * np.sqrt(np.abs(lam[top])), lam[top] > 0.0
    xp, xn = x[:, pos], x[:, ~pos]  # X+ X+^T - X- X-^T, each product by syrk
    low = xp @ xp.T - xn @ xn.T
    low = np.clip(low + fit_volume_shift(low, float(g.m)), 0.0, 1.0)
    np.fill_diagonal(low, 0.0)
    assert np.array_equal(tsvd_model(g, k).mat, low)


@pytest.mark.parametrize("k", [8, 64])  # eigsh, eigh
def test_tsvd_is_exactly_symmetric_with_negative_eigenvalues_kept(k):
    rng = np.random.default_rng(0)
    u, v = np.nonzero(rng.random((100, 100)) < 0.05)
    g = Graph.from_edges(200, zip(u.tolist(), (v + 100).tolist()))  # bipartite
    lam = np.linalg.eigvalsh(g.to_csr().toarray())  # symmetric about 0
    assert lam[np.argsort(-np.abs(lam), kind="stable")[:k]].min() < 0.0
    p = tsvd_model(g, k).mat
    assert np.array_equal(p, p.T)


def test_tsvd_rejects_bad_rank(path3):
    with pytest.raises(ValueError):
        tsvd_model(path3, 0)
    with pytest.raises(ValueError):
        tsvd_model(path3, 4)


def test_every_builder_refuses_n_above_the_dense_cap_before_allocating():
    n = DEFAULT_DENSE_CAP + 1
    g = Graph.from_edges(n, [(0, 1)])
    builds = [
        (linear_model, 0.5), (ccop, 0.5), (hdop, 0), (hdop, 1),
        (tsvd_model, 1), (tsvd_model, n),  # eigsh, eigh
    ]
    for build, knob in builds:
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build(g, knob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an n x n float64 matrix would be 800 MB
        assert peak < 2**20, (build.__name__, knob, peak)


@pytest.mark.parametrize("build, bound", [
    (lambda g: linear_model(g, 0.5), 1.3),
    (lambda g: fit_odds_product(degrees(g))[1], 1.3),
    (lambda g: ccop(g, 0.5), 2.3),
    (lambda g: hdop(g, 0), 2.3),
    (lambda g: tsvd_model(g, 32), 2.75),  # eigsh
], ids=["linear", "fit", "ccop", "hdop", "tsvd"])
def test_builds_peak_at_few_n_by_n_arrays(build, bound):
    # each P is built in the array that becomes its ProbMatrix, with no copy
    g = clustered_graph(86, 7, 5e-4, seed=0)  # n = 602
    tracemalloc.start()
    try:
        build(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * g.n**2


def test_overlap_makes_no_n_by_n_temporary():
    p = linear_model(clustered_graph(86, 7, 5e-4, seed=0), 0.5)  # n = 602
    tracemalloc.start()
    try:
        overlap(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # P**2 would take 2.9 MB


def test_volume_preserved_across_zoo(test_graphs):
    for g in test_graphs:
        m = g.m
        specs = (
            [ModelSpec("linear", w) for w in (0.0, 0.5, 1.0)]
            + [ModelSpec("ccop", w) for w in (0.0, 0.5, 1.0)]
            + [ModelSpec("hdop", h) for h in (0, g.n // 2, g.n)]
            + [ModelSpec("tsvd", k) for k in (1, max(1, g.n // 2), g.n)]
        )
        for spec in specs:
            p = build_model(g, spec)
            assert volume(p) == pytest.approx(m, rel=1e-6), spec


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("nope", 0.5)
