"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The dataset criterion (C12) is skipped unless edge
lists are present under ``$EIGM_DATA_DIR`` (default: ./data).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from eigm.bounds import (
    check_cc_tightness,
    check_kcycle_bound,
    check_triangle_bound,
    er_construction,
)
from eigm.cell import vandermonde_embedding, verify_embedding
from eigm.graphs import (
    Graph,
    connected_components,
    degrees,
    largest_connected_component,
    load_edge_list,
)
from eigm.modelzoo import ModelSpec, build_model, linear_model
from eigm.oddsproduct import degree_jacobian, fit_odds_product, predicted_degrees
from eigm.probmatrix import (
    expected_kcycles_exact,
    expected_kcycles_trace,
    expected_triangles,
    overlap,
    sample,
    volume,
)
from eigm.rng import derive_seed, make_rng
from eigm.stats import char_path_length, global_clustering, triangle_counts
from eigm.synth import (
    powerlaw_configuration_graph,
    random_bounded_degree_graph,
    random_probmatrix,
)

from conftest import (
    complete_graph,
    er_triangle_tightness_ratio,
    pair_overlap_mean,
    random_connected_graph,
)

DATA_DIR = Path(os.environ.get("EIGM_DATA_DIR", "data"))


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


def _test_graph_trio():
    lcc, _ = largest_connected_component(
        powerlaw_configuration_graph(60, 2.5, seed=77)
    )
    return [
        random_connected_graph(30, 0.12, seed=13),
        lcc,
        complete_graph(8),
    ]


def test_c01_overlap_volume_identity():
    start = time.time()
    worst = 0.0
    for t in range(500):
        n = 2 + derive_seed(101, t) % 49  # n in [2, 50]
        p = random_probmatrix(n, seed=derive_seed(202, t))
        lhs = overlap(p) * volume(p)
        rhs = float((p.mat**2).sum()) / 2.0
        worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.time() - start
    _report(
        "C01 overlap*volume identity",
        worst <= 1e-9 and elapsed < 5.0,
        f"max rel err {worst:.2e} over 500 matrices, {elapsed:.2f}s",
    )


def test_c02_triangle_bound_universal():
    start = time.time()
    violations = 0
    for t in range(1000):
        n = 2 + derive_seed(303, t) % 29  # n in [2, 30]
        scale = 1.0 if t % 2 == 0 else 0.1
        p = random_probmatrix(n, seed=derive_seed(404, t), scale=scale)
        if volume(p) == 0.0:
            continue
        if not check_triangle_bound(p).holds:
            violations += 1
    elapsed = time.time() - start
    _report(
        "C02 triangle bound universal",
        violations == 0 and elapsed < 30.0,
        f"{violations} violations in 1000 matrices (dense+sparse), {elapsed:.2f}s",
    )


def test_c03_er_tightness_ratios():
    start = time.time()
    r100 = er_triangle_tightness_ratio(100)
    r1000 = er_triangle_tightness_ratio(1000)
    elapsed = time.time() - start
    ok = abs(r100 - 0.9849) <= 1e-3 and abs(r1000 - 0.9985) <= 1e-3
    _report(
        "C03 ER tightness ratios",
        ok and elapsed < 1.0,
        f"ratio(100)={r100:.5f}, ratio(1000)={r1000:.5f}, {elapsed:.2f}s",
    )


def test_c04_kcycle_bound_exact_mode():
    start = time.time()
    violations = 0
    trace_violations = 0
    for t in range(200):
        n = 4 + derive_seed(505, t) % 7  # n in [4, 10]
        scale = 1.0 if t % 2 == 0 else 0.1
        p = random_probmatrix(n, seed=derive_seed(606, t), scale=scale)
        if volume(p) == 0.0:
            continue
        for k in (4, 5):
            report = check_kcycle_bound(p, k)
            assert report.mode == "brute-force"
            if not report.holds:
                violations += 1
            exact = expected_kcycles_exact(p, k)
            if exact > expected_kcycles_trace(p, k) + 1e-12:
                trace_violations += 1
    elapsed = time.time() - start
    _report(
        "C04 k-cycle bound exact mode",
        violations == 0 and trace_violations == 0 and elapsed < 120.0,
        f"{violations} bound / {trace_violations} trace violations over "
        f"200 matrices x k in (4,5), {elapsed:.1f}s",
    )


def test_c05_clustering_tightness_bands():
    start = time.time()
    low = check_cc_tightness(500, 0.1, samples=5, seed=42, tol=0.02)
    mid = check_cc_tightness(200, 0.5, samples=5, seed=43, tol=0.03)
    elapsed = time.time() - start
    _report(
        "C05 clustering tightness bands",
        low.holds and mid.holds and elapsed < 30.0,
        f"mean C: {low.lhs:.4f} (target 0.1+-0.02), {mid.lhs:.4f} "
        f"(target 0.5+-0.03), {elapsed:.1f}s",
    )


def test_c06_odds_product_fit_and_jacobian():
    start = time.time()
    worst_err = 0.0
    worst_iters = 0
    for t in range(20):
        g = powerlaw_configuration_graph(1000, 2.5, seed=derive_seed(707, t))
        d = degrees(g)
        _, p, report = fit_odds_product(d, eps=1e-6)
        assert report.converged
        worst_err = max(worst_err, report.final_max_abs_error)
        worst_iters = max(worst_iters, report.iterations)
    fd_worst = 0.0
    for n in range(2, 9):
        rng = make_rng(n)
        logits = rng.normal(0.0, 1.5, size=n)
        from scipy.special import expit

        pm = expit(np.add.outer(logits, logits))
        np.fill_diagonal(pm, 0.0)
        jac = degree_jacobian(pm)
        h = 1e-6
        for j in range(n):
            up, down = logits.copy(), logits.copy()
            up[j] += h
            down[j] -= h
            col = (predicted_degrees(up) - predicted_degrees(down)) / (2 * h)
            fd_worst = max(fd_worst, float(np.abs(jac[:, j] - col).max()))
    elapsed = time.time() - start
    ok = worst_err <= 1e-4 and worst_iters <= 50 and fd_worst < 1e-5
    _report(
        "C06 odds-product fit + Jacobian",
        ok and elapsed < 120.0,
        f"20 power-law graphs n=1000: max degree err {worst_err:.2e}, "
        f"max iters {worst_iters}; Jacobian FD err {fd_worst:.2e}; {elapsed:.1f}s",
    )


def test_c07_volume_preservation_across_models():
    start = time.time()
    worst = 0.0
    checked = 0
    for g in _test_graph_trio():
        n, m = g.n, g.m
        specs = (
            [ModelSpec("linear", w) for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
            + [ModelSpec("ccop", w) for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
            + [ModelSpec("hdop", h) for h in (0, n // 4, n // 2, n)]
            + [ModelSpec("tsvd", k) for k in (1, 2, max(3, n // 2), n)]
        )
        for spec in specs:
            p = build_model(g, spec)
            worst = max(worst, abs(volume(p) - m) / m)
            checked += 1
    elapsed = time.time() - start
    _report(
        "C07 volume preservation",
        worst <= 1e-6 and elapsed < 60.0,
        f"max rel volume err {worst:.2e} over {checked} model/knob/graph "
        f"combinations, {elapsed:.1f}s",
    )


def test_c08_linear_overlap_monotone():
    start = time.time()
    ok = True
    for g in _test_graph_trio():
        ovs = [overlap(linear_model(g, w / 10.0)) for w in range(11)]
        ok = ok and all(b >= a - 1e-12 for a, b in zip(ovs, ovs[1:]))
    elapsed = time.time() - start
    _report(
        "C08 linear overlap monotone",
        ok and elapsed < 5.0,
        f"nondecreasing over omega grid 0..1 on 3 graphs, {elapsed:.2f}s",
    )


def test_c09_sampler_consistency():
    start = time.time()
    worst_sigma = 0.0
    for t in range(10):
        n = 12 + derive_seed(808, t) % 29  # n in [12, 40]
        p = random_probmatrix(n, seed=derive_seed(909, t))
        trials = 20
        est = pair_overlap_mean(p, derive_seed(111, t), trials)
        ov = overlap(p)
        vol = volume(p)
        pairs_sq = (p.mat**2).sum() / 2.0
        pairs_4 = (p.mat**4).sum() / 2.0
        var_one = (pairs_sq - pairs_4) / vol**2  # Bernoulli(p^2) sum variance
        se = math.sqrt(var_one / trials)
        worst_sigma = max(worst_sigma, abs(est - ov) / se)
    elapsed = time.time() - start
    _report(
        "C09 sampler consistency",
        worst_sigma <= 3.0 and elapsed < 30.0,
        f"max |empirical-closed|/SE = {worst_sigma:.2f} over 10 matrices "
        f"(20 trials each), {elapsed:.1f}s",
    )


def test_c10_statistics_oracles():
    import itertools

    start = time.time()
    tri_ok = True
    for t in range(200):
        n = 3 + derive_seed(121, t) % 6  # n in [3, 8]
        prob = 0.2 + 0.6 * (derive_seed(131, t) % 100) / 100.0
        g = sample(er_construction(n, prob), derive_seed(141, t))
        t_vec, total = triangle_counts(g)
        adj = [set(map(int, g.neighbors(i))) for i in range(g.n)]
        oracle_vec = np.zeros(g.n, dtype=int)
        oracle_total = 0
        for a, b, c in itertools.combinations(range(g.n), 3):
            if b in adj[a] and c in adj[a] and c in adj[b]:
                oracle_total += 1
                oracle_vec[[a, b, c]] += 1
        tri_ok = tri_ok and total == oracle_total and np.array_equal(t_vec, oracle_vec)

    cpl_ok = True
    for t in range(50):
        n = 5 + derive_seed(151, t) % 46  # n in [5, 50]
        g = random_connected_graph(n, 0.08, seed=derive_seed(161, t))
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        for u in range(n):
            dist[u, g.neighbors(u)] = 1.0
        for k in range(n):
            dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
        iu = np.triu_indices(n, 1)
        oracle = float(dist[iu].mean())
        cpl_ok = cpl_ok and abs(char_path_length(g) - oracle) < 1e-12

    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    # hand enumeration: 2 triangles close 6 of the 8 wedges
    cc = global_clustering(diamond)
    cc_ok = cc == 0.75

    elapsed = time.time() - start
    _report(
        "C10 statistics oracles",
        tri_ok and cpl_ok and cc_ok and elapsed < 30.0,
        f"triangles 200/200, path length 50/50, diamond clustering {cc}, "
        f"{elapsed:.1f}s",
    )


def test_c11_lowrank_embedding():
    start = time.time()
    ok_rank = ok_tol = ok_decrease = 0
    for t in range(20):
        seed = derive_seed(171, t)
        g = random_bounded_degree_graph(12, 3, seed=seed)
        attempts = 0
        while int(degrees(g).max()) < 3 and attempts < 10:
            seed = derive_seed(171, t, attempts)
            g = random_bounded_degree_graph(12, 3, seed=seed)
            attempts += 1
        dmax = int(degrees(g).max())
        w_hi = vandermonde_embedding(g, scale=1e4)
        err_hi, rank_hi = verify_embedding(g, w_hi)
        err_lo, _ = verify_embedding(g, vandermonde_embedding(g, scale=1e2))
        ok_rank += rank_hi <= 2 * dmax + 1
        ok_tol += err_hi <= 1e-3
        ok_decrease += err_hi < err_lo
    elapsed = time.time() - start
    _report(
        "C11 low-rank softmax embedding",
        ok_rank == ok_tol == ok_decrease == 20 and elapsed < 30.0,
        f"rank {ok_rank}/20, max-err<=1e-3 {ok_tol}/20, "
        f"err(1e4)<err(1e2) {ok_decrease}/20, {elapsed:.1f}s",
    )


TABLE_COUNTS = {
    "citeseer": (2110, 7336, 1083),
    "cora": (2485, 10138, 1558),
    "polblogs": (1222, 33428, 101043),
}


@pytest.mark.skipif(
    not any((DATA_DIR / f"{name}.edges").exists() for name in TABLE_COUNTS),
    reason=f"no dataset edge lists under {DATA_DIR}/ (user-supplied)",
)
def test_c12_dataset_counts_and_sweep_trend():
    from scipy.stats import spearmanr

    from eigm.sweep import run_sweep

    start = time.time()
    details = []
    ok = True
    for name, (n_ref, m_ref, tri_ref) in TABLE_COUNTS.items():
        path = DATA_DIR / f"{name}.edges"
        if not path.exists():
            continue
        g, _ = load_edge_list(path)
        lcc, _ = largest_connected_component(g)
        _, total = triangle_counts(lcc)
        match = (lcc.n, lcc.m, total) == (n_ref, m_ref, tri_ref)
        ok = ok and match
        details.append(f"{name}: n={lcc.n} m={lcc.m} tri={total} match={match}")

    citeseer = DATA_DIR / "citeseer.edges"
    if citeseer.exists():
        g, _ = load_edge_list(citeseer)
        reference, _ = largest_connected_component(g)
        n = reference.n
        specs = (
            [ModelSpec("linear", w) for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
            + [ModelSpec("ccop", w) for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
            + [ModelSpec("hdop", h) for h in (0, n // 8, n // 2, n)]
            + [ModelSpec("tsvd", k) for k in (8, 32, 128, 512)]
        )
        rows = run_sweep(reference, specs, samples=5, seed=1)
        for kind in ("linear", "ccop", "hdop", "tsvd"):
            pts = [r for r in rows if r.model == kind and r.status == "ok"]
            rho = spearmanr(
                [r.overlap_expected for r in pts],
                [r.means["triangle_count"] for r in pts],
            ).statistic
            ok = ok and rho > 0.8
            details.append(f"{kind}: spearman(overlap, triangles)={rho:.3f}")
    elapsed = time.time() - start
    _report(
        "C12 dataset counts + sweep trend",
        ok,
        "; ".join(details) + f"; {elapsed:.0f}s",
    )
