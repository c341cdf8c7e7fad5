"""Slow, loop-based reference implementations of the graph and statistics
kernels, the node-level odds-product fit and the exact k-cycle count.

``eigm`` computes these quantities with ``scipy.sparse``/``csgraph``
primitives, fits the odds-product model on degree classes and lists each
k-cycle once.  The functions here state the definitions directly, one
node, edge or tuple at a time, and serve as oracles for the property
tests in ``test_oracles.py``.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from eigm.graphs import Graph
from eigm.oddsproduct import (
    EXCLUDED_LOGIT,
    FitConvergenceError,
    FitReport,
    _prob_from_logits,
    _solve_step,
)
from eigm.probmatrix import ProbMatrix


def triangle_counts(g: Graph) -> tuple[np.ndarray, int]:
    """For each edge (u, v), u < v, intersect the sorted neighbor lists and
    keep the common neighbors w > v, so each triangle is counted once and
    charged to all three corners."""
    t = np.zeros(g.n, dtype=np.int64)
    total = 0
    for u in range(g.n):
        row_u = g.neighbors(u)
        above_u = row_u[np.searchsorted(row_u, u + 1):]
        for v in above_u:
            v = int(v)
            common = np.intersect1d(above_u, g.neighbors(v), assume_unique=True)
            closing = common[common > v]
            c = len(closing)
            if c:
                total += c
                t[u] += c
                t[v] += c
                np.add.at(t, closing, 1)
    return t, total


def _component_of(g: Graph, start: int, unvisited: np.ndarray) -> list[int]:
    comp = [start]
    unvisited[start] = False
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                v = int(v)
                if unvisited[v]:
                    unvisited[v] = False
                    comp.append(v)
                    nxt.append(v)
        frontier = nxt
    return comp


def connected_components(g: Graph) -> list[list[int]]:
    """Breadth-first search from each unvisited node in increasing order."""
    unvisited = np.ones(g.n, dtype=bool)
    comps = []
    for start in range(g.n):
        if unvisited[start]:
            comps.append(sorted(_component_of(g, start, unvisited)))
    return comps


def largest_connected_component(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Largest component (ties toward the smallest node id), reindexed."""
    comps = connected_components(g)
    best = max(comps, key=lambda c: (len(c), -c[0]))
    keep = {old: new for new, old in enumerate(best)}
    edges = []
    for u_old in best:
        for v_old in g.neighbors(u_old):
            v_old = int(v_old)
            if v_old in keep and u_old < v_old:
                edges.append((keep[u_old], keep[v_old]))
    return from_edges(len(best), edges), tuple(best)


def edge_array(g: Graph) -> np.ndarray:
    """Walk each row and emit the neighbors above the diagonal."""
    out = np.empty((g.m, 2), dtype=np.int64)
    k = 0
    for u in range(g.n):
        row = g.neighbors(u)
        for v in row[np.searchsorted(row, u + 1):]:
            out[k, 0] = u
            out[k, 1] = v
            k += 1
    return out


def from_edges(n: int, edges) -> Graph:
    """Collect distinct pairs in a set, then fill the CSR arrays by hand."""
    if n <= 0:
        raise ValueError("graph must have at least one node")
    pairs = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            continue
        pairs.add((min(u, v), max(u, v)))
    deg = np.zeros(n, dtype=np.int64)
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    cursor = indptr[:-1].copy()
    for u, v in sorted(pairs):
        indices[cursor[u]] = v
        cursor[u] += 1
        indices[cursor[v]] = u
        cursor[v] += 1
    for i in range(n):
        indices[indptr[i]:indptr[i + 1]].sort()
    g = Graph(n=n, indptr=indptr, indices=indices, m=len(pairs))
    validate(g)
    return g


def validate(g: Graph) -> None:
    """Row-by-row structural checks; raises AssertionError on breakage."""
    assert g.n > 0
    assert g.indptr.shape == (g.n + 1,)
    assert g.indptr[0] == 0 and g.indptr[-1] == len(g.indices)
    assert 2 * g.m == len(g.indices)
    for i in range(g.n):
        row = g.neighbors(i)
        assert np.all(np.diff(row) > 0), f"row {i} unsorted or duplicated"
        assert i not in row, f"self-loop at {i}"
        assert np.all((row >= 0) & (row < g.n))
    # symmetry: j in adj[i] <=> i in adj[j]
    for i in range(g.n):
        for j in g.neighbors(i):
            row_j = g.neighbors(int(j))
            pos = np.searchsorted(row_j, i)
            assert pos < len(row_j) and row_j[pos] == i, f"asymmetric pair ({i}, {j})"


def char_path_length(g: Graph) -> float:
    """Mean shortest-path length from unweighted Dijkstra over all sources.

    Assumes a connected graph with at least two nodes."""
    a = scipy.sparse.csr_matrix(
        (np.ones(len(g.indices)), g.indices, g.indptr), shape=(g.n, g.n)
    )
    dist = scipy.sparse.csgraph.dijkstra(a, directed=False, unweighted=True)
    return float(dist.sum()) / 2.0 / (g.n * (g.n - 1) / 2.0)


def fit_odds_product(
    d: np.ndarray,
    eps: float = 1e-6,
    max_iter: int = 100,
    damped: bool = True,
) -> tuple[np.ndarray, ProbMatrix, FitReport]:
    """Damped Newton on one logit per node: each step solves the dense
    n x n system J = B + diag(B @ 1), B = P * (1 - P) with zero diagonal.
    Same contract as :func:`eigm.oddsproduct.fit_odds_product`."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("degree sequence must be a nonempty vector")
    n = d.size
    if np.any(d < 0) or np.any(d > n - 1):
        raise ValueError("degrees must lie in [0, n-1]")
    if eps <= 0:
        raise ValueError("eps must be positive")

    active = np.flatnonzero(d > 0)
    logits = np.full(n, EXCLUDED_LOGIT, dtype=np.float64)

    if active.size == 0:
        report = FitReport(0, [0.0], True, 0.0)
        return logits, ProbMatrix.from_array(np.zeros((n, n))), report

    da = d[active]
    na = active.size
    ell = np.zeros(na)
    p = _prob_from_logits(ell)
    r = p.sum(axis=1) - da
    res = float(np.linalg.norm(r))
    history = [res]
    target = min(eps, 10.0 * eps / np.sqrt(n))
    ridge_used = False
    iterations = 0
    stalled = False

    while res > target and iterations < max_iter:
        b = p * (1.0 - p)
        np.fill_diagonal(b, 0.0)
        jac = b + np.diag(b.sum(axis=1))
        step, ridged = _solve_step(jac, r)
        ridge_used = ridge_used or ridged
        eta = 1.0
        improved = False
        for _ in range(31):
            ell_try = ell - eta * step
            p_try = _prob_from_logits(ell_try)
            r_try = p_try.sum(axis=1) - da
            res_try = float(np.linalg.norm(r_try))
            if res_try < res or not damped:
                improved = True
                break
            eta *= 0.5
        if not improved:
            stalled = True
            break
        ell, p, r, res = ell_try, p_try, r_try, res_try
        history.append(res)
        iterations += 1

    converged = res <= eps
    logits[active] = ell
    full = _prob_from_logits(logits)
    report = FitReport(
        iterations=iterations,
        residual_history=history,
        converged=converged,
        final_max_abs_error=float(np.abs(full.sum(axis=1) - d).max()),
        ridge_used=ridge_used,
    )
    if not converged:
        reason = "line search stalled" if stalled else f"max_iter={max_iter} reached"
        raise FitConvergenceError(
            f"degree fit did not converge ({reason}, residual {res:.3e} > {eps:g}); "
            "the target sequence may not be graphical",
            report,
        )
    return logits, ProbMatrix.from_array(full), report


def expected_kcycles_exact(p: ProbMatrix, k: int) -> float:
    """Sum the cycle-edge probability product over all ordered k-tuples of
    distinct nodes and divide by 2k: each cycle is visited once per
    starting node and direction."""
    rows = [row.tolist() for row in p.mat]
    total = 0.0
    for tup in itertools.permutations(range(p.n), k):
        prob = rows[tup[-1]][tup[0]]
        if prob == 0.0:
            continue
        for a in range(k - 1):
            prob *= rows[tup[a]][tup[a + 1]]
        total += prob
    return total / (2.0 * k)
