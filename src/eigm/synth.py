"""Synthetic inputs for experiments and verification runs."""

from __future__ import annotations

import numpy as np

from .bounds import er_construction
from .graphs import Graph
from .probmatrix import ProbMatrix, _check_dense_cap, sample
from .rng import make_rng


def random_probmatrix(n: int, seed: int, scale: float = 1.0) -> ProbMatrix:
    """Symmetric matrix with iid uniform [0, scale] entries, zero diagonal."""
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    _check_dense_cap(n)
    upper = ~np.tri(n, dtype=bool)
    a = np.zeros((n, n))
    a[upper] = a.T[upper] = make_rng(seed).random(n * (n - 1) // 2) * scale
    return ProbMatrix.from_array(a)


def random_bounded_degree_graph(n: int, dmax: int, seed: int) -> Graph:
    """Random graph with max degree <= dmax and no isolated nodes.

    Greedy edge insertion under the degree cap, then isolated nodes are
    attached to any node with spare capacity.  If none has any, every
    other node is at dmax, and one edge (u, v) is routed through the
    isolated node instead: u and v keep their degrees, and it gets 2.
    Requires n >= 2, dmax >= 1, and an even n when dmax = 1.  A cap above
    n - 1 binds no node, so it acts as n - 1.
    """
    if n < 2 or dmax < 1:
        raise ValueError("need n >= 2 and dmax >= 1")
    dmax = min(dmax, n - 1)
    if dmax == 1 and n % 2:
        raise ValueError("dmax = 1 needs an even n (a perfect matching)")
    _check_dense_cap(n)
    rng = make_rng(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(4 * n * dmax):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and len(adj[u]) < dmax and len(adj[v]) < dmax and v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
    for i in range(n):
        if not adj[i]:
            for j in range(n):
                if j != i and len(adj[j]) < dmax:
                    adj[i].add(j)
                    adj[j].add(i)
                    break
            else:
                u = next(j for j in range(n) if adj[j])
                v = min(adj[u])
                adj[u].remove(v)
                adj[v].remove(u)
                adj[i].update((u, v))
                adj[u].add(i)
                adj[v].add(i)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return Graph.from_edges(n, edges)


def powerlaw_configuration_graph(n: int, exponent: float, seed: int) -> Graph:
    """Simple graph from a power-law degree draw via stub matching.

    Degrees are drawn from P(d) proportional to d^-exponent on 1..n-1, the
    stub multigraph is matched uniformly, and multi-edges plus self-loops
    are dropped (configuration-style generation then simplification), so
    the realized degree sequence is graphical by construction.  Nodes left
    isolated by the simplification are kept.
    """
    rng = make_rng(seed)
    ds = np.arange(1, n, dtype=np.float64)
    w = ds ** (-exponent)
    w /= w.sum()
    deg = rng.choice(np.arange(1, n), size=n, p=w)
    if deg.sum() % 2 == 1:
        deg[int(rng.integers(n))] += 1
    stubs = np.repeat(np.arange(n), deg)
    rng.shuffle(stubs)
    return Graph.from_edges(n, stubs.reshape(-1, 2))


def clustered_graph(n_cliques: int, clique_size: int, bridge_prob: float, seed: int) -> Graph:
    """Chain of cliques with sparse random bridges: connected, triangle-rich.

    A stand-in for social-network structure in demos and trend tests, where
    uniform random graphs are too triangle-poor to show the overlap trade-off.
    The bridges are one :func:`sample` of the uniform ``bridge_prob`` matrix.
    """
    if n_cliques < 1 or clique_size < 2:
        raise ValueError("need n_cliques >= 1 and clique_size >= 2")
    if not 0.0 < bridge_prob <= 1.0:
        raise ValueError(f"bridge_prob must be in (0, 1], got {bridge_prob}")
    n = n_cliques * clique_size
    _check_dense_cap(n)
    first = np.arange(0, n, clique_size, dtype=np.int64)[:, None]
    iu, ju = np.triu_indices(clique_size, 1)
    keys = np.concatenate([
        ((first + iu) * n + first + ju).ravel(),  # clique edges
        (first[:-1] * n + first[1:]).ravel(),  # chain edges keep the graph connected
        sample(er_construction(n, bridge_prob), seed).edge_keys(),
    ])
    return Graph.from_pairs(n, *np.divmod(np.unique(keys), n))
