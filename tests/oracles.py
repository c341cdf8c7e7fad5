"""Slow, loop-based reference implementations of the graph and statistics
kernels, union-find component labels, Pearson correlation from centred
sums, the power-law tail fit with a fresh tail mask per cutoff, the dense
odds-product P and node-level fit, ccop as a blend of the fitted P, the
exact and matrix-power trace k-cycle counts, the text-format reader, the
edge-list writer, the clustered graph and the pairwise empirical overlap,
index-array statements of the sampler, the text writer, the random
probability matrix and the volume shift, and the dense-SVD tsvd model.

``eigm`` computes these quantities with vectorized kernels on whole index
arrays: it labels components by hook and shortcut, fits the odds-product
model on degree classes, lists each k-cycle once, parses the text format
with ``np.loadtxt``, walks the upper triangle through boolean masks, keys
each node pair u < v as u * n + v to sort, count and write pairs, and
builds tsvd from the top-k symmetric eigenpairs.  The functions here state
the definitions directly, one node, edge, tuple, line or explicit (i, j)
pair at a time, and serve as oracles for the property tests in
``test_oracles.py``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
from scipy.special import expit, zeta

from eigm import oddsproduct
from eigm.graphs import Graph, degrees
from eigm.oddsproduct import (
    EXCLUDED_LOGIT,
    MAX_ITER,
    FitConvergenceError,
    FitReport,
    _solve_step,
)
from eigm.probmatrix import ProbMatrix, ZeroVolumeError, _check_dense_cap, to_dense, volume
from eigm.rng import make_rng
from eigm.stats import _MIN_TAIL, PowerLawFit


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


def component_labels(g: Graph) -> tuple[int, np.ndarray]:
    """Union-find over the edges that keeps each set's smallest member as
    its root; components are numbered in increasing order of their roots."""
    parent = list(range(g.n))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u in range(g.n):
        for v in g.neighbors(u).tolist():
            ru, rv = find(u), find(v)
            parent[max(ru, rv)] = min(ru, rv)
    roots = [find(u) for u in range(g.n)]
    number = {r: i for i, r in enumerate(sorted(set(roots)))}
    return len(number), np.array([number[r] for r in roots], dtype=np.int64)


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
    """Collect distinct pairs in a set, then fill the CSR arrays by hand.
    Ids are checked before n, so at n <= 0 any edge is out of range."""
    pairs = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            continue
        pairs.add((min(u, v), max(u, v)))
    if n <= 0:
        raise ValueError("graph must have at least one node")
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


def serialize_edge_list(g: Graph) -> str:
    """Collect the edges and a self-loop (i, i) for each isolated node as
    tuples, sort them, and write the header and one "u v" line per tuple."""
    pairs = [(int(u), int(v)) for u, v in g.edge_array()]
    deg = degrees(g)
    pairs += [(i, i) for i in range(g.n) if deg[i] == 0]
    lines = [f"# n={g.n} m={g.m}"]
    lines += [f"{u} {v}" for u, v in sorted(pairs)]
    return "\n".join(lines) + "\n"


def validate(g: Graph) -> None:
    """Row-by-row structural checks; raises AssertionError on breakage."""
    assert g.n > 0
    assert g.indptr.shape == (g.n + 1,)
    assert g.indptr[0] == 0 and g.indptr[-1] == len(g.indices)
    assert all(g.indptr[i] <= g.indptr[i + 1] for i in range(g.n)), "indptr decreases"
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


def pearson(x, y) -> float:
    """Centred cross sum over the root of the centred square sums; NaN for
    fewer than 2 entries or a constant side."""
    if len(x) < 2:
        return float("nan")
    xd = np.asarray(x, dtype=np.float64) - np.mean(x)
    yd = np.asarray(y, dtype=np.float64) - np.mean(y)
    vx, vy = float((xd * xd).sum()), float((yd * yd).sum())
    if vx == 0.0 or vy == 0.0:
        return float("nan")
    return float((xd * yd).sum() / np.sqrt(vx * vy))


def assortativity(g: Graph) -> float:
    """Pearson correlation of the endpoint degrees of each edge, taken in
    both orientations; NaN below 2 edges."""
    if g.m < 2:
        return float("nan")
    d = degrees(g)
    e = edge_array(g)
    return pearson(
        np.concatenate([d[e[:, 0]], d[e[:, 1]]]), np.concatenate([d[e[:, 1]], d[e[:, 0]]])
    )


def fit_power_law(d: np.ndarray) -> PowerLawFit | None:
    """Each distinct positive degree as x_min in turn: mask its tail, take
    the tail's distinct values afresh, and keep the smallest KS distance.
    Same contract as :func:`eigm.stats.fit_power_law`."""
    vals = np.asarray(d, dtype=np.float64)
    vals = np.sort(vals[vals > 0])
    best: PowerLawFit | None = None
    for x_min in np.unique(vals):
        tail = vals[vals >= x_min]
        n_tail = tail.size
        if n_tail < _MIN_TAIL or tail[-1] == tail[0]:
            continue
        alpha = 1.0 + n_tail / float(np.log(tail / (x_min - 0.5)).sum())
        if not math.isfinite(alpha) or alpha <= 1.0:
            continue
        xs = np.unique(tail)
        emp_cdf = np.searchsorted(tail, xs, side="right") / n_tail
        model_cdf = 1.0 - zeta(alpha, xs + 1.0) / zeta(alpha, x_min)
        ks = float(np.abs(emp_cdf - model_cdf).max())
        if not math.isfinite(ks):
            continue
        if best is None or ks < best.ks_distance:
            best = PowerLawFit(
                alpha=float(alpha), x_min=int(x_min), ks_distance=ks, n_tail=n_tail
            )
    return best


def prob_from_logits(logits: np.ndarray) -> np.ndarray:
    """sigmoid(ell_i + ell_j) computed for every pair, zero diagonal."""
    p = expit(np.add.outer(logits, logits))
    np.fill_diagonal(p, 0.0)
    return p


def fit_odds_product(d: np.ndarray) -> tuple[np.ndarray, ProbMatrix, FitReport]:
    """Damped Newton on one logit per node: each step solves the dense
    n x n system J = B + diag(B @ 1), B = P * (1 - P) with zero diagonal.
    Same contract as :func:`eigm.oddsproduct.fit_odds_product`."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("degree sequence must be a nonempty vector")
    n = d.size
    if np.any(d < 0) or np.any(d > n - 1):
        raise ValueError("degrees must lie in [0, n-1]")

    active = np.flatnonzero(d > 0)
    logits = np.full(n, EXCLUDED_LOGIT, dtype=np.float64)

    if active.size == 0:
        report = FitReport(0, [0.0], True, 0.0)
        return logits, ProbMatrix.from_array(np.zeros((n, n))), report

    da = d[active]
    na = active.size
    ell = np.zeros(na)
    p = prob_from_logits(ell)
    r = p.sum(axis=1) - da
    res = float(np.linalg.norm(r))
    history = [res]
    eps = oddsproduct.EPS
    target = min(eps, 10.0 * eps / np.sqrt(n))
    ridge_used = False
    iterations = 0
    stalled = False

    while res > target and iterations < MAX_ITER:
        b = p * (1.0 - p)
        np.fill_diagonal(b, 0.0)
        jac = b + np.diag(b.sum(axis=1))
        step, ridged = _solve_step(jac, r)
        ridge_used = ridge_used or ridged
        eta = 1.0
        improved = False
        for _ in range(31):
            ell_try = ell - eta * step
            p_try = prob_from_logits(ell_try)
            r_try = p_try.sum(axis=1) - da
            res_try = float(np.linalg.norm(r_try))
            if res_try < res:
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
    full = prob_from_logits(logits)
    report = FitReport(
        iterations=iterations,
        residual_history=history,
        converged=converged,
        final_max_abs_error=float(np.abs(full.sum(axis=1) - d).max()),
        ridge_used=ridge_used,
    )
    if not converged:
        reason = "line search stalled" if stalled else f"MAX_ITER={MAX_ITER} reached"
        raise FitConvergenceError(
            f"degree fit did not converge ({reason}, residual {res:.3e} > {eps:g}); "
            "the target sequence may not be graphical",
            report,
        )
    return logits, ProbMatrix.from_array(full), report


def expected_kcycles_trace(p: ProbMatrix, k: int) -> float:
    """trace(P^k) / 2k with P^k formed by ``matrix_power``."""
    return float(np.trace(np.linalg.matrix_power(p.mat, k)) / (2.0 * k))


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


def sample(p: ProbMatrix, seed: int) -> Graph:
    """The reproducibility contract as written: the upper-triangle pairs
    (i, j), i < j, in row-major order take one uniform draw each from the
    Philox stream of ``seed``; a pair is an edge iff its draw < P[i, j]."""
    iu, ju = np.triu_indices(p.n, 1)
    keep = make_rng(seed).random(len(iu)) < p.mat[iu, ju]
    return Graph.from_pairs(p.n, iu[keep], ju[keep])


def empirical_overlap(p: ProbMatrix, samples: list[Graph]) -> float:
    """Intersect the edge keys of every pair of samples and average the
    shared fractions of the volume over the pairs; NaN below two samples."""
    vol = volume(p)
    if vol <= 0.0:
        raise ZeroVolumeError("empirical overlap undefined: volume is zero")
    if len(samples) < 2:
        return float("nan")
    pairs = list(itertools.combinations([g.edge_keys() for g in samples], 2))
    acc = 0.0
    for k1, k2 in pairs:
        acc += len(np.intersect1d(k1, k2, assume_unique=True)) / vol
    return acc / len(pairs)


def clustered_graph(n_cliques: int, clique_size: int, bridge_prob: float, seed: int) -> Graph:
    """Collect the clique edges, the chain edge from each clique's first node
    to the previous clique's first node, and every upper-triangle pair whose
    draw from the Philox stream of ``seed`` is below ``bridge_prob``, in a set."""
    rng = make_rng(seed)
    n = n_cliques * clique_size
    edges = set()
    for c in range(n_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.add((base + i, base + j))
        if c > 0:
            edges.add(((c - 1) * clique_size, base))
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < bridge_prob
    for u, v in zip(iu[keep], ju[keep]):
        edges.add((int(u), int(v)))
    return Graph.from_edges(n, edges)


def probmatrix_text(p: ProbMatrix) -> str:
    """The text-triplet format: "n=<n>", then "i j p" for each upper-triangle
    pair with p > 0, in row-major order."""
    lines = [f"n={p.n}\n"]
    for i, j in zip(*np.triu_indices(p.n, 1)):
        v = float(p.mat[i, j])
        if v > 0.0:
            lines.append(f"{i} {j} {v:.17g}\n")
    return "".join(lines)


def load_probmatrix(path) -> ProbMatrix:
    """Read the text-triplet format one line at a time: skip blank lines,
    split each other line into "i j p", check it, and write both triangles;
    a repeated pair takes its last line's value."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("n="):
            raise ValueError("missing 'n=<n>' header")
        n = int(header[2:])
        if n <= 0:
            raise ValueError("n must be positive")
        _check_dense_cap(n)
        a = np.zeros((n, n), dtype=np.float64)
        for line_no, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 3:
                raise ValueError(f"line {line_no}: expected 'i j p'")
            i, j, v = int(tokens[0]), int(tokens[1]), float(tokens[2])
            if not 0 <= i < j < n:
                raise ValueError(f"line {line_no}: require 0 <= i < j < n")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"line {line_no}: probability {v} outside [0, 1]")
            a[i, j] = v
            a[j, i] = v
    return ProbMatrix.from_array(a)


def random_probmatrix(n: int, seed: int, scale: float = 1.0) -> ProbMatrix:
    """Upper-triangle pairs in row-major order take one uniform draw each,
    times ``scale``; the lower triangle mirrors them."""
    a = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    a[iu] = make_rng(seed).random(len(iu[0])) * scale
    return ProbMatrix.from_array(a + a.T)


def fit_volume_shift(l: np.ndarray, target_volume: float) -> float:
    """The volume shift over the upper-triangle values taken by index arrays:
    safeguarded Newton on f(s) = sum clip(L + s, 0, 1) - target, stopped
    within 1e-9 * target."""
    l = np.asarray(l, dtype=np.float64)
    vals = l[np.triu_indices(l.shape[0], 1)]
    npairs = vals.size
    if not 0.0 < target_volume <= npairs:
        raise ValueError(
            f"target volume {target_volume} not attainable in (0, {npairs}]"
        )

    def f(s: float) -> float:
        return float(np.clip(vals + s, 0.0, 1.0).sum())

    tol = 1e-9 * target_volume
    s = 0.0
    lo = float(-vals.max())
    hi = float(1.0 - vals.min())
    for _ in range(200):
        err = f(s) - target_volume
        if abs(err) <= tol:
            return s
        if err > 0:
            hi = min(hi, s)
        else:
            lo = max(lo, s)
        shifted = vals + s
        slope = float(np.count_nonzero((shifted > 0.0) & (shifted < 1.0)))
        if slope > 0 and lo < s - err / slope < hi:
            s = s - err / slope
        else:
            s = 0.5 * (lo + hi)
    raise RuntimeError("volume shift search did not converge in 200 iterations")


def tsvd_model(a: Graph, k: int) -> ProbMatrix:
    """The rank-k truncation from a full dense SVD: keep the k largest
    singular triplets, symmetrize, zero the diagonal, shift to volume m and
    clip to [0, 1]."""
    n = a.n
    if not 1 <= k <= n:
        raise ValueError(f"rank must be in [1, n], got {k}")
    if a.m == 0:
        raise ValueError("tsvd model undefined for an empty graph")
    adj = to_dense(a).mat
    u, s, vt = np.linalg.svd(adj)
    low = (u[:, :k] * s[:k]) @ vt[:k]
    low = 0.5 * (low + low.T)
    np.fill_diagonal(low, 0.0)
    shift = fit_volume_shift(low, float(a.m))
    p = np.clip(low + shift, 0.0, 1.0)
    np.fill_diagonal(p, 0.0)
    return ProbMatrix.from_array(p)


def linear_model(a: Graph, omega: float) -> ProbMatrix:
    """The linear model from the dense adjacency: omega * A, plus
    (1 - omega) * q with q = 2m / (n(n-1)) on every off-diagonal pair."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    n = a.n
    if n < 2:
        raise ValueError("linear model needs at least 2 nodes")
    q = 2.0 * a.m / (n * (n - 1.0))
    p = omega * to_dense(a).mat
    p += (1.0 - omega) * q
    np.fill_diagonal(p, 0.0)
    return ProbMatrix.from_array(p)


def convex_combine(p: ProbMatrix, a: Graph, omega: float) -> ProbMatrix:
    """(1 - omega) * P + omega * A, entrywise over the dense adjacency A."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    if p.n != a.n:
        raise ValueError("dimension mismatch")
    return ProbMatrix.from_array((1.0 - omega) * p.mat + omega * to_dense(a).mat)


def ccop(a: Graph, omega: float) -> ProbMatrix:
    """:func:`convex_combine` of the P that eigm's degree-class fit returns."""
    _, p, _ = oddsproduct.fit_odds_product(degrees(a))
    return convex_combine(p, a, omega)


def hdop(a: Graph, h: int) -> ProbMatrix:
    """hdop on a dense copy of the adjacency: copy A, then overwrite the
    block of the unpinned nodes with the odds-product fit to the row sums
    of that block of A."""
    n = a.n
    if not 0 <= h <= n:
        raise ValueError(f"h must be in [0, n], got {h}")
    deg = degrees(a)
    order = np.lexsort((np.arange(n), -deg))
    pinned = np.zeros(n, dtype=bool)
    pinned[order[:h]] = True
    free = np.flatnonzero(~pinned)

    adj = to_dense(a).mat
    out = np.array(adj)
    if free.size > 0:
        sub = adj[np.ix_(free, free)]
        residual_deg = sub.sum(axis=1).astype(np.int64)
        # the degree-class fit of eigm, not this module's node-level oracle
        _, p_sub, _ = oddsproduct.fit_odds_product(residual_deg)
        out[np.ix_(free, free)] = p_sub.mat
    return ProbMatrix.from_array(out)
