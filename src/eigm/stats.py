"""Evaluation statistics for reference-vs-generated graph comparisons.

Eight statistics are reported per graph: node-aligned Pearson correlation
of degree and triangle sequences against a reference, maximum degree,
power-law exponent of the degree distribution, degree assortativity, total
triangle count, global clustering coefficient, and characteristic path
length.  Statistics that are undefined on a given graph (zero variance,
no wedges, too few tail points) are reported as NaN markers, never as 0.

The graph kernels are exact integer ``scipy.sparse`` algebra on the CSR
adjacency: triangles from row blocks of ``(A @ A) * A``, path lengths from
a BFS whose levels are boolean products of a bit-packed frontier block
with the adjacency, and connectivity from ``scipy.sparse.csgraph``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.special

from .graphs import Graph, degrees, largest_connected_component

__all__ = [
    "StatsRecord",
    "DisconnectedGraphError",
    "STAT_COLUMNS",
    "triangle_counts",
    "global_clustering",
    "assortativity",
    "PowerLawFit",
    "fit_power_law",
    "powerlaw_alpha",
    "char_path_length",
    "compare",
]

STAT_COLUMNS = (
    "degree_pearson",
    "max_degree",
    "powerlaw_alpha",
    "assortativity",
    "triangle_pearson",
    "triangle_count",
    "clustering_coeff",
    "char_path_length",
)


class DisconnectedGraphError(ValueError):
    pass


@dataclass(frozen=True)
class StatsRecord:
    """One row of statistics for a generated graph against its reference."""

    degree_pearson: float
    max_degree: int
    powerlaw_alpha: float
    assortativity: float
    triangle_pearson: float
    triangle_count: int
    clustering_coeff: float
    char_path_length: float

    def __post_init__(self):
        for name in ("degree_pearson", "triangle_pearson", "assortativity"):
            v = getattr(self, name)
            if not math.isnan(v):
                assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12, f"{name}={v}"
        if not math.isnan(self.clustering_coeff):
            assert -1e-12 <= self.clustering_coeff <= 1.0 + 1e-12
        assert self.triangle_count >= 0

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, c) for c in STAT_COLUMNS)

    def to_csv_row(self) -> str:
        return ",".join(
            str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))
            for v in self.as_tuple()
        )


# cap on the entries held by one row block of a sparse product (A @ A, or
# the gathered BFS frontier words): about 16-24 MiB
_BLOCK_ENTRIES = 1 << 21


def _row_blocks(weights: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive row ranges covering all rows, each of total ``weights``
    at most about ``_BLOCK_ENTRIES`` (a single heavy row forms its own)."""
    cum = np.concatenate([[0], np.cumsum(weights)])
    cuts = np.searchsorted(cum, np.arange(0, cum[-1], _BLOCK_ENTRIES))
    bounds = np.unique(np.concatenate([[0], cuts, [len(weights)]]))
    return list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def triangle_counts(g: Graph) -> tuple[np.ndarray, int]:
    """Per-node triangle participation counts and the total triangle count.

    Exact integer sparse algebra: ``((A @ A) * A)[i, j]`` counts the common
    neighbors of each adjacent pair, so row i sums to twice the triangles
    at i, and every triangle is charged to its three corners.  The product
    is formed by row blocks, so dense graphs never hold all of ``A @ A``.
    """
    a = g.to_csr()
    t = np.zeros(g.n, dtype=np.int64)
    for lo, hi in _row_blocks(a @ degrees(g)):  # row i of A @ A: <= (A d)_i entries
        paths = (a[lo:hi] @ a).multiply(a[lo:hi]).sum(axis=1)
        t[lo:hi] = np.asarray(paths).ravel() // 2
    return t, int(t.sum() // 3)


def _clustering(d: np.ndarray, triangles: int) -> float:
    """Global clustering from the degree vector and the triangle total."""
    d = d.astype(np.float64)
    wedges = float((d * (d - 1.0)).sum() / 2.0)
    if wedges == 0.0:
        return float("nan")
    return 3.0 * triangles / wedges


def global_clustering(g: Graph) -> float:
    """Fraction of wedges closed into triangles; NaN when there is no wedge.

    A wedge is an unordered pair of edges sharing a node; each triangle
    closes three of them, so the value is 3 * triangles / total wedges and
    equals 1 exactly when every wedge closes (complete graphs).
    """
    return _clustering(degrees(g), triangle_counts(g)[1])


def assortativity(g: Graph) -> float:
    """Pearson correlation of endpoint degrees over directed edges.

    Each undirected edge contributes both orientations.  NaN when there
    are fewer than 2 edges or the endpoint degrees have zero variance
    (e.g. regular graphs).
    """
    if g.m < 2:
        return float("nan")
    d = degrees(g).astype(np.float64)
    e = g.edge_array()
    x = np.concatenate([d[e[:, 0]], d[e[:, 1]]])
    y = np.concatenate([d[e[:, 1]], d[e[:, 0]]])
    return _pearson(x, y)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xd = x - x.mean()
    yd = y - y.mean()
    vx = float((xd * xd).sum())
    vy = float((yd * yd).sum())
    if vx == 0.0 or vy == 0.0:
        return float("nan")
    return float((xd * yd).sum() / math.sqrt(vx * vy))


@dataclass(frozen=True)
class PowerLawFit:
    """Discrete power-law tail fit: exponent, cutoff, and its KS distance."""

    alpha: float
    x_min: int
    ks_distance: float
    n_tail: int


def fit_power_law(d: np.ndarray, min_tail: int = 10) -> PowerLawFit | None:
    """Maximum-likelihood power-law exponent with KS-selected cutoff.

    The exponent uses the continuous approximation of the discrete MLE,
    alpha = 1 + N / sum(log(d_i / (x_min - 0.5))), evaluated at every
    candidate x_min among the distinct positive degree values.  Each
    candidate is scored by the Kolmogorov-Smirnov distance between the
    empirical tail CDF and the fitted discrete power-law CDF (Hurwitz
    zeta normalization, which stays faithful at small x_min); the
    smallest distance wins.  Candidates need at least ``min_tail`` tail
    points and two distinct tail values; returns None when no candidate
    qualifies (e.g. all degrees equal).
    """
    vals = np.asarray(d, dtype=np.float64)
    vals = vals[vals > 0]
    if vals.size < min_tail:
        return None
    vals = np.sort(vals)
    best: PowerLawFit | None = None
    for x_min in np.unique(vals):
        tail = vals[vals >= x_min]
        n_tail = tail.size
        if n_tail < min_tail or tail[-1] == tail[0]:
            continue
        alpha = 1.0 + n_tail / float(np.log(tail / (x_min - 0.5)).sum())
        if not math.isfinite(alpha) or alpha <= 1.0:
            continue
        xs = np.unique(tail)
        emp_cdf = np.searchsorted(tail, xs, side="right") / n_tail
        model_cdf = 1.0 - scipy.special.zeta(alpha, xs + 1.0) / scipy.special.zeta(
            alpha, x_min
        )
        ks = float(np.abs(emp_cdf - model_cdf).max())
        if not math.isfinite(ks):  # zeta underflow at extreme exponents
            continue
        if best is None or ks < best.ks_distance:
            best = PowerLawFit(
                alpha=float(alpha), x_min=int(x_min), ks_distance=ks, n_tail=n_tail
            )
    return best


def powerlaw_alpha(d: np.ndarray) -> float:
    """Exponent of the best power-law tail fit; NaN if no fit qualifies."""
    fit = fit_power_law(d)
    return fit.alpha if fit is not None else float("nan")


# set-bit count of every 16-bit value, for counting reached (source, node) pairs
_BITS8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)
_POPCOUNT16 = (_BITS8[:, None] + _BITS8[None, :]).ravel().astype(np.uint8)


def char_path_length(g: Graph, chunk: int = 512) -> float:
    """Mean shortest-path length over all unordered node pairs.

    Exact all-sources BFS, run for a block of ``chunk`` sources (rounded up
    to a multiple of 64) at a time.  The block's frontier is a bit matrix,
    one row of uint64 words per node and one bit per source; each BFS level
    is its boolean product with the CSR adjacency, an OR over every row's
    neighbors.  Distances are summed as integers.  Raises on disconnected
    input: take the largest connected component first.  Returns NaN for
    the single-node graph, which has no pairs.
    """
    if g.n == 1:
        return float("nan")
    if scipy.sparse.csgraph.connected_components(
        g.to_csr(np.int8), directed=False, return_labels=False
    ) != 1:
        raise DisconnectedGraphError(
            "graph is disconnected; apply largest_connected_component first"
        )
    words = -(-min(chunk, g.n) // 64)
    blocks = _row_blocks(words * degrees(g))  # words gathered per row
    total = 0
    for start in range(0, g.n, 64 * words):
        k = np.arange(min(64 * words, g.n - start))
        seen = np.zeros((g.n, words), dtype=np.uint64)
        seen.view(np.uint8)[start + k, k // 8] = 1 << (k % 8)  # source k's bit
        frontier = seen
        level = 0
        while True:
            level += 1
            reached = np.empty_like(frontier)
            for lo, hi in blocks:  # every node has a neighbor (connected, n > 1)
                first, last = g.indptr[lo], g.indptr[hi]
                neighbor_bits = np.take(frontier, g.indices[first:last], axis=0)
                reached[lo:hi] = np.bitwise_or.reduceat(
                    neighbor_bits, g.indptr[lo:hi] - first, axis=0
                )
            reached &= ~seen
            count = int(_POPCOUNT16[reached.view(np.uint16)].sum(dtype=np.int64))
            if not count:
                break
            seen |= reached
            total += level * count
            frontier = reached
    pairs = g.n * (g.n - 1) / 2.0
    return total / 2.0 / pairs


def compare(reference: Graph, generated: Graph) -> StatsRecord:
    """Statistics of a generated graph, node-aligned against its reference.

    Both graphs live on the reference's node set, so the degree and
    triangle Pearson correlations pair position i with position i.  The
    characteristic path length of the generated graph is computed on its
    largest connected component (samples are rarely connected); all other
    scalars are computed on the generated graph as-is.
    """
    if reference.n != generated.n:
        raise ValueError(
            f"node count mismatch: reference {reference.n}, generated {generated.n}"
        )
    d_ref = degrees(reference)
    d_gen = degrees(generated)
    t_ref, _ = triangle_counts(reference)
    t_gen, total_gen = triangle_counts(generated)  # counted once, reused below

    if generated.m > 0:
        lcc, _ = largest_connected_component(generated)
        cpl = char_path_length(lcc)
    else:
        cpl = float("nan")

    return StatsRecord(
        degree_pearson=_pearson(d_ref, d_gen),
        max_degree=int(d_gen.max()) if generated.n else 0,
        powerlaw_alpha=powerlaw_alpha(d_gen),
        assortativity=assortativity(generated),
        triangle_pearson=_pearson(t_ref, t_gen),
        triangle_count=int(total_gen),
        clustering_coeff=_clustering(d_gen, total_gen),
        char_path_length=cpl,
    )
