"""Evaluation statistics for reference-vs-generated graph comparisons.

Eight statistics are reported per graph: node-aligned Pearson correlation
of degree and triangle sequences against a reference, maximum degree,
power-law exponent of the degree distribution, degree assortativity, total
triangle count, global clustering coefficient, and characteristic path
length.  Statistics that are undefined on a given graph (zero variance,
no wedges, too few tail points) are reported as NaN markers, never as 0.

The graph kernels are exact integer algebra on bit-packed rows of the CSR
adjacency: triangles from popcounts of ``bits[u] & bits[v]`` over the edges,
and path lengths from a BFS over degree-sorted rows that ORs neighbour bits
slot by slot and finds a disconnected graph from its count of reached pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .graphs import Graph, _neighbor_bits, degrees, largest_connected_component
from .probmatrix import _check_dense_cap


class DisconnectedGraphError(ValueError):
    def __init__(self, message="graph is disconnected; apply largest_connected_component first"):
        super().__init__(message)


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


STAT_COLUMNS = tuple(f.name for f in fields(StatsRecord))


# words of neighbor bits gathered per operand of one block of edges
_EDGE_BLOCK_WORDS = 1 << 16  # 2**14, 2**18 and 2**21 measured slower


def triangle_counts(g: Graph) -> tuple[np.ndarray, int]:
    """Per-node triangle participation counts and the total triangle count.

    Each node's neighbor set is a row of ``ceil(n / 64)`` uint64 words
    (n²/8 bytes, 12.5 MB at the dense cap, above which n is refused with
    ``CapacityError``).  The popcount of ``bits[u] & bits[v]`` counts the
    triangles on edge (u, v); a triangle lies on two edges at each corner.
    The m·n/64 word ANDs are far fewer than the Σd² products of a sparse
    ``A @ A`` on dense samples, more on large sparse graphs.
    """
    _check_dense_cap(g.n)
    bits = _neighbor_bits(g)
    e = g.edge_array()
    common = np.empty(g.m, dtype=np.int64)
    step = max(1, _EDGE_BLOCK_WORDS // bits.shape[1])
    for lo in range(0, g.m, step):
        u, v = e[lo:lo + step].T
        both = np.take(bits, u, axis=0)
        both &= np.take(bits, v, axis=0)
        common[lo:lo + step] = np.bitwise_count(both).sum(axis=1)
    t = np.bincount(e.ravel(), np.repeat(common, 2), g.n)  # exact: sums below 2**53
    t = t.astype(np.int64) // 2
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
    d = degrees(g)
    return _pearson(d[g._rows()], d[g.indices])  # CSR holds both orientations


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; NaN for fewer than 2 entries or zero variance."""
    if len(x) < 2:  # np.cov would warn through the warnings module
        return float("nan")
    with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 is the NaN marker
        return float(np.corrcoef(x, y)[0, 1])


@dataclass(frozen=True)
class PowerLawFit:
    """Discrete power-law tail fit: exponent, cutoff, and its KS distance."""

    alpha: float
    x_min: int
    ks_distance: float
    n_tail: int


# Fewest tail points a power-law cutoff candidate may keep.
_MIN_TAIL = 10


def fit_power_law(d: np.ndarray) -> PowerLawFit | None:
    """Maximum-likelihood power-law exponent with KS-selected cutoff.

    The exponent uses the continuous approximation of the discrete MLE,
    alpha = 1 + N / sum(log(d_i / (x_min - 0.5))), evaluated at every
    candidate x_min among the distinct positive degree values.  Each
    candidate is scored by the Kolmogorov-Smirnov distance between the
    empirical tail CDF and the fitted discrete power-law CDF (Hurwitz
    zeta normalization, which stays faithful at small x_min); the
    smallest distance wins.  Candidates need at least 10 tail
    points and two distinct tail values; returns None when no candidate
    qualifies (e.g. all degrees equal).
    """
    import scipy.special
    vals = np.asarray(d, dtype=np.float64)
    vals = np.sort(vals[vals > 0])
    best: PowerLawFit | None = None
    distinct, first = np.unique(vals, return_index=True)
    for c, x_min in enumerate(distinct):
        tail = vals[first[c]:]  # vals is sorted, so each tail is a suffix
        n_tail = tail.size
        if n_tail < _MIN_TAIL or tail[-1] == tail[0]:
            continue
        alpha = 1.0 + n_tail / float(np.log(tail / (x_min - 0.5)).sum())
        if not math.isfinite(alpha) or alpha <= 1.0:
            continue
        xs = distinct[c:]
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


# rows each neighbour slot must cover; one reduceat ORs the heavier rows' other neighbours
_SLOT_ROWS = 64

# bytes of one block's frontier bit matrix, n rows of its words
_FRONTIER_BYTES = 1 << 17


def char_path_length(g: Graph) -> float:
    """Mean shortest-path length over all unordered node pairs.

    Exact all-sources BFS on a bit matrix per block of sources: one row of
    uint64 words per node, one bit per source.  Rows are relabelled by
    degree, highest first, so slot c, the c-th neighbour of every row of
    degree above c, covers a prefix of rows; each level ORs the frontier
    rows of each slot into its prefix.  Slots stop at the ``_SLOT_ROWS``-th
    largest degree, and one ``reduceat`` ORs the other neighbours of the
    fewer heavier rows, so a hub costs no slot per neighbour and a gather
    holds at most ``_SLOT_ROWS`` frontiers.  A block is ``_FRONTIER_BYTES
    // 8n`` words wide (at least one): 2**17 bytes keep its four n-row
    matrices in L2, as fast as 2**18 on bench graphs and faster at n=4004;
    2**18 won only on dense graphs such as ``sample_uniform(3000, 0.1)``.
    Each source must reach n - 1 nodes, so an isolated node or a short
    count of reached pairs raises :class:`DisconnectedGraphError`: take the
    largest connected component first.  Returns NaN for the single-node
    graph.  Distances are summed as integers.
    """
    if g.n == 1:
        return float("nan")
    d = degrees(g)
    order = np.argsort(-d, kind="stable")
    d = d[order]
    if not d[-1]:
        raise DisconnectedGraphError()
    rank = np.argsort(order)  # the inverse permutation
    nbr, first = rank[g.indices], g.indptr[:-1][order]
    n_slots = int(d[_SLOT_ROWS - 1]) if g.n >= _SLOT_ROWS else 1
    rows = np.searchsorted(-d, -np.arange(n_slots + 1), side="left")  # rows of degree > c
    slots = [nbr[first[:rows[c]] + c] for c in range(n_slots)]
    heavy = d[:rows[-1]] - n_slots  # neighbours beyond the slots, all > 0
    seg = np.cumsum(heavy) - heavy
    rest = nbr[np.repeat(first[:rows[-1]] + n_slots - seg, heavy) + np.arange(heavy.sum())]
    words = max(1, min(-(-g.n // 64), _FRONTIER_BYTES // (8 * g.n)))
    total = 0
    for start in range(0, g.n, 64 * words):
        k = np.arange(min(64 * words, g.n - start))
        frontier = np.zeros((g.n, -(-k.size // 64)), dtype=np.uint64)  # as wide as its sources
        frontier.view(np.uint8)[rank[start + k], k // 8] = 1 << (k % 8)  # source k's bit
        unseen, reached, part = ~frontier, np.empty_like(frontier), np.empty_like(frontier)
        level = found = 0
        while True:
            level += 1
            # every index is in range; "clip" lets take write to out unbuffered
            np.take(frontier, slots[0], axis=0, out=reached, mode="clip")
            for slot in slots[1:]:
                reached[:len(slot)] |= np.take(frontier, slot, 0, part[:len(slot)], "clip")
            reached[:len(heavy)] |= np.bitwise_or.reduceat(np.take(frontier, rest, 0), seg, axis=0)
            reached &= unseen
            count = int(np.bitwise_count(reached).sum(dtype=np.int64))
            if not count:
                break
            unseen ^= reached
            found += count
            total += level * count
            frontier, reached = reached, frontier
        if found != k.size * (g.n - 1):
            raise DisconnectedGraphError()
    return total / 2.0 / (g.n * (g.n - 1) / 2.0)


def compare(reference: Graph, generated: Graph, reference_counts=None) -> StatsRecord:
    """Statistics of a generated graph, node-aligned against its reference.

    Both graphs live on the reference's node set, so the degree and
    triangle Pearson correlations pair position i with position i.  The
    characteristic path length of the generated graph is computed on its
    largest connected component (samples are rarely connected); all other
    scalars are computed on the generated graph as-is.  A caller scoring
    many samples passes ``(degrees(reference), triangle_counts(reference)[0])``
    as ``reference_counts`` instead of having them recounted.
    """
    if reference.n != generated.n:
        raise ValueError(
            f"node count mismatch: reference {reference.n}, generated {generated.n}"
        )
    d_ref, t_ref = reference_counts or (degrees(reference), triangle_counts(reference)[0])
    d_gen = degrees(generated)
    t_gen, total_gen = triangle_counts(generated)  # counted once, reused below

    lcc, _ = largest_connected_component(generated)

    return StatsRecord(
        degree_pearson=_pearson(d_ref, d_gen),
        max_degree=int(d_gen.max()),
        powerlaw_alpha=powerlaw_alpha(d_gen),
        assortativity=assortativity(generated),
        triangle_pearson=_pearson(t_ref, t_gen),
        triangle_count=int(total_gen),
        clustering_coeff=_clustering(d_gen, total_gen),
        char_path_length=char_path_length(lcc),
    )
