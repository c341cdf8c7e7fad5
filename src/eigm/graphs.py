"""Simple undirected graphs: ingestion, preprocessing, serialization.

Graphs are stored in CSR form (``indptr``/``indices``) with neighbor lists
sorted per row.  Every :class:`Graph` comes from :meth:`Graph.from_pairs`,
which refuses n < 1, a pair outside 0 <= u < v < n and a repeated pair, so
every graph has the same invariants: symmetric adjacency, no self-loops, no
duplicate neighbors, and ``2 * m`` equal to the degree sum.
:meth:`Graph.validate` checks that a graph is ``from_pairs`` of its own pairs.

Every kernel here is vectorized: construction, validation, edge listing
and connected components (a numpy hook-and-shortcut kernel) work on whole
index arrays, and only :meth:`Graph.to_csr` imports scipy, at first call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EdgeListParseError(ValueError):
    """Malformed edge-list input; ``line_no`` is 1-based."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph with 0-based dense node ids."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    m: int

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from an iterable of (u, v) pairs.

        Duplicates and orientation are collapsed, self-loops dropped.
        """
        e = np.array(list(edges), dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        bad = np.flatnonzero(((e < 0) | (e >= n)).any(axis=1))
        if bad.size:
            u, v = e[bad[0]]
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        e = e[e[:, 0] != e[:, 1]]
        keys = np.unique(e.min(axis=1) * np.int64(n) + e.max(axis=1))
        return cls.from_pairs(n, *np.divmod(keys, n))

    @classmethod
    def from_adjacency(cls, a: np.ndarray) -> "Graph":
        """Build from a dense 0/1 adjacency matrix (symmetrized, loop-free)."""
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        return cls.from_edges(a.shape[0], np.argwhere(a != 0))

    @classmethod
    def from_pairs(cls, n: int, us: np.ndarray, vs: np.ndarray) -> "Graph":
        """Vectorized constructor from distinct upper-triangle pairs (u < v)."""
        if n <= 0:
            raise ValueError("graph must have at least one node")
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.size and not (
            np.all(us < vs) and np.all(us >= 0) and np.all(vs < n)
        ):
            raise ValueError("pairs must satisfy 0 <= u < v < n")
        # the sorted keys row * n + neighbor of both orientations are the
        # CSR order; a repeated pair sorts into two equal adjacent keys
        keys = np.sort(np.concatenate([us * np.int64(n) + vs, vs * np.int64(n) + us]))
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate pairs")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        indices = keys % n
        indptr.flags.writeable = indices.flags.writeable = False
        return cls(n=n, indptr=indptr, indices=indices, m=len(us))

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def edge_array(self) -> np.ndarray:
        """(m, 2) array of edges with u < v, sorted lexicographically."""
        rows = self._rows()
        upper = rows < self.indices
        return np.column_stack([rows[upper], self.indices[upper]])

    def edge_keys(self) -> np.ndarray:
        """Sorted distinct keys ``u * n + v`` of the edges (u < v)."""
        e = self.edge_array()
        return e[:, 0] * np.int64(self.n) + e[:, 1]

    def to_csr(self) -> "scipy.sparse.csr_matrix":
        """Adjacency as a float64 ``scipy.sparse`` CSR matrix with unit entries."""
        import scipy.sparse
        return scipy.sparse.csr_matrix(
            (np.ones(len(self.indices)), self.indices, self.indptr), shape=(self.n, self.n)
        )

    def _rows(self) -> np.ndarray:
        """Row id of every entry of ``indices``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def validate(self) -> None:
        """Assert the arrays are those :meth:`from_pairs` builds from its own pairs u < v."""
        assert self.n >= 0 and self.indptr.shape == (self.n + 1,)
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.indices)
        assert np.all(np.diff(self.indptr) >= 0), "indptr decreases"
        try:
            rebuilt = Graph.from_pairs(self.n, *self.edge_array().T)
        except ValueError as exc:
            raise AssertionError(str(exc)) from None
        assert self == rebuilt, "arrays differ from those of the graph's pairs"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_edge_list(text: str) -> tuple[Graph, tuple[int, ...]]:
    """Parse a line-oriented edge list into a graph plus its id map.

    Each non-comment line holds two whitespace-separated nonnegative
    integer node ids, optionally followed by a weight column which is
    ignored (edges are binarized).  Lines starting with '#' or '%' and
    blank lines are skipped.  Edges are deduplicated and symmetrized,
    self-loops dropped; every id mentioned in the file becomes a node.
    Dense indices are assigned in increasing order of original id; the
    returned id map holds the original id of each dense index.
    """
    seen_ids: set[int] = set()
    raw_edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise EdgeListParseError(
                line_no, f"expected 2 or 3 columns, got {len(tokens)}"
            )
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(
                line_no, f"non-integer node id in {tokens[:2]}"
            ) from None
        if u < 0 or v < 0:
            raise EdgeListParseError(line_no, f"negative node id in ({u}, {v})")
        seen_ids.add(u)
        seen_ids.add(v)
        raw_edges.append((u, v))
    if not seen_ids:
        raise EdgeListParseError(None, "edge list is empty (no nodes)")
    id_map = tuple(sorted(seen_ids))
    index_of = {orig: i for i, orig in enumerate(id_map)}
    edges = ((index_of[u], index_of[v]) for u, v in raw_edges)
    return Graph.from_edges(len(id_map), edges), id_map


def load_edge_list(path) -> tuple[Graph, tuple[int, ...]]:
    """Read and parse an edge-list file; see :func:`parse_edge_list`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def serialize_edge_list(g: Graph) -> str:
    """Render ``g`` as "u v" lines sorted by (u, v), with a size header.

    Isolated nodes are written as self-loop lines "i i": the parser
    registers the id but drops the loop, so round-tripping reproduces the
    full node set of any graph.
    """
    loops = np.flatnonzero(degrees(g) == 0) * (g.n + 1)  # key of the line "i i"
    u, v = np.divmod(np.sort(np.concatenate([g.edge_keys(), loops])), g.n)
    lines = [f"# n={g.n} m={g.m}", *map("{} {}".format, u.tolist(), v.tolist())]
    return "\n".join(lines) + "\n"


def degrees(g: Graph) -> np.ndarray:
    """Per-node degree vector; sums to 2m."""
    return np.diff(g.indptr)


def _neighbor_bits(g: Graph) -> np.ndarray:
    """Neighbor sets as rows of ceil(n / 64) uint64 words: j is bit j % 8 of byte j // 8."""
    bits = np.zeros((g.n, -(-g.n // 64)), dtype=np.uint64)
    byte = g._rows() * (8 * bits.shape[1]) + g.indices // 8
    np.bitwise_or.at(bits.view(np.uint8).reshape(-1), byte, (1 << g.indices % 8).astype(np.uint8))
    return bits


def _component_labels(g: Graph) -> tuple[int, np.ndarray]:
    """Component count and per-node labels 0..count-1, numbered by each
    component's smallest member.  Shiloach-Vishkin hook and shortcut
    (FastSV, Zhang, Azad and Hu 2020): hook each node and its parent to the
    smallest grandparent over its closed neighbourhood, then point it at its
    grandparent, until a round leaves every grandparent unchanged."""
    has = np.diff(g.indptr) > 0
    rows, starts = np.flatnonzero(has), g.indptr[:-1][has]
    f, gf = np.arange(g.n), np.arange(g.n)
    while True:
        mn = gf.copy()
        mn[rows] = np.minimum(gf[rows], np.minimum.reduceat(gf[g.indices], starts))
        np.minimum.at(f, f.copy(), mn)  # hook each parent
        np.minimum(f, mn, out=f)  # hook each node
        f = f[f]
        if np.array_equal(f, gf):
            break
        gf = f[f]
    root = f == np.arange(g.n)
    return int(root.sum()), (np.cumsum(root) - 1)[f]


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member."""
    _, labels = _component_labels(g)
    order = np.argsort(labels, kind="stable")
    return [c.tolist() for c in np.split(order, np.cumsum(np.bincount(labels))[:-1])]


def largest_connected_component(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the largest component, nodes reindexed.

    Ties between equal-size components break toward the one containing the
    smallest node id, so the result is deterministic.  The returned tuple
    holds, for each new dense index, the id that node had in ``g``.
    """
    _, labels = _component_labels(g)
    size = np.bincount(labels)[labels]  # size of each node's component
    best = labels[np.argmax(size)]  # first maximum: smallest id, any label order
    keep = labels == best
    nodes = np.flatnonzero(keep)
    new_index = np.cumsum(keep) - 1
    e = g.edge_array()
    e = e[keep[e[:, 0]]]
    lcc = Graph.from_pairs(len(nodes), new_index[e[:, 0]], new_index[e[:, 1]])
    return lcc, tuple(nodes.tolist())
