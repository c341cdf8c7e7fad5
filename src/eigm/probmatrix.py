"""Edge-independent models: symmetric edge-probability matrices.

A :class:`ProbMatrix` holds the matrix P of an edge-independent model: a
graph sampled from it contains each pair (i, j), i < j, independently with
probability ``P[i, j]``.  The diagonal is identically zero (simple graphs,
never self-loops), which also makes the overlap identity
``overlap * volume == ||P||_F^2 / 2`` exact.
"""

from __future__ import annotations

import itertools
import os
import secrets
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import Graph
from .rng import make_rng

# Largest n admitted to dense-matrix constructors.  A 10000 x 10000 float64
# matrix is ~800 MB; everything here is dense-matrix based, so refuse early.
DEFAULT_DENSE_CAP = 10000

_RANGE_SLACK = 1e-9

# Pairs per row block of `_upper_blocks`: 2**15 and 2**16 slowed the power-law
# bench sweep by 9% (page faults), and 2**17 raised its peak RSS by 4.6 MiB.
_SAMPLE_BLOCK = 1 << 18


class CapacityError(ValueError):
    """Graph too large for the dense-matrix code paths."""


def _check_dense_cap(n: int) -> None:
    """Refuse an n above the cap before anything of size n is allocated."""
    if n > DEFAULT_DENSE_CAP:
        raise CapacityError(f"n={n} exceeds dense-matrix cap {DEFAULT_DENSE_CAP}")


def _check_omega(omega: float) -> None:
    """Refuse a blend weight outside [0, 1] (NaN included)."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")


class ZeroVolumeError(ValueError):
    """Operation undefined for a matrix with zero expected edge count."""


@dataclass(frozen=True, eq=False)
class ProbMatrix:
    """Symmetric n x n matrix of edge probabilities with zero diagonal."""

    mat: np.ndarray

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ProbMatrix":
        """Validate and wrap an array.

        Entries must lie in [0, 1] up to 1e-9 slack (they are clipped);
        asymmetry is an error; a nonzero diagonal is zeroed with a warning.

        A writeable float64 array that owns its data is taken over, not
        copied: it is validated and clipped in place and made read-only.
        Pass a copy to keep your array writeable.  Any other input (a list,
        another dtype, a read-only array, a view, a subclass) is copied first.
        """
        a = np.require(arr, np.float64, ["W", "O", "E"])
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("probability matrix must be square")
        if a.shape[0] == 0:
            raise ValueError("probability matrix must be nonempty")
        lo, hi = a.min(), a.max()  # NaN or inf reaches one of the two
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("probability matrix entries must be finite (no NaN or inf)")
        t = 256  # tile by tile, so no transposed n x n temporary is made
        if not all(
            np.array_equal(a[i : i + t, j : j + t], a[j : j + t, i : i + t].T)
            for i in range(0, a.shape[0], t)
            for j in range(i, a.shape[0], t)
        ):
            raise ValueError("probability matrix must be symmetric")
        if lo < -_RANGE_SLACK or hi > 1.0 + _RANGE_SLACK:
            raise ValueError(f"entries outside [0, 1]: min={lo}, max={hi}")
        if lo < 0.0 or hi > 1.0:
            np.clip(a, 0.0, 1.0, out=a)
        if np.any(np.diagonal(a) != 0.0):
            warnings.warn("nonzero diagonal zeroed: self-loops are never sampled")
            np.fill_diagonal(a, 0.0)
        a.flags.writeable = False
        return cls(mat=a)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbMatrix):
            return NotImplemented
        return np.array_equal(self.mat, other.mat)

    def __repr__(self) -> str:
        return f"ProbMatrix(n={self.n}, volume={volume(self):.6g})"


def to_dense(g: Graph) -> ProbMatrix:
    """Binary probability matrix of a graph; a model that memorizes it."""
    _check_dense_cap(g.n)
    a = np.zeros((g.n, g.n))
    a[g._rows(), g.indices] = 1.0
    return ProbMatrix.from_array(a)


def volume(p: ProbMatrix) -> float:
    """Expected edge count: sum of P over unordered pairs."""
    return float(p.mat.sum() / 2.0)


def overlap(p: ProbMatrix) -> float:
    """Expected fraction of edges shared by two independent samples.

    Closed form (zero diagonal): sum of squared pair probabilities, one
    ``einsum`` with no n x n temporary and no thread-dependent BLAS sum,
    over the expected edge count.  Equals 1 exactly for binary matrices.
    """
    vol = volume(p)
    if vol <= 0.0:
        raise ZeroVolumeError("overlap undefined: volume is zero")
    return float(np.einsum("ij,ij->", p.mat, p.mat) / 2.0 / vol)


def _upper_blocks(n: int):
    """Yield (i0, i1, mask) per row block of about ``_SAMPLE_BLOCK`` pairs, in
    row-major order; ``mask`` marks the pairs i < j in rows i0:i1 of n x n."""
    i0 = 0
    while i0 < n - 1:
        i1 = min(n, i0 + max(1, _SAMPLE_BLOCK // (n - 1 - i0)))
        yield i0, i1, ~np.tri(i1 - i0, n, k=i0, dtype=bool)
        i0 = i1


def _sample(n: int, seed: int, probs) -> Graph:
    """The draw loop of :func:`sample` and :func:`sample_uniform`: a pair that
    ``hit`` marks in rows i0:i1 is an edge iff its draw < ``probs(i0, i1, hit)``."""
    rng = make_rng(seed)
    keys = [np.zeros(0, np.intp)]
    for i0, i1, hit in _upper_blocks(n):
        hit[hit] = rng.random(np.count_nonzero(hit)) < probs(i0, i1, hit)
        keys.append(np.flatnonzero(hit) + i0 * n)
    return Graph.from_pairs(n, *np.divmod(np.concatenate(keys), n))


def sample(p: ProbMatrix, seed: int) -> Graph:
    """Draw one graph from the model, deterministically in ``seed``.

    Reproducibility contract: pair (i, j), i < j, consumes exactly one
    uniform draw from a Philox stream keyed by ``seed``, in row-major
    order of the upper triangle; the pair is an edge iff draw < P[i, j].
    Row blocks of about ``_SAMPLE_BLOCK`` pairs keep the peak near 4 MiB.
    """
    return _sample(p.n, seed, lambda i0, i1, hit: p.mat[i0:i1][hit])


def sample_uniform(n: int, prob: float, seed: int) -> Graph:
    """:func:`sample` of the n x n matrix with every off-diagonal entry
    ``prob``, drawn without building it: the same edges, in about 4 MiB."""
    if not 0.0 <= prob <= 1.0:  # NaN fails too
        raise ValueError(f"prob must be in [0, 1], got {prob}")
    return _sample(n, seed, lambda i0, i1, hit: prob)


def empirical_overlap(p: ProbMatrix, samples: list[Graph]) -> float:
    """Monte-Carlo overlap: the mean shared-edge fraction over all pairs of
    samples already drawn from ``p``; NaN for fewer than two samples.  An
    edge key found in c samples is shared by C(c, 2) pairs of them."""
    vol = volume(p)
    if vol <= 0.0:
        raise ZeroVolumeError("empirical overlap undefined: volume is zero")
    s = len(samples)
    if s < 2:
        return float("nan")
    _, c = np.unique(np.concatenate([g.edge_keys() for g in samples]), return_counts=True)
    return int((c * (c - 1)).sum()) // 2 / vol / (s * (s - 1) // 2)


def expected_triangles(p: ProbMatrix) -> float:
    """Exact expected triangle count: trace(P^3) / 6, the k = 3 cycle count."""
    return expected_kcycles_trace(p, 3)


def expected_kcycles_trace(p: ProbMatrix, k: int) -> float:
    """trace(P^k) / (2k): upper bound on the expected k-cycle count.

    Exact only for k = 3 (zero diagonal); for k >= 4 closed walks include
    degenerate tuples, so this dominates the true expectation.  As P is
    symmetric, trace(P^k) = <P^a, P^b> for k = a + b, with P^2 = P P^T and
    P^4 = P^2 (P^2)^T: numpy computes X @ X.T by BLAS syrk, in half the flops.
    """
    if not 3 <= k <= 6:
        raise ValueError("k must be in [3, 6]")
    q = p.mat @ p.mat.T
    r = q @ q.T if k >= 5 else q  # P^4, or P^2 for k <= 4
    return float(np.vdot(p.mat if k % 2 else q, r) / (2.0 * k))


def expected_kcycles_exact(p: ProbMatrix, k: int) -> float:
    """Exact expected k-cycle count: the edge-probability product summed
    over every k-cycle once.

    A k-cycle is a set of k nodes in a cyclic order, up to rotation and
    reflection.  Each node set is taken in the (k-1)!/2 orders that start
    at its first node and whose second node precedes its last.  Each set's
    k x k block is gathered once, and the cycle edges are multiplied into an
    (orders, sets) product one edge at a time.  Restricted to small
    instances by design.
    """
    n = p.n
    if not 3 <= k <= 6:
        raise ValueError("k must be in [3, 6]")
    if n > 14:
        raise ValueError("exact k-cycle count limited to n <= 14")
    nodes = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k).T
    sub = p.mat[nodes[:, None], nodes[None, :]]  # sub[a, b, s]: P between nodes a, b of set s
    orders = np.array([(0, *q) for q in itertools.permutations(range(1, k)) if q[0] < q[-1]])
    prod = np.ones((len(orders), nodes.shape[1]))  # (O, S): this layout fixes the sum's rounding
    for a, b in zip(orders.T, np.roll(orders, -1, axis=1).T):
        prod *= sub[a, b]
    return float(prod.sum())


def convex_combine(p: ProbMatrix, a: Graph, omega: float) -> ProbMatrix:
    """Entrywise (1 - omega) * P + omega * A, with omega added at the CSR
    positions of ``a`` so its adjacency A is never made dense; at omega = 1
    the result memorizes the graph.  Volume: (1-omega) * V(P) + omega * m.
    """
    _check_omega(omega)
    if p.n != a.n:
        raise ValueError("dimension mismatch")
    out = (1.0 - omega) * p.mat
    out[a._rows(), a.indices] += omega
    return ProbMatrix.from_array(out)


def save_probmatrix(p: ProbMatrix, path) -> None:
    """Write the text-triplet format: header "n=<n>", then "i j p" (i < j, p > 0).

    Rows stream into a temporary file beside ``path`` that replaces it only
    after the last row, so a failed write leaves no partial file.  Each node
    id, and each distinct value of a row, is formatted once.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    ids = [f"{k} " for k in range(p.n)]
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(f"n={p.n}\n")
            for i in range(p.n - 1):
                row = p.mat[i, i + 1 :]
                js = np.flatnonzero(row > 0.0)
                if js.size:
                    vals, inv = np.unique(row[js], return_inverse=True)
                    text = [f"{v:.17g}\n" for v in vals.tolist()]
                    tails = [ids[j] + text[c] for j, c in zip((js + i + 1).tolist(), inv.tolist())]
                    fh.write(ids[i] + ids[i].join(tails))  # each line is "i " + tail
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_probmatrix(path) -> ProbMatrix:
    """Read the text-triplet format written by :func:`save_probmatrix`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("n="):
            raise ValueError("missing 'n=<n>' header")
        n = int(header[2:])
        if n <= 0:
            raise ValueError("n must be positive")
        _check_dense_cap(n)
        with warnings.catch_warnings():  # a header-only file is the zero matrix
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            triplet = [("i", np.int64), ("j", np.int64), ("p", np.float64)]
            rows = np.loadtxt(fh, dtype=triplet, ndmin=1, comments=None)
    i, j, v = rows["i"], rows["j"], rows["p"]
    bad = ~((0 <= i) & (i < j) & (j < n) & (0.0 <= v) & (v <= 1.0))  # NaN is bad
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"entry ({i[k]} {j[k]} {v[k]}) breaks 0 <= i < j < n, 0 <= p <= 1")
    a = np.zeros((n, n), dtype=np.float64)
    a[i, j] = v  # fancy assignment writes in order: a repeated pair's last line wins
    a[j, i] = v
    return ProbMatrix.from_array(a)
