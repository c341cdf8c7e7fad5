"""Edge-independent models: symmetric edge-probability matrices.

A :class:`ProbMatrix` holds the matrix P of an edge-independent model: a
graph sampled from it contains each pair (i, j), i < j, independently with
probability ``P[i, j]``.  The diagonal is identically zero (simple graphs,
never self-loops), which also makes the overlap identity
``overlap * volume == ||P||_F^2 / 2`` exact.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .rng import derive_seed, make_rng

__all__ = [
    "ProbMatrix",
    "CapacityError",
    "ZeroVolumeError",
    "DEFAULT_DENSE_CAP",
    "to_dense",
    "volume",
    "overlap",
    "sample",
    "empirical_overlap",
    "expected_triangles",
    "expected_kcycles_trace",
    "expected_kcycles_exact",
    "convex_combine",
    "save_probmatrix",
    "load_probmatrix",
]

# Largest n admitted to dense-matrix constructors.  A 10000 x 10000 float64
# matrix is ~800 MB; everything here is dense-matrix based, so refuse early.
DEFAULT_DENSE_CAP = 10000

_RANGE_SLACK = 1e-9


class CapacityError(ValueError):
    """Graph too large for the dense-matrix code paths."""


def _check_dense_cap(n: int, cap: int = DEFAULT_DENSE_CAP) -> None:
    """Refuse an n above the cap before anything of size n is allocated."""
    if n > cap:
        raise CapacityError(f"n={n} exceeds dense-matrix cap {cap}")


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
        """
        a = np.array(arr, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("probability matrix must be square")
        if a.shape[0] == 0:
            raise ValueError("probability matrix must be nonempty")
        if not np.all(np.isfinite(a)):
            raise ValueError("probability matrix entries must be finite (no NaN or inf)")
        if not np.array_equal(a, a.T):
            raise ValueError("probability matrix must be symmetric")
        lo, hi = a.min(), a.max()
        if lo < -_RANGE_SLACK or hi > 1.0 + _RANGE_SLACK:
            raise ValueError(f"entries outside [0, 1]: min={lo}, max={hi}")
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


def to_dense(g: Graph, cap: int = DEFAULT_DENSE_CAP) -> ProbMatrix:
    """Binary probability matrix of a graph; a model that memorizes it."""
    _check_dense_cap(g.n, cap)
    a = g.to_csr(np.float64).toarray()
    a.flags.writeable = False
    return ProbMatrix(mat=a)


def volume(p: ProbMatrix) -> float:
    """Expected edge count: sum of P over unordered pairs."""
    return float(p.mat.sum() / 2.0)


def overlap(p: ProbMatrix) -> float:
    """Expected fraction of edges shared by two independent samples.

    Closed form (zero diagonal): sum of squared pair probabilities over the
    expected edge count.  Equals 1 exactly for binary matrices.
    """
    vol = volume(p)
    if vol <= 0.0:
        raise ZeroVolumeError("overlap undefined: volume is zero")
    return float((p.mat**2).sum() / 2.0 / vol)


def _upper(p: ProbMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(p.n, 1)
    return iu, ju, p.mat[iu, ju]


def sample(p: ProbMatrix, seed: int) -> Graph:
    """Draw one graph from the model, deterministically in ``seed``.

    Reproducibility contract: pair (i, j), i < j, consumes exactly one
    uniform draw from a Philox stream keyed by ``seed``, in row-major
    order of the upper triangle; the pair is an edge iff draw < P[i, j].
    """
    iu, ju, probs = _upper(p)
    u = make_rng(seed).random(len(probs))
    keep = u < probs
    return Graph.from_pairs(p.n, iu[keep], ju[keep])


def empirical_overlap(p: ProbMatrix, seed: int, trials: int) -> float:
    """Monte-Carlo overlap estimate from ``trials`` independent sample pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    vol = volume(p)
    if vol <= 0.0:
        raise ZeroVolumeError("empirical overlap undefined: volume is zero")
    acc = 0.0
    for t in range(trials):
        g1 = sample(p, derive_seed(seed, "overlap-pair", t, 0))
        g2 = sample(p, derive_seed(seed, "overlap-pair", t, 1))
        shared = np.intersect1d(g1.edge_keys(), g2.edge_keys(), assume_unique=True)
        acc += len(shared) / vol
    return acc / trials


def expected_triangles(p: ProbMatrix) -> float:
    """Exact expected triangle count: trace(P^3) / 6, the k = 3 cycle count."""
    return expected_kcycles_trace(p, 3)


def expected_kcycles_trace(p: ProbMatrix, k: int) -> float:
    """trace(P^k) / (2k): upper bound on the expected k-cycle count.

    Exact only for k = 3 (zero diagonal); for k >= 4 closed walks include
    degenerate tuples, so this dominates the true expectation.
    """
    if not 3 <= k <= 8:
        raise ValueError("k must be in [3, 8]")
    acc = p.mat
    for _ in range(k - 1):
        acc = acc @ p.mat
    return float(np.trace(acc) / (2.0 * k))


def expected_kcycles_exact(p: ProbMatrix, k: int) -> float:
    """Exact expected k-cycle count: the edge-probability product summed
    over every k-cycle once.

    A k-cycle is a set of k nodes in a cyclic order, up to rotation and
    reflection.  Each node set is taken in the (k-1)!/2 orders that start
    at its first node and whose second node precedes its last.  Restricted
    to small instances by design.
    """
    n = p.n
    if n > 14 or k > 6:
        raise ValueError("exact k-cycle oracle limited to n <= 14, k <= 6")
    if k < 3:
        raise ValueError("k must be >= 3")
    sets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    orders = [(0, *q) for q in itertools.permutations(range(1, k)) if q[0] < q[-1]]
    cyc = sets.reshape(-1, k)[:, orders]
    return float(p.mat[cyc, np.roll(cyc, -1, axis=-1)].prod(-1).sum())


def convex_combine(p: ProbMatrix, a: ProbMatrix, omega: float) -> ProbMatrix:
    """Entrywise (1 - omega) * P + omega * A.

    ``a`` is normally a binary adjacency matrix; at omega = 1 the result
    memorizes it.  Volume is linear: (1-omega) * V(P) + omega * V(A).
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    if p.n != a.n:
        raise ValueError("dimension mismatch")
    return ProbMatrix.from_array((1.0 - omega) * p.mat + omega * a.mat)


def save_probmatrix(p: ProbMatrix, path) -> None:
    """Write the text-triplet format: header "n=<n>", then "i j p" (i < j, p > 0)."""
    iu, ju, probs = _upper(p)
    keep = probs > 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n={p.n}\n")
        fh.writelines(
            f"{i} {j} {v:.17g}\n"
            for i, j, v in zip(iu[keep].tolist(), ju[keep].tolist(), probs[keep].tolist())
        )


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
