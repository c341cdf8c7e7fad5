"""Low-rank logit constructions behind CELL-style generators.

Numerically verifies two facts about row-softmax logit models: the
unconstrained optimum of the edge log-likelihood is the degree-normalized
adjacency D^-1 A, and that target is reachable (to arbitrary precision)
with logits of rank at most 2 * max_degree + 1, via polynomials evaluated
on integer node positions.  Also implements the stationary-distribution
symmetrization that turns a row-stochastic score matrix into a valid
edge-probability matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.csgraph

from .graphs import Graph, degrees
from .probmatrix import ProbMatrix

__all__ = [
    "LogitMatrix",
    "rowwise_softmax",
    "unconstrained_optimum",
    "cell_objective",
    "cell_symmetrize",
    "vandermonde_embedding",
    "verify_embedding",
]

EMBED_NODE_CAP = 20  # polynomial products on integer grids; conditioning cap


@dataclass(frozen=True)
class LogitMatrix:
    """Dense logit matrix with a construction-time rank certificate."""

    w: np.ndarray
    rank_bound: int


def rowwise_softmax(w: np.ndarray | LogitMatrix) -> np.ndarray:
    """Row-stochastic matrix: softmax of each row, max-subtracted for stability."""
    mat = w.w if isinstance(w, LogitMatrix) else np.asarray(w, dtype=np.float64)
    z = mat - mat.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def unconstrained_optimum(a: Graph) -> np.ndarray:
    """The row-stochastic matrix D^-1 A: mass 1/d_i on each neighbor of i."""
    d = degrees(a)
    if np.any(d == 0):
        raise ValueError("graph has isolated nodes; D^-1 A undefined")
    out = np.zeros((a.n, a.n))
    for i in range(a.n):
        out[i, a.neighbors(i)] = 1.0 / d[i]
    return out


def cell_objective(a: Graph, row_stochastic: np.ndarray) -> float:
    """Edge log-likelihood sum(A_ij * log Q_ij); -inf if an edge has Q = 0."""
    total = 0.0
    for i in range(a.n):
        q = row_stochastic[i, a.neighbors(i)]
        if np.any(q <= 0.0):
            return float("-inf")
        total += float(np.log(q).sum())
    return total


def _stationary_distribution(
    p_star: np.ndarray, tol: float = 1e-12, max_iter: int = 100_000
) -> np.ndarray:
    """Left fixed point pi with pi^T P* = pi^T, normalized to sum 1.

    Power iteration on the lazy chain (pi + pi P*)/2, which has the same
    stationary vector but no periodicity, so bipartite-like supports
    (e.g. walk matrices of trees) still converge.
    """
    n = p_star.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        pi = 0.5 * (pi + pi @ p_star)
        pi /= pi.sum()
        if np.abs(pi @ p_star - pi).max() <= tol:
            return pi
    raise RuntimeError(
        f"stationary distribution not found in {max_iter} iterations at tol {tol}"
    )


def cell_symmetrize(p_star: np.ndarray) -> ProbMatrix:
    """Turn a row-stochastic score matrix into an edge-probability matrix.

    Computes the stationary distribution pi of P*, normalized to sum 1,
    and returns max(diag(pi) P*, (diag(pi) P*)^T) entrywise.  Entries are
    automatically valid probabilities (pi_i <= 1 and P*_ij <= 1).  With
    P* = D^-1 A of a connected graph, pi is proportional to the degrees
    and the result is A / (2m).  Requires an irreducible P*.
    """
    p_star = np.asarray(p_star, dtype=np.float64)
    if p_star.ndim != 2 or p_star.shape[0] != p_star.shape[1]:
        raise ValueError("P* must be square")
    if np.any(p_star < 0) or not np.allclose(p_star.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("P* must be row-stochastic")
    if scipy.sparse.csgraph.connected_components(
        p_star > 0, directed=True, connection="strong", return_labels=False
    ) != 1:
        raise ValueError("P* is reducible; stationary distribution not unique")
    pi = _stationary_distribution(p_star)
    m = pi[:, None] * p_star
    return ProbMatrix.from_array(np.maximum(m, m.T))


def _row_polynomial_values(
    positions: np.ndarray, neighbor_pos: np.ndarray, eps_roots: float
) -> np.ndarray:
    """Evaluate the bracketing polynomial of one row on all node positions.

    The polynomial has a pair of roots t_j +- eps * w_j around each
    neighbor position t_j, with w_j = 1 / prod_{j' != j}(t_j - t_j'), so
    its value approaches the same constant at every neighbor as eps -> 0;
    dividing by -eps^2 normalizes that constant to 1.  Evaluation stays in
    product form (never expanded to monomial coefficients).
    """
    d = neighbor_pos.size
    w = np.empty(d)
    for k in range(d):
        diff = neighbor_pos[k] - np.delete(neighbor_pos, k)
        w[k] = 1.0 / float(np.prod(diff)) if d > 1 else 1.0
    vals = np.ones_like(positions)
    for j in range(d):
        vals = vals * ((positions - neighbor_pos[j]) ** 2 - (eps_roots * w[j]) ** 2)
    return -vals / eps_roots**2


def vandermonde_embedding(
    a: Graph, eps_roots: float | None = None, scale: float = 1e4
) -> LogitMatrix:
    """Rank-bounded logits whose row softmax approximates D^-1 A.

    Row i evaluates a degree-2*d_i polynomial at integer node positions
    1..n: value ~1 at neighbors of i, large negative elsewhere.  Every row
    polynomial has degree <= 2 * max_degree, so the stacked value matrix
    factors through a Vandermonde basis of 2 * max_degree + 1 columns and
    ``rank_bound`` certifies the rank.  Scaling by ``scale`` sharpens the
    softmax toward 1/d_i on neighbors.

    ``eps_roots`` is the root-bracket half-width scale.  Its default
    couples to 1/scale: the residual softmax imbalance among neighbor
    entries grows like scale * eps_roots^2, so fixing eps_roots = 1/scale
    makes the approximation error shrink as the scale grows.
    """
    if a.n > EMBED_NODE_CAP:
        raise ValueError(f"embedding capped at n <= {EMBED_NODE_CAP}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if eps_roots is None:
        eps_roots = 1.0 / scale
    if not 0.0 < eps_roots < 0.5:
        raise ValueError("eps_roots must be in (0, 0.5)")
    d = degrees(a)
    if np.any(d == 0):
        raise ValueError("graph has isolated nodes; target D^-1 A undefined")
    n = a.n
    positions = np.arange(1, n + 1, dtype=np.float64)
    w = np.empty((n, n))
    for i in range(n):
        neighbor_pos = a.neighbors(i).astype(np.float64) + 1.0
        w[i] = _row_polynomial_values(positions, neighbor_pos, eps_roots)
    if not np.all(np.isfinite(w)):
        raise OverflowError("polynomial expansion overflowed; reduce n or degree")
    return LogitMatrix(w=scale * w, rank_bound=2 * int(d.max()) + 1)


def verify_embedding(a: Graph, w: LogitMatrix | np.ndarray) -> tuple[float, int]:
    """(max entrywise softmax error vs D^-1 A, numerical rank of the logits).

    Rank counts singular values above 1e-8 times the largest.
    """
    mat = w.w if isinstance(w, LogitMatrix) else np.asarray(w, dtype=np.float64)
    if mat.shape != (a.n, a.n):
        raise ValueError("dimension mismatch")
    target = unconstrained_optimum(a)
    max_error = float(np.abs(rowwise_softmax(mat) - target).max())
    svals = np.linalg.svd(mat, compute_uv=False)
    numerical_rank = int((svals > 1e-8 * svals[0]).sum()) if svals[0] > 0 else 0
    return max_error, numerical_rank
