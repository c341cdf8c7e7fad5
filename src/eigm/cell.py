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

import numpy as np
import scipy.sparse.csgraph
import scipy.special

from .graphs import Graph, degrees
from .probmatrix import ProbMatrix, to_dense

EMBED_NODE_CAP = 20  # polynomial products on integer grids; conditioning cap


def unconstrained_optimum(a: Graph) -> np.ndarray:
    """The row-stochastic matrix D^-1 A: mass 1/d_i on each neighbor of i."""
    d = degrees(a)
    if np.any(d == 0):
        raise ValueError("graph has isolated nodes; D^-1 A undefined")
    return to_dense(a).mat / d[:, None]


def _stationary_distribution(p_star: np.ndarray) -> np.ndarray:
    """Left fixed point pi with pi^T P* = pi^T, normalized to sum 1.

    Solves (P* - I)^T pi = 0 with its last equation replaced by
    sum(pi) = 1; for an irreducible P* that system is nonsingular.
    """
    n = p_star.shape[0]
    a = p_star.T - np.eye(n)
    a[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


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
    positions: np.ndarray, neighbor_pos: np.ndarray, eps: float
) -> np.ndarray:
    """Evaluate the bracketing polynomial of one row on all node positions.

    The polynomial has a pair of roots t_j +- eps * w_j around each
    neighbor position t_j, with w_j = 1 / prod_{j' != j}(t_j - t_j'), so
    its value approaches the same constant at every neighbor as eps -> 0;
    dividing by -eps^2 normalizes that constant to 1.  Evaluation stays in
    product form (never expanded to monomial coefficients).
    """
    diff = neighbor_pos[:, None] - neighbor_pos
    np.fill_diagonal(diff, 1.0)  # the factor j' = j is left out
    w = 1.0 / diff.prod(axis=1)
    vals = np.ones_like(positions)
    for j in range(neighbor_pos.size):
        vals = vals * ((positions - neighbor_pos[j]) ** 2 - (eps * w[j]) ** 2)
    return -vals / eps**2


def vandermonde_embedding(a: Graph, scale: float = 1e4) -> np.ndarray:
    """Rank-bounded logits whose row softmax approximates D^-1 A.

    Row i evaluates a degree-2*d_i polynomial at integer node positions
    1..n: value ~1 at neighbors of i, large negative elsewhere.  Every row
    polynomial has degree <= 2 * max_degree, so the stacked value matrix
    factors through a Vandermonde basis of 2 * max_degree + 1 columns: its
    rank is at most 2 * max_degree + 1.  Scaling by ``scale`` sharpens the
    softmax toward 1/d_i on neighbors.

    The root brackets have half-width scale 1/scale: the residual softmax
    imbalance among neighbor entries grows like scale * eps^2 for a
    half-width eps, so eps = 1/scale makes the approximation error shrink
    as the scale grows.  The brackets must not overlap, hence scale > 2.
    """
    if a.n > EMBED_NODE_CAP:
        raise ValueError(f"embedding capped at n <= {EMBED_NODE_CAP}")
    if not (np.isfinite(scale) and scale > 2.0):
        raise ValueError(f"scale must be finite and > 2, got {scale}")
    d = degrees(a)
    if np.any(d == 0):
        raise ValueError("graph has isolated nodes; target D^-1 A undefined")
    n = a.n
    positions = np.arange(1, n + 1, dtype=np.float64)
    w = np.empty((n, n))
    # an extreme scale overflows or underflows here; the finiteness check
    # below reports it, so numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        for i in range(n):
            neighbor_pos = a.neighbors(i).astype(np.float64) + 1.0
            w[i] = _row_polynomial_values(positions, neighbor_pos, 1.0 / scale)
        w = scale * w
    if not np.all(np.isfinite(w)):
        raise OverflowError(
            f"embedding logits overflowed at scale {scale:g}; reduce scale, n or degree"
        )
    return w


def verify_embedding(a: Graph, w: np.ndarray) -> tuple[float, int]:
    """(max entrywise row-softmax error vs D^-1 A, numerical rank of the logits).

    Rank counts singular values above 1e-8 times the largest.
    """
    mat = np.asarray(w, dtype=np.float64)
    if mat.shape != (a.n, a.n):
        raise ValueError("dimension mismatch")
    target = unconstrained_optimum(a)
    max_error = float(np.abs(scipy.special.softmax(mat, axis=1) - target).max())
    return max_error, int(np.linalg.matrix_rank(mat, rtol=1e-8))
