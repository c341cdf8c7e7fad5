"""Overlap-tunable baseline generators.

Four ways of turning one input graph, with adjacency A, into an
edge-independent model whose overlap one knob controls, all preserving the
input's volume: linear (omega) blends A with a uniform matrix and ccop
(omega) with a degree-matching odds-product fit; hdop (h) pins every pair
touching the top-h degree nodes to A and fits the rest; tsvd (k) is the
rank-k truncation of A (its k eigenpairs of largest |lambda|, equal to its
rank-k SVD, solved on the classes of nodes with equal neighbor sets),
shifted and clipped to restore the volume.  linear, ccop and hdop write A's
entries at its CSR positions and never make A dense, and build one n x n
array; ccop and hdop gather it from the fit's k x k class table.  Every
builder refuses an n above the dense cap before any n x n allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _neighbor_bits, degrees
from .oddsproduct import EXCLUDED_LOGIT, _fit_logits, _prob_from_logits
from .probmatrix import ProbMatrix, _check_dense_cap, _check_omega

# Each model kind and the name of its knob, as a sweep config key and a CLI flag.
KNOB_KEYS = {"linear": "omega", "ccop": "omega", "hdop": "h", "tsvd": "rank"}


@dataclass(frozen=True)
class ModelSpec:
    """One generator plus its knob value."""

    kind: str
    knob: float

    def __post_init__(self):
        if self.kind not in KNOB_KEYS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        # sample seeds hash repr(knob): 4 and 4.0 must draw the same samples,
        # and so must -0.0 and 0.0 (adding +0.0 turns -0.0 into 0.0)
        object.__setattr__(self, "knob", float(self.knob) + 0.0)


def linear_model(a: Graph, omega: float) -> ProbMatrix:
    """Uniform-volume base blended with the adjacency.

    Base entries are q = 2m / (n(n-1)) on every off-diagonal pair, which
    matches the graph volume exactly on a zero-diagonal matrix; the result
    is (1-omega) * base + omega * A, so volume(result) = m for every omega.
    """
    _check_omega(omega)
    n = a.n
    if n < 2:
        raise ValueError("linear model needs at least 2 nodes")
    _check_dense_cap(n)
    q = 2.0 * a.m / (n * (n - 1.0))
    p = np.full((n, n), (1.0 - omega) * q)
    np.fill_diagonal(p, 0.0)
    p[a._rows(), a.indices] += omega
    return ProbMatrix.from_array(p)


def ccop(a: Graph, omega: float) -> ProbMatrix:
    """Degree-matching odds-product fit blended with the adjacency.

    Expected degrees equal the input degrees for every omega, since both
    endpoints of the combination have them.  omega is checked before the fit
    and scales the fit's class table before its one gather (same rounding).
    """
    _check_omega(omega)
    p = _prob_from_logits(_fit_logits(degrees(a))[0], 1.0 - omega)
    p[a._rows(), a.indices] += omega
    return ProbMatrix.from_array(p)


def hdop(a: Graph, h: int) -> ProbMatrix:
    """Pin every pair incident to the h highest-degree nodes, refit the rest.

    Ties in degree break toward the lower node id.  Pairs with either
    endpoint in the pinned set copy the adjacency; the complement is fitted
    to its induced-subgraph degrees, so every row still sums to the input
    degree and the volume is preserved for every h.  The one gather gives
    pinned nodes' pairs 0 (their logit is EXCLUDED_LOGIT), then A's entries.
    """
    n = a.n
    if not 0 <= h <= n:
        raise ValueError(f"h must be in [0, n], got {h}")
    _check_dense_cap(n)
    deg = degrees(a)
    # stable order: degree descending, then node id ascending
    order = np.argsort(-deg, kind="stable")
    pinned = np.zeros(n, dtype=bool)
    pinned[order[:h]] = True
    free = np.flatnonzero(~pinned)

    rows, cols = a._rows(), a.indices
    residual_deg = (deg - np.bincount(rows[pinned[cols]], minlength=n))[free]
    logits = np.full(n, EXCLUDED_LOGIT)
    if free.size:
        logits[free] = _fit_logits(residual_deg)[0]
    out = _prob_from_logits(logits)
    pin = pinned[rows] | pinned[cols]
    out[rows[pin], cols[pin]] = 1.0
    return ProbMatrix.from_array(out)


def fit_volume_shift(l: np.ndarray, target_volume: float) -> float:
    """Scalar shift s with f(s) = sum of clip(L + s, 0, 1) over pairs = target.

    The root is found to within 1e-9 * target.  f(s) is continuous,
    nondecreasing, and piecewise linear with kinks at the clip boundaries,
    so a safeguarded Newton (slope = count of unclipped entries, bisection
    fallback) cannot cycle.  ``target`` may equal the maximum n(n-1)/2,
    attained as a boundary root.
    """
    l = np.asarray(l, dtype=np.float64)
    vals = l[~np.tri(len(l), dtype=bool)]
    npairs = vals.size
    if not 0.0 < target_volume <= npairs:
        raise ValueError(
            f"target volume {target_volume} not attainable in (0, {npairs}]"
        )

    tol = 1e-9 * target_volume
    s = 0.0
    lo = float(-vals.max())          # f(lo) == 0
    hi = float(1.0 - vals.min())     # f(hi) == npairs
    clipped = np.empty_like(vals)  # clip(L + s), reused by every step
    for _ in range(200):
        np.clip(np.add(vals, s, out=clipped), 0.0, 1.0, out=clipped)
        err = float(clipped.sum()) - target_volume
        if abs(err) <= tol:
            return s
        if err > 0:
            hi = min(hi, s)
        else:
            lo = max(lo, s)
        slope = float(np.count_nonzero(clipped > 0.0) - np.count_nonzero(clipped == 1.0))
        if slope > 0 and lo < s - err / slope < hi:
            s = s - err / slope
        else:
            s = 0.5 * (lo + hi)
    raise RuntimeError("volume shift search did not converge in 200 iterations")


def tsvd_model(a: Graph, k: int) -> ProbMatrix:
    """Rank-k truncation of the adjacency, clipped and volume-matched.

    The truncation keeps the k eigenpairs of largest |lambda| (for a
    symmetric A, the rank-k SVD; not unique where |lambda_k| =
    |lambda_(k+1)|).  Open twins (equal neighbor sets) form n_c classes,
    numbered by first node, of t_c nodes: A = W M W^T, W[i, c] = t_c^-1/2,
    M[c, c'] = (t_c t_c')^1/2 A[c, c'], and M's eigenpairs (lambda, u) from
    ``eigsh`` (8k <= n_c) or a dense ``eigh`` lift to A's as W u.  Without
    twins M = A.  The product X+ X+^T - X- X-^T of X = V |Lambda|^1/2 split
    at lambda > 0 is exactly symmetric (numpy runs X @ X.T as BLAS syrk); it
    is shifted by the :func:`fit_volume_shift` scalar (strict upper triangle),
    clipped to [0, 1] and its diagonal zeroed: volume m within 1e-6 * m.
    """
    from scipy.sparse.linalg import eigsh
    n = a.n
    if not 1 <= k <= n:
        raise ValueError(f"rank must be in [1, n], got {k}")
    if a.m == 0:
        raise ValueError("tsvd model undefined for an empty graph")
    _check_dense_cap(n)
    bits = _neighbor_bits(a)
    rows = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    rep, cls = np.unique(first[inverse], return_inverse=True)  # classes by first node
    w = np.sqrt(np.bincount(cls))  # t_c ** 0.5
    m = a.to_csr()[rep][:, rep]
    m.data *= np.repeat(w, np.diff(m.indptr)) * w[m.indices]
    if 8 * k <= rep.size:
        lam, v = eigsh(m, k=k, which="LM", v0=np.ones(rep.size))
    else:
        lam, v = np.linalg.eigh(m.toarray())
    top = np.argsort(-np.abs(lam), kind="stable")[:k]
    top = top[np.argsort(lam[top] <= 0.0, kind="stable")]  # lambda > 0 first
    lam, v = lam[top], v[np.ix_(cls, top)] / w[cls, None]  # W u for each kept u
    v *= np.sqrt(np.abs(lam))  # X, in place: no second n x k array
    j = np.count_nonzero(lam > 0.0)
    low = v[:, :j] @ v[:, :j].T  # syrk; from_array's check still guards symmetry
    if j < lam.size:
        low -= v[:, j:] @ v[:, j:].T
    del v  # freed before fit_volume_shift makes its buffers, the build's peak
    low += fit_volume_shift(low, float(a.m))
    np.clip(low, 0.0, 1.0, out=low)
    np.fill_diagonal(low, 0.0)
    return ProbMatrix.from_array(low)


def build_model(a: Graph, spec: ModelSpec) -> ProbMatrix:
    """Dispatch a :class:`ModelSpec` against an input graph."""
    if spec.kind in ("hdop", "tsvd") and not float(spec.knob).is_integer():
        raise ValueError(f"{KNOB_KEYS[spec.kind]} must be an integer, got {spec.knob}")
    if spec.kind == "linear":
        return linear_model(a, spec.knob)
    if spec.kind == "ccop":
        return ccop(a, spec.knob)
    if spec.kind == "hdop":
        return hdop(a, int(spec.knob))
    return tsvd_model(a, int(spec.knob))
