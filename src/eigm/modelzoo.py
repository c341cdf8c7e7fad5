"""Overlap-tunable baseline generators.

Four ways of turning one input graph into an edge-independent model whose
overlap is controlled by a single knob, all preserving the input's volume:

* linear: convex combination of the adjacency with a uniform matrix of the
  same volume (knob omega).
* ccop: convex combination of the adjacency with a degree-matching
  odds-product fit (knob omega).
* hdop: odds-product fit with all pairs touching the top-h degree nodes
  pinned to the adjacency (knob h).
* tsvd: rank-k truncation of the adjacency (its k eigenpairs of largest
  |lambda|, which equal its rank-k SVD), shifted and clipped to restore the
  volume (knob k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import eigsh

from .graphs import Graph, degrees
from .oddsproduct import fit_odds_product
from .probmatrix import ProbMatrix, _check_dense_cap, convex_combine, to_dense

__all__ = [
    "ModelSpec",
    "linear_model",
    "ccop",
    "hdop",
    "tsvd_model",
    "fit_volume_shift",
    "build_model",
]

# Each model kind and the name of its knob, as a sweep config key and a CLI flag.
KNOB_KEYS = {"linear": "omega", "ccop": "omega", "hdop": "h", "tsvd": "rank"}
MODEL_KINDS = tuple(KNOB_KEYS)


@dataclass(frozen=True)
class ModelSpec:
    """One generator plus its knob value."""

    kind: str
    knob: float

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        # sample seeds hash repr(knob): 4 and 4.0 must draw the same samples
        object.__setattr__(self, "knob", float(self.knob))


def linear_model(a: Graph, omega: float) -> ProbMatrix:
    """Uniform-volume base blended with the adjacency.

    Base entries are q = 2m / (n(n-1)) on every off-diagonal pair, which
    matches the graph volume exactly on a zero-diagonal matrix; the result
    is (1-omega) * base + omega * A, so volume(result) = m for every omega.
    """
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


def ccop(a: Graph, omega: float) -> ProbMatrix:
    """Degree-matching odds-product fit blended with the adjacency.

    Expected degrees equal the input degrees for every omega, since both
    endpoints of the combination have them.
    """
    _, p, _ = fit_odds_product(degrees(a))
    return convex_combine(p, to_dense(a), omega)


def hdop(a: Graph, h: int) -> ProbMatrix:
    """Pin every pair incident to the h highest-degree nodes, refit the rest.

    Ties in degree break toward the lower node id.  Pairs with either
    endpoint in the pinned set copy the adjacency; the complement is fitted
    to its induced-subgraph degrees, so every row still sums to the input
    degree and the volume is preserved for every h.
    """
    n = a.n
    if not 0 <= h <= n:
        raise ValueError(f"h must be in [0, n], got {h}")
    deg = degrees(a)
    # stable order: degree descending, then node id ascending
    order = np.lexsort((np.arange(n), -deg))
    pinned = np.zeros(n, dtype=bool)
    pinned[order[:h]] = True
    free = np.flatnonzero(~pinned)

    adj = to_dense(a).mat
    out = np.array(adj)
    if free.size > 0:
        sub = adj[np.ix_(free, free)]
        residual_deg = sub.sum(axis=1).astype(np.int64)
        _, p_sub, _ = fit_odds_product(residual_deg)
        out[np.ix_(free, free)] = p_sub.mat
    return ProbMatrix.from_array(out)


def fit_volume_shift(l: np.ndarray, target_volume: float) -> float:
    """Scalar shift s with sum of clip(L + s, 0, 1) over pairs = target.

    The root is found to within 1e-9 * target.  f(s) is continuous,
    nondecreasing, and piecewise linear with kinks at the clip boundaries,
    so a safeguarded Newton (slope = count of unclipped entries, bisection
    fallback) cannot cycle.  ``target`` may equal the maximum n(n-1)/2,
    attained as a boundary root.
    """
    l = np.asarray(l, dtype=np.float64)
    n = l.shape[0]
    vals = l[np.triu(np.ones((n, n), bool), 1)]
    npairs = vals.size
    if not 0.0 < target_volume <= npairs:
        raise ValueError(
            f"target volume {target_volume} not attainable in (0, {npairs}]"
        )

    def f(s: float) -> float:
        return float(np.clip(vals + s, 0.0, 1.0).sum())

    tol = 1e-9 * target_volume
    s = 0.0
    lo = float(-vals.max())          # f(lo) == 0
    hi = float(1.0 - vals.min())     # f(hi) == npairs
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
    """Rank-k truncation of the adjacency, clipped and volume-matched.

    The truncation keeps the k eigenpairs of largest |lambda| (for a
    symmetric A, the rank-k SVD; not unique where |lambda_k| =
    |lambda_(k+1)|), found by ``eigsh`` when 8k <= n and by a dense ``eigh``
    otherwise.  It is symmetrized, its diagonal zeroed, then shifted by the
    :func:`fit_volume_shift` scalar and clipped to [0, 1] so the result has
    volume m within 1e-6 * m.
    """
    n = a.n
    if not 1 <= k <= n:
        raise ValueError(f"rank must be in [1, n], got {k}")
    if a.m == 0:
        raise ValueError("tsvd model undefined for an empty graph")
    if 8 * k <= n:
        _check_dense_cap(n)
        lam, v = eigsh(a.to_csr(np.float64), k=k, which="LM", v0=np.ones(n))
    else:
        lam, v = np.linalg.eigh(to_dense(a).mat)
    top = np.argsort(-np.abs(lam), kind="stable")[:k]
    low = (v[:, top] * lam[top]) @ v[:, top].T
    low = 0.5 * (low + low.T)
    np.fill_diagonal(low, 0.0)
    shift = fit_volume_shift(low, float(a.m))
    p = np.clip(low + shift, 0.0, 1.0)
    np.fill_diagonal(p, 0.0)
    return ProbMatrix.from_array(p)


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
