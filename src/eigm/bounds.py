"""Machine checks of the subgraph-density bounds for edge-independent models.

The quantity overlap * volume equals ||P||_F^2 / 2 for zero-diagonal P, and
three bounds follow from it:

* triangles:  E[triangles] <= (sqrt(2)/3) * (Ov * V)^{3/2}
* k-cycles:   E[k-cycles]  <= (2^{k/2} / 2k) * (Ov * V)^{k/2}
* clustering: E[C] = O(Ov^{3/2} * n / V^{1/2}) whenever V >= 2n

Each check returns a :class:`BoundReport` comparing an exact expectation
(dense trace or combinatorial enumeration) or a Monte-Carlo estimate
against the bound.  The uniform (Erdos-Renyi) matrix makes all three
asymptotically tight; er_construction builds it, and the clustering check
samples it with ``sample_uniform`` without building it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probmatrix import (
    ProbMatrix,
    ZeroVolumeError,
    _check_dense_cap,
    expected_kcycles_exact,
    expected_kcycles_trace,
    expected_triangles,
    sample_uniform,
    volume,
)
from .rng import derive_seed
from .stats import global_clustering

_EXACT_SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound comparison."""

    theorem: str
    mode: str  # exact-trace | brute-force | monte-carlo
    lhs: float
    rhs: float
    holds: bool
    std_err: float = float("nan")

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")


def _ov_times_vol(p: ProbMatrix) -> float:
    if volume(p) <= 0.0:
        raise ZeroVolumeError("bound undefined: volume is zero")
    return float(np.einsum("ij,ij->", p.mat, p.mat) / 2.0)


def _cycle_bound(p: ProbMatrix, k: int, theorem: str, mode: str, lhs: float) -> BoundReport:
    """Report ``lhs`` against the k-cycle bound (2^{k/2} / 2k) * (Ov * V)^{k/2}."""
    rhs = (2.0 ** (k / 2.0) / (2.0 * k)) * _ov_times_vol(p) ** (k / 2.0)
    return BoundReport(
        theorem=theorem,
        mode=mode,
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs * (1.0 + _EXACT_SLACK),
    )


def check_triangle_bound(p: ProbMatrix) -> BoundReport:
    """Exact expected triangles against (sqrt(2)/3) * (Ov * V)^{3/2}.

    This is the k-cycle bound at k = 3: 2^{3/2} / 6 equals sqrt(2)/3.
    """
    return _cycle_bound(p, 3, "triangles", "exact-trace", expected_triangles(p))


def check_kcycle_bound(p: ProbMatrix, k: int) -> BoundReport:
    """Expected k-cycles against (2^{k/2} / 2k) * (Ov * V)^{k/2}.

    Small instances (n <= 14) use the combinatorial count for the left side;
    larger ones fall back to the trace value, which dominates the true
    expectation, so the comparison stays valid.  Both counts enforce k in [3, 6].
    """
    if p.n <= 14:
        lhs, mode = expected_kcycles_exact(p, k), "brute-force"
    else:
        lhs, mode = expected_kcycles_trace(p, k), "exact-trace"
    return _cycle_bound(p, k, f"{k}-cycles", mode, lhs)


def check_cc_tightness(n: int, gamma: float, samples: int, seed: int) -> BoundReport:
    """Monte-Carlo clustering of uniform models against its predicted level.

    Samples the uniform matrix with entry gamma through ``sample_uniform``,
    without building it, and compares the mean global clustering
    coefficient to gamma, the level the tightness analysis predicts;
    ``holds`` is keyed to |mean - gamma| <= max(0.02, 0.06 * gamma).  The
    reported rhs is the clustering bound expression gamma^{3/2} * n / V^{1/2},
    with V = gamma * n(n-1)/2 and its unspecified constant taken as 1, for
    reference only.  The construction requires volume >= 2n.
    """
    if samples < 3:
        raise ValueError("need at least 3 samples")
    _check_gamma(gamma)
    if n < 2:
        raise ValueError(f"need n >= 2 nodes, got n={n}")
    _check_dense_cap(n)
    vol = gamma * (n * (n - 1) / 2)
    if vol < 2.0 * n:
        raise ValueError(
            f"hypothesis violated: volume {vol:.1f} < 2n = {2 * n} "
            "(raise gamma or n)"
        )
    vals = [
        global_clustering(sample_uniform(n, gamma, derive_seed(seed, "cc-tightness", t)))
        for t in range(samples)
    ]
    mean = float(np.mean(vals))
    std_err = float(np.std(vals, ddof=1) / math.sqrt(samples))
    rhs = gamma**1.5 * n / math.sqrt(vol)
    return BoundReport(
        theorem="clustering",
        mode="monte-carlo",
        lhs=mean,
        rhs=rhs,
        holds=abs(mean - gamma) <= max(0.02, 0.06 * gamma),
        std_err=std_err,
    )


def er_construction(n: int, gamma: float) -> ProbMatrix:
    """Uniform matrix with every off-diagonal entry gamma.

    Has overlap exactly gamma and volume gamma * n(n-1)/2; the tight
    example for all three bounds.
    """
    _check_gamma(gamma)
    _check_dense_cap(n)
    a = np.full((n, n), gamma)
    np.fill_diagonal(a, 0.0)
    return ProbMatrix.from_array(a)
