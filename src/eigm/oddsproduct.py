"""Degree-matching odds-product model fitted by damped Newton over degree classes.

Each node i carries a logit ell_i and the model connects i and j with
probability sigmoid(ell_i + ell_j); edge odds multiply across endpoints.
Fitting finds logits whose expected degree vector matches a target degree
sequence.  The diagonal is excluded from predicted degrees and from the
Jacobian throughout: sampled graphs are simple, so a node cannot
contribute a self-loop to its own degree.

The fitted logits are unique (Chatterjee, Diaconis and Sly, 2011), so nodes
of equal target degree share a logit and Newton solves for the k distinct
degrees, weighted by their multiplicities, instead of for all n nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .probmatrix import ProbMatrix, _check_dense_cap

# Logit assigned to zero-degree nodes, which are removed before fitting and
# re-inserted afterwards.  Finite, but large enough that expit underflows to
# exactly 0.0 against any logit the fit can produce.
EXCLUDED_LOGIT = -1e9

# Newton steps before the fit gives up on a sequence, and the 2-norm degree
# residual it must reach.
MAX_ITER = 100
EPS = 1e-6


@dataclass(frozen=True)
class FitReport:
    """Convergence trace of one Newton-Raphson degree fit."""

    iterations: int
    residual_history: list[float] = field(repr=False)
    converged: bool
    final_max_abs_error: float
    ridge_used: bool = False


class FitConvergenceError(RuntimeError):
    """Newton iteration failed; carries the partial :class:`FitReport`."""

    def __init__(self, message: str, report: FitReport):
        super().__init__(message)
        self.report = report


def _prob_from_logits(logits: np.ndarray) -> np.ndarray:
    from scipy.special import expit
    # one expit per pair of distinct logits; indexing rows and columns in
    # one step keeps the gather C-ordered (table[cls][:, cls] is F-ordered)
    vals, cls = np.unique(logits, return_inverse=True)
    p = expit(np.add.outer(vals, vals))[cls[:, None], cls]
    np.fill_diagonal(p, 0.0)
    return p


def predicted_degrees(logits: np.ndarray) -> np.ndarray:
    """Expected degree vector: row sums of the logit model, diagonal excluded."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("logits must be finite")
    _check_dense_cap(logits.size)
    return _prob_from_logits(logits).sum(axis=1)


def degree_jacobian(p: ProbMatrix | np.ndarray) -> np.ndarray:
    """Jacobian of predicted degrees with respect to the logits.

    With B = P * (1 - P) (zero diagonal), J = B + diag(B @ 1).  Symmetric,
    and strictly diagonally dominant whenever every row of B has a positive
    off-diagonal entry.
    """
    mat = p.mat if isinstance(p, ProbMatrix) else np.asarray(p, dtype=np.float64)
    b = mat * (1.0 - mat)
    np.fill_diagonal(b, 0.0)
    return b + np.diag(b.sum(axis=1))


def _class_residual(ell, dc, cnt) -> tuple[np.ndarray, np.ndarray, float]:
    """Class-pair probabilities P, per-class degree residual, and its 2-norm
    over nodes.  A node of class c expects degree sum_c' cnt_c' P_cc' - P_cc:
    its own pair with itself is excluded."""
    from scipy.special import expit
    p = expit(np.add.outer(ell, ell))
    r = p @ cnt - np.diagonal(p) - dc
    return p, r, float(np.sqrt(cnt @ r**2))


def _solve_step(j: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, bool]:
    try:
        step = np.linalg.solve(j, r)
        if np.all(np.isfinite(step)):
            return step, False
    except np.linalg.LinAlgError:
        pass
    ridge = j + 1e-12 * np.eye(j.shape[0])
    return np.linalg.solve(ridge, r), True


def fit_odds_product(d: np.ndarray) -> tuple[np.ndarray, ProbMatrix, FitReport]:
    """Fit logits so the model's expected degrees match ``d``.

    Newton-Raphson on one logit per distinct degree, from ell = 0, for at
    most :data:`MAX_ITER` steps, each with a backtracking step size (halved
    on residual increase, at most 30 times).  Inside the loop the residual
    target is tightened to min(EPS, 10 * EPS / sqrt(n)) so the
    infinity-norm degree error is bounded by 10 * EPS / sqrt(n) on success;
    convergence is declared whenever the 2-norm residual is <= :data:`EPS`.
    An n above the dense cap is refused before the n x n P is built.

    Zero-degree nodes are removed before fitting (their logits diverge)
    and re-inserted as zero rows; their returned logit is the finite
    sentinel :data:`EXCLUDED_LOGIT`.

    Returns (logits, P, report); raises :class:`FitConvergenceError` with
    the report attached when the target cannot be met, e.g. for
    non-graphical degree sequences.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("degree sequence must be a nonempty vector")
    n = d.size
    if np.any(d < 0) or np.any(d > n - 1):
        raise ValueError("degrees must lie in [0, n-1]")
    _check_dense_cap(n)

    active = np.flatnonzero(d > 0)
    logits = np.full(n, EXCLUDED_LOGIT, dtype=np.float64)
    dc, cls, cnt = np.unique(d[active], return_inverse=True, return_counts=True)
    cnt = cnt.astype(np.float64)
    ell = np.zeros(dc.size)
    p, r, res = _class_residual(ell, dc, cnt)
    history = [res]
    target = min(EPS, 10.0 * EPS / np.sqrt(n))
    ridge_used = False

    while res > target and len(history) <= MAX_ITER:
        # the node Jacobian B + diag(B @ 1) restricted to class-constant steps
        b = p * (1.0 - p)
        jac = b * cnt + np.diag(b @ cnt - 2.0 * np.diagonal(b))
        step, ridged = _solve_step(jac, r)
        ridge_used = ridge_used or ridged
        eta = 1.0
        for _ in range(31):
            ell_try = ell - eta * step
            p_try, r_try, res_try = _class_residual(ell_try, dc, cnt)
            if res_try < res:
                break
            eta *= 0.5
        else:  # the line search stalled: the loop's only early exit
            break
        ell, p, r, res = ell_try, p_try, r_try, res_try
        history.append(res)

    iterations = len(history) - 1
    converged = res <= EPS
    logits[active] = ell[cls]
    full = _prob_from_logits(logits)
    report = FitReport(
        iterations=iterations,
        residual_history=history,
        converged=converged,
        final_max_abs_error=float(np.abs(full.sum(axis=1) - d).max()),
        ridge_used=ridge_used,
    )
    if not converged:
        reason = "line search stalled" if iterations < MAX_ITER else f"MAX_ITER={MAX_ITER} reached"
        raise FitConvergenceError(
            f"degree fit did not converge ({reason}, residual {res:.3e} > {EPS:g}); "
            "the target sequence may not be graphical",
            report,
        )
    return logits, ProbMatrix.from_array(full), report
