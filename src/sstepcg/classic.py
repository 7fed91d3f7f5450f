"""Hestenes-Stiefel CG with full trace capture, and the Lanczos tridiagonal."""

from __future__ import annotations

import math

import numpy as np

from .lacore import spmv
from .ritz import RitzState, BreakdownSignal
from .trace import CgCoefficients, SolveTrace, _RunState


def assemble_tridiag(coeffs, i):
    """Lanczos tridiagonal T_i from the first i CG coefficient pairs.

    T[0,0] = 1/alpha_0, T[l,l] = 1/alpha_l + beta_{l-1}/alpha_{l-1},
    off-diagonal T[l,l+1] = sqrt(beta_l)/alpha_l. Symmetric by construction.
    """
    if i < 1:
        raise ValueError("need at least one coefficient pair")
    if i > len(coeffs.alphas):
        raise ValueError(f"only {len(coeffs.alphas)} coefficient pairs stored")
    al, be = coeffs.alphas, coeffs.betas
    t = np.zeros((i, i))
    t[0, 0] = 1.0 / al[0]
    for l in range(1, i):
        t[l, l] = 1.0 / al[l] + be[l - 1] / al[l - 1]
        off = np.sqrt(be[l - 1]) / al[l - 1]
        t[l - 1, l] = off
        t[l, l - 1] = off
    return t


def hscg_solve(problem, eps_star, max_iters=None):
    """Classic CG on the (preconditioned) system; stops on the true residual.

    The true residual b - A x_i is recomputed every iteration at this scale.
    Breakdown (p^T A p <= 0) and NaN are recorded as divergence on the trace
    rather than raised, so experiment grids keep running. A run that
    exhausts max_iters (default 100 n) ends stagnated, or converged if its
    last true residual passes, as the blocked solvers do.

    Returns (x, SolveTrace, CgCoefficients).
    """
    a, b = problem.a, problem.b
    if max_iters is None:
        max_iters = 100 * a.n
    nb = math.sqrt(b @ b)
    x = problem.x0.copy()
    r = b - spmv(a, x)
    p = r.copy()
    true_rel = upd_rel = math.sqrt(r @ r) / nb
    trace = SolveTrace()
    coeffs = CgCoefficients()
    ritz = RitzState()

    run = _RunState()
    i = 0
    while i < max_iters:
        if run.stop(trace, true_rel, upd_rel, eps_star):
            break

        ap = spmv(a, p)
        rr = float(np.dot(r, r))
        pap = float(np.dot(p, ap))
        if pap <= 0.0 or not math.isfinite(pap):
            trace.diverged = True
            break
        alpha = rr / pap
        q = alpha * p
        x = x + q
        r = r - alpha * ap
        rr_new = float(np.dot(r, r))
        beta = rr_new / rr
        coeffs.append(alpha, beta)
        p = r + beta * p
        i += 1

        try:
            ritz.absorb_step(alpha, beta)
        except BreakdownSignal:
            pass  # the pair stays out of the Ritz estimates
        true_vec = b - spmv(a, x)
        true_rel = math.sqrt(true_vec @ true_vec) / nb
        upd_rel = math.sqrt(r @ r) / nb
        gap = true_vec - r
        trace.mark_outer(1)
        trace.record_iteration(
            true_rel,
            upd_rel,
            math.sqrt(gap @ gap),
            ritz.xi_estimate(),
            ritz.lambda_min,
            ritz.lambda_max,
            ritz.psi,
        )
    if not trace.ended:
        run.out_of_budget(trace, true_rel, eps_star)
    return x, trace, coeffs


def hscg_attainable_accuracy(problem, max_iters=None):
    """Smallest relative true residual HSCG reaches before stagnating."""
    _, trace, _ = hscg_solve(problem, eps_star=0.0, max_iters=max_iters)
    return trace.min_true_resid
