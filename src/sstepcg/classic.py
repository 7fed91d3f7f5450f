"""Hestenes-Stiefel CG with full trace capture, and the Lanczos tridiagonal."""

from __future__ import annotations

import math

import numpy as np

from .lacore import spmv
from .trace import _Run


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
    a = problem.a
    if max_iters is None:
        max_iters = 100 * a.n
    run = _Run(problem, eps_star)
    x = problem.x0.copy()
    r = run.start(x)
    p = r.copy()
    for _ in range(max_iters):
        if run.stop():
            break

        ap = spmv(a, p)
        rr = float(np.dot(r, r))
        pap = float(np.dot(p, ap))
        if pap <= 0.0 or not math.isfinite(pap):
            run.trace.diverged = True
            break
        alpha = rr / pap
        x = x + alpha * p
        r = r - alpha * ap
        rr_new = float(np.dot(r, r))
        beta = rr_new / rr
        p = r + beta * p

        run.trace.s_schedule.append(1)
        run.step(alpha, beta)
        run.residuals(x, r)
    trace, coeffs = run.finish()
    return x, trace, coeffs


def hscg_attainable_accuracy(problem, max_iters=None):
    """Smallest relative true residual HSCG reaches before stagnating."""
    _, trace, _ = hscg_solve(problem, eps_star=0.0, max_iters=max_iters)
    return trace.min_true_resid
