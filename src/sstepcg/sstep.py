"""Fixed s-step CG: the blocked engine of `adaptive` with the block pinned at s.

Per outer loop one monomial basis of 2s+1 columns and one Gram matrix carry
s coordinate-space iterations. Unlike the adaptive variants there is no
truncation, no break test and no refresh of the basis parameters.
"""

from __future__ import annotations

from .adaptive import AdaptiveConfig, CoordState, recover_iterates, _blocked_solve

__all__ = ["CoordState", "recover_iterates", "sstep_solve"]


def sstep_solve(problem, s, eps_star, max_outer=None, full_trace=False):
    """Fixed s-step CG with the monomial basis.

    Per outer loop: build the 2s+1 column basis from the current (p, r),
    form the Gram matrix, run s coordinate-space inner iterations with
    Gram-based alpha/beta, then recover the iterates. Convergence is
    declared on the true residual at outer boundaries; inside a block the
    Gram-estimated residual can end the block early, subject to
    confirmation against the true residual at the next boundary. A run
    that exhausts max_outer (default 100 n / s) ends stagnated. Raises
    ValueError for s < 1 or eps_star <= 0. The trace forms the true residual
    at outer boundaries only (NaN on inner rows) unless full_trace=True.

    Returns (x, SolveTrace, CgCoefficients); one OuterLoopRecord per outer
    loop is attached as trace.outer_records.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if max_outer is None:
        max_outer = max(1, (100 * problem.a.n) // s)
    cfg = AdaptiveConfig(sigma=s, eps_star=eps_star, basis_kind="monomial", max_outer=max_outer)
    return _blocked_solve(problem, cfg, fixed=True, full_trace=full_trace)
