"""Adaptive s-step CG, in the original and the improved formulation.

Both variants grow a trial block of size s_bar, compute its Gram matrix,
and shrink to the largest s_tilde whose basis condition estimate satisfies

    kappa(Y_{k,s_tilde}) <= eps_star / (c * eps * ||r_m||),

then iterate in coordinate space with a per-iteration break test. The
original variant consults one condition estimate (the full block's) against
the newest residual estimate; the improved variant consults the nested
estimate that the *next* iteration actually depends on, against the running
maximum residual phi, with c refreshed every iteration from the Ritz state.
After every outer loop past the first iteration, the improved variant
regenerates the basis parameters from the current extremal Ritz estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisBreakdownError,
    assemble_change_of_basis,
    build_block,
    monomial_params,
    params_for,
    DEFAULT_LEJA_GRID,
)
from .lacore import nested_basis_conds
from .ritz import MACHINE_UNIT, BreakdownSignal, RitzState, abs_matrix_norm, c_strategy
from .sstep import CoordState, recover_iterates, _RunState
from .trace import CgCoefficients, SolveTrace


@dataclass
class AdaptiveConfig:
    """Run controls for adaptive_solve.

    s_bar0 and f default to sigma (trial blocks start at full size; the
    conservative initial c protects the first block). basis_kind applies to
    the improved variant's dynamic updates; the original variant keeps its
    initial parameters (monomial unless spectral_bounds are given).
    """

    sigma: int
    eps_star: float
    s_bar0: int | None = None
    f: int | None = None
    basis_kind: str = "newton"
    c_strategy: str = "adaptive"
    variant: str = "improved"
    max_outer: int = 5000
    leja_grid: int = DEFAULT_LEJA_GRID
    spectral_bounds: tuple | None = None

    def __post_init__(self):
        if self.sigma < 1:
            raise ValueError("sigma must be >= 1")
        if self.s_bar0 is None:
            self.s_bar0 = self.sigma
        if self.f is None:
            self.f = self.sigma
        if not (1 <= self.s_bar0 <= self.sigma):
            raise ValueError("need 1 <= s_bar0 <= sigma")
        if self.f < 0:
            raise ValueError("f must be >= 0")
        if self.eps_star <= 0:
            raise ValueError("eps_star must be positive")
        if self.variant not in ("old", "improved"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass
class OuterLoopRecord:
    k: int
    s_bar: int
    s_tilde: int
    s_actual: int
    phi: float
    cond_used: np.ndarray
    basis_params_used: object
    # inner-loop break bookkeeping: None when the block ran to completion
    break_j: int | None = None
    break_lhs: float = float("nan")
    break_rhs: float = float("nan")


def select_s_tilde(g, s_bar, c, eps, eps_star, r_norm):
    """Largest block size whose estimated basis condition passes the bound.

    Candidate i uses the Gram principal submatrix over the first i+1
    P-columns and first i R-columns. Size 1 is always accepted so the
    solver makes progress. Returns (s_tilde, per-size estimates).
    """
    conds = nested_basis_conds(g, s_bar)
    bound = eps_star / (c * eps * r_norm)
    s_tilde = 1
    for i in range(1, s_bar + 1):
        if conds[i] <= bound:
            s_tilde = i
    return s_tilde, conds


def _truncate_block_columns(s_bar, s_tilde):
    return list(range(0, s_tilde + 1)) + list(range(s_bar + 1, s_bar + 1 + s_tilde))


def adaptive_solve(problem, cfg):
    """Run adaptive s-step CG per cfg.variant.

    Returns (x, SolveTrace, CgCoefficients); per-outer-loop records are
    attached as trace.outer_records.
    """
    a, b = problem.a, problem.b
    nb = np.linalg.norm(b)
    nu = problem.norm_abs_a / problem.norm_a if problem.norm_a else 1.0

    x = problem.x0.copy()
    r = b - a.as_csr() @ x
    p = r.copy()

    trace = SolveTrace()
    coeffs = CgCoefficients()
    ritz = RitzState()
    run = _RunState()

    if cfg.variant == "old" or cfg.basis_kind == "monomial":
        lo, hi = cfg.spectral_bounds if cfg.spectral_bounds else (None, None)
        params = params_for(cfg.basis_kind, cfg.sigma, lo, hi, cfg.leja_grid)
    else:
        params = monomial_params(cfg.sigma)

    s_prev = None
    for k in range(cfg.max_outer):
        true_rel = np.linalg.norm(b - a.as_csr() @ x) / nb
        outcome = run.classify(trace, true_rel, cfg.eps_star, np.linalg.norm(r) / nb)
        if outcome:
            setattr(trace, outcome, True)
            break
        s_bar = cfg.s_bar0 if k == 0 else min(s_prev + cfg.f, cfg.sigma)
        try:
            block = build_block(a, p, r, params, s_bar)
        except BasisBreakdownError:
            trace.diverged = True
            break

        def strategy_c(s_for_bound, b_for_bound):
            if cfg.c_strategy != "full-bound":
                return c_strategy(cfg.c_strategy, ritz)
            tau = abs_matrix_norm(b_for_bound) / problem.norm_a
            info = (s_for_bound, a.n_a, nu, tau, problem.kappa_a)
            return c_strategy("full-bound", ritz, info)

        c_sel = strategy_c(s_bar, block.b_mat)
        r_rel = np.linalg.norm(r) / nb
        s_tilde, conds = select_s_tilde(
            block.g, s_bar, c_sel, MACHINE_UNIT, cfg.eps_star, r_rel
        )
        cols = _truncate_block_columns(s_bar, s_tilde)
        b_t = assemble_change_of_basis(s_tilde, params)
        trunc = type(block)(
            s=s_tilde,
            y=block.y[:, cols],
            b_mat=b_t,
            g=block.g[np.ix_(cols, cols)],
        )
        y_t, g_t = trunc.y, trunc.g

        coords = CoordState.initial(s_tilde)
        phi = np.sqrt(max(0.0, float(coords.rp @ (g_t @ coords.rp)))) / nb
        c_block = strategy_c(s_tilde, b_t)  # fixed for this block; refreshed per
        # iteration below only through the ritz-state strategies

        trace.mark_outer(s_tilde)
        est_hit = False
        break_info = (None, float("nan"), float("nan"))
        for j in range(s_tilde):
            num = float(coords.rp @ (g_t @ coords.rp))
            denom = float(coords.pp @ (g_t @ (b_t @ coords.pp)))
            if denom <= 0.0 or num < 0.0 or not np.isfinite(denom) or not np.isfinite(num):
                trace.diverged = True
                break
            alpha = num / denom
            qp = alpha * coords.pp
            coords.xp = coords.xp + qp
            coords.rp = coords.rp - b_t @ qp
            rr_new = float(coords.rp @ (g_t @ coords.rp))
            beta = rr_new / num
            coords.pp = coords.rp + beta * coords.pp
            coords.j = j + 1
            coeffs.append(alpha, beta)
            if alpha > 0.0 and beta > 0.0 and np.isfinite(alpha) and np.isfinite(beta):
                try:
                    ritz.absorb_step(alpha, beta)
                except BreakdownSignal:
                    pass

            est_rel = np.sqrt(max(0.0, rr_new)) / nb
            phi = max(phi, est_rel)

            x_j, r_j, _ = recover_iterates(trunc, coords, x)
            tv = b - a.as_csr() @ x_j
            trace.record_iteration(
                np.linalg.norm(tv) / nb,
                np.linalg.norm(r_j) / nb,
                np.linalg.norm(tv - r_j),
                ritz.xi_estimate(),
                ritz.lambda_min,
                ritz.lambda_max,
                ritz.psi,
            )

            # negative quadratures are Gram noise, not convergence
            if rr_new >= 0.0 and est_rel <= cfg.eps_star and j < s_tilde - 1:
                est_hit = True
                break
            if cfg.variant == "improved":
                c_now = c_block if cfg.c_strategy == "full-bound" else c_strategy(cfg.c_strategy, ritz)
                threshold = cfg.eps_star / (c_now * MACHINE_UNIT * phi)
                if j < s_tilde - 1 and conds[j + 2] >= threshold:
                    break_info = (j, conds[j + 2], threshold)
                    break
            elif est_rel > 0.0:
                threshold = cfg.eps_star / (c_block * MACHINE_UNIT * est_rel)
                if conds[s_tilde] >= threshold:
                    break_info = (j, conds[s_tilde], threshold)
                    break
        trace.s_schedule[-1] = coords.j
        trace.outer_records.append(
            OuterLoopRecord(
                k=k,
                s_bar=s_bar,
                s_tilde=s_tilde,
                s_actual=coords.j,
                phi=phi,
                cond_used=conds,
                basis_params_used=params,
                break_j=break_info[0],
                break_lhs=break_info[1],
                break_rhs=break_info[2],
            )
        )
        if trace.diverged:
            break
        x = x + y_t @ coords.xp
        r = y_t @ coords.rp
        p = y_t @ coords.pp
        s_prev = coords.j

        if cfg.variant == "improved" and cfg.basis_kind != "monomial":
            if trace.total_iters > 1 and ritz.count >= 2:
                lmin, lmax = ritz.lambda_min, ritz.lambda_max
                if 0.0 < lmin < lmax:
                    params = params_for(cfg.basis_kind, cfg.sigma, lmin, lmax, cfg.leja_grid)
        if est_hit and np.linalg.norm(b - a.as_csr() @ x) / nb > cfg.eps_star:
            continue

    if not (trace.converged or trace.diverged or trace.stagnated):
        if np.linalg.norm(b - a.as_csr() @ x) / nb <= cfg.eps_star:
            trace.converged = True
        else:
            trace.stagnated = True
    trace.check_consistency()
    return x, trace, coeffs


@dataclass
class AccuracyReport:
    """Outcome classification plus the table cell it renders to."""

    outcome: str
    cell: str
    total_outer: int = 0
    total_iters: int = 0
    attained: float = float("nan")


def attained_accuracy_report(trace):
    """Classify a completed trace and format the summary-table cell.

    Converged runs render as "outer (total)"; stagnated ones as an en dash
    with the attained relative residual in brackets; diverged ones as a
    bare en dash. Runs that merely hit their iteration budget report like
    stagnated ones.
    """
    if trace.converged:
        return AccuracyReport(
            outcome="converged",
            cell=f"{trace.total_outer} ({trace.total_iters})",
            total_outer=trace.total_outer,
            total_iters=trace.total_iters,
            attained=trace.final_true_resid,
        )
    if trace.diverged:
        return AccuracyReport(outcome="diverged", cell="–", attained=trace.min_true_resid)
    attained = trace.min_true_resid
    return AccuracyReport(
        outcome="stagnated",
        cell=f"– [{attained:.1e}]",
        attained=attained,
    )
