"""The blocked CG engine: adaptive s-step CG, original and improved, with
fixed s-step CG as the special case that pins the block at s.

The adaptive variants grow a trial block of size s_bar, compute its Gram
matrix, and shrink to the largest s_tilde whose basis condition estimate
satisfies

    kappa(Y_{k,s_tilde}) <= eps_star / (c * eps * ||r_m||),

then iterate in coordinate space with a per-iteration break test. The
original variant consults one condition estimate (the full block's) against
the newest residual estimate; the improved variant consults the nested
estimate that the *next* iteration actually depends on, against the running
maximum residual phi, with c refreshed every iteration from the Ritz state.
After every outer loop past the first iteration, the improved variant
regenerates the basis parameters from the extremal Ritz estimates if they moved.
Fixed s-step CG (`sstep.sstep_solve`) iterates on the monomial block of
size s as built: no truncation, no break test and no parameter refresh.

Each solve allocates one basis buffer and one work buffer of
(2 sigma + 1) n entries. Every block is built row-major into the first; an
untruncated adaptive block is iterated on in place, a truncated one is
gathered into the work buffer, and fixed s-step iterates on a C-ordered copy
there. The per-iteration trace maps back only x and r; `recover_iterates`
runs once per outer loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    BASIS_KINDS,
    BasisBreakdownError,
    SStepBlock,
    assemble_change_of_basis,
    build_block,
    params_for,
)
from .lacore import nested_basis_conds
from .ritz import MACHINE_UNIT, RitzState, abs_matrix_norm, c_strategy
from .trace import CgCoefficients, SolveTrace, _RunState


@dataclass
class AdaptiveConfig:
    """Run controls for adaptive_solve.

    s_bar0 and f default to sigma (trial blocks start at full size; the
    conservative initial c protects the first block). Every run starts from
    the monomial basis; basis_kind applies to the improved variant's dynamic
    updates, and the original variant keeps the monomial parameters.
    """

    sigma: int
    eps_star: float
    s_bar0: int | None = None
    f: int | None = None
    basis_kind: str = "newton"
    c_strategy: str = "adaptive"
    variant: str = "improved"
    max_outer: int = 5000

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
        if self.basis_kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.basis_kind!r}")


@dataclass
class OuterLoopRecord:
    k: int
    s_bar: int
    s_tilde: int
    s_actual: int
    phi: float
    # nested condition estimates; None in fixed s-step, which computes none
    cond_used: np.ndarray | None
    basis_params_used: object
    # inner-loop break bookkeeping: None when the block ran to completion
    break_j: int | None = None
    break_lhs: float = float("nan")
    break_rhs: float = float("nan")


@dataclass
class CoordState:
    """Coordinates of (x - x_base, r, p) in the block basis.

    Initially p' selects the first P-column, r' the first R-column, x' = 0.
    """

    xp: np.ndarray
    rp: np.ndarray
    pp: np.ndarray
    j: int = 0

    @classmethod
    def initial(cls, s):
        dim = 2 * s + 1
        xp = np.zeros(dim)
        rp = np.zeros(dim)
        pp = np.zeros(dim)
        pp[0] = 1.0
        rp[s + 1] = 1.0
        return cls(xp=xp, rp=rp, pp=pp)


def recover_iterates(block, coords, x_base):
    """Map coordinates back to length-n vectors: x includes the x_base shift."""
    if len(coords.xp) != 2 * block.s + 1:
        raise ValueError("coordinate length does not match block size")
    x = x_base + block.y @ coords.xp
    r = block.y @ coords.rp
    p = block.y @ coords.pp
    return x, r, p


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
    return _blocked_solve(problem, cfg, fixed=False)


def _blocked_solve(problem, cfg, fixed):
    """The one outer and inner loop of the blocked solvers.

    fixed=True is fixed s-step CG at s = cfg.sigma: the block is used as
    built, with no truncation and no break test, and a monomial cfg skips
    the parameter refresh.
    """
    a, b = problem.a, problem.b
    nb = np.linalg.norm(b)
    nu = problem.norm_abs_a / problem.norm_a if problem.norm_a else 1.0

    x = problem.x0.copy()
    r = b - a.as_csr() @ x
    p = r.copy()
    # One basis buffer and one work buffer per solve, flat so that the
    # leading (2s+1) n entries form a contiguous (2s+1, n) array for every
    # s <= sigma, and the loop below allocates no n x (2s+1) array.
    basis_buf = np.empty((2 * cfg.sigma + 1) * a.n)
    work_buf = np.empty_like(basis_buf)

    trace = SolveTrace()
    coeffs = CgCoefficients()
    ritz = RitzState()
    run = _RunState()
    # no spectral interval is known yet: the monomial basis for every kind
    params = params_for(cfg.basis_kind, cfg.sigma)

    def strategy_c(s_for_bound, b_for_bound):
        if cfg.c_strategy != "full-bound":
            return c_strategy(cfg.c_strategy, ritz)
        tau = abs_matrix_norm(b_for_bound) / problem.norm_a
        info = (s_for_bound, a.n_a, nu, tau, problem.kappa_a)
        return c_strategy("full-bound", ritz, info)

    s_prev = None
    for k in range(cfg.max_outer):
        if run.stop(trace, np.linalg.norm(b - a.as_csr() @ x) / nb, cfg.eps_star, r, nb):
            break
        s_bar = cfg.s_bar0 if k == 0 else min(s_prev + cfg.f, cfg.sigma)
        try:
            block = build_block(a, p, r, params, s_bar, out=basis_buf)
        except BasisBreakdownError:
            trace.diverged = True
            break

        # A GEMV on a C-ordered Y and one on an F-ordered Y of the same
        # values round differently, so each path keeps the layout it has
        # always iterated on: fixed s-step a C-ordered copy of the block,
        # the adaptive variants the F-ordered block (whole, or its kept
        # rows gathered, as y[:, cols] would be).
        if fixed:
            s_tilde, conds = s_bar, None
            y_c = work_buf[: block.y.size].reshape(block.y.shape)
            y_c[...] = block.y
            trunc = SStepBlock(s=s_bar, y=y_c, b_mat=block.b_mat, g=block.g)
        else:
            c_sel = strategy_c(s_bar, block.b_mat)
            r_rel = np.linalg.norm(r) / nb
            s_tilde, conds = select_s_tilde(
                block.g, s_bar, c_sel, MACHINE_UNIT, cfg.eps_star, r_rel
            )
            if s_tilde == s_bar:
                trunc = block
            else:
                cols = _truncate_block_columns(s_bar, s_tilde)
                rows = work_buf[: len(cols) * a.n].reshape(len(cols), a.n)
                # cols are in range; mode "raise" would buffer a copy of out
                np.take(block.y.T, cols, axis=0, out=rows, mode="clip")
                trunc = SStepBlock(
                    s=s_tilde,
                    y=rows.T,
                    b_mat=assemble_change_of_basis(s_tilde, params),
                    g=block.g[np.ix_(cols, cols)],
                )
            # fixed for this block; refreshed per iteration below only
            # through the ritz-state strategies
            c_block = strategy_c(s_tilde, trunc.b_mat)
        g_t, b_t = trunc.g, trunc.b_mat

        coords = CoordState.initial(s_tilde)
        phi = np.sqrt(max(0.0, float(coords.rp @ (g_t @ coords.rp)))) / nb

        trace.mark_outer(s_tilde)
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
                ritz.absorb_step(alpha, beta)

            est_rel = np.sqrt(max(0.0, rr_new)) / nb
            phi = max(phi, est_rel)

            # the trace needs x_j and r_j only; p waits for the outer boundary
            x_j = x + trunc.y @ coords.xp
            r_j = trunc.y @ coords.rp
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
                break
            if fixed:
                continue
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
            OuterLoopRecord(k, s_bar, s_tilde, coords.j, phi, conds, params, *break_info)
        )
        if trace.diverged:
            break
        x, r, p = recover_iterates(trunc, coords, x)
        s_prev = coords.j

        if cfg.variant == "improved" and cfg.basis_kind != "monomial":
            if trace.total_iters > 1 and ritz.count >= 2:
                lmin, lmax = ritz.lambda_min, ritz.lambda_max
                # the parameters depend on the interval alone: an unchanged one keeps them
                if 0.0 < lmin < lmax and (lmin, lmax) != params.generated_from:
                    params = params_for(cfg.basis_kind, cfg.sigma, lmin, lmax)

    if not trace.ended:
        run.out_of_budget(trace, np.linalg.norm(b - a.as_csr() @ x) / nb, cfg.eps_star)
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
