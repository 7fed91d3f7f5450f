"""Per-iteration solve records and the run control shared by all solvers."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lacore import spmv
from .ritz import BreakdownSignal, RitzState


@dataclass
class CgCoefficients:
    """The alpha/beta sequences of a CG run (all positive while healthy)."""

    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)

    def append(self, alpha, beta):
        self.alphas.append(float(alpha))
        self.betas.append(float(beta))

    def __len__(self):
        return len(self.alphas)


@dataclass
class SolveTrace:
    """One record per global iteration plus one step count per outer loop.

    Residual columns are relative to ||b||; resid_gap is the absolute norm
    of (b - A x_i) - r_i. c_values holds the per-iteration error-ratio
    estimate, lambda_min/lambda_max the running Ritz estimates. s_schedule
    holds the number of iterations each outer loop ran (1 per HSCG step;
    a blocked solve's last loop may have run none), so it sums to
    total_iters; the outer-loop counts and marks are read from it.
    """

    true_resid: list = field(default_factory=list)
    upd_resid: list = field(default_factory=list)
    resid_gap: list = field(default_factory=list)
    s_schedule: list = field(default_factory=list)
    c_values: list = field(default_factory=list)
    psi: list = field(default_factory=list)
    lambda_min: list = field(default_factory=list)
    lambda_max: list = field(default_factory=list)
    converged: bool = False
    stagnated: bool = False
    diverged: bool = False
    outer_records: list = field(default_factory=list)

    def record_iteration(self, true_rel, upd_rel, gap, c_val, lmin, lmax, psi=float("nan")):
        self.true_resid.append(float(true_rel))
        self.upd_resid.append(float(upd_rel))
        self.resid_gap.append(float(gap))
        self.c_values.append(float(c_val))
        self.lambda_min.append(float(lmin))
        self.lambda_max.append(float(lmax))
        self.psi.append(float(psi))

    @property
    def total_iters(self):
        return len(self.true_resid)

    @property
    def total_outer(self):
        return len(self.s_schedule)

    @property
    def outer_marks(self):
        """The global iteration each outer loop started at."""
        return [0, *itertools.accumulate(self.s_schedule)][: len(self.s_schedule)]

    @property
    def ended(self):
        """True once a stopping rule has set one of the three outcome flags."""
        return self.converged or self.diverged or self.stagnated

    @property
    def outcome(self):
        """The run's outcome: converged, else diverged, else stagnated (which
        includes a run that used up its budget)."""
        if self.converged:
            return "converged"
        return "diverged" if self.diverged else "stagnated"

    @property
    def final_true_resid(self):
        return self.true_resid[-1] if self.true_resid else np.inf

    @property
    def min_true_resid(self):
        return min(self.true_resid) if self.true_resid else np.inf


# Shared run-control defaults.
STAGNATION_WINDOW = 200
DIVERGENCE_LIMIT = 1e5


class _Run:
    """The run state every solver shares: residual records, Ritz estimates,
    the one place a breakdown pair is dropped, and the stopping rules.

    `start` forms r0 = b - A x0; `step` records one CG iteration; `stop` is
    consulted before each step and `finish` ends the run. The stopping rules
    read the true and updated residuals of the current iterate, relative to
    ||b||, as the last iteration recorded them (both ||r0|| / ||b|| at the
    start). Stagnation means the true residual has hit its attainable floor:
    no new minimum inside the window AND the updated residual r has collapsed
    well below the true one (the residual-gap signature of the floor).
    Mid-run plateaus where both residuals still agree -- routine in delayed
    s-step convergence -- must keep iterating.
    """

    def __init__(self, problem, eps_star):
        self.a, self.b = problem.a, problem.b
        self.nb = math.sqrt(self.b @ self.b)
        self.eps_star = eps_star
        self.trace = SolveTrace()
        self.coeffs = CgCoefficients()
        self.ritz = RitzState()
        self.true_rel = self.upd_rel = np.nan
        self.best = np.inf
        self.best_iter = 0

    def start(self, x):
        """Return r0 = b - A x and record its relative norm as both residuals."""
        r = self.b - spmv(self.a, x)
        self.true_rel = self.upd_rel = math.sqrt(r @ r) / self.nb
        return r

    def step(self, alpha, beta, x, r):
        """Record one iteration: its (alpha, beta) pair, then the true residual
        b - A x against the updated residual r. A pair the Ritz state rejects
        stays in the coefficients but out of the Ritz estimates."""
        self.coeffs.append(alpha, beta)
        ritz = self.ritz
        try:
            ritz.absorb_step(alpha, beta)
        except BreakdownSignal:
            pass
        tv = self.b - spmv(self.a, x)
        self.true_rel = math.sqrt(tv @ tv) / self.nb
        self.upd_rel = math.sqrt(r @ r) / self.nb
        gap = tv - r
        self.trace.record_iteration(
            self.true_rel, self.upd_rel, math.sqrt(gap @ gap),
            ritz.xi_estimate(), ritz.lambda_min, ritz.lambda_max, ritz.psi,
        )

    def stop(self):
        """True when the run must stop; sets the trace's converged, diverged
        or stagnated flag accordingly."""
        trace, true_rel = self.trace, self.true_rel
        if true_rel <= self.eps_star:
            trace.converged = True
        elif not math.isfinite(true_rel) or true_rel > DIVERGENCE_LIMIT:
            trace.diverged = True
        elif true_rel < self.best:
            self.best = true_rel
            self.best_iter = trace.total_iters
        elif (
            trace.total_iters - self.best_iter >= STAGNATION_WINDOW
            and self.upd_rel <= 0.01 * true_rel
        ):
            trace.stagnated = True
        return trace.ended

    def finish(self):
        """End the run and return (trace, coeffs). A run that used up its
        iteration budget without stopping ends converged if its true
        residual passes, stagnated otherwise."""
        trace = self.trace
        if not trace.ended:
            trace.converged = self.true_rel <= self.eps_star
            trace.stagnated = not trace.converged
        return trace, self.coeffs
