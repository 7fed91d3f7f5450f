"""Benchmark workloads: which matrices, which solver cells, and how a cell is
run and checked.

A cell is one (matrix, algorithm, basis, c strategy, eps*) solve. Cells are
run through the library's public solver functions, looked up on their
modules at call time so that the traced run's wrappers see every call. The
correctness gate (`ResidualGate`) recomputes the relative residual from the
Matrix Market file with scipy alone, independently of sstepcg.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import random
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

from sstepcg import adaptive, classic, cli, harness, matio, sstep

from laplacian import Laplacian

UNIT_ROUNDOFF = 2.0 ** -53
ATTAINABLE = "hscg-attainable"
GRID_SPEC = os.path.join("experiments", "reproduction_grid.spec")
GRID_SIGMA = 10
# The paper's claim: these algorithms reach every target the grid sets.
MUST_CONVERGE = ("hscg", "adaptive-improved")


@dataclass(frozen=True)
class Cell:
    matrix: str
    alg: str
    s: int
    basis: str
    strat: str
    eps_mode: object  # ATTAINABLE or a float

    @property
    def tag(self):
        bits = [self.matrix, self.alg]
        if self.s:
            bits.append(f"s{self.s}")
        bits += [b for b in (self.basis, self.strat) if b]
        bits.append(f"eps{self.eps_mode}")
        return "_".join(bits)


@dataclass
class Workload:
    name: str
    matrices: dict  # label -> Matrix Market path
    cells: list
    spec: harness.ExperimentSpec  # the grid spec at s = GRID_SIGMA: solver limits
    write_csv: bool = False
    generated: dict = None  # label -> Laplacian, for closed-form kappa
    setup_repeats: int = 40

    @property
    def floor_matrices(self):
        return sorted({c.matrix for c in self.cells if c.eps_mode == ATTAINABLE})


def _bundled_matrices(spec):
    return {os.path.splitext(os.path.basename(p))[0]: p for p in spec.matrices}


def _grid_cells(spec, matrices):
    """The grid spec's cells, enumerated in the order `sstepcg grid` runs them."""
    return [
        Cell(label, alg, s, basis, strat, eps)
        for label in matrices
        for eps in spec.eps_modes
        for alg in spec.algorithms
        for s, basis, strat in harness._cells_for(spec, alg)
    ]


ANISO3D = Laplacian(shape=(64, 64, 64), coeffs=(1.0, 1.0, 0.01))


def build_workload(name, tmp_dir):
    """Make the named workload. Generated matrices are written into tmp_dir."""
    spec = dataclasses.replace(cli._parse_spec_file(GRID_SPEC), s_values=[GRID_SIGMA])
    if name == "bundled-grid":
        matrices = _bundled_matrices(spec)
        return Workload(name, matrices, _grid_cells(spec, matrices), spec, write_csv=True)
    if name == "bundled-cstrat":
        matrices = _bundled_matrices(spec)
        cells = [
            Cell(label, "adaptive-improved", GRID_SIGMA, "chebyshev", strat, 1e-6)
            for label in matrices
            for strat in ("kappa-estimate", "full-bound")
        ]
        return Workload(name, matrices, cells, spec)
    if name == "aniso3d":
        path = ANISO3D.write_matrix_market(os.path.join(tmp_dir, "aniso3d.mtx"))
        cells = [Cell("aniso3d", "hscg", 0, "", "", 1e-6)] + [
            Cell("aniso3d", "adaptive-improved", GRID_SIGMA, basis, "adaptive", 1e-6)
            for basis in ("newton", "chebyshev")
        ]
        return Workload(name, {"aniso3d": path}, cells, spec, generated={"aniso3d": ANISO3D},
                        setup_repeats=3)
    raise ValueError(f"unknown workload {name!r}")


def load_all(workload, tracer=None):
    """One set-up: load_problem over every matrix of the workload."""
    problems = {}
    for label, path in workload.matrices.items():
        with _span(tracer, "bench.load", label):
            problems[label] = matio.load_problem(path, label=label)
    return problems


def run_cell(problem, cell, eps_star, spec):
    """One solve as `harness._run_cell` does it, also returning x for the gate."""
    if cell.alg == "hscg":
        x, trace, _ = classic.hscg_solve(problem, eps_star, max_iters=spec.max_iters)
    elif cell.alg == "sstep":
        x, trace, _ = sstep.sstep_solve(problem, cell.s, eps_star, max_outer=spec.max_outer)
    else:
        cfg = adaptive.AdaptiveConfig(
            sigma=cell.s,
            eps_star=eps_star,
            basis_kind=cell.basis,
            c_strategy=cell.strat or "unit",
            variant="old" if cell.alg == "adaptive-old" else "improved",
            max_outer=spec.max_outer,
        )
        x, trace, _ = adaptive.adaptive_solve(problem, cfg)
    return x, trace


@dataclass
class CellRun:
    cell: Cell
    eps_star: float
    x: np.ndarray
    trace: object

    @property
    def iterations(self):
        return self.trace.total_iters

    @property
    def reductions(self):
        """Global synchronizations: one Gram per outer loop, two dots per HSCG step."""
        if self.cell.alg == "hscg":
            return 2 * self.trace.total_iters
        return self.trace.total_outer

    def digest(self):
        t = self.trace
        h = hashlib.sha256(np.ascontiguousarray(self.x, dtype=float).tobytes())
        for col in (t.true_resid, t.upd_resid, t.resid_gap, t.lambda_min, t.lambda_max,
                    t.c_values, t.psi):
            h.update(np.asarray(col, dtype=float).tobytes())
        for col in (t.outer_marks, t.s_schedule):
            h.update(np.asarray(col, dtype=np.int64).tobytes())
        h.update(bytes([t.converged, t.stagnated, t.diverged]))
        return h.hexdigest()[:16]

    def block_sizes(self):
        """(s_bar, s_actual) per outer loop of a blocked solve."""
        if self.cell.alg == "hscg":
            return []
        if self.cell.alg == "sstep":
            return [(self.cell.s, s) for s in self.trace.s_schedule]
        return [(rec.s_bar, rec.s_actual) for rec in self.trace.outer_records]


def solve_pass(workload, problems, order_seed, csv_dir, tracer=None):
    """Run the HSCG floors, then every cell once, in a seed-shuffled order
    (the canonical order when order_seed is None).

    Returns (floors, runs) with runs in the workload's canonical cell order.
    """
    floor_order = list(workload.floor_matrices)
    order = list(range(len(workload.cells)))
    if order_seed is not None:
        rng = random.Random(order_seed)
        rng.shuffle(floor_order)
        rng.shuffle(order)
    floors = {}
    for label in floor_order:
        with _span(tracer, "bench.floor", label):
            floors[label] = harness.round_up_2sig(
                classic.hscg_attainable_accuracy(problems[label], max_iters=workload.spec.max_iters)
            )
    runs = [None] * len(order)
    for i in order:
        cell = workload.cells[i]
        eps = floors[cell.matrix] if cell.eps_mode == ATTAINABLE else cell.eps_mode
        with _span(tracer, "bench.cell", cell.tag):
            x, trace = run_cell(problems[cell.matrix], cell, eps, workload.spec)
            if csv_dir is not None:
                harness.emit_trace_csv(trace, os.path.join(csv_dir, f"{cell.tag}.csv"))
        runs[i] = CellRun(cell, eps, x, trace)
    return floors, runs


def _span(tracer, name, label):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, label)


class ResidualGate:
    """Relative residuals recomputed with scipy from the Matrix Market files.

    The scaling D^{-1/2} A D^{-1/2} (D = largest stored entry per row) and
    b = 1/sqrt(n) are rebuilt here from the paper's setup. A converged
    cell passes when ||b - A x|| / ||b|| <= eps* plus the rounding bound of
    forming the residual, (n_a + 5) u || |A| |x| + |b| || / ||b||.
    """

    def __init__(self, matrices):
        self.ops = {}
        for label, path in matrices.items():
            a = sp.csr_matrix(scipy.io.mmread(path))
            d = a.max(axis=1).toarray().ravel()
            scale = sp.diags(1.0 / np.sqrt(d))
            a_hat = sp.csr_matrix(scale @ a @ scale)
            n_a = int(np.diff(a_hat.indptr).max())
            self.ops[label] = (a_hat, n_a)

    def rhs(self, label):
        n = self.ops[label][0].shape[0]
        return np.full(n, 1.0 / math.sqrt(n))

    def check(self, run):
        """Reasons the cell's output is wrong (empty when it is right)."""
        label = run.cell.matrix
        problems = []
        if run.cell.alg in MUST_CONVERGE and not run.trace.converged:
            problems.append("did not converge")
        if run.trace.converged:
            a_hat, n_a = self.ops[label]
            b = self.rhs(label)
            nb = np.linalg.norm(b)
            slack = (n_a + 5) * UNIT_ROUNDOFF * np.linalg.norm(abs(a_hat) @ np.abs(run.x) + np.abs(b)) / nb
            rel = np.linalg.norm(b - a_hat @ run.x) / nb
            if not rel <= run.eps_star + slack:
                problems.append(f"residual {rel:.3e} > eps* {run.eps_star:.3e} + {slack:.1e}")
        return problems

    def exact_kappa(self, label):
        """kappa of the scaled matrix from a dense eigensolve (small n only)."""
        a_hat = self.ops[label][0]
        w = np.linalg.eigvalsh(a_hat.toarray())
        return float(w[-1] / w[0])
