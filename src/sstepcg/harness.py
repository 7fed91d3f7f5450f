"""Experiment driver: algorithm x matrix x s x tolerance grids, trace CSVs,
and compact summary tables."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .adaptive import AdaptiveConfig, adaptive_solve
from .basis import BASIS_KINDS
from .classic import hscg_attainable_accuracy, hscg_solve
from .matio import load_problem
from .ritz import C_STRATEGIES
from .sstep import sstep_solve

ALGORITHMS = ("hscg", "sstep", "adaptive-old", "adaptive-improved")


@dataclass
class ExperimentSpec:
    """One grid of runs. eps_modes entries are either the string
    'hscg-attainable' or a float tolerance."""

    matrices: list
    algorithms: list = field(default_factory=lambda: list(ALGORITHMS))
    s_values: list = field(default_factory=lambda: [5, 10, 15])
    eps_modes: list = field(default_factory=lambda: ["hscg-attainable", 1e-6])
    basis_kinds: list = field(default_factory=lambda: ["newton", "chebyshev"])
    c_strategies: list = field(default_factory=lambda: ["adaptive"])
    max_outer: int = 5000
    max_iters: int = None

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("spec needs at least one matrix")
        if not self.algorithms:
            raise ValueError("spec needs at least one algorithm")
        for what, given, known in (
            ("algorithm", self.algorithms, ALGORITHMS),
            ("basis kind", self.basis_kinds, BASIS_KINDS),
            ("c strategy", self.c_strategies, C_STRATEGIES),
        ):
            for name in given:
                if name not in known:
                    raise ValueError(f"unknown {what} {name!r}")
        if any(s < 1 for s in self.s_values):
            raise ValueError(f"s values must be >= 1, got {self.s_values}")
        # a zero budget would make the HSCG floor inf and every run "converge"
        if self.max_outer < 1 or (self.max_iters is not None and self.max_iters < 1):
            raise ValueError("max_outer and max_iters must be >= 1")
        for mode in self.eps_modes:
            if mode != "hscg-attainable" and not (isinstance(mode, (int, float)) and 0 < mode < math.inf):
                raise ValueError(f"eps mode must be 'hscg-attainable' or a positive finite float, got {mode!r}")


@dataclass
class ResultRow:
    matrix: str
    algorithm: str
    basis: str
    c_strategy: str
    s: int
    eps_star: float
    cell: str
    outcome: str
    total_iters: int
    total_outer: int
    final_true_resid: float
    trace_file: str = ""


def round_up_2sig(x):
    """Round up to two significant digits (how attainable tolerances are quoted)."""
    if x <= 0 or not math.isfinite(x):
        return x
    exp = math.floor(math.log10(x))
    scale = 10.0 ** (exp - 1)
    # x / scale of an exact two-digit x can land just above its integer
    return math.ceil(round(x / scale, 9)) * scale


def summary_cell(trace):
    """The summary-table cell of a completed trace.

    Converged runs render as "outer (total)"; stagnated ones as an en dash
    with the attained relative residual in brackets; diverged ones as a
    bare en dash. Runs that merely hit their iteration budget report like
    stagnated ones.
    """
    outcome = trace.outcome
    if outcome == "converged":
        return f"{trace.total_outer} ({trace.total_iters})"
    if outcome == "diverged":
        return "–"
    return f"– [{trace.min_true_resid:.1e}]"


def _cells_for(spec, alg):
    """Enumerate (s, basis, c_strategy) triples for one algorithm."""
    if alg == "hscg":
        return [(0, "", "")]
    if alg == "sstep":
        return [(s, "monomial", "") for s in spec.s_values]
    if alg == "adaptive-old":
        return [(s, "monomial", "unit") for s in spec.s_values]
    return [
        (s, basis, strat)
        for s in spec.s_values
        for basis in spec.basis_kinds
        for strat in spec.c_strategies
    ]


def _run_cell(problem, alg, s, basis, strat, eps_star, max_outer=5000, max_iters=None, s_bar0=None, f=None):
    """One solve of one cell, for the grid and for `sstepcg solve`; returns
    its trace, with every iteration's residuals formed. An adaptive cell
    without a c strategy runs the grid's: unit c for adaptive-old, adaptive
    c for adaptive-improved."""
    if alg == "hscg":
        _, trace, _ = hscg_solve(problem, eps_star, max_iters=max_iters)
    elif alg == "sstep":
        _, trace, _ = sstep_solve(problem, s, eps_star, max_outer=max_outer, full_trace=True)
    else:
        cfg = AdaptiveConfig(
            sigma=s,
            eps_star=eps_star,
            s_bar0=s_bar0,
            f=f,
            basis_kind=basis,
            c_strategy=strat or ("unit" if alg == "adaptive-old" else "adaptive"),
            variant="old" if alg == "adaptive-old" else "improved",
            max_outer=max_outer,
        )
        _, trace, _ = adaptive_solve(problem, cfg, full_trace=True)
    return trace


def run_grid(spec, out_dir):
    """Execute every cell, writing one trace CSV per run and returning the rows.

    Per-cell numerical failures become diverged/stagnated rows; the grid
    itself never aborts. Output ordering is deterministic.
    """
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for entry in spec.matrices:
        path, label = entry if isinstance(entry, tuple) else (entry, os.path.splitext(os.path.basename(entry))[0])
        problem = load_problem(path, label=label)
        attainable = None
        for mode in spec.eps_modes:
            if mode == "hscg-attainable":
                if attainable is None:
                    attainable = round_up_2sig(
                        hscg_attainable_accuracy(problem, max_iters=spec.max_iters)
                    )
                eps_star = attainable
            else:
                eps_star = float(mode)
            for alg in spec.algorithms:
                for s, basis, strat in _cells_for(spec, alg):
                    trace = _run_cell(problem, alg, s, basis, strat, eps_star, spec.max_outer, spec.max_iters)
                    tag = f"{label}_{alg}"
                    if s:
                        tag += f"_s{s}"
                    if basis:
                        tag += f"_{basis}"
                    if strat:
                        tag += f"_{strat}"
                    tag += f"_eps{eps_star:.2e}"
                    trace_path = os.path.join(out_dir, tag + ".csv")
                    emit_trace_csv(trace, trace_path)
                    rows.append(
                        ResultRow(
                            matrix=label,
                            algorithm=alg,
                            basis=basis,
                            c_strategy=strat,
                            s=s,
                            eps_star=eps_star,
                            cell=summary_cell(trace),
                            outcome=trace.outcome,
                            total_iters=trace.total_iters,
                            total_outer=trace.total_outer,
                            final_true_resid=trace.final_true_resid,
                            trace_file=trace_path,
                        )
                    )
    return rows


TRACE_HEADER = (
    "global_iter,outer_iter,s_k,rel_true_resid,rel_upd_resid,resid_gap,"
    "lambda_min_est,lambda_max_est,c_value"
)


# one trace CSV line: global and outer iteration, s_k, then six reals
_TRACE_LINE = "%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"


def emit_trace_csv(trace, path):
    """One line per global iteration, full 17-significant-digit decimals."""
    n = trace.total_iters
    steps = trace.s_schedule
    outer_of = np.repeat(np.arange(1, len(steps) + 1), steps)
    s_of = np.repeat(steps, steps)
    # Python ints and floats format faster than NumPy scalars
    rows = zip(
        range(1, n + 1),
        outer_of.tolist(),
        s_of.tolist(),
        trace.true_resid,
        trace.upd_resid,
        trace.resid_gap,
        trace.lambda_min,
        trace.lambda_max,
        trace.c_values,
    )
    with open(path, "w") as f:
        f.write(TRACE_HEADER + "\n")
        f.writelines(_TRACE_LINE % row for row in rows)
    return path


def _row_label(row):
    bits = [row.algorithm]
    if row.basis and row.algorithm != "hscg":
        bits.append(row.basis)
    if row.c_strategy:
        bits.append(f"c={row.c_strategy}")
    return " ".join(bits)


def emit_summary_table(rows, fmt, path):
    """One table per (matrix, eps_star) group; algorithms down, s across."""
    if not rows:
        raise ValueError("no rows to format")
    if fmt not in ("markdown", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    groups = {}
    for row in rows:
        groups.setdefault((row.matrix, row.eps_star), []).append(row)
    lines = []
    for (matrix, eps_star), grp in sorted(groups.items()):
        s_values = sorted({r.s for r in grp if r.s})
        labels = []
        for r in grp:
            lab = _row_label(r)
            if lab not in labels:
                labels.append(lab)
        header = [f"{matrix} eps*={eps_star:.2e}"] + [
            (f"s={s}" if s else "") for s in (s_values or [0])
        ]
        body = []
        for lab in labels:
            cells = []
            for s in s_values or [0]:
                match = [r for r in grp if _row_label(r) == lab and (r.s == s or not r.s)]
                cells.append(match[0].cell if match else "")
            body.append([lab] + cells)
        if fmt == "markdown":
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            for rowcells in body:
                lines.append("| " + " | ".join(rowcells) + " |")
            lines.append("")
        else:
            lines.append(",".join('"' + h + '"' for h in header))
            for rowcells in body:
                lines.append(",".join('"' + c + '"' for c in rowcells))
            lines.append("")
    with open(path, "w") as f:
        f.write("\n".join(lines))
    return path
