"""Conjugate gradient solvers for sparse SPD systems with reduced
synchronization: classic CG, fixed s-step CG, and adaptive s-step variants
with dynamically updated polynomial bases."""

from .adaptive import (
    AdaptiveConfig,
    OuterLoopRecord,
    adaptive_solve,
    select_s_tilde,
)
from .basis import (
    BasisParams,
    SStepBlock,
    build_block,
    chebyshev_params,
    leja_points,
    monomial_params,
    newton_params,
)
from .classic import assemble_tridiag, hscg_attainable_accuracy, hscg_solve
from .harness import ExperimentSpec, ResultRow, emit_summary_table, emit_trace_csv, run_grid
from .lacore import gram, gram_cond_estimate, spmv, sym_eig
from .matio import (
    ProblemInstance,
    SparseMatrix,
    build_rhs,
    estimate_operator_norms,
    jacobi_precondition,
    load_problem,
    read_matrix_market,
)
from .ritz import MACHINE_UNIT, RitzState, c_strategy
from .sstep import CoordState, recover_iterates, sstep_solve
from .trace import CgCoefficients, SolveTrace

__all__ = [
    "AdaptiveConfig",
    "BasisParams",
    "CgCoefficients",
    "CoordState",
    "ExperimentSpec",
    "MACHINE_UNIT",
    "OuterLoopRecord",
    "ProblemInstance",
    "ResultRow",
    "RitzState",
    "SStepBlock",
    "SolveTrace",
    "SparseMatrix",
    "adaptive_solve",
    "assemble_tridiag",
    "build_block",
    "build_rhs",
    "c_strategy",
    "chebyshev_params",
    "emit_summary_table",
    "emit_trace_csv",
    "estimate_operator_norms",
    "gram",
    "gram_cond_estimate",
    "hscg_attainable_accuracy",
    "hscg_solve",
    "jacobi_precondition",
    "leja_points",
    "load_problem",
    "monomial_params",
    "newton_params",
    "read_matrix_market",
    "recover_iterates",
    "run_grid",
    "select_s_tilde",
    "spmv",
    "sstep_solve",
    "sym_eig",
]
