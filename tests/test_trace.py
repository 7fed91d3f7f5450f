import math
import pickle

import numpy as np
import pytest

from conftest import count_spmvs, laplacian_2d_problem, problem_from_dense, random_spd
from sstepcg.adaptive import AdaptiveConfig, adaptive_solve
from sstepcg.classic import hscg_solve
from sstepcg.lacore import spmv
from sstepcg.sstep import sstep_solve
from sstepcg.trace import SolveTrace

COLUMNS = ("true_resid", "upd_resid", "resid_gap", "c_values", "psi", "lambda_min", "lambda_max")


def _solve(case):
    prob = problem_from_dense(random_spd(50, 1e4, seed=44))
    if case == "hscg":
        return hscg_solve(prob, 1e-10)[1]
    if case == "sstep":
        return sstep_solve(prob, 4, 1e-10)[1]
    if case == "budget-exhausted":
        return sstep_solve(prob, 3, 1e-12, max_outer=2)[1]
    if case == "diverged":
        prob = problem_from_dense(random_spd(30, 1e2, seed=1))
        return adaptive_solve(prob, AdaptiveConfig(sigma=10, eps_star=1e-6, basis_kind="chebyshev"))[1]
    variant = case.removeprefix("adaptive-")
    return adaptive_solve(prob, AdaptiveConfig(sigma=6, eps_star=1e-10, basis_kind="chebyshev", variant=variant))[1]


OUTCOMES = {
    "hscg": "converged",
    "sstep": "converged",
    "adaptive-old": "converged",
    "adaptive-improved": "converged",
    "budget-exhausted": "stagnated",
    "diverged": "diverged",
}


class TestOuterLoopRecord:
    """s_schedule is the one stored outer-loop fact; counts and marks are
    read from it and must agree with the per-iteration columns."""

    @pytest.mark.parametrize("case", list(OUTCOMES))
    def test_schedule_matches_columns(self, case):
        trace = _solve(case)
        assert trace.outcome == OUTCOMES[case]
        assert trace.total_outer > 1
        for col in COLUMNS:
            assert len(getattr(trace, col)) == trace.total_iters
        assert sum(trace.s_schedule) == trace.total_iters
        assert trace.total_outer == len(trace.s_schedule)
        marks = trace.outer_marks
        assert marks == [0, *np.cumsum(trace.s_schedule[:-1]).tolist()]
        assert all(s_k >= 1 for s_k in trace.s_schedule[:-1])
        if case == "hscg":
            assert trace.s_schedule == [1] * trace.total_iters
            assert trace.outer_records == []
        else:
            assert trace.s_schedule == [rec.s_actual for rec in trace.outer_records]

    def test_diverging_chebyshev_schedule(self):
        trace = _solve("diverged")
        assert trace.s_schedule == [1, 1, 4, 6, 8]
        assert trace.outer_marks == [0, 1, 2, 6, 12]
        assert trace.total_iters == 20

    def test_empty_trace(self):
        trace = SolveTrace()
        assert (trace.total_iters, trace.total_outer, trace.outer_marks) == (0, 0, [])

    def test_trailing_empty_loop_keeps_its_mark(self):
        # a block that breaks down at its first step records a zero count
        trace = SolveTrace(s_schedule=[3, 2, 0])
        assert trace.outer_marks == [0, 3, 5]
        assert trace.total_outer == 3


class TestOutcome:
    @pytest.mark.parametrize(
        "flags,expected",
        [
            ({"converged": True}, "converged"),
            ({"converged": True, "diverged": True, "stagnated": True}, "converged"),
            ({"diverged": True, "stagnated": True}, "diverged"),
            ({"stagnated": True}, "stagnated"),
            ({}, "stagnated"),
        ],
    )
    def test_precedence(self, flags, expected):
        assert SolveTrace(**flags).outcome == expected


# (algorithm, basis, c strategy): fixed s-step, both adaptive variants, every
# basis kind and the adaptive, kappa-estimate and full-bound c strategies
LEVEL_CASES = [
    ("sstep", "monomial", ""),
    ("adaptive-old", "monomial", "unit"),
    ("adaptive-improved", "monomial", "adaptive"),
    ("adaptive-improved", "newton", "adaptive"),
    ("adaptive-improved", "chebyshev", "adaptive"),
    ("adaptive-improved", "newton", "kappa-estimate"),
    ("adaptive-improved", "chebyshev", "full-bound"),
]


def _blocked(problem, alg, basis, strat, full_trace, sigma=6, eps_star=1e-8):
    if alg == "sstep":
        return sstep_solve(problem, sigma, eps_star, full_trace=full_trace)
    cfg = AdaptiveConfig(
        sigma=sigma, eps_star=eps_star, basis_kind=basis, c_strategy=strat,
        variant="old" if alg == "adaptive-old" else "improved",
    )
    return adaptive_solve(problem, cfg, full_trace=full_trace)


def _bits(col):
    return np.asarray(col, dtype=float).tobytes()


def _boundary_rows(trace):
    """Rows whose residuals every level forms: the last iteration of each
    outer loop that was recovered (all but a last one that diverged inside
    its block)."""
    ends = np.cumsum(trace.s_schedule) - 1
    return (ends[:-1] if trace.diverged else ends).tolist()


def _assert_levels_agree(default, full):
    (x_d, t_d, c_d), (x_f, t_f, c_f) = default, full
    assert x_d.tobytes() == x_f.tobytes()
    assert t_d.s_schedule == t_f.s_schedule
    assert pickle.dumps(t_d.outer_records) == pickle.dumps(t_f.outer_records)
    assert _bits(c_d.alphas) == _bits(c_f.alphas) and _bits(c_d.betas) == _bits(c_f.betas)
    for col in ("c_values", "psi", "lambda_min", "lambda_max"):
        assert _bits(getattr(t_d, col)) == _bits(getattr(t_f, col)), col
    assert (t_d.converged, t_d.stagnated, t_d.diverged) == (t_f.converged, t_f.stagnated, t_f.diverged)
    rows = _boundary_rows(t_d)
    assert rows
    for col in ("true_resid", "upd_resid", "resid_gap"):
        d, f = np.asarray(getattr(t_d, col)), np.asarray(getattr(t_f, col))
        assert d[rows].tobytes() == f[rows].tobytes(), col
        assert not np.isnan(f).any(), col
        inner = np.ones(len(d), dtype=bool)
        inner[rows] = False
        assert np.isnan(d[inner]).all() and not np.isnan(d[rows]).any(), col


class TestTraceLevels:
    """The default trace forms the true residual once per outer loop; the full
    trace forms it every iteration. Nothing the algorithm reads may differ."""

    @pytest.fixture(scope="class", params=["nos1", "lap16"])
    def problem(self, request, nos1_problem):
        return nos1_problem if request.param == "nos1" else laplacian_2d_problem(16)

    @pytest.mark.parametrize("alg,basis,strat", LEVEL_CASES)
    def test_same_bits_and_spmv_counts(self, monkeypatch, problem, alg, basis, strat):
        calls = count_spmvs(monkeypatch)
        default = _blocked(problem, alg, basis, strat, full_trace=False)
        n_default = len(calls)
        calls.clear()
        full = _blocked(problem, alg, basis, strat, full_trace=True)
        n_full = len(calls)
        _assert_levels_agree(default, full)

        trace = default[1]
        assert trace.converged and trace.total_iters > trace.total_outer > 1
        s_bars = [rec.s_bar for rec in trace.outer_records]
        recovered = len(_boundary_rows(trace))
        assert recovered == trace.total_outer
        assert n_default == 1 + sum(2 * s - 1 for s in s_bars) + recovered
        assert n_full == n_default + trace.total_iters - recovered

    def test_mid_block_divergence(self):
        # the last Chebyshev block ends on a negative quadrature after it has
        # recorded inner rows; x stays the last boundary's
        problem = problem_from_dense(random_spd(30, 1e2, seed=1))
        cfg = AdaptiveConfig(sigma=10, eps_star=1e-6, basis_kind="chebyshev")
        default = adaptive_solve(problem, cfg)
        full = adaptive_solve(problem, cfg, full_trace=True)
        _assert_levels_agree(default, full)
        x, trace, _ = default
        assert trace.diverged and trace.s_schedule[-1] > 0
        assert all(math.isnan(v) for v in trace.true_resid[-trace.s_schedule[-1]:])
        tv = problem.b - spmv(problem.a, x)
        assert trace.final_true_resid == math.sqrt(tv @ tv) / math.sqrt(problem.b @ problem.b)

    def test_hscg_forms_every_row(self):
        _, trace, _ = hscg_solve(problem_from_dense(random_spd(50, 1e4, seed=44)), 1e-10)
        for col in ("true_resid", "upd_resid", "resid_gap"):
            assert not np.isnan(getattr(trace, col)).any()


class TestFormedRows:
    """final_true_resid and min_true_resid read only the rows that were formed."""

    def test_nan_rows_skipped(self):
        nan = math.nan
        trace = SolveTrace(s_schedule=[3, 2], true_resid=[nan, nan, 0.5, nan, 0.25])
        assert trace.final_true_resid == 0.25
        assert trace.min_true_resid == 0.25
        trace = SolveTrace(s_schedule=[2, 2], true_resid=[nan, 0.5, nan, nan])
        assert trace.final_true_resid == trace.min_true_resid == 0.5

    def test_no_formed_row(self):
        trace = SolveTrace(s_schedule=[2], true_resid=[math.nan, math.nan])
        assert trace.final_true_resid == trace.min_true_resid == np.inf
