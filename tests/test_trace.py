import numpy as np
import pytest

from conftest import problem_from_dense, random_spd
from sstepcg.adaptive import AdaptiveConfig, adaptive_solve
from sstepcg.classic import hscg_solve
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
