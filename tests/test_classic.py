import numpy as np
import pytest

from conftest import count_spmvs, problem_from_dense, random_spd
from sstepcg.classic import assemble_tridiag, hscg_attainable_accuracy, hscg_solve
from sstepcg.lacore import sym_eig
from sstepcg.trace import CgCoefficients


class TestHscgSolve:
    def test_identity_one_step(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(8)
        prob = problem_from_dense(np.eye(8), b=b)
        x, trace, _ = hscg_solve(prob, 1e-12)
        assert trace.converged
        assert trace.total_iters == 1
        np.testing.assert_allclose(x, b, rtol=1e-14)

    def test_three_distinct_eigenvalues_finite_termination(self):
        rng = np.random.default_rng(1)
        d = np.repeat([1.0, 2.0, 5.0], 10)
        b = rng.standard_normal(30)
        prob = problem_from_dense(np.diag(d), b=b)
        x, trace, _ = hscg_solve(prob, 1e-12)
        assert trace.converged
        assert trace.total_iters <= 5
        np.testing.assert_allclose(x, b / d, rtol=1e-10)

    def test_nos1_iteration_count(self, nos1_problem):
        _, trace, _ = hscg_solve(nos1_problem, 1e-6)
        assert trace.converged
        assert trace.total_iters == pytest.approx(510, rel=0.15)

    def test_trace_consistency(self, bus494_problem):
        _, trace, _ = hscg_solve(bus494_problem, 1e-6)
        assert trace.converged
        assert trace.s_schedule == [1] * trace.total_iters
        assert trace.outer_marks == list(range(trace.total_iters))

    def test_residual_orthogonality_replay(self):
        # rebuild the iterate sequence from the returned coefficients and
        # check consecutive residuals are near-orthogonal early on
        a_dense = random_spd(60, 100.0, seed=2)
        prob = problem_from_dense(a_dense)
        _, _, coeffs = hscg_solve(prob, 1e-10)
        r = prob.b.copy()
        p = r.copy()
        for i in range(min(10, len(coeffs))):
            r_next = r - coeffs.alphas[i] * (a_dense @ p)
            cosang = abs(r_next @ r) / (np.linalg.norm(r_next) * np.linalg.norm(r))
            assert cosang <= 1e-6
            p = r_next + coeffs.betas[i] * p
            r = r_next

    def test_residual_gap_envelope(self, nos1_problem, bus494_problem):
        for prob in (nos1_problem, bus494_problem):
            _, trace, _ = hscg_solve(prob, 1e-6)
            upd = np.array(trace.upd_resid)  # relative to ||b|| = 1
            gap = np.array(trace.resid_gap)
            running_max = np.maximum.accumulate(upd)
            bound = 1e3 * np.finfo(float).eps * prob.kappa_a * running_max
            assert np.all(gap <= bound)


    def test_spmv_count(self, monkeypatch):
        # r0, then A p and the true residual per iteration
        prob = problem_from_dense(random_spd(40, 1e3, seed=3))
        calls = count_spmvs(monkeypatch)
        _, trace, _ = hscg_solve(prob, 1e-10)
        assert trace.converged and trace.total_iters > 1
        assert len(calls) == 1 + 2 * trace.total_iters


class TestHscgBudget:
    def test_budget_exhausted_ends_stagnated(self):
        prob = problem_from_dense(random_spd(50, 1e3, seed=39))
        _, trace, _ = hscg_solve(prob, 1e-12, max_iters=5)
        assert trace.total_iters == 5
        assert trace.stagnated and not (trace.converged or trace.diverged)

    def test_budget_exhausted_at_target_ends_converged(self):
        prob = problem_from_dense(np.diag([1.0, 2.0, 3.0]))
        _, trace, _ = hscg_solve(prob, 1e-10, max_iters=3)
        assert trace.total_iters == 3
        assert trace.converged and not (trace.stagnated or trace.diverged)


class TestAssembleTridiag:
    def test_order_one(self):
        t = assemble_tridiag(CgCoefficients([1.0], [0.5]), 1)
        np.testing.assert_array_equal(t, [[1.0]])

    def test_order_two_direct_substitution(self):
        t = assemble_tridiag(CgCoefficients([1.0, 1.0], [1.0, 1.0]), 2)
        np.testing.assert_array_equal(t, [[1.0, 1.0], [1.0, 2.0]])

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            assemble_tridiag(CgCoefficients([1.0], [1.0]), 0)

    def test_rejects_overlong_request(self):
        with pytest.raises(ValueError):
            assemble_tridiag(CgCoefficients([1.0], [1.0]), 2)

    def test_ritz_values_inside_spectrum(self):
        a_dense = random_spd(40, 1e3, seed=3)
        prob = problem_from_dense(a_dense)
        _, _, coeffs = hscg_solve(prob, 0.0, max_iters=20)
        w_a = np.linalg.eigvalsh(a_dense)
        t = assemble_tridiag(coeffs, 20)
        w_t = sym_eig(t)
        assert w_t[0] >= w_a[0] * (1 - 1e-6)
        assert w_t[-1] <= w_a[-1] * (1 + 1e-6)

    def test_symmetric_by_construction(self):
        coeffs = CgCoefficients([0.7, 1.3, 0.4], [0.2, 2.5, 0.9])
        t = assemble_tridiag(coeffs, 3)
        assert np.array_equal(t, t.T)


class TestAttainableAccuracy:
    def test_identity_immediately_tiny(self):
        prob = problem_from_dense(np.eye(6))
        assert hscg_attainable_accuracy(prob) <= 1e-15

    def test_494bus_floor_magnitude(self, bus494_problem):
        # the reference experiments quote ~2.2e-10 on their hardware; the
        # floor is BLAS-dependent, so only pin the order of magnitude band
        att = hscg_attainable_accuracy(bus494_problem)
        assert 1e-12 <= att <= 1e-9
