import numpy as np
import pytest

from conftest import count_calls, count_spmvs, dense_to_sparse, problem_from_dense, random_spd
from sstepcg import basis
from sstepcg.basis import build_block, monomial_params
from sstepcg.classic import hscg_solve
from sstepcg.harness import summary_cell
from sstepcg.sstep import CoordState, recover_iterates, sstep_solve


class TestCoordState:
    def test_initial_selectors(self):
        c = CoordState.initial(3)
        assert c.pp[0] == 1.0 and np.all(c.pp[1:] == 0.0)
        assert c.rp[4] == 1.0 and np.count_nonzero(c.rp) == 1
        assert np.all(c.xp == 0.0)


class TestRecoverIterates:
    def _block(self, n=12, s=3, seed=30):
        rng = np.random.default_rng(seed)
        a = dense_to_sparse(random_spd(n, 50.0, seed))
        p = rng.standard_normal(n)
        r = rng.standard_normal(n)
        return build_block(a, p, r, monomial_params(s), s), p, r

    def test_initial_coords_recover_exactly(self):
        block, p, r = self._block()
        x_base = np.random.default_rng(31).standard_normal(12)
        coords = CoordState.initial(3)
        x, rr, pp = recover_iterates(block, coords, x_base)
        np.testing.assert_array_equal(x, x_base)
        np.testing.assert_array_equal(rr, r)
        np.testing.assert_array_equal(pp, p)

    def test_matches_dense_reference_multiply(self):
        block, _, _ = self._block()
        rng = np.random.default_rng(32)
        coords = CoordState.initial(3)
        coords.xp = rng.standard_normal(7)
        coords.rp = rng.standard_normal(7)
        coords.pp = rng.standard_normal(7)
        x_base = rng.standard_normal(12)
        x, r, p = recover_iterates(block, coords, x_base)
        scale = np.abs(block.y).max() * 7
        eps = np.finfo(float).eps
        ref = lambda c: np.array([np.dot(block.y[i, :], c) for i in range(12)])
        assert np.max(np.abs(x - (x_base + ref(coords.xp)))) <= 64 * eps * scale
        assert np.max(np.abs(r - ref(coords.rp))) <= 64 * eps * scale
        assert np.max(np.abs(p - ref(coords.pp))) <= 64 * eps * scale

    def test_zero_coordinates_keep_base(self):
        block, _, _ = self._block()
        x_base = np.random.default_rng(33).standard_normal(12)
        coords = CoordState.initial(3)
        x, _, _ = recover_iterates(block, coords, x_base)
        np.testing.assert_array_equal(x, x_base)

    def test_dimension_mismatch(self):
        block, _, _ = self._block(s=3)
        with pytest.raises(ValueError):
            recover_iterates(block, CoordState.initial(2), np.zeros(12))


class TestSstepSolve:
    def test_identity_first_inner_step(self):
        prob = problem_from_dense(np.eye(9))
        _, trace, _ = sstep_solve(prob, 4, 1e-12)
        assert trace.converged
        assert trace.total_iters == 1

    def test_s1_matches_hscg(self):
        prob = problem_from_dense(np.diag([1.0, 2.0]), b=np.ones(2) / np.sqrt(2))
        x, trace, coeffs = sstep_solve(prob, 1, 1e-12)
        assert trace.converged
        assert trace.total_iters == 2
        _, _, ref = hscg_solve(prob, 1e-12)
        np.testing.assert_allclose(coeffs.alphas, ref.alphas, rtol=1e-12)
        np.testing.assert_allclose(coeffs.betas[:1], ref.betas[:1], rtol=1e-12)
        np.testing.assert_allclose(x, prob.b / np.array([1.0, 2.0]), rtol=1e-10)

    def test_nos1_s10_iteration_counts(self, nos1_problem):
        _, trace, _ = sstep_solve(nos1_problem, 10, 1e-6)
        assert trace.converged
        assert trace.total_iters == pytest.approx(7134, rel=0.2)
        assert trace.total_outer == pytest.approx(714, rel=0.2)

    def test_coefficients_match_hscg_early(self):
        # well-conditioned problem: s-step coefficients reproduce classic CG
        a_dense = random_spd(60, 80.0, seed=34)
        prob = problem_from_dense(a_dense)
        _, _, ref = hscg_solve(prob, 1e-13)
        for s in (2, 3):
            _, _, coeffs = sstep_solve(prob, s, 1e-13)
            m = min(15, len(coeffs), len(ref))
            np.testing.assert_allclose(
                coeffs.alphas[:m], ref.alphas[:m], rtol=1e-6
            )
            np.testing.assert_allclose(coeffs.betas[:m], ref.betas[:m], rtol=1e-6)

    def test_estimated_vs_recovered_residual(self):
        # the Gram quadrature sqrt(r' G r') tracks the recovered ||r|| while
        # the basis stays well conditioned
        rng = np.random.default_rng(35)
        a_dense = random_spd(40, 1e3, seed=36)
        a = dense_to_sparse(a_dense)
        b = rng.standard_normal(40)
        s = 4
        block = build_block(a, b, b, monomial_params(s), s)
        coords = CoordState.initial(s)
        g, bm = block.g, block.b_mat
        for j in range(s):
            num = coords.rp @ (g @ coords.rp)
            alpha = num / (coords.pp @ (g @ (bm @ coords.pp)))
            coords.xp = coords.xp + alpha * coords.pp
            coords.rp = coords.rp - alpha * (bm @ coords.pp)
            rr = coords.rp @ (g @ coords.rp)
            beta = rr / num
            coords.pp = coords.rp + beta * coords.pp
            est = np.sqrt(max(0.0, rr))
            _, r_rec, _ = recover_iterates(block, coords, np.zeros(40))
            assert est == pytest.approx(np.linalg.norm(r_rec), rel=1e-6)

    def test_outer_mark_spacing(self):
        a_dense = random_spd(50, 30.0, seed=37)
        prob = problem_from_dense(a_dense)
        _, trace, _ = sstep_solve(prob, 4, 1e-10)
        assert trace.converged
        marks = trace.outer_marks
        # every completed block spans s iterations; only the last may be short
        for a_mark, b_mark in zip(marks, marks[1:]):
            assert b_mark - a_mark == 4
        assert trace.total_outer == int(np.ceil(trace.total_iters / 4))

    def test_trace_lengths(self, bus494_problem):
        _, trace, _ = sstep_solve(bus494_problem, 5, 1e-6)
        assert trace.converged
        assert len(trace.c_values) == len(trace.resid_gap) == trace.total_iters
        assert sum(trace.s_schedule) == trace.total_iters


class TestFixedPolicy:
    """Fixed s-step runs through the adaptive engine with the block pinned at s."""

    def test_one_untruncated_record_per_outer_loop(self):
        prob = problem_from_dense(random_spd(50, 1e3, seed=38))
        _, trace, _ = sstep_solve(prob, 4, 1e-10)
        assert trace.converged and trace.total_outer > 1
        recs = trace.outer_records
        assert len(recs) == trace.total_outer
        assert [rec.k for rec in recs] == list(range(trace.total_outer))
        assert [rec.s_actual for rec in recs] == trace.s_schedule
        for rec in recs:
            assert rec.s_bar == rec.s_tilde == 4
            assert rec.break_j is None
            assert rec.cond_used is None

    def test_budget_exhausted_ends_stagnated(self):
        prob = problem_from_dense(random_spd(50, 1e3, seed=39))
        _, trace, _ = sstep_solve(prob, 3, 1e-12, max_outer=2)
        assert trace.total_outer == 2
        assert trace.stagnated and not (trace.converged or trace.diverged)
        assert trace.outcome == "stagnated"
        assert summary_cell(trace) == f"– [{trace.min_true_resid:.1e}]"

    def test_params_built_once(self, monkeypatch):
        calls = count_calls(monkeypatch, basis, "params_for")
        _, trace, _ = sstep_solve(problem_from_dense(random_spd(40, 1e3, seed=46)), 4, 1e-8)
        assert trace.total_outer > 1
        assert calls == [("monomial", 4)]

    @pytest.mark.parametrize("max_outer", [None, 3])
    def test_spmv_count(self, monkeypatch, max_outer):
        # r0, 2 s - 1 per basis, one true residual per iteration; none at
        # the outer boundaries or at the end of the budget
        prob = problem_from_dense(random_spd(50, 1e3, seed=38))
        calls = count_spmvs(monkeypatch)
        _, trace, _ = sstep_solve(prob, 4, 1e-10, max_outer=max_outer)
        assert trace.converged == (max_outer is None)
        assert len(calls) == 1 + trace.total_outer * (2 * 4 - 1) + trace.total_iters

    def test_rejects_bad_arguments(self):
        prob = problem_from_dense(np.eye(5))
        with pytest.raises(ValueError):
            sstep_solve(prob, 0, 1e-6)
        with pytest.raises(ValueError):
            sstep_solve(prob, 2, 0.0)
