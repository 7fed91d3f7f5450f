import tracemalloc

import numpy as np
import pytest

from conftest import (
    count_calls,
    count_spmvs,
    laplacian_2d_problem,
    problem_from_dense,
    random_spd,
    require_matrix,
)
from sstepcg import adaptive, basis, lacore
from sstepcg.adaptive import (
    AdaptiveConfig,
    adaptive_solve,
    select_s_tilde,
)
from sstepcg.classic import hscg_solve
from sstepcg.lacore import gram
from sstepcg.matio import load_problem
from sstepcg.ritz import MACHINE_UNIT
from sstepcg.sstep import sstep_solve


class TestSelectSTilde:
    def test_orthonormal_basis_takes_everything(self):
        s_bar = 10
        g = np.eye(2 * s_bar + 1)
        s_tilde, conds = select_s_tilde(g, s_bar, 1.0, MACHINE_UNIT, 1e-6, 1.0)
        assert s_tilde == s_bar
        assert np.all(conds[1:] <= 1.0 + 1e-12)

    def test_floor_of_one(self):
        rng = np.random.default_rng(40)
        y = rng.standard_normal((50, 7))
        g = gram(y)
        # absurdly tight bound: eps_star tiny
        s_tilde, _ = select_s_tilde(g, 3, 1.0, MACHINE_UNIT, 1e-300, 1.0)
        assert s_tilde == 1

    def test_matches_explicit_svd_brute_force(self):
        rng = np.random.default_rng(41)
        for trial in range(50):
            n = int(rng.integers(20, 60))
            s_bar = int(rng.integers(2, 7))
            d = np.geomspace(1.0, float(rng.uniform(1e2, 1e8)), n)
            v = rng.standard_normal(n)
            y = np.empty((n, 2 * s_bar + 1))
            y[:, 0] = v
            for k in range(1, s_bar + 1):
                y[:, k] = d * y[:, k - 1]
            w = rng.standard_normal(n)
            y[:, s_bar + 1] = w
            for k in range(1, s_bar):
                y[:, s_bar + 1 + k] = d * y[:, s_bar + k]
            g = gram(y)
            c, eps_star, rnorm = 1.0, 1e-6, 1.0
            bound = eps_star / (c * MACHINE_UNIT * rnorm)
            s_tilde, _ = select_s_tilde(g, s_bar, c, MACHINE_UNIT, eps_star, rnorm)
            # oracle: explicit singular values of every nested basis
            best = 1
            for i in range(1, s_bar + 1):
                cols = list(range(0, i + 1)) + list(range(s_bar + 1, s_bar + 1 + i))
                sv = np.linalg.svd(y[:, cols], compute_uv=False)
                if sv[-1] > 0 and sv[0] / sv[-1] <= bound * (1 + 1e-3):
                    best = i
            assert abs(s_tilde - best) <= 0 or s_tilde <= best

    def test_selection_self_consistent(self):
        rng = np.random.default_rng(42)
        y = rng.standard_normal((40, 11))
        for k in range(1, 5):
            y[:, k] = y[:, k - 1] * np.linspace(1, 3, 40)
        g = gram(y)
        bound_args = (1.0, MACHINE_UNIT, 1e-9, 1.0)
        s_tilde, conds = select_s_tilde(g, 5, *bound_args)
        bound = 1e-9 / (1.0 * MACHINE_UNIT * 1.0)
        if s_tilde < 5:
            assert not (conds[s_tilde + 1] <= bound)
        assert conds[s_tilde] <= bound or s_tilde == 1


class TestAdaptiveSolve:
    def test_sigma_one_reduces_to_hscg(self):
        a_dense = random_spd(40, 50.0, seed=43)
        prob = problem_from_dense(a_dense)
        _, _, ref = hscg_solve(prob, 1e-10)
        for variant in ("old", "improved"):
            cfg = AdaptiveConfig(
                sigma=1, eps_star=1e-10, variant=variant, basis_kind="monomial"
            )
            _, trace, coeffs = adaptive_solve(prob, cfg)
            assert trace.converged
            m = min(20, len(coeffs), len(ref))
            np.testing.assert_allclose(coeffs.alphas[:m], ref.alphas[:m], rtol=1e-8)

    def test_improved_converges_small_problem(self):
        prob = problem_from_dense(random_spd(50, 1e4, seed=44))
        for kind in ("newton", "chebyshev"):
            cfg = AdaptiveConfig(sigma=6, eps_star=1e-10, basis_kind=kind)
            _, trace, _ = adaptive_solve(prob, cfg)
            assert trace.converged
            assert trace.final_true_resid <= 1e-10

    def test_old_variant_converges(self, bus494_problem):
        cfg = AdaptiveConfig(
            sigma=5, eps_star=1e-6, variant="old", basis_kind="monomial", c_strategy="unit"
        )
        _, trace, _ = adaptive_solve(bus494_problem, cfg)
        assert trace.converged

    def test_schedule_legality(self, bus494_problem):
        cfg = AdaptiveConfig(sigma=8, eps_star=1e-8, basis_kind="newton")
        _, trace, _ = adaptive_solve(bus494_problem, cfg)
        prev_actual = None
        for rec in trace.outer_records:
            assert 1 <= rec.s_actual <= rec.s_tilde <= rec.s_bar <= 8
            if prev_actual is not None:
                assert rec.s_bar <= prev_actual + 8
            prev_actual = rec.s_actual

    def test_break_bookkeeping(self, nos1_problem):
        cfg = AdaptiveConfig(sigma=10, eps_star=1e-6, basis_kind="newton")
        _, trace, _ = adaptive_solve(nos1_problem, cfg)
        fired = [r for r in trace.outer_records if r.break_j is not None]
        assert fired, "expected at least one condition-bound break on nos1"
        for rec in fired:
            assert rec.break_j < rec.s_tilde - 1
            assert rec.break_lhs >= rec.break_rhs
            assert rec.s_actual == rec.break_j + 1
        # blocks that ran to completion did not fire the check
        for rec in trace.outer_records:
            if rec.break_j is None and not (
                rec is trace.outer_records[-1]
            ):
                assert rec.s_actual <= rec.s_tilde

    def test_c_clamp_recomputable_from_trace(self, bus494_problem):
        cfg = AdaptiveConfig(sigma=6, eps_star=1e-8, basis_kind="chebyshev")
        _, trace, _ = adaptive_solve(bus494_problem, cfg)
        c = np.array(trace.c_values)
        lmin = np.array(trace.lambda_min)
        lmax = np.array(trace.lambda_max)
        psi = np.array(trace.psi)
        assert np.all(c >= 1.0)
        good = ~np.isnan(lmin)
        recomputed = np.maximum(1.0, lmax[good] * np.sqrt(psi[good] / lmin[good]))
        np.testing.assert_allclose(c[good], recomputed, rtol=1e-12)

    def test_full_bound_strategy_runs(self):
        prob = problem_from_dense(random_spd(40, 1e3, seed=45))
        cfg = AdaptiveConfig(
            sigma=4, eps_star=1e-8, basis_kind="newton", c_strategy="full-bound"
        )
        _, trace, _ = adaptive_solve(prob, cfg)
        assert trace.converged
        # the worst-case constant keeps blocks very small
        assert np.mean(trace.s_schedule) < 3.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(sigma=0, eps_star=1e-6)
        with pytest.raises(ValueError):
            AdaptiveConfig(sigma=5, eps_star=-1.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(sigma=5, eps_star=1e-6, s_bar0=9)
        with pytest.raises(ValueError):
            AdaptiveConfig(sigma=5, eps_star=1e-6, variant="bogus")

    def test_rejects_unknown_basis_kind(self):
        with pytest.raises(ValueError, match="basis kind"):
            AdaptiveConfig(sigma=5, eps_star=1e-6, basis_kind="legendre")
        for kind in ("monomial", "newton", "chebyshev"):
            assert AdaptiveConfig(sigma=5, eps_star=1e-6, basis_kind=kind).basis_kind == kind

    def test_rejects_unknown_c_strategy(self):
        with pytest.raises(ValueError, match="c strategy"):
            AdaptiveConfig(sigma=4, eps_star=1e-6, c_strategy="bogus")
        for strat in ("adaptive", "unit", "kappa-estimate", "full-bound"):
            assert AdaptiveConfig(sigma=4, eps_star=1e-6, c_strategy=strat).c_strategy == strat


class TestConditionEstimateCalls:
    """The nested estimates cost one small eigensolve per candidate size, so
    they run once per adaptive block and never in fixed s-step CG."""

    def test_once_per_adaptive_outer_loop(self, monkeypatch):
        calls = count_calls(monkeypatch, lacore, "nested_basis_conds")
        prob = problem_from_dense(random_spd(50, 1e4, seed=44))
        for variant in ("old", "improved"):
            calls.clear()
            cfg = AdaptiveConfig(sigma=6, eps_star=1e-10, basis_kind="chebyshev", variant=variant)
            _, trace, _ = adaptive_solve(prob, cfg)
            assert trace.total_outer > 1
            assert len(calls) == len(trace.outer_records) == trace.total_outer

    def test_never_in_fixed_sstep(self, monkeypatch):
        calls = count_calls(monkeypatch, lacore, "nested_basis_conds")
        _, trace, _ = sstep_solve(problem_from_dense(random_spd(40, 1e3, seed=46)), 4, 1e-8)
        assert trace.total_outer > 1
        assert calls == []


class TestSpmvCount:
    """A blocked solve does one SpMV for r0, 2 s_bar - 1 per basis and one per
    outer loop for the true residual at its boundary (tests/test_trace.py
    counts the full trace's per-iteration ones)."""

    @pytest.mark.parametrize("kind", ["newton", "chebyshev"])
    def test_adaptive(self, monkeypatch, kind):
        prob = problem_from_dense(random_spd(50, 1e4, seed=44))
        calls = count_spmvs(monkeypatch)
        for variant in ("old", "improved"):
            calls.clear()
            cfg = AdaptiveConfig(sigma=6, eps_star=1e-10, basis_kind=kind, variant=variant)
            _, trace, _ = adaptive_solve(prob, cfg)
            records = trace.outer_records
            assert trace.converged and trace.total_outer > 1
            assert any(rec.s_tilde < rec.s_bar for rec in records)
            basis_spmvs = sum(2 * rec.s_bar - 1 for rec in records)
            assert len(calls) == 1 + basis_spmvs + trace.total_outer


class TestParameterRefresh:
    """Basis parameters are a function of the Ritz interval, so they are
    regenerated only when the interval has moved since the last call."""

    @pytest.mark.parametrize("kind", ["newton", "chebyshev"])
    def test_regenerated_only_for_a_new_interval(self, monkeypatch, kind):
        # nos6 at sigma = 4 holds its Ritz interval over the last outer loops
        prob = load_problem(require_matrix("nos6"), label="nos6")
        calls = count_calls(monkeypatch, basis, "params_for")
        cfg = AdaptiveConfig(sigma=4, eps_star=1e-8, basis_kind=kind)
        _, trace, _ = adaptive_solve(prob, cfg)
        assert trace.converged
        assert calls[0] == (kind, 4)
        intervals = [c[2:] for c in calls[1:]]
        assert len(intervals) > 10
        for prev, new in zip(intervals, intervals[1:]):
            assert new != prev
        records = trace.outer_records
        assert records[-1].basis_params_used is records[-2].basis_params_used


class TestBasisWorkspace:
    """Each solve owns one basis buffer and one work buffer of (2 sigma + 1) n
    entries; the loop allocates no n x (2s+1) array and maps back to length-n
    iterates only at outer-loop boundaries."""

    SIGMA = 10

    @pytest.fixture(scope="class")
    def laplace(self):
        return laplacian_2d_problem(128)

    @pytest.mark.parametrize("alg", ["adaptive", "sstep"])
    def test_peak_memory_within_three_bases(self, laplace, alg):
        unit = laplace.a.n * (2 * self.SIGMA + 1) * 8
        if alg == "adaptive":
            cfg = AdaptiveConfig(sigma=self.SIGMA, eps_star=1e-6, basis_kind="chebyshev", max_outer=6)
            solve = lambda: adaptive_solve(laplace, cfg)
        else:
            solve = lambda: sstep_solve(laplace, self.SIGMA, 1e-6, max_outer=6)
        tracemalloc.start()
        try:
            _, trace, _ = solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.total_outer == 6
        if alg == "adaptive":
            # both the in-place and the gathered (truncated) block ran
            truncated = [rec.s_tilde < rec.s_bar for rec in trace.outer_records]
            assert any(truncated) and not all(truncated)
        assert peak <= 3 * unit, f"peak {peak / unit:.2f} bases"

    def test_recover_once_per_outer_loop(self, monkeypatch):
        calls = count_calls(monkeypatch, adaptive, "recover_iterates")
        prob = problem_from_dense(random_spd(50, 1e4, seed=44))
        for variant in ("old", "improved"):
            calls.clear()
            cfg = AdaptiveConfig(sigma=6, eps_star=1e-10, basis_kind="chebyshev", variant=variant)
            _, trace, _ = adaptive_solve(prob, cfg)
            assert trace.converged and trace.total_iters > trace.total_outer > 1
            assert len(calls) == trace.total_outer
        calls.clear()
        _, trace, _ = sstep_solve(prob, 4, 1e-10)
        assert trace.converged and trace.total_iters > trace.total_outer > 1
        assert len(calls) == trace.total_outer


class TestFixedBlockAsBuilt:
    """Fixed s-step CG and an untruncated adaptive block iterate on the same
    block as built, so their first outer loops are bitwise equal."""

    @pytest.mark.parametrize("s", [2, 3, 4])
    @pytest.mark.parametrize("name", ["lap16", "nos1"])
    def test_first_outer_loop_equals_untruncated_adaptive(self, name, s, nos1_problem):
        prob = laplacian_2d_problem(16) if name == "lap16" else nos1_problem
        x_f, trace_f, _ = sstep_solve(prob, s, 1e-4, max_outer=1, full_trace=True)
        cfg = AdaptiveConfig(
            sigma=s, eps_star=1e-4, basis_kind="monomial", c_strategy="unit", variant="old", max_outer=1
        )
        x_a, trace_a, _ = adaptive_solve(prob, cfg, full_trace=True)
        (rec,) = trace_a.outer_records
        assert rec.s_tilde == s and rec.break_j is None
        np.testing.assert_array_equal(x_f, x_a)
        assert trace_f.true_resid == trace_a.true_resid

