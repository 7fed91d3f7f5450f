import copy

import numpy as np
import pytest

from conftest import problem_from_dense, random_spd
from sstepcg.classic import assemble_tridiag, hscg_solve
from sstepcg.ritz import (
    MACHINE_UNIT,
    BreakdownSignal,
    RitzState,
    c_strategy,
    full_bound_c,
)
from sstepcg.trace import CgCoefficients


class TestAbsorbStep:
    def test_first_step_collapses_to_inverse_alpha(self):
        st = RitzState()
        st.absorb_step(4.0, 1.0)
        assert st.lambda_max == 0.25
        assert st.lambda_min == 0.25

    def test_order_two_matches_tridiag_exactly(self):
        st = RitzState()
        st.absorb_step(1.0, 1.0)
        st.absorb_step(1.0, 1.0)
        assert st.lambda_max == pytest.approx((3 + np.sqrt(5)) / 2, abs=4 * MACHINE_UNIT)
        assert st.lambda_min == pytest.approx((3 - np.sqrt(5)) / 2, abs=4 * MACHINE_UNIT)

    def test_psi_single_update(self):
        st = RitzState()
        st.absorb_step(2.0, 1.0)
        assert st.psi == 0.5

    def test_breakdown_on_nonpositive(self):
        st = RitzState()
        with pytest.raises(BreakdownSignal):
            st.absorb_step(-1.0, 1.0)
        with pytest.raises(BreakdownSignal):
            st.absorb_step(1.0, 0.0)

    @pytest.mark.parametrize("pair", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)])
    def test_breakdown_on_nonfinite_leaves_state(self, pair):
        st = RitzState()
        st.absorb_step(2.0, 0.5)
        before = copy.deepcopy(st)
        with pytest.raises(BreakdownSignal):
            st.absorb_step(*pair)
        assert st == before
        st.absorb_step(1.0, 1.0)
        assert st.count == 2

    def test_order_two_exactness_random(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            al = rng.uniform(0.1, 10.0, 2)
            be = rng.uniform(0.1, 10.0, 2)
            st = RitzState()
            st.absorb_step(al[0], be[0])
            st.absorb_step(al[1], be[1])
            t = assemble_tridiag(CgCoefficients(list(al), list(be)), 2)
            w = np.linalg.eigvalsh(t)
            # error scales with the spectral radius, as for any eigensolve
            assert st.lambda_min == pytest.approx(w[0], abs=8 * MACHINE_UNIT * w[1])
            assert st.lambda_max == pytest.approx(w[1], rel=8 * MACHINE_UNIT)

    def test_one_sided_against_dense_oracle(self):
        # 200 random sequences; condition of T_i capped so binary64 can
        # resolve the comparison at 1e-10 relative at all
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 200:
            m = int(rng.integers(2, 31))
            al = rng.uniform(1e-3, 1e3, m)
            be = rng.uniform(1e-3, 1e3, m)
            t = assemble_tridiag(CgCoefficients(list(al), list(be)), m)
            w = np.linalg.eigvalsh(t)
            if w[0] <= 0 or w[-1] / w[0] > 1e10:
                continue
            st = RitzState()
            for a, b in zip(al, be):
                st.absorb_step(a, b)
            # slack widens by the dense oracle's own uncertainty eps*kappa(T)
            slack = 1e-10 + 16 * np.finfo(float).eps * (w[-1] / w[0])
            assert st.lambda_max <= w[-1] * (1 + slack)
            assert st.lambda_min >= w[0] * (1 - slack)
            checked += 1

    def test_monotone_trajectories(self):
        rng = np.random.default_rng(22)
        st = RitzState()
        lmaxes, lmins = [], []
        for _ in range(40):
            st.absorb_step(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0)))
            lmaxes.append(st.lambda_max)
            lmins.append(st.lambda_min)
        assert np.all(np.diff(lmaxes) >= -1e-15)
        assert np.all(np.diff(lmins) <= 1e-15)


class TestCurrentC:
    def test_fresh_state_inverse_sqrt_eps(self):
        st = RitzState()
        assert st.current_c() == MACHINE_UNIT ** -0.5
        st.absorb_step(1.0, 1.0)
        assert st.current_c() == MACHINE_UNIT ** -0.5  # still only one step

    def test_clamped_at_one(self):
        st = RitzState()
        st.absorb_step(1.0, 1.0)
        st.absorb_step(1.0, 1.0)
        st.lmax_est.omega = 2.0
        st.lmin_est.omega = 1.0 / 0.5
        st.psi = 0.125
        assert st.current_c() == 1.0

    def test_ratio_form(self):
        st = RitzState()
        st.absorb_step(1.0, 1.0)
        st.absorb_step(1.0, 1.0)
        st.lmax_est.omega = 1e4
        st.lmin_est.omega = 1.0
        st.psi = 1.0
        assert st.current_c() == pytest.approx(1e4)

    def test_psi_tracks_residual_direction_ratio(self):
        # psi == ||r||^2/||p||^2 through the first 20 iterations (replayed)
        a_dense = random_spd(50, 100.0, seed=23)
        prob = problem_from_dense(a_dense)
        _, _, coeffs = hscg_solve(prob, 1e-12)
        st = RitzState()
        r = prob.b.copy()
        p = r.copy()
        for i in range(min(20, len(coeffs))):
            al, be = coeffs.alphas[i], coeffs.betas[i]
            st.absorb_step(al, be)
            r = r - al * (a_dense @ p)
            p = r + be * p
            ratio = np.dot(r, r) / np.dot(p, p)
            assert st.psi == pytest.approx(ratio, abs=1e-8)


class TestCStrategy:
    def test_unit(self):
        assert c_strategy("unit", RitzState()) == 1.0

    def test_kappa_estimate(self):
        st = RitzState()
        st.absorb_step(1.0, 1.0)
        st.absorb_step(1.0, 1.0)
        ratio = c_strategy("kappa-estimate", st)
        assert ratio == pytest.approx((3 + np.sqrt(5)) / (3 - np.sqrt(5)), rel=1e-12)
        assert ratio == pytest.approx(6.854, abs=2e-3)

    def test_kappa_estimate_fallback(self):
        assert c_strategy("kappa-estimate", RitzState()) == MACHINE_UNIT ** -0.5

    def test_full_bound_unit_inputs(self):
        val = full_bound_c(1, 1, 1.0, 1.0, 1.0)
        expected = 2 * (9 + 22 * np.sqrt(3.0))
        assert val == pytest.approx(expected, rel=1e-14)
        assert val == pytest.approx(94.21, abs=0.01)
        assert c_strategy("full-bound", RitzState(), (1, 1, 1.0, 1.0, 1.0)) == val

    def test_full_bound_requires_info(self):
        with pytest.raises(ValueError):
            c_strategy("full-bound", RitzState())

    def test_adaptive_passthrough(self):
        st = RitzState()
        assert c_strategy("adaptive", st) == st.current_c()

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            c_strategy("bogus", RitzState())


class TestOnProblemTraces:
    def test_c_estimates_within_kappa_bounds(self, nos1_problem, bus494_problem):
        for prob in (nos1_problem, bus494_problem):
            _, trace, _ = hscg_solve(prob, 1e-6)
            c = np.array(trace.c_values)
            assert np.all(c >= 1.0)
            assert np.all(c <= prob.kappa_a * (1 + 1e-6))

    def test_lambda_trajectories_monotone_on_trace(self, bus494_problem):
        _, trace, _ = hscg_solve(bus494_problem, 1e-6)
        lmax = np.array(trace.lambda_max)
        lmin = np.array(trace.lambda_min)
        assert np.all(np.diff(lmax) >= -1e-14 * lmax[1:])
        assert np.all(np.diff(lmin) <= 1e-14 * lmin[1:])
