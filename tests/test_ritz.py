import copy

import numpy as np
import pytest

from conftest import problem_from_dense, random_spd
from sstepcg.adaptive import AdaptiveConfig, adaptive_solve
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


# (alpha, beta) pairs absorbed in order; (3.1, 0.0) is a breakdown pair
GOLDEN_PAIRS = [
    (1.7, 0.42), (0.93, 0.61), (2.4, 0.18), (0.55, 0.97), (1.25, 0.33), (3.1, 0.0),
    (0.72, 0.85), (1.9, 0.27), (0.48, 1.3), (2.75, 0.09), (1.05, 0.64), (0.66, 0.51),
]
# (lambda_min, lambda_max, psi, xi_estimate(), current_c()) after each
# absorbed pair, as float.hex; the breakdown pair adds no row
GOLDEN_STATES = [
    ("0x1.2d2d2d2d2d2d2p-1", "0x1.2d2d2d2d2d2d2p-1", "0x1.689039b0ad121p-1", "0x1.0000000000000p+0", "0x1.6a09e667f3bcdp+26"),
    ("0x1.b44ef45d46759p-2", "0x1.7c06e9f2d14bap+0", "0x1.125ab397a2b83p-1", "0x1.aa2cf2400ee91p+0", "0x1.aa2cf2400ee91p+0"),
    ("0x1.723c9f930616dp-3", "0x1.0a060799db614p+1", "0x1.7f41f409aad38p-1", "0x1.0ea937ede6208p+2", "0x1.0ea937ede6208p+2"),
    ("0x1.65edbe8bb407bp-3", "0x1.105a970c23aefp+1", "0x1.be063f1fe8ddcp-2", "0x1.adf626c5a5dacp+1", "0x1.adf626c5a5dacp+1"),
    ("0x1.3d02d1179ec6cp-3", "0x1.8fe0a8ad30c8dp+1", "0x1.234d494bf9c65p-1", "0x1.7f51eef26661cp+2", "0x1.7f51eef26661cp+2"),
    ("0x1.3143535aa9ae5p-3", "0x1.9afbad24ce929p+1", "0x1.9a9697b387c31p-2", "0x1.5108fdb3615e1p+2", "0x1.5108fdb3615e1p+2"),
    ("0x1.fd3d82f49ae21p-4", "0x1.a21542539325cp+1", "0x1.31f7ea248a37bp-1", "0x1.ca4e0c4d30123p+2", "0x1.ca4e0c4d30123p+2"),
    ("0x1.f29f8f71d02c9p-4", "0x1.a265f2420b60ap+1", "0x1.427af3dd9ec32p-2", "0x1.507a107b96733p+2", "0x1.507a107b96733p+2"),
    ("0x1.5994061964343p-4", "0x1.a933d946b5d22p+1", "0x1.8e334a00cb5b8p-1", "0x1.42be85b2e92a2p+3", "0x1.42be85b2e92a2p+3"),
    ("0x1.52aada76ccb77p-4", "0x1.a9511b7969ad2p+1", "0x1.18deeb509668fp-1", "0x1.11e1e604735a3p+3", "0x1.11e1e604735a3p+3"),
    ("0x1.4f6770c448149p-4", "0x1.a9572b128d555p+1", "0x1.09543561a7afap-1", "0x1.0b80f6676fdecp+3", "0x1.0b80f6676fdecp+3"),
]


class TestGoldenSequence:
    def test_states_bitwise(self):
        st = RitzState()
        got = []
        for al, be in GOLDEN_PAIRS:
            if be == 0.0:
                with pytest.raises(BreakdownSignal):
                    st.absorb_step(al, be)
                continue
            st.absorb_step(al, be)
            values = (st.lambda_min, st.lambda_max, st.psi, st.xi_estimate(), st.current_c())
            got.append(tuple(v.hex() for v in values))
        assert got == GOLDEN_STATES
        assert st.count == len(GOLDEN_STATES)


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
        st.omega_max = 2.0
        st.omega_min = 1.0 / 0.5
        st.psi = 0.125
        assert st.current_c() == 1.0

    def test_ratio_form(self):
        st = RitzState()
        st.absorb_step(1.0, 1.0)
        st.absorb_step(1.0, 1.0)
        st.omega_max = 1e4
        st.omega_min = 1.0
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


class TestSolverBreakdown:
    """On A = I the first step solves exactly, so beta = 0: the pair is a
    breakdown that the solver keeps in its coefficients but not in the Ritz
    estimates, and the run still converges."""

    def _check(self, trace, coeffs):
        assert trace.converged
        assert trace.total_iters == 1
        assert (coeffs.alphas, coeffs.betas) == ([1.0], [0.0])
        assert np.isnan(trace.lambda_min[0]) and np.isnan(trace.lambda_max[0])
        assert trace.c_values[0] == 1.0  # xi_estimate with nothing absorbed

    def test_hscg(self):
        prob = problem_from_dense(np.eye(8), b=np.arange(1.0, 9.0))
        x, trace, coeffs = hscg_solve(prob, 1e-12)
        self._check(trace, coeffs)
        np.testing.assert_array_equal(x, prob.b)

    @pytest.mark.parametrize("variant", ["old", "improved"])
    def test_adaptive(self, variant):
        prob = problem_from_dense(np.eye(8), b=np.arange(1.0, 9.0))
        cfg = AdaptiveConfig(sigma=4, eps_star=1e-12, variant=variant)
        x, trace, coeffs = adaptive_solve(prob, cfg)
        self._check(trace, coeffs)
        np.testing.assert_array_equal(x, prob.b)
