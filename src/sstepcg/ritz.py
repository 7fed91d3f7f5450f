"""Incremental extremal Ritz value estimation and the error-ratio constant.

The CG coefficients alpha_i, beta_i define the Cholesky factor L_i^T of the
Lanczos tridiagonal T_i through

    zeta_i = 1 / sqrt(alpha_i),     eta_i = sqrt(beta_i / alpha_i),

with zeta on the diagonal and eta on the superdiagonal. The largest and
smallest Ritz values satisfy lambda_max(T_i) = ||L_i||^2 and
lambda_min(T_i) = ||L_i^{-1}||^{-2}, and both norms admit incremental
estimates that absorb one (alpha, beta) pair per CG iteration at O(1) cost.

Each update step is the largest eigenvalue of a 2x2 matrix coupling the
running estimate to the newly appended column, so the estimates approach the
extremal Ritz values from inside the spectrum: lambda_max from below,
lambda_min from above. At i = 2 both are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt, copysign

import numpy as np

# Unit roundoff of binary64 as used throughout the experiments.
MACHINE_UNIT = 2.0 ** -53


class BreakdownSignal(ValueError):
    """Raised when a nonpositive alpha or beta is fed to the estimators."""


@dataclass
class LmaxEstimator:
    """Incremental estimate of ||L_i||^2 (largest Ritz value).

    State per step: the running omega, the last squared-direction weight h,
    and the previous diagonal entry zeta needed by the next update.
    """

    omega: float = 0.0
    h: float = 1.0
    last_zeta: float = 0.0
    initialized: bool = False
    count: int = 0

    def absorb(self, zeta, eta_prev):
        if not self.initialized:
            self.omega = zeta * zeta
            self.last_zeta = zeta
            self.initialized = True
            self.count = 1
            return
        d = (self.last_zeta * eta_prev) ** 2 * self.h
        a = eta_prev * eta_prev + zeta * zeta
        chi = sqrt((self.omega - a) ** 2 + 4.0 * d)
        h_new = 0.5 * (1.0 - (self.omega - a) / chi) if chi != 0.0 else 0.0
        self.omega += chi * h_new
        self.h = h_new
        self.last_zeta = zeta
        self.count += 1


@dataclass
class LminEstimator:
    """Incremental estimate of ||L_i^{-1}||^2; its inverse is the smallest Ritz value.

    The columns of L_i^{-T} obey c_{l+1} = -(eta_l / zeta_{l+1}) c_l +
    e_{l+1} / zeta_{l+1}, giving the recurrences for the column norm a and
    the overlap d with the running approximate singular direction (split
    into components g and h).
    """

    omega: float = 0.0
    a: float = 0.0
    d: float = 0.0
    g: float = 0.0
    h: float = 1.0
    initialized: bool = False
    count: int = 0

    def absorb(self, zeta, eta_prev):
        if not self.initialized:
            self.omega = 1.0 / (zeta * zeta)
            self.a = self.omega
            self.initialized = True
            self.count = 1
            return
        d_new = -(eta_prev / zeta) * (self.g * self.d + self.h * self.a)
        a_new = (eta_prev * eta_prev * self.a + 1.0) / (zeta * zeta)
        chi = sqrt((self.omega - a_new) ** 2 + 4.0 * d_new * d_new)
        if chi != 0.0:
            h_sq = 0.5 * (1.0 - (self.omega - a_new) / chi)
            h_sq = min(max(h_sq, 0.0), 1.0)
        else:
            h_sq = 0.0
        self.omega += chi * h_sq
        self.g = sqrt(1.0 - h_sq)
        self.h = copysign(sqrt(h_sq), d_new)
        self.d = d_new
        self.a = a_new
        self.count += 1

    @property
    def lambda_min(self):
        return 1.0 / self.omega


@dataclass
class RitzState:
    """Running extremal Ritz estimates, psi, and the error-ratio constant c.

    psi tracks ||r||^2 / ||p||^2 through psi <- psi / (psi + beta). Once two
    iterations have been absorbed, c is

        c = max(1, lambda_max * sqrt(psi / lambda_min)),

    the computable stand-in for ||A|| ||x - x_i|| / ||r_i||; before that it
    is the conservative initial value 1/sqrt(machine unit).
    """

    lmax_est: LmaxEstimator = field(default_factory=LmaxEstimator)
    lmin_est: LminEstimator = field(default_factory=LminEstimator)
    psi: float = 1.0
    count: int = 0
    _eta_next: float = 0.0

    @property
    def lambda_max(self):
        return self.lmax_est.omega if self.count >= 1 else float("nan")

    @property
    def lambda_min(self):
        return self.lmin_est.lambda_min if self.count >= 1 else float("nan")

    def absorb_step(self, alpha, beta):
        """Absorb one CG iteration's (alpha, beta) pair."""
        if not (alpha > 0.0 and beta > 0.0):
            raise BreakdownSignal(f"nonpositive coefficients alpha={alpha!r} beta={beta!r}")
        zeta = 1.0 / sqrt(alpha)
        eta_prev = self._eta_next
        self.lmax_est.absorb(zeta, eta_prev)
        self.lmin_est.absorb(zeta, eta_prev)
        self._eta_next = sqrt(beta / alpha)
        self.psi = self.psi / (self.psi + beta)
        self.count += 1

    def current_c(self):
        """c for the basis-size bound: the initial 1/sqrt(eps) until two steps
        are absorbed, the error-ratio estimate after that."""
        if self.count < 2:
            return MACHINE_UNIT ** -0.5
        return self.xi_estimate()

    def xi_estimate(self):
        """Trace-facing error-ratio estimate; lies in [1, kappa(A)] for SPD systems."""
        if self.count < 1:
            return 1.0
        return max(1.0, self.lambda_max * sqrt(self.psi / self.lambda_min))


C_STRATEGIES = ("adaptive", "unit", "kappa-estimate", "full-bound")


def full_bound_c(s, n_a, nu, tau_k, kappa_a):
    """Worst-case constant from the residual-gap rounding analysis.

    c = 2 s (2 (3 + N_A) nu t + (6 + 8 t) tau_k + 2 t^3 + 3) kappa(A),
    with t = sqrt(2 s + 1).
    """
    t = sqrt(2.0 * s + 1.0)
    return 2.0 * s * (2.0 * (3.0 + n_a) * nu * t + (6.0 + 8.0 * t) * tau_k + 2.0 * t ** 3 + 3.0) * kappa_a


def abs_matrix_norm(b_mat):
    """|| |B| ||_2 from the small eigensolve, which costs less than norm(|B|, 2)'s SVD."""
    ab = np.abs(np.asarray(b_mat, dtype=float))
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(ab.T @ ab)[-1])))


def c_strategy(kind, state, block_info=None):
    """Evaluate the error-ratio constant under the selected strategy.

    block_info = (s_k, n_a, nu, tau_k, kappa_a) is required for 'full-bound'.
    'kappa-estimate' uses the current lambda_max / lambda_min ratio, falling
    back to 1/sqrt(eps) before two iterations exist.
    """
    if kind == "adaptive":
        return state.current_c()
    if kind == "unit":
        return 1.0
    if kind == "kappa-estimate":
        if state.count >= 2:
            return state.lambda_max / state.lambda_min
        return MACHINE_UNIT ** -0.5
    if kind == "full-bound":
        if block_info is None:
            raise ValueError("full-bound strategy requires block_info")
        return full_bound_c(*block_info)
    raise ValueError(f"unknown c strategy {kind!r}")
