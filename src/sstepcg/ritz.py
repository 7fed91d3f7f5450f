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

from dataclasses import dataclass
from math import copysign, inf, sqrt

import numpy as np

# Unit roundoff of binary64 as used throughout the experiments.
MACHINE_UNIT = 2.0 ** -53


class BreakdownSignal(ValueError):
    """Raised when a nonpositive or non-finite alpha or beta is fed to the estimates."""


@dataclass
class RitzState:
    """Running extremal Ritz estimates, psi, and the error-ratio constant c.

    omega_max estimates ||L_i||^2 (the largest Ritz value), with h_max its
    last squared-direction weight and zeta the last diagonal entry.
    omega_min estimates ||L_i^{-1}||^2 (the inverse of the smallest): the
    columns of L_i^{-T} obey c_{l+1} = -(eta_l / zeta_{l+1}) c_l +
    e_{l+1} / zeta_{l+1}, giving recurrences for the column norm a and the
    overlap d with the running singular direction (components g and h).
    eta is the superdiagonal entry the next step couples to.

    psi tracks ||r||^2 / ||p||^2 through psi <- psi / (psi + beta). Once two
    iterations have been absorbed, c is

        c = max(1, lambda_max * sqrt(psi / lambda_min)),

    the computable stand-in for ||A|| ||x - x_i|| / ||r_i||; before that it
    is the conservative initial value 1/sqrt(machine unit).
    """

    omega_max: float = 0.0
    h_max: float = 1.0
    zeta: float = 0.0
    omega_min: float = 0.0
    a: float = 0.0
    d: float = 0.0
    g: float = 0.0
    h: float = 1.0
    eta: float = 0.0
    psi: float = 1.0
    count: int = 0

    @property
    def lambda_max(self):
        return self.omega_max if self.count >= 1 else float("nan")

    @property
    def lambda_min(self):
        return 1.0 / self.omega_min if self.count >= 1 else float("nan")

    def absorb_step(self, alpha, beta):
        """Absorb one CG iteration's (alpha, beta) pair.

        Both must be positive and finite; any other pair raises
        BreakdownSignal and leaves the state unchanged.
        """
        if not (0.0 < alpha < inf and 0.0 < beta < inf):
            raise BreakdownSignal(f"breakdown coefficients alpha={alpha!r} beta={beta!r}")
        zeta = 1.0 / sqrt(alpha)
        eta = self.eta
        if self.count == 0:
            self.omega_max = zeta * zeta
            self.omega_min = 1.0 / (zeta * zeta)
            self.a = self.omega_min
        else:
            d_max = (self.zeta * eta) ** 2 * self.h_max
            a_max = eta * eta + zeta * zeta
            chi = sqrt((self.omega_max - a_max) ** 2 + 4.0 * d_max)
            h_new = 0.5 * (1.0 - (self.omega_max - a_max) / chi) if chi != 0.0 else 0.0
            self.omega_max += chi * h_new
            self.h_max = h_new

            d_new = -(eta / zeta) * (self.g * self.d + self.h * self.a)
            a_new = (eta * eta * self.a + 1.0) / (zeta * zeta)
            chi = sqrt((self.omega_min - a_new) ** 2 + 4.0 * d_new * d_new)
            if chi != 0.0:
                h_sq = 0.5 * (1.0 - (self.omega_min - a_new) / chi)
                h_sq = min(max(h_sq, 0.0), 1.0)
            else:
                h_sq = 0.0
            self.omega_min += chi * h_sq
            self.g = sqrt(1.0 - h_sq)
            self.h = copysign(sqrt(h_sq), d_new)
            self.d = d_new
            self.a = a_new
        self.zeta = zeta
        self.eta = sqrt(beta / alpha)
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
