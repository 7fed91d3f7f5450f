"""Polynomial Krylov basis parameters and s-step block construction.

A block spans the union of Krylov spaces generated from the current search
direction p and residual r. Its columns are rho_l(A) p for degrees 0..s and
rho_l(A) r for degrees 0..s-1, where the polynomials follow the three-term
recurrence

    rho_0 = 1,
    rho_1(z) = (z - theta_0) / gamma_0,
    rho_l(z) = ((z - theta_{l-1}) rho_{l-1}(z) - mu_{l-2} rho_{l-2}(z)) / gamma_{l-1}.

The change-of-basis matrix maps coefficient space under multiplication by A,
so A Y_ = Y B with the last column of each degree block zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lacore import gram, spmv

DEFAULT_LEJA_GRID = 10000

# Tolerance for treating grid objective values as tied (log scale); ties go
# to the smaller shift.
_LEJA_TIE_TOL = 1e-12


class ParameterError(ValueError):
    pass


class BasisBreakdownError(RuntimeError):
    """A basis column came out zero or non-finite; the caller reduces s."""


@dataclass
class BasisParams:
    """Recurrence coefficients for one basis family.

    thetas/gammas cover degrees 0..s-1, mus degrees 0..s-3 of the coupling
    term. Newton uses Leja-ordered shifts with unit scaling; Chebyshev uses
    a constant shift at the interval midpoint.
    """

    kind: str
    thetas: np.ndarray
    gammas: np.ndarray
    mus: np.ndarray
    generated_from: tuple | None = None

    def degree_capacity(self):
        return len(self.thetas)


def monomial_params(s):
    """theta = 0, gamma = 1, mu = 0: plain Krylov vectors v, Av, A^2 v, ..."""
    if s < 1:
        raise ParameterError("s must be >= 1")
    return BasisParams(
        kind="monomial",
        thetas=np.zeros(s),
        gammas=np.ones(s),
        mus=np.zeros(max(0, s - 1)),
    )


def _golden_refine(fun, lo, hi, iters=80):
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if b - a <= 1e-14 * max(abs(a), abs(b), 1.0):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def leja_points(lmin, lmax, count, grid_points=DEFAULT_LEJA_GRID):
    """Leja ordering of [lmin, lmax]: endpoints first, then greedy argmax of
    the product of distances to the points already chosen.

    The objective (in log-sum form to avoid overflow) is scanned on a
    uniform grid of grid_points candidates; the few best local maxima are
    then refined by golden-section search so that symmetric configurations
    tie at noise level, and ties resolve to the smaller point.
    """
    if not (0.0 <= lmin < lmax):
        raise ParameterError(f"need 0 <= lmin < lmax, got ({lmin}, {lmax})")
    pts = [lmax, lmin]
    if count <= 2:
        return np.array(pts[:count])
    xs = np.linspace(lmin, lmax, grid_points)
    while len(pts) < count:
        arr = np.array(pts)
        obj = np.sum(np.log(np.abs(xs[:, None] - arr[None, :]) + 1e-300), axis=1)

        def f(x, arr=arr):
            return float(np.sum(np.log(np.abs(x - arr) + 1e-300)))

        interior = np.nonzero(
            (obj[1:-1] >= obj[:-2]) & (obj[1:-1] >= obj[2:])
        )[0] + 1
        if len(interior) == 0:
            interior = np.array([int(np.argmax(obj))])
        top = interior[np.argsort(obj[interior])[-4:]]
        refined = []
        for i in top:
            lo = xs[max(0, i - 1)]
            hi = xs[min(grid_points - 1, i + 1)]
            refined.append(_golden_refine(f, lo, hi))
        vmax = max(v for _, v in refined)
        tied = [x for x, v in refined if v >= vmax - _LEJA_TIE_TOL * max(1.0, abs(vmax))]
        pts.append(min(tied))
    return np.array(pts)


def newton_params(lmin, lmax, s, grid_points=DEFAULT_LEJA_GRID):
    """Newton basis: Leja-ordered shifts, unit scalings, no coupling term."""
    if s < 1:
        raise ParameterError("s must be >= 1")
    thetas = leja_points(lmin, lmax, s, grid_points)
    return BasisParams(
        kind="newton",
        thetas=thetas,
        gammas=np.ones(s),
        mus=np.zeros(max(0, s - 1)),
        generated_from=(lmin, lmax),
    )


def chebyshev_params(lmin, lmax, s):
    """Shifted-and-scaled Chebyshev recurrence on [lmin, lmax].

    With w = lmax - lmin: all shifts sit at the midpoint, gamma_0 = w,
    gamma_l = w/2 afterwards, and the two-back coupling weight is w/8. These
    weights keep rho_l proportional to T_l((2z - lmin - lmax) / w), which is
    what bounds the basis growth on the interval.
    """
    if not (0.0 < lmin < lmax):
        raise ParameterError(f"need 0 < lmin < lmax, got ({lmin}, {lmax})")
    if s < 1:
        raise ParameterError("s must be >= 1")
    width = lmax - lmin
    return BasisParams(
        kind="chebyshev",
        thetas=np.full(s, 0.5 * (lmin + lmax)),
        gammas=np.concatenate([[width], np.full(s - 1, 0.5 * width)]),
        mus=np.full(max(0, s - 1), 0.125 * width),
        generated_from=(lmin, lmax),
    )


def params_for(kind, s, lmin=None, lmax=None, grid_points=DEFAULT_LEJA_GRID):
    """Dispatch on basis kind, falling back to monomial when the spectral
    interval is degenerate (fewer than two distinct Ritz estimates)."""
    if kind != "monomial" and lmin is not None and lmax is not None and 0.0 < lmin < lmax:
        if kind == "newton":
            return newton_params(lmin, lmax, s, grid_points)
        if kind == "chebyshev":
            return chebyshev_params(lmin, lmax, s)
        raise ParameterError(f"unknown basis kind {kind!r}")
    if kind not in ("monomial", "newton", "chebyshev"):
        raise ParameterError(f"unknown basis kind {kind!r}")
    return monomial_params(s)


def assemble_change_of_basis(s, params):
    """(2s+1) x (2s+1) block matrix B with A Y_ = Y B.

    Each block is bidiagonal-plus-coupling: theta on the diagonal, gamma
    below, mu above, and a zero final column (the recurrence cannot leave
    the block).
    """
    th, ga, mu = params.thetas, params.gammas, params.mus
    b = np.zeros((2 * s + 1, 2 * s + 1))
    for start, size in ((0, s + 1), (s + 1, s)):
        for j in range(size - 1):
            b[start + j, start + j] = th[j]
            b[start + j + 1, start + j] = ga[j]
            if j >= 1:
                b[start + j - 1, start + j] = mu[j - 1]
    return b


@dataclass
class SStepBlock:
    """One outer loop's basis: Y = [P | R], its change-of-basis matrix and
    its Gram matrix."""

    s: int
    y: np.ndarray
    b_mat: np.ndarray
    g: np.ndarray


def _recurrence_columns(a, v, degree, params):
    cols = np.empty((len(v), degree + 1))
    cols[:, 0] = v
    prev2 = None
    prev = v
    for l in range(degree):
        w = spmv(a, prev) - params.thetas[l] * prev
        if l >= 1 and params.mus[l - 1] != 0.0:
            w = w - params.mus[l - 1] * prev2
        w = w / params.gammas[l]
        if not np.all(np.isfinite(w)):
            raise BasisBreakdownError(f"non-finite basis column at degree {l + 1}")
        cols[:, l + 1] = w
        prev2 = prev
        prev = w
    return cols


def build_block(a, p, r, params, s):
    """Construct the s-step block from current direction p and residual r.

    P covers degrees 0..s, R degrees 0..s-1; the Gram matrix, the block's
    one global synchronization, is computed once.
    """
    if params.degree_capacity() < s:
        raise ParameterError(f"params cover degree {params.degree_capacity()}, need {s}")
    pcols = _recurrence_columns(a, p, s, params)
    rcols = _recurrence_columns(a, r, s - 1, params)
    y = np.hstack([pcols, rcols])
    return SStepBlock(s=s, y=y, b_mat=assemble_change_of_basis(s, params), g=gram(y))
