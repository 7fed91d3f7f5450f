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

BASIS_KINDS = ("monomial", "newton", "chebyshev")

# Tolerance for treating grid objective values as tied (log scale); ties go
# to the smaller shift.
_LEJA_TIE_TOL = 1e-12

_GOLDEN = float((np.sqrt(5.0) - 1.0) / 2.0)


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


def _log_distances(xs, pts):
    """log(|x - p| + 1e-300) for each x in xs (rows) and p in pts (columns)."""
    t = np.subtract.outer(xs, pts)
    np.abs(t, out=t)
    np.add(t, 1e-300, out=t)
    return np.log(t, out=t)


def leja_points(lmin, lmax, count, grid_points=DEFAULT_LEJA_GRID):
    """Leja ordering of [lmin, lmax]: endpoints first, then greedy argmax of
    the product of distances to the points already chosen.

    The objective (in log-sum form to avoid overflow) is scanned on a
    uniform grid of grid_points candidates; the four best local maxima are
    then refined by golden-section search so that symmetric configurations
    tie at noise level, and ties resolve to the smaller point.

    The Newton solve's path depends on the last bit of every shift, so the
    points are bitwise those of four scalar searches run one after another:
    the searches run in lockstep, each row of their one vector objective
    reduced as np.sum reduces one vector. The grid objective is re-reduced
    over the stored log columns for every point, not accumulated: NumPy
    sums 8 or more terms pairwise, so a running sum would round differently.
    """
    if not (0.0 <= lmin < lmax):
        raise ParameterError(f"need 0 <= lmin < lmax, got ({lmin}, {lmax})")
    if count < 0 or grid_points < 2:
        raise ParameterError(f"need count >= 0 and grid_points >= 2, got {count}, {grid_points}")
    pts = [lmax, lmin]
    if count <= 2:
        return np.array(pts[:count])
    xs = np.linspace(lmin, lmax, grid_points)
    cols = np.empty((grid_points, count))
    cols[:, :2] = _log_distances(xs, pts)
    while len(pts) < count:
        k = len(pts)
        obj = np.sum(cols[:, :k], axis=1)
        interior = np.nonzero((obj[1:-1] >= obj[:-2]) & (obj[1:-1] >= obj[2:]))[0] + 1
        if len(interior) == 0:
            interior = np.array([int(np.argmax(obj))])
        top = interior[np.argsort(obj[interior])[-4:]]

        def objective(points, arr=np.array(pts)):
            return np.add.reduce(_log_distances(points, arr), axis=1).tolist()

        # Python floats: the same IEEE arithmetic as NumPy scalars, faster
        lo = xs[np.maximum(top - 1, 0)].tolist()
        hi = xs[np.minimum(top + 1, grid_points - 1)].tolist()
        c = [b - _GOLDEN * (b - a) for a, b in zip(lo, hi)]
        d = [a + _GOLDEN * (b - a) for a, b in zip(lo, hi)]
        f = objective(c + d)
        fc, fd = f[: len(top)], f[len(top) :]
        active = range(len(top))
        for _ in range(80):
            active = [
                q for q in active if hi[q] - lo[q] > 1e-14 * max(abs(lo[q]), abs(hi[q]), 1.0)
            ]
            if not active:
                break
            left = [fc[q] > fd[q] for q in active]
            for q, go_left in zip(active, left):
                if go_left:
                    hi[q], d[q], fd[q] = d[q], c[q], fc[q]
                    c[q] = hi[q] - _GOLDEN * (hi[q] - lo[q])
                else:
                    lo[q], c[q], fc[q] = c[q], d[q], fd[q]
                    d[q] = lo[q] + _GOLDEN * (hi[q] - lo[q])
            f = objective([c[q] if go_left else d[q] for q, go_left in zip(active, left)])
            for q, go_left, v in zip(active, left, f):
                (fc if go_left else fd)[q] = v
        mids = [0.5 * (a + b) for a, b in zip(lo, hi)]
        vals = objective(mids)
        vmax = max(vals)
        tied = [x for x, v in zip(mids, vals) if v >= vmax - _LEJA_TIE_TOL * max(1.0, abs(vmax))]
        pts.append(min(tied))
        cols[:, k : k + 1] = _log_distances(xs, pts[k:])
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


def params_for(kind, s, lmin=None, lmax=None):
    """Dispatch on basis kind, falling back to monomial when the spectral
    interval is unknown or degenerate (fewer than two distinct Ritz
    estimates)."""
    if kind not in BASIS_KINDS:
        raise ParameterError(f"unknown basis kind {kind!r}")
    if kind != "monomial" and lmin is not None and lmax is not None and 0.0 < lmin < lmax:
        if kind == "newton":
            return newton_params(lmin, lmax, s)
        return chebyshev_params(lmin, lmax, s)
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
    its Gram matrix.

    As built, y is the transpose of a C-ordered (2s+1, n) array whose rows
    are the basis vectors, so y is an F-ordered n x (2s+1) view. The Gram
    product is bitwise the same on either layout, but a GEMV such as
    y @ coords is not. The adaptive variants have always iterated on an
    F-ordered Y (the gathered y[:, cols]), so they use this y in place;
    fixed s-step has always iterated on a C-ordered Y, so the engine hands
    it a C-ordered copy (see `adaptive._blocked_solve`).
    """

    s: int
    y: np.ndarray
    b_mat: np.ndarray
    g: np.ndarray


def _recurrence_rows(a, v, rows, params):
    """rows[l] = rho_l(A) v for l = 0..len(rows) - 1, each written in place.

    Each step applies the operations of ((A w - theta w) - mu w_prev) / gamma
    in that order, in place, so the row is bitwise that expression's value.
    """
    rows[0] = v
    for l in range(len(rows) - 1):
        w = rows[l + 1]
        av = spmv(a, rows[l])
        np.multiply(rows[l], params.thetas[l], out=w)
        np.subtract(av, w, out=w)
        if l >= 1 and params.mus[l - 1] != 0.0:
            np.multiply(rows[l - 1], params.mus[l - 1], out=av)
            np.subtract(w, av, out=w)
        np.divide(w, params.gammas[l], out=w)
        if not np.all(np.isfinite(w)):
            raise BasisBreakdownError(f"non-finite basis column at degree {l + 1}")


def build_block(a, p, r, params, s, out=None):
    """Construct the s-step block from current direction p and residual r.

    P covers degrees 0..s, R degrees 0..s-1; the Gram matrix, the block's
    one global synchronization, is computed once. The 2s+1 basis vectors are
    written as contiguous rows of one (2s+1, n) array: the leading
    (2s+1) n entries of the flat buffer `out` when one is given (the engine
    passes one per solve, sized for sigma), a new array otherwise. The
    block's y is that array's transpose, with no copy.
    """
    if params.degree_capacity() < s:
        raise ParameterError(f"params cover degree {params.degree_capacity()}, need {s}")
    size = (2 * s + 1) * len(p)
    rows = (np.empty(size) if out is None else out[:size]).reshape(2 * s + 1, len(p))
    _recurrence_rows(a, p, rows[: s + 1], params)
    _recurrence_rows(a, r, rows[s + 1 :], params)
    y = rows.T
    return SStepBlock(s=s, y=y, b_mat=assemble_change_of_basis(s, params), g=gram(y))
