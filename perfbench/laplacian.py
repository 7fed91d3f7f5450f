"""Generated Laplacian test problems with closed-form extremal eigenvalues.

A (2d+1)-point finite-difference Laplacian on an n_1 x ... x n_d grid with
homogeneous Dirichlet boundaries and per-axis coefficients a_k:

    (A u)_i = sum_k a_k (2 u_i - u_{i - e_k} - u_{i + e_k}).

Its eigenvalues are sum_k 2 a_k (1 - cos(j_k pi / (n_k + 1))), j_k = 1..n_k,
so the extremes come from j_k = 1 and j_k = n_k on every axis. 2D grids give
the five-point stencil, 3D grids the seven-point one; unequal coefficients
give the anisotropic variants. The diagonal is the constant 2 sum_k a_k and
every off-diagonal entry is negative, so the library's two-sided diagonal
scaling divides A by that constant and leaves kappa unchanged.

Matrices are written as Matrix Market symmetric coordinate files (lower
triangle), so they load through the same public path as the bundled ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHUNK = 65536  # Matrix Market lines formatted at a time


@dataclass(frozen=True)
class Laplacian:
    shape: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.shape) not in (2, 3) or len(self.coeffs) != len(self.shape):
            raise ValueError("need a 2D or 3D grid with one coefficient per axis")
        if min(self.shape) < 1 or min(self.coeffs) <= 0.0:
            raise ValueError("grid sizes and coefficients must be positive")

    @property
    def n(self):
        return math.prod(self.shape)

    @property
    def diagonal(self):
        return 2.0 * sum(self.coeffs)

    def extremal_eigenvalues(self):
        """(lambda_min, lambda_max) of A, in closed form."""
        lo = hi = 0.0
        for nk, ak in zip(self.shape, self.coeffs):
            c = math.cos(math.pi / (nk + 1))
            lo += 2.0 * ak * (1.0 - c)
            hi += 2.0 * ak * (1.0 + c)
        return lo, hi

    def kappa(self):
        lo, hi = self.extremal_eigenvalues()
        return hi / lo

    def lower_triangle(self):
        """(rows, cols, vals) of the diagonal and strictly lower entries, 0-based."""
        idx = np.arange(self.n).reshape(self.shape)
        rows = [idx.ravel()]
        cols = [idx.ravel()]
        vals = [np.full(self.n, self.diagonal)]
        for axis, ak in enumerate(self.coeffs):
            lo = np.take(idx, range(self.shape[axis] - 1), axis=axis).ravel()
            hi = np.take(idx, range(1, self.shape[axis]), axis=axis).ravel()
            rows.append(hi)
            cols.append(lo)
            vals.append(np.full(len(lo), -ak))
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    def to_dense(self):
        rows, cols, vals = self.lower_triangle()
        a = np.zeros((self.n, self.n))
        a[rows, cols] = vals
        a[cols, rows] = vals
        return a

    def write_matrix_market(self, path):
        """Write the lower triangle, 1-based, in chunks to bound peak memory."""
        rows, cols, vals = self.lower_triangle()
        with open(path, "w") as f:
            f.write("%%MatrixMarket matrix coordinate real symmetric\n")
            f.write(f"% Laplacian grid={list(self.shape)} coeffs={list(self.coeffs)}\n")
            f.write(f"{self.n} {self.n} {len(rows)}\n")
            for lo in range(0, len(rows), CHUNK):
                hi = lo + CHUNK
                f.writelines(
                    f"{r + 1} {c + 1} {v!r}\n"
                    for r, c, v in zip(rows[lo:hi].tolist(), cols[lo:hi].tolist(), vals[lo:hi].tolist())
                )
        return path
