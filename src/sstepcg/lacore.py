"""Small dense symmetric linear algebra and sparse matrix-vector products.

Shared kernels for all solvers: deterministic SpMV, exactly symmetric Gram
matrices, the eigenvalues of the small symmetric matrices that arise per
block (order <= 2*sigma + 1), and basis condition estimation from Gram
principal submatrices.
"""

from __future__ import annotations

import functools

import numpy as np


def spmv(a, x):
    """Sparse matrix-vector product y = A x.

    Accumulation is sequential in stored order within each row (CSR kernel),
    so repeated calls on identical inputs are bitwise reproducible. The
    product is `a.as_csr() @ x`, whose `@` calls SciPy's compiled CSR kernel
    without SciPy's per-call dispatch (`matio._KernelCsr`); every product
    goes through that `@`, which the benchmark tracer and the tests' product
    counter wrap. Each call returns a fresh array.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (a.n,):
        raise ValueError(f"dimension mismatch: matrix is {a.n}x{a.n}, vector has shape {x.shape}")
    return a.as_csr() @ x


@functools.cache
def _mirror_index(order):
    """Strict lower-triangle (rows, cols) of an order x order matrix, built
    once per order. The arrays are read-only: every caller shares them."""
    index = np.tril_indices(order, -1)
    for a in index:
        a.setflags(write=False)
    return index


def gram(y):
    """Gram matrix G = Y^T Y, exactly symmetric.

    The product is formed once (BLAS) and the lower triangle mirrored, so
    each unordered pair has a single value assigned to both positions.
    """
    y = np.asarray(y, dtype=float)
    g = y.T @ y
    rows, cols = _mirror_index(g.shape[0])
    g[cols, rows] = g[rows, cols]
    return g


def sym_eig(m):
    """Eigenvalues of a small symmetric matrix, sorted ascending (LAPACK).

    No solver calls it. The name stays, over `np.linalg.eigvalsh`, because
    the package exports it and the benchmark tracer (`perfbench/tracer.py`)
    looks it up.
    """
    return np.linalg.eigvalsh(np.asarray(m, dtype=float))


def _cond_from_eigvals(w):
    """Condition estimate sqrt(lmax / smallest-magnitude eigenvalue).

    Computed Gram matrices of very ill-conditioned bases are indefinite at
    roundoff level; the magnitude of the smallest eigenvalue then still
    carries the right order for sqrt(kappa(G)) ~ kappa(Y). Only an exactly
    zero eigenvalue (e.g. duplicated columns) maps to the +inf sentinel.
    """
    lmax = w[-1]
    if lmax <= 0.0:
        return np.inf
    smallest = np.abs(w).min()
    if smallest == 0.0:
        return np.inf
    return float(np.sqrt(lmax / smallest))


def gram_cond_estimate(g, cols):
    """Estimate kappa(Y[:, cols]) as sqrt(kappa(G[cols, cols])).

    +inf signals a numerically singular submatrix (exactly zero eigenvalue).
    """
    cols = list(cols)
    if not cols:
        raise ValueError("empty column index set")
    g = np.asarray(g, dtype=float)
    sub = g[np.ix_(cols, cols)]
    # LAPACK backend: these solves sit on the per-block hot path.
    w = np.linalg.eigvalsh(sub)
    return _cond_from_eigvals(w)


@functools.cache
def _nested_index(s_bar):
    """np.ix_ gathers of the nested Gram submatrices, built once per s_bar.

    Entry i (1..s_bar) selects P-columns 0..i and R-columns 0..i-1 of
    [P | R]. The arrays are read-only: every caller shares them.
    """
    index = [None]
    for i in range(1, s_bar + 1):
        cols = np.r_[0 : i + 1, s_bar + 1 : s_bar + 1 + i]
        cols.setflags(write=False)
        index.append(np.ix_(cols, cols))
    return tuple(index)


def nested_basis_conds(g, s_bar):
    """kappa estimates for the nested bases Y_{k,i}, i = 1..s_bar.

    The Gram matrix g is over [P | R] with s_bar+1 P-columns followed by
    s_bar R-columns; Y_{k,i} uses P-columns 0..i and R-columns 0..i-1.
    Index 0 of the returned array is unused (kept NaN) so conds[i] matches i.
    Each submatrix is gathered in its natural column order: permuting g so
    that the nested bases became leading blocks would change LAPACK's
    rounding.
    """
    g = np.asarray(g, dtype=float)
    conds = np.full(s_bar + 1, np.nan)
    index = _nested_index(s_bar)
    for i in range(1, s_bar + 1):
        conds[i] = _cond_from_eigvals(np.linalg.eigvalsh(g[index[i]]))
    return conds
