import os
import sys

import numpy as np
import pytest

from sstepcg.matio import ProblemInstance, SparseMatrix, build_rhs, from_coo, load_problem

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "matrices")

# Matrices from the reference test set that could not be retrieved in this
# environment; tests needing them skip with this message.
MISSING_NOTE = "matrix file not available (no route to the public collection)"


def matrix_path(name):
    return os.path.join(DATA_DIR, f"{name}.mtx")


def require_matrix(name):
    path = matrix_path(name)
    if not os.path.exists(path):
        pytest.skip(f"{name}: {MISSING_NOTE}")
    return path


def dense_to_sparse(a_dense):
    a_dense = np.asarray(a_dense, dtype=float)
    n = a_dense.shape[0]
    rows, cols = np.nonzero(a_dense)
    return from_coo(n, rows, cols, a_dense[rows, cols])


def problem_from_dense(a_dense, b=None, label="dense"):
    a = dense_to_sparse(a_dense)
    w = np.linalg.eigvalsh(np.asarray(a_dense, dtype=float))
    if b is None:
        b = build_rhs(a.n)
    return ProblemInstance(
        a=a,
        b=np.asarray(b, dtype=float),
        x0=np.zeros(a.n),
        norm_a=float(w[-1]),
        norm_abs_a=float(np.linalg.norm(np.abs(a_dense), 2)),
        kappa_a=float(w[-1] / w[0]),
        label=label,
    )


def random_spd(n, kappa, seed):
    """Dense SPD matrix with prescribed condition number."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, kappa, n)
    return (q * eigs) @ q.T


def laplacian_2d_problem(m):
    """5-point Laplacian on an m x m grid, built with from_coo, with its
    closed-form norms: eigenvalues 4 sin^2(i pi / 2(m+1)) + 4 sin^2(j pi / 2(m+1))."""
    idx = np.arange(m * m).reshape(m, m)
    rows = [idx.ravel()]
    cols = [idx.ravel()]
    vals = [np.full(m * m, 4.0)]
    for u, v in ((idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])):
        rows += [u.ravel(), v.ravel()]
        cols += [v.ravel(), u.ravel()]
        vals += [np.full(u.size, -1.0)] * 2
    a = from_coo(m * m, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    h = np.pi / (2 * (m + 1))
    lmin = 8.0 * np.sin(h) ** 2
    lmax = 8.0 * np.sin(m * h) ** 2
    return ProblemInstance(
        a=a,
        b=build_rhs(a.n),
        x0=np.zeros(a.n),
        norm_a=lmax,
        norm_abs_a=4.0 + 4.0 * np.cos(2 * h),
        kappa_a=lmax / lmin,
        label=f"laplace{m}",
    )


def count_calls(monkeypatch, module, name):
    """Wrap module.name at every binding inside the package, including names
    imported into other modules; returns the list each call appends to."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "sstepcg" or mod_name.startswith("sstepcg."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class _CountingCsr:
    """Stands in for a cached scipy CSR matrix; counts `@`, delegates the rest."""

    def __init__(self, csr, calls):
        self._csr = csr
        self._calls = calls

    def __matmul__(self, x):
        self._calls.append(x.shape)
        return self._csr @ x

    def __getattr__(self, name):
        return getattr(self._csr, name)


def count_spmvs(monkeypatch):
    """Count every sparse product, through `lacore.spmv` or not: while patched,
    `SparseMatrix.as_csr` hands out a counting proxy. Returns the list each
    product appends to."""
    calls = []
    as_csr = SparseMatrix.as_csr
    monkeypatch.setattr(SparseMatrix, "as_csr", lambda a: _CountingCsr(as_csr(a), calls))
    return calls


@pytest.fixture(scope="session")
def nos1_problem():
    return load_problem(require_matrix("nos1"), label="nos1")


@pytest.fixture(scope="session")
def bus494_problem():
    return load_problem(require_matrix("494_bus"), label="494bus")


@pytest.fixture()
def identity_mm(tmp_path):
    path = tmp_path / "identity3.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 3\n1 1 1.0\n2 2 1.0\n3 3 1.0\n"
    )
    return str(path)
