"""Matrix ingestion, two-sided diagonal preconditioning, problem construction."""

from __future__ import annotations

import gzip
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as _sp

from .lacore import spmv


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"{message} (line {line_no})"
        super().__init__(message)
        self.line_no = line_no


class DegenerateMatrixError(ValueError):
    pass


@dataclass
class SparseMatrix:
    """Symmetric sparse matrix in CSR form.

    n_a is the maximum number of stored nonzeros in any row.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    n_a: int
    is_symmetric: bool = True
    _csr: object = field(default=None, repr=False, compare=False)

    @property
    def nnz(self):
        return len(self.values)

    def as_csr(self):
        """scipy CSR view, built once and cached (backend for spmv)."""
        if self._csr is None:
            self._csr = _sp.csr_matrix(
                (self.values, self.col_idx, self.row_ptr), shape=(self.n, self.n)
            )
        return self._csr

    def row_max(self):
        """Largest stored entry in each row (signed); -inf for an empty row."""
        out = np.full(self.n, -np.inf)
        filled = np.diff(self.row_ptr) > 0
        # empty rows hold no values, so the segment from one filled row's
        # start to the next filled row's start is exactly that row
        out[filled] = np.maximum.reduceat(self.values, self.row_ptr[:-1][filled])
        return out

    def to_dense(self):
        return self.as_csr().toarray()

    def pattern_is_symmetric(self):
        c = self.as_csr()
        d = (c != 0) - (c.T != 0)
        return d.nnz == 0


def from_coo(n, rows, cols, vals, is_symmetric=True):
    """Build a SparseMatrix from coordinate data, summing duplicates."""
    coo = _sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    csr = coo.tocsr()
    csr.sum_duplicates()
    csr.sort_indices()
    n_a = int(np.diff(csr.indptr).max()) if n else 0
    return SparseMatrix(
        n=n,
        row_ptr=csr.indptr.copy(),
        col_idx=csr.indices.copy(),
        values=csr.data.copy(),
        n_a=n_a,
        is_symmetric=is_symmetric,
    )


def read_matrix_market(path):
    """Read a real square Matrix Market coordinate file into full symmetric CSR.

    Symmetric files have the strict lower/upper triangle mirrored; general
    files must have a structurally symmetric pattern. Duplicate entries are
    summed.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as f:
        header = f.readline()
        if not header.startswith("%%MatrixMarket"):
            raise MatrixMarketError("missing %%MatrixMarket header", 1)
        parts = header.strip().split()
        if len(parts) != 5:
            raise MatrixMarketError("malformed header", 1)
        _, obj, fmt, fld, sym = (p.lower() for p in parts)
        if obj != "matrix" or fmt != "coordinate":
            raise MatrixMarketError(f"unsupported object/format '{obj} {fmt}'", 1)
        if fld == "complex":
            raise MatrixMarketError("complex field not supported", 1)
        if fld == "pattern":
            raise MatrixMarketError("pattern-only files carry no values", 1)
        if fld not in ("real", "integer"):
            raise MatrixMarketError(f"unsupported field '{fld}'", 1)
        if sym not in ("general", "symmetric"):
            raise MatrixMarketError(f"unsupported symmetry '{sym}'", 1)

        line_no = 1
        size_line = None
        for line in f:
            line_no += 1
            if line.startswith("%") or not line.strip():
                continue
            size_line = line
            break
        if size_line is None:
            raise MatrixMarketError("missing size line", line_no)
        try:
            m, n, nnz = (int(t) for t in size_line.split())
        except ValueError:
            raise MatrixMarketError("size line must be 'rows cols nnz'", line_no)
        if m != n:
            raise MatrixMarketError(f"matrix must be square, got {m}x{n}", line_no)

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz)
        k = 0
        for line in f:
            line_no += 1
            if not line.strip() or line.startswith("%"):
                continue
            toks = line.split()
            if len(toks) != 3:
                raise MatrixMarketError("entry line must be 'i j value'", line_no)
            try:
                i = int(toks[0]) - 1
                j = int(toks[1]) - 1
                v = float(toks[2])
            except ValueError:
                raise MatrixMarketError("could not parse entry", line_no)
            if k >= nnz:
                raise MatrixMarketError("more entries than declared", line_no)
            if not (0 <= i < n and 0 <= j < n):
                raise MatrixMarketError("index out of range", line_no)
            rows[k], cols[k], vals[k] = i, j, v
            k += 1
        if k != nnz:
            raise MatrixMarketError(f"expected {nnz} entries, found {k}", line_no)

    if sym == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    a = from_coo(n, rows, cols, vals, is_symmetric=True)
    if sym == "general" and not a.pattern_is_symmetric():
        raise MatrixMarketError("general file without structurally symmetric pattern")
    return a


def jacobi_precondition(a):
    """Two-sided diagonal scaling A_hat = D^{-1/2} A D^{-1/2}.

    D holds the largest (signed) stored entry of each row; for an SPD matrix
    these are positive since the diagonal is. Returns (A_hat, d^{-1/2}).
    Off-diagonal pairs are scaled once and mirrored, so A_hat is bitwise
    symmetric.
    """
    d = a.row_max()
    if np.any(~np.isfinite(d)) or np.any(d <= 0.0):
        bad = int(np.argmin(d))
        raise DegenerateMatrixError(f"row {bad} has nonpositive maximum {d[bad]!r}")
    root = np.sqrt(d)

    n = a.n
    rows = np.repeat(np.arange(n), np.diff(a.row_ptr))
    cols = a.col_idx
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    # canonical factor order makes (i, j) and (j, i) round identically
    scaled = a.values / (root[lo] * root[hi])
    out = from_coo(n, rows, cols, scaled, is_symmetric=True)
    return out, 1.0 / root


def build_rhs(n):
    """Right-hand side with all entries 1/sqrt(n); unit 2-norm up to roundoff."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.full(n, 1.0 / np.sqrt(n))


@dataclass
class NormEstimates:
    norm_a: float
    norm_abs_a: float
    kappa_a: float
    lambda_min: float
    iters_used: int
    converged: bool


def _power_iteration(matvec, n, iters, tol, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    w = matvec(v)
    for it in range(1, iters + 1):
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, it, True
        v = w / nw
        # A v serves the Rayleigh quotient now and the next step's product
        w = matvec(v)
        new_lam = float(np.dot(v, w))
        if lam != 0.0 and abs(new_lam - lam) <= tol * abs(new_lam):
            return new_lam, it, True
        lam = new_lam
    return lam, iters, False


def estimate_operator_norms(a, iters=500, tol=1e-10):
    """Estimate ||A||_2, || |A| ||_2 and kappa(A) for symmetric A.

    ||A|| and || |A| || come from power iteration. lambda_min comes from a
    dense symmetric eigensolve for n <= 2000 (exact at desk scale), else
    from power iteration on ||A|| I - A.
    """
    norm_a, it1, c1 = _power_iteration(lambda v: spmv(a, v), a.n, iters, tol)
    abs_csr = a.as_csr().copy()
    abs_csr.data = np.abs(abs_csr.data)
    norm_abs_a, it2, c2 = _power_iteration(lambda v: abs_csr @ v, a.n, iters, tol)
    if a.n <= 2000:
        w = np.linalg.eigvalsh(a.to_dense())
        lam_min = float(w[0])
        it3, c3 = 0, True
    else:
        shifted, it3, c3 = _power_iteration(
            lambda v: norm_a * v - spmv(a, v), a.n, iters, tol, seed=1
        )
        lam_min = norm_a - shifted
    kappa = np.inf if lam_min <= 0 else norm_a / lam_min
    return NormEstimates(
        norm_a=float(norm_a),
        norm_abs_a=float(norm_abs_a),
        kappa_a=float(kappa),
        lambda_min=lam_min,
        iters_used=it1 + it2 + it3,
        converged=c1 and c2 and c3,
    )


@dataclass
class ProblemInstance:
    """A preconditioned system A x = b with x0 = 0 and unit-norm b."""

    a: SparseMatrix
    b: np.ndarray
    x0: np.ndarray
    norm_a: float
    norm_abs_a: float
    kappa_a: float
    label: str = ""


def load_problem(path, label=None, norm_iters=500, norm_tol=1e-10):
    """Ingest, precondition and assemble the standard test problem."""
    raw = read_matrix_market(path)
    a, _ = jacobi_precondition(raw)
    est = estimate_operator_norms(a, iters=norm_iters, tol=norm_tol)
    b = build_rhs(a.n)
    if label is None:
        label = str(path)
    return ProblemInstance(
        a=a,
        b=b,
        x0=np.zeros(a.n),
        norm_a=est.norm_a,
        norm_abs_a=est.norm_abs_a,
        kappa_a=est.kappa_a,
        label=label,
    )
