"""Matrix ingestion, two-sided diagonal preconditioning, problem construction."""

from __future__ import annotations

import gzip
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as _sp
from scipy.sparse import _sparsetools

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


class _KernelCsr(_sp.csr_matrix):
    """scipy CSR matrix whose `@` on a float64 vector is the compiled kernel alone.

    The solvers' only operand, a C-contiguous float64 ndarray of shape (n,),
    goes straight to `csr_matvec` with a zero-initialised output, the kernel
    and output SciPy's own `_matmul_vector` uses, so each product is bitwise
    SciPy's without the per-call dispatch in front of it. The kernel checks
    no length (a short vector is read past its end), so every other operand
    goes to SciPy, which validates it and picks the result dtype.
    """

    def __matmul__(self, other):
        m, n = self.shape
        if (
            other.__class__ is np.ndarray
            and other.shape == (n,)
            and other.dtype == np.float64
            and self.data.dtype == np.float64
            and other.flags.c_contiguous
        ):
            y = np.zeros(m)
            _sparsetools.csr_matvec(m, n, self.indptr, self.indices, self.data, other, y)
            return y
        return super().__matmul__(other)


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
    _csr: object = field(default=None, repr=False, compare=False)

    @property
    def nnz(self):
        return len(self.values)

    def as_csr(self):
        """scipy CSR view, built once and cached (backend for spmv).

        A `scipy.sparse.csr_matrix` subclass whose `@` on a float64 vector
        calls SciPy's compiled CSR kernel directly; every other operation is
        SciPy's own.
        """
        if self._csr is None:
            self._csr = _KernelCsr(
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


def from_coo(n, rows, cols, vals):
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
    )


# one Matrix Market entry line: 1-based row and column, then the value
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def read_matrix_market(path):
    """Read a real square Matrix Market coordinate file into full symmetric CSR.

    Symmetric files have the strict lower/upper triangle mirrored; general
    files must have a structurally symmetric pattern. Duplicate entries are
    summed. The entry body is parsed in one `np.loadtxt` call; a body that
    fails to parse, has the wrong count or an index out of range is scanned
    again line by line (`_scan_entries`) to name the offending line.
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

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body warns
                body = np.loadtxt(f, dtype=_ENTRY, comments="%", ndmin=1)
        except ValueError:
            body = None

    if body is not None and len(body) == nnz and (
        nnz == 0 or all(body[k].min() >= 1 and body[k].max() <= n for k in "ij")
    ):
        body["i"] -= 1
        body["j"] -= 1
        rows, cols, vals = body["i"], body["j"], body["v"]
    else:
        rows, cols, vals = _scan_entries(path, opener, line_no, n, nnz)
    del body  # so the concatenation below frees the parsed entries before from_coo

    if sym == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    a = from_coo(n, rows, cols, vals)
    if sym == "general" and not a.pattern_is_symmetric():
        raise MatrixMarketError("general file without structurally symmetric pattern")
    return a


def _scan_entries(path, opener, size_line_no, n, nnz):
    """Parse the entry lines after line size_line_no one at a time; raise a
    MatrixMarketError naming the first bad line, else return 0-based
    (rows, cols, vals)."""
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz)
    k = 0
    with opener(path, "rt") as f:
        for line_no, line in enumerate(f, start=1):
            if line_no <= size_line_no or not line.strip() or line.startswith("%"):
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
    return rows, cols, vals


def jacobi_precondition(a):
    """Two-sided diagonal scaling A_hat = D^{-1/2} A D^{-1/2}.

    D holds the largest (signed) stored entry of each row; for an SPD matrix
    these are positive since the diagonal is. Returns (A_hat, d^{-1/2}).
    A_hat shares A's row_ptr and col_idx. Each entry (i, j) is divided by
    root[min(i, j)] * root[max(i, j)], so (i, j) and (j, i) round
    identically and A_hat is bitwise symmetric.
    """
    d = a.row_max()
    if np.any(~np.isfinite(d)) or np.any(d <= 0.0):
        bad = int(np.argmin(d))
        raise DegenerateMatrixError(f"row {bad} has nonpositive maximum {d[bad]!r}")
    root = np.sqrt(d)

    rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
    cols = a.col_idx
    scaled = a.values / (root[np.minimum(rows, cols)] * root[np.maximum(rows, cols)])
    return SparseMatrix(a.n, a.row_ptr, cols, scaled, a.n_a), 1.0 / root


def build_rhs(n):
    """Right-hand side with all entries 1/sqrt(n); unit 2-norm up to roundoff."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.full(n, 1.0 / np.sqrt(n))


@dataclass
class NormEstimates:
    """Spectral estimates of a symmetric A from one eigensolve (`_extremes`).

    iters_used counts the sparse products spent (0 on the dense path);
    converged is False when the Lanczos run ran out of steps before its
    extreme Ritz values settled. Lanczos Ritz values lie inside the
    spectrum, so lambda_min is high, ||A|| low and kappa_a an underestimate
    unless n <= DENSE_MAX_N, where all three are exact.
    """

    norm_a: float
    kappa_a: float
    lambda_min: float
    iters_used: int
    converged: bool


DENSE_MAX_N = 2000  # largest n whose norms come from dense eigensolves
LANCZOS_CHECK = 20  # Lanczos steps between convergence tests
LANCZOS_TOL = 1e-6  # settled: moved by at most this times |theta_max|


def _lanczos_extremes(a, steps):
    """Extreme Ritz values of plain Lanczos on A from a random start.

    No reorthogonalization: lost orthogonality only adds copies of Ritz
    values that have converged, and the extremes approach the spectrum from
    inside. Every LANCZOS_CHECK steps the extremes of the tridiagonal T_k
    come from a dense eigvalsh; the run has converged when both have
    settled since the last test. Returns (theta_min, theta_max, products,
    converged).
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.n)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(a.n)
    tmp = np.empty(a.n)  # the scaled vectors, so a step allocates only A v
    alphas, betas = [], []
    beta = 0.0
    last = None
    for k in range(1, steps + 1):
        w = spmv(a, v)
        alpha = float(np.dot(v, w))
        w -= np.multiply(v, alpha, out=tmp)
        w -= np.multiply(v_prev, beta, out=tmp)
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if k % LANCZOS_CHECK == 0 or k == steps or beta == 0.0:
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            theta = np.linalg.eigvalsh(t)
            lo, hi = float(theta[0]), float(theta[-1])
            tol = LANCZOS_TOL * abs(hi)
            # beta = 0: the Krylov space is invariant and T_k's extremes exact
            if beta == 0.0 or (
                last is not None and abs(lo - last[0]) <= tol and abs(hi - last[1]) <= tol
            ):
                return lo, hi, k, True
            last = lo, hi
        betas.append(beta)
        w /= beta
        v_prev, v = v, w
    return lo, hi, steps, False


def _extremes(a, iters):
    """(lambda_min, lambda_max, products, converged) of symmetric A: exact
    from a dense eigvalsh for n <= DENSE_MAX_N, else `_lanczos_extremes`
    with at most iters steps."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if a.n > DENSE_MAX_N:
        return _lanczos_extremes(a, iters)
    w = np.linalg.eigvalsh(a.to_dense())
    return float(w[0]), float(w[-1]), 0, True


def estimate_operator_norms(a, iters=1000):
    """Estimate ||A||_2, lambda_min and kappa(A) for symmetric A.

    Exact for n <= DENSE_MAX_N; larger A runs plain Lanczos, whose Ritz
    values lie inside the spectrum, so kappa is an underestimate.
    """
    lam_min, lam_max, used, converged = _extremes(a, iters)
    norm_a = max(abs(lam_min), abs(lam_max))
    kappa = np.inf if lam_min <= 0 else norm_a / lam_min
    return NormEstimates(norm_a, float(kappa), lam_min, used, converged)


def estimate_abs_norm(a, iters=1000):
    """|| |A| ||_2 for symmetric A: the largest eigenvalue of the nonnegative
    |A|, which shares A's index arrays. Exact for n <= DENSE_MAX_N, else a
    Lanczos Ritz value, which is low. Returns (norm, products, converged)."""
    abs_a = SparseMatrix(a.n, a.row_ptr, a.col_idx, np.abs(a.values), a.n_a)
    return _extremes(abs_a, iters)[1:]


@dataclass
class ProblemInstance:
    """A preconditioned system A x = b with x0 = 0 and unit-norm b.

    norms is the estimate norm_a and kappa_a were taken from, when set-up
    made one (`load_problem`); problems built with known norms leave it
    None. norm_abs_a is || |A| ||, which only full-bound c reads: pass it
    when known, else it stays None until `abs_norm()` estimates it.
    """

    a: SparseMatrix
    b: np.ndarray
    x0: np.ndarray
    norm_a: float
    kappa_a: float
    label: str = ""
    norms: NormEstimates | None = None
    norm_abs_a: float | None = None

    def abs_norm(self):
        """|| |A| ||, estimated on the first call (`estimate_abs_norm`) and
        kept in norm_abs_a. Warns (RuntimeWarning) when that Lanczos run
        did not converge."""
        if self.norm_abs_a is None:
            self.norm_abs_a, used, converged = estimate_abs_norm(self.a)
            if not converged:
                msg = f"{self.label}: || |A| || not converged after {used} Lanczos steps"
                warnings.warn(f"{msg}; the estimate is low", RuntimeWarning, stacklevel=2)
        return self.norm_abs_a


def load_problem(path, label=None):
    """Ingest, precondition and assemble the standard test problem.

    Warns (RuntimeWarning) when a Lanczos norm estimate ran out of steps
    before it converged.
    """
    if label is None:
        label = str(path)
    # the unscaled matrix is freed before the norms are estimated
    a, _ = jacobi_precondition(read_matrix_market(path))
    est = estimate_operator_norms(a)
    if not est.converged:
        warnings.warn(
            f"{label}: spectral estimates not converged after {est.iters_used} "
            f"Lanczos steps; kappa(A) = {est.kappa_a:.4g} is an underestimate",
            RuntimeWarning,
            stacklevel=2,
        )
    return ProblemInstance(
        a=a,
        b=build_rhs(a.n),
        x0=np.zeros(a.n),
        norm_a=est.norm_a,
        kappa_a=est.kappa_a,
        label=label,
        norms=est,
    )
