import functools
import gzip

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import count_calls, dense_to_sparse, laplacian_2d_problem, require_matrix
from sstepcg import matio
from sstepcg.lacore import spmv
from sstepcg.matio import (
    DegenerateMatrixError,
    MatrixMarketError,
    ProblemInstance,
    SparseMatrix,
    build_rhs,
    estimate_abs_norm,
    estimate_operator_norms,
    from_coo,
    jacobi_precondition,
    read_matrix_market,
)

EPS = np.finfo(float).eps

BUNDLED = ("nos1", "494_bus", "nos6", "gr_30_30")


def _read_per_line(path):
    """Reference reader: one float() per entry line, mirrored like the reader."""
    with open(path) as f:
        symmetric = f.readline().split()[4].lower() == "symmetric"
        lines = (line for line in f if line.strip() and not line.startswith("%"))
        n = int(next(lines).split()[0])
        triples = [line.split() for line in lines]
    rows = np.array([int(t[0]) - 1 for t in triples], dtype=np.int64)
    cols = np.array([int(t[1]) - 1 for t in triples], dtype=np.int64)
    vals = np.array([float(t[2]) for t in triples])
    if symmetric:
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    return from_coo(n, rows, cols, vals)


def _row_max_per_row(a):
    out = np.full(a.n, -np.inf)
    for i in range(a.n):
        lo, hi = a.row_ptr[i], a.row_ptr[i + 1]
        if hi > lo:
            out[i] = a.values[lo:hi].max()
    return out


def _tridiagonal(n):
    """SPD tridiagonal with diagonal rising from 0.5 to 4 and off-diagonal -0.2."""
    d = np.linspace(0.5, 4.0, n)
    idx = np.arange(n - 1)
    return from_coo(
        n,
        np.concatenate([np.arange(n), idx, idx + 1]),
        np.concatenate([np.arange(n), idx + 1, idx]),
        np.concatenate([d, np.full(2 * (n - 1), -0.2)]),
    )


def _write_symmetric_mtx(a, path):
    """Write A's lower triangle as a symmetric Matrix Market file."""
    rows = np.repeat(np.arange(a.n), np.diff(a.row_ptr))
    lower = rows >= a.col_idx
    with open(path, "w") as f:
        f.write(f"%%MatrixMarket matrix coordinate real symmetric\n{a.n} {a.n} {lower.sum()}\n")
        for i, j, v in zip(rows[lower], a.col_idx[lower], a.values[lower]):
            f.write(f"{i + 1} {j + 1} {float(v)!r}\n")
    return str(path)


def _tridiagonal_problem(**known):
    a = _tridiagonal(matio.DENSE_MAX_N + 100)
    return ProblemInstance(a, build_rhs(a.n), np.zeros(a.n), norm_a=4.0, kappa_a=8.0, **known)


class TestReadMatrixMarket:
    def test_identity_symmetric(self, identity_mm):
        a = read_matrix_market(identity_mm)
        assert a.n == 3
        assert a.nnz == 3
        assert a.n_a == 1
        np.testing.assert_array_equal(a.to_dense(), np.eye(3))

    def test_nos1_dimensions(self):
        a = read_matrix_market(require_matrix("nos1"))
        assert a.n == 237
        assert a.nnz == 1017

    def test_494bus_dimensions(self):
        a = read_matrix_market(require_matrix("494_bus"))
        assert a.n == 494
        assert a.nnz == 1666

    def test_general_with_symmetric_pattern(self, tmp_path):
        p = tmp_path / "gen.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n1 1 2.0\n1 2 1.0\n2 1 1.0\n2 2 3.0\n"
        )
        a = read_matrix_market(str(p))
        np.testing.assert_array_equal(a.to_dense(), [[2.0, 1.0], [1.0, 3.0]])

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bitwise_equal_to_per_line_parse(self, name):
        path = require_matrix(name)
        a, ref = read_matrix_market(path), _read_per_line(path)
        assert a.n == ref.n and a.n_a == ref.n_a
        for got, want in ((a.row_ptr, ref.row_ptr), (a.col_idx, ref.col_idx), (a.values, ref.values)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_interior_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "commented.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% leading comment\n2 2 3\n1 1 4.0\n% interior comment\n\n2 1 -1.0\n   \n2 2 3.0\n"
        )
        a = read_matrix_market(str(p))
        np.testing.assert_array_equal(a.to_dense(), [[4.0, -1.0], [-1.0, 3.0]])

    def test_duplicates_summed(self, tmp_path):
        p = tmp_path / "dup.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 1.0\n1 1 2.0\n2 2 1.0\n"
        )
        a = read_matrix_market(str(p))
        assert a.to_dense()[0, 0] == 3.0

    def test_gzip_bitwise_equal_to_plain(self, tmp_path):
        path = require_matrix("nos1")
        gz = tmp_path / "nos1.mtx.gz"
        with open(path, "rb") as src, gzip.open(gz, "wb") as dst:
            dst.write(src.read())
        a, ref = read_matrix_market(str(gz)), read_matrix_market(path)
        assert a.n == ref.n and a.n_a == ref.n_a
        for got, want in ((a.row_ptr, ref.row_ptr), (a.col_idx, ref.col_idx), (a.values, ref.values)):
            assert got.tobytes() == want.tobytes()

    def test_integer_field(self, tmp_path):
        p = tmp_path / "int.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate integer symmetric\n"
            "2 2 3\n1 1 4\n2 1 -1\n2 2 3\n"
        )
        a = read_matrix_market(str(p))
        assert a.values.dtype == np.float64
        np.testing.assert_array_equal(a.to_dense(), [[4.0, -1.0], [-1.0, 3.0]])

    def test_entries_python_accepts_but_loadtxt_rejects(self, tmp_path):
        # int("1_0") and float("2_5") parse; the line-by-line scan takes over
        p = tmp_path / "underscore.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "10 10 2\n1_0 1_0 2_5\n1 1 1.0\n"
        )
        a = read_matrix_market(str(p))
        assert a.to_dense()[9, 9] == 25.0 and a.to_dense()[0, 0] == 1.0

    @pytest.mark.parametrize(
        "content,line",
        [
            ("%%NotMatrixMarket\n2 2 1\n1 1 1.0\n", 1),
            ("%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n1 1 1.0 0.0\n", 1),
            ("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 1\n", 1),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n", 2),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\nbroken line\n", 4),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n3 1 1.0\n", 4),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 1.0\n2 2 1.0\n", 4),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1.0\n2 2 1.0\n% end\n", 5),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, content, line):
        p = tmp_path / "bad.mtx"
        p.write_text(content)
        with pytest.raises(MatrixMarketError) as exc:
            read_matrix_market(str(p))
        assert exc.value.line_no == line


class TestRowMax:
    def test_empty_rows_match_per_row_loop(self):
        # rows 1 and 4 (the last) store nothing; row 2 is all negative
        a = from_coo(5, [0, 0, 2, 2, 3, 3], [0, 3, 2, 3, 0, 2], [-1.0, 5.0, -2.0, -0.5, 5.0, 0.5])
        got = a.row_max()
        np.testing.assert_array_equal(got, _row_max_per_row(a))
        np.testing.assert_array_equal(got, [5.0, -np.inf, -0.5, 5.0, -np.inf])

    def test_random_pattern_matches_per_row_loop(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((60, 60))
        m[np.abs(m) < 1.2] = 0.0
        m[rng.integers(0, 60, 10)] = 0.0
        a = dense_to_sparse(m)
        assert np.any(np.diff(a.row_ptr) == 0)
        np.testing.assert_array_equal(a.row_max(), _row_max_per_row(a))


def _random_symmetric_int64(n, seed):
    """Random symmetric sparse matrix whose CSR index arrays are int64."""
    m = sp.random(n, n, density=0.05, random_state=seed, format="csr")
    m = (m + m.T + sp.identity(n)).tocsr()
    m.sort_indices()
    return SparseMatrix(
        n=n,
        row_ptr=m.indptr.astype(np.int64),
        col_idx=m.indices.astype(np.int64),
        values=m.data.copy(),
        n_a=int(np.diff(m.indptr).max()),
    )


def _scipy_csr(a):
    """A plain scipy CSR matrix on the same arrays: SciPy's own `@` is the reference."""
    return sp.csr_matrix((a.values, a.col_idx, a.row_ptr), shape=(a.n, a.n))


class TestKernelCsr:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_bitwise_equal_to_scipy(self, name):
        a = read_matrix_market(require_matrix(name))
        x = np.random.default_rng(0).standard_normal(a.n)
        np.testing.assert_array_equal(a.as_csr() @ x, _scipy_csr(a) @ x)

    def test_laplacian_bitwise_equal_to_scipy(self):
        a = laplacian_2d_problem(16).a
        x = np.random.default_rng(1).standard_normal(a.n)
        np.testing.assert_array_equal(a.as_csr() @ x, _scipy_csr(a) @ x)

    def test_int64_indices_bitwise_equal_to_scipy(self):
        a = _random_symmetric_int64(300, seed=2)
        x = np.random.default_rng(2).standard_normal(a.n)
        np.testing.assert_array_equal(a.as_csr() @ x, _scipy_csr(a) @ x)
        # SciPy stores indices this small as int32; the kernel also takes int64
        c = a.as_csr().copy()
        c.indptr, c.indices = a.row_ptr, a.col_idx
        assert type(c) is type(a.as_csr())
        assert c.indices.dtype == c.indptr.dtype == np.int64
        np.testing.assert_array_equal(c @ x, _scipy_csr(a) @ x)

    def test_each_product_is_a_fresh_array(self):
        a = laplacian_2d_problem(8).a
        x = np.random.default_rng(3).standard_normal(a.n)
        y1 = a.as_csr() @ x
        ref = y1.copy()
        y1[:] = np.nan  # callers write into the product (out=)
        y2 = a.as_csr() @ x
        assert not np.shares_memory(y1, y2) and not np.shares_memory(y2, x)
        np.testing.assert_array_equal(y2, ref)

    @pytest.mark.parametrize(
        "operand",
        [
            lambda x: np.repeat(x, 2)[::2],  # strided
            lambda x: np.column_stack([x, 2 * x]),  # 2-D
            lambda x: x[:, None],  # column vector
            lambda x: list(x),
            lambda x: x.astype(np.float32),
            lambda x: np.arange(x.size),  # integer
        ],
    )
    def test_other_operands_fall_back_to_scipy(self, operand):
        a = laplacian_2d_problem(8).a
        x = operand(np.random.default_rng(4).standard_normal(a.n))
        got, ref = a.as_csr() @ x, _scipy_csr(a) @ x
        assert got.shape == ref.shape and got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("length", [63, 65])
    def test_wrong_length_raises(self, length):
        # the kernel checks no length, so SciPy must see the operand
        a = laplacian_2d_problem(8).a
        with pytest.raises(ValueError):
            a.as_csr() @ np.ones(length)
        with pytest.raises(ValueError):
            spmv(a, np.ones(length))

    def test_still_a_scipy_sparse_matrix(self):
        a = laplacian_2d_problem(6).a
        assert sp.issparse(a.as_csr())
        np.testing.assert_array_equal(a.to_dense(), _scipy_csr(a).toarray())
        assert a.pattern_is_symmetric()
        assert not from_coo(2, [0], [1], [1.0]).pattern_is_symmetric()


class TestJacobiPrecondition:
    def test_diagonal_becomes_identity(self):
        a = dense_to_sparse(np.diag([4.0, 9.0, 0.25]))
        ah, dinv = jacobi_precondition(a)
        np.testing.assert_array_equal(ah.to_dense(), np.eye(3))
        np.testing.assert_allclose(dinv, [0.5, 1 / 3, 2.0])

    def test_two_by_two_hand_computed(self):
        a = dense_to_sparse([[4.0, 1.0], [1.0, 2.0]])
        ah, _ = jacobi_precondition(a)
        expected = np.array([[1.0, 1.0 / (2 * np.sqrt(2))], [1.0 / (2 * np.sqrt(2)), 1.0]])
        np.testing.assert_allclose(ah.to_dense(), expected, rtol=1e-15)

    def test_494bus_matches_reference_properties(self, bus494_problem):
        # reference values for the diagonally preconditioned matrix
        assert bus494_problem.norm_a == pytest.approx(2.00, rel=0.02)
        assert bus494_problem.kappa_a == pytest.approx(7.90e4, rel=0.02)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((20, 20))
        a = dense_to_sparse(m @ m.T + 20 * np.eye(20))
        ah, _ = jacobi_precondition(a)
        d = ah.to_dense()
        assert np.max(np.abs(d - d.T)) == 0.0

    def test_row_scaling_recomputable(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((15, 15))
        a = dense_to_sparse(m @ m.T + 15 * np.eye(15))
        ah, _ = jacobi_precondition(a)
        d = a.row_max()
        root = np.sqrt(d)
        ad, ahd = a.to_dense(), ah.to_dense()
        for i in range(15):
            for j in range(15):
                if ad[i, j] != 0.0:
                    lo, hi = min(i, j), max(i, j)
                    assert ahd[i, j] == ad[i, j] / (root[lo] * root[hi])

    def test_nonpositive_row_max_rejected(self):
        a = dense_to_sparse([[-1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(DegenerateMatrixError):
            jacobi_precondition(a)


class TestBuildRhs:
    def test_small_cases(self):
        np.testing.assert_array_equal(build_rhs(1), [1.0])
        np.testing.assert_array_equal(build_rhs(4), [0.5, 0.5, 0.5, 0.5])

    def test_n494_value(self):
        b = build_rhs(494)
        assert b[0] == pytest.approx(0.044992, abs=1e-6)
        assert abs(np.linalg.norm(b) - 1.0) <= 8 * EPS

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 237, 4096, 10**6])
    def test_unit_norm_up_to_roundoff(self, n):
        # 8 ulps covers the entry rounding; the summed-square accumulation
        # adds at most ~n/8 rounding steps of relative size eps on a sum of 1
        bound = 8 * EPS + (n / 8) * EPS
        assert abs(np.linalg.norm(build_rhs(n)) - 1.0) <= bound

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_rhs(0)


class TestEstimateOperatorNorms:
    def test_identity(self):
        est = estimate_operator_norms(dense_to_sparse(np.eye(5)))
        assert est.norm_a == pytest.approx(1.0, rel=1e-9)
        assert estimate_abs_norm(dense_to_sparse(np.eye(5)))[0] == pytest.approx(1.0, rel=1e-9)
        assert est.kappa_a == pytest.approx(1.0, rel=1e-9)

    def test_diagonal_spectrum(self):
        a = dense_to_sparse(np.diag([1.0, 10.0]))
        est = estimate_operator_norms(a)
        assert est.norm_a == pytest.approx(10.0, rel=1e-9)
        assert estimate_abs_norm(a)[0] == pytest.approx(10.0, rel=1e-9)
        assert est.kappa_a == pytest.approx(10.0, rel=1e-9)

    def test_diagonal_extremes_exact_to_tolerance(self):
        d = np.linspace(0.5, 7.5, 40)
        est = estimate_operator_norms(dense_to_sparse(np.diag(d)))
        assert est.norm_a == pytest.approx(7.5, rel=1e-8)
        assert est.kappa_a == pytest.approx(15.0, rel=1e-8)

    def test_dense_path_bitwise_equal_to_eigvalsh(self):
        a = read_matrix_market(require_matrix("nos1"))
        w = np.linalg.eigvalsh(a.to_dense())
        est = estimate_operator_norms(a)
        assert est.norm_a == w[-1] and est.lambda_min == w[0]
        assert est.kappa_a == w[-1] / w[0]
        assert est.converged and est.iters_used == 0

    def test_dense_abs_norm_bitwise_equal_to_eigvalsh(self):
        a = read_matrix_market(require_matrix("nos1"))
        w_abs = np.linalg.eigvalsh(np.abs(a.to_dense()))
        assert estimate_abs_norm(a) == (w_abs[-1], 0, True)

    @pytest.mark.parametrize("estimate", [estimate_operator_norms, estimate_abs_norm])
    @pytest.mark.parametrize("n", [50, matio.DENSE_MAX_N + 100])
    @pytest.mark.parametrize("iters", [0, -1])
    def test_rejects_iters_below_one(self, estimate, n, iters):
        a = from_coo(n, np.arange(n), np.arange(n), np.linspace(1.0, 2.0, n))
        with pytest.raises(ValueError, match="iters must be >= 1"):
            estimate(a, iters=iters)

    def test_one_spmv_per_lanczos_step(self, monkeypatch):
        a = _tridiagonal(matio.DENSE_MAX_N + 100)
        calls = count_calls(monkeypatch, matio, "spmv")
        _, _, used, converged = matio._lanczos_extremes(a, 50)
        assert len(calls) == used == 50 and not converged
        assert all(args[0] is a for args in calls)

    def test_iters_used_counts_products(self, monkeypatch):
        a = _tridiagonal(matio.DENSE_MAX_N + 100)
        calls = count_calls(monkeypatch, matio, "spmv")
        est = estimate_operator_norms(a)
        assert est.converged
        assert est.iters_used == len(calls)
        assert est.iters_used % matio.LANCZOS_CHECK == 0

    def test_budget_exhausted_is_not_converged(self):
        a = _tridiagonal(matio.DENSE_MAX_N + 100)
        est = estimate_operator_norms(a, iters=30)
        assert not est.converged and est.iters_used == 30
        assert estimate_abs_norm(a, iters=30)[1:] == (30, False)

    def test_three_point_spectrum(self):
        # the Krylov space of diag(1, 2, 3, 1, 2, 3, ...) has dimension 3
        n = matio.DENSE_MAX_N + 1
        a = from_coo(n, np.arange(n), np.arange(n), np.tile([1.0, 2.0, 3.0], n // 3))
        est = estimate_operator_norms(a)
        norm_abs_a, _, abs_converged = estimate_abs_norm(a)
        assert est.converged and abs_converged
        assert est.norm_a == pytest.approx(3.0, rel=1e-12)
        assert norm_abs_a == pytest.approx(3.0, rel=1e-12)
        assert est.kappa_a == pytest.approx(3.0, rel=1e-12)

    def test_bcsstk09_kappa(self):
        # reference: kappa of the preconditioned matrix ~ 1.04e4
        from sstepcg.matio import load_problem

        p = load_problem(require_matrix("bcsstk09"), label="bcsstk09")
        assert p.kappa_a == pytest.approx(1.04e4, rel=0.02)


class TestLanczosClosedForm:
    """n = 16,384 takes the Lanczos path; the 5-point Laplacian's extremes
    are known in closed form (conftest.laplacian_2d_problem)."""

    @pytest.fixture(scope="class")
    def case(self):
        exact = laplacian_2d_problem(128)
        return exact, estimate_operator_norms(exact.a)

    def test_takes_lanczos_path_and_converges(self, case):
        exact, est = case
        assert exact.a.n > matio.DENSE_MAX_N
        assert est.converged and est.iters_used > 0

    def test_norm_a(self, case):
        exact, est = case
        assert abs(est.norm_a - exact.norm_a) <= 1e-5

    def test_norm_abs_a(self, case):
        exact, _ = case
        h = np.pi / (2 * 129)
        assert exact.norm_abs_a == 4.0 + 4.0 * np.cos(2 * h)
        a = exact.a
        norm_abs_a, used, converged = estimate_abs_norm(a)
        assert converged and 0 < used < 1000
        abs_a = SparseMatrix(a.n, a.row_ptr, a.col_idx, np.abs(a.values), a.n_a)
        assert norm_abs_a == matio._lanczos_extremes(abs_a, 1000)[1]
        assert abs(norm_abs_a - exact.norm_abs_a) <= 1e-4

    def test_ritz_values_inside_spectrum(self, case):
        exact, est = case
        assert est.lambda_min >= exact.norm_a / exact.kappa_a
        assert est.norm_a <= exact.norm_a

    def test_kappa_underestimate_within_ten_percent(self, case):
        exact, est = case
        assert 0.9 * exact.kappa_a <= est.kappa_a <= exact.kappa_a


class TestLoadProblem:
    def test_carries_converged_estimates(self, nos1_problem):
        est = nos1_problem.norms
        assert est.converged
        assert (est.norm_a, est.kappa_a) == (nos1_problem.norm_a, nos1_problem.kappa_a)

    def test_warns_when_lanczos_budget_runs_out(self, tmp_path, monkeypatch):
        path = _write_symmetric_mtx(_tridiagonal(matio.DENSE_MAX_N + 100), tmp_path / "tri.mtx")
        monkeypatch.setattr(
            matio, "estimate_operator_norms", functools.partial(estimate_operator_norms, iters=30)
        )
        with pytest.warns(RuntimeWarning, match="tri: .* after 30 Lanczos steps"):
            p = matio.load_problem(path, label="tri")
        assert not p.norms.converged and p.norms.iters_used == 30

    def test_no_abs_norm_work_at_set_up(self, tmp_path, monkeypatch):
        path = _write_symmetric_mtx(_tridiagonal(matio.DENSE_MAX_N + 100), tmp_path / "tri.mtx")
        calls = count_calls(monkeypatch, matio, "spmv")
        p = matio.load_problem(path, label="tri")
        assert p.norms.converged and len(calls) == p.norms.iters_used > 0
        assert all(args[0] is p.a for args in calls)
        assert p.norm_abs_a is None

    def test_dense_abs_norm_estimated_once(self, monkeypatch):
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda t: calls.append(t) or eigvalsh(t))
        p = matio.load_problem(require_matrix("nos1"), label="nos1")
        assert len(calls) == 1 and p.norm_abs_a is None  # set-up solves for A only
        expected = eigvalsh(np.abs(p.a.to_dense()))[-1]
        assert p.abs_norm() == expected and len(calls) == 2
        assert p.abs_norm() == p.norm_abs_a == expected and len(calls) == 2

    def test_lanczos_abs_norm_estimated_once(self, monkeypatch):
        p = _tridiagonal_problem()
        expected, used, _ = estimate_abs_norm(p.a)
        calls = count_calls(monkeypatch, matio, "spmv")
        assert p.abs_norm() == expected and len(calls) == used > 0
        assert p.abs_norm() == expected and len(calls) == used

    def test_known_abs_norm_is_kept(self, monkeypatch):
        p = _tridiagonal_problem(norm_abs_a=4.4)
        calls = count_calls(monkeypatch, matio, "spmv")
        assert p.abs_norm() == 4.4 and calls == []

    def test_warns_when_abs_norm_budget_runs_out(self, monkeypatch):
        p = _tridiagonal_problem(label="tri")
        budget = functools.partial(estimate_abs_norm, iters=30)
        monkeypatch.setattr(matio, "estimate_abs_norm", budget)
        with pytest.warns(RuntimeWarning, match=r"tri: \|\| \|A\| \|\| not converged after 30 Lanczos"):
            value = p.abs_norm()
        assert value == p.norm_abs_a == budget(p.a)[0]
