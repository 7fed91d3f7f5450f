import numpy as np
import pytest

from conftest import dense_to_sparse, require_matrix
from sstepcg import matio
from sstepcg.matio import (
    DegenerateMatrixError,
    MatrixMarketError,
    build_rhs,
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


def _power_iteration_two_products(matvec, n, iters, tol, seed=0):
    """Reference: a fresh product for each step's Rayleigh quotient."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for it in range(1, iters + 1):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, it, True
        v = w / nw
        new_lam = float(np.dot(v, matvec(v)))
        if lam != 0.0 and abs(new_lam - lam) <= tol * abs(new_lam):
            return new_lam, it, True
        lam = new_lam
    return lam, iters, False


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
        a = from_coo(
            5, [0, 0, 2, 2, 3, 3], [0, 3, 2, 3, 0, 2], [-1.0, 5.0, -2.0, -0.5, 5.0, 0.5],
            is_symmetric=False,
        )
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
        assert est.norm_abs_a == pytest.approx(1.0, rel=1e-9)
        assert est.kappa_a == pytest.approx(1.0, rel=1e-9)

    def test_diagonal_spectrum(self):
        est = estimate_operator_norms(dense_to_sparse(np.diag([1.0, 10.0])))
        assert est.norm_a == pytest.approx(10.0, rel=1e-9)
        assert est.norm_abs_a == pytest.approx(10.0, rel=1e-9)
        assert est.kappa_a == pytest.approx(10.0, rel=1e-9)

    def test_diagonal_extremes_exact_to_tolerance(self):
        d = np.linspace(0.5, 7.5, 40)
        est = estimate_operator_norms(dense_to_sparse(np.diag(d)))
        assert est.norm_a == pytest.approx(7.5, rel=1e-8)
        assert est.kappa_a == pytest.approx(15.0, rel=1e-8)

    def test_power_iteration_reuses_rayleigh_product(self):
        rng = np.random.default_rng(14)
        q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
        m = (q * np.linspace(1.0, 9.0, 50)) @ q.T
        calls = []

        def matvec(v):
            calls.append(1)
            return m @ v

        for iters, tol in ((40, 0.0), (500, 1e-10)):
            calls.clear()
            got = matio._power_iteration(matvec, 50, iters, tol)
            assert len(calls) == got[1] + 1
            assert got == _power_iteration_two_products(lambda v: m @ v, 50, iters, tol)
        assert got[2]  # the loose tolerance converged early

    def test_iters_plus_one_spmvs_per_run_and_bitwise_reference(self, monkeypatch):
        # n > 2000 takes lambda_min from a third power run on ||A|| I - A
        n, iters = 2100, 20
        d = np.linspace(0.5, 4.0, n)
        idx = np.arange(n - 1)
        a = from_coo(
            n,
            np.concatenate([np.arange(n), idx, idx + 1]),
            np.concatenate([np.arange(n), idx + 1, idx]),
            np.concatenate([d, np.full(2 * (n - 1), -0.2)]),
        )
        calls = []
        spmv = matio.spmv

        def counted(*args):
            calls.append(1)
            return spmv(*args)

        with monkeypatch.context() as mp:
            mp.setattr(matio, "_power_iteration", _power_iteration_two_products)
            ref = estimate_operator_norms(a, iters=iters, tol=0.0)
        monkeypatch.setattr(matio, "spmv", counted)
        est = estimate_operator_norms(a, iters=iters, tol=0.0)
        assert not est.converged and est.iters_used == 3 * iters
        # ||A|| and lambda_min go through spmv; || |A| || has its own product
        assert len(calls) == 2 * (iters + 1)
        assert est == ref

    def test_bcsstk09_kappa(self):
        # reference: kappa of the preconditioned matrix ~ 1.04e4
        from sstepcg.matio import load_problem

        p = load_problem(require_matrix("bcsstk09"), label="bcsstk09")
        assert p.kappa_a == pytest.approx(1.04e4, rel=0.02)
