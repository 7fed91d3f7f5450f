import numpy as np
import pytest

from conftest import dense_to_sparse, laplacian_2d_problem, require_matrix
from sstepcg.basis import build_block, monomial_params
from sstepcg.lacore import gram, gram_cond_estimate, nested_basis_conds, spmv, sym_eig
from sstepcg.matio import load_problem

EPS = np.finfo(float).eps


class TestSpmv:
    def test_identity(self):
        a = dense_to_sparse(np.eye(4))
        x = np.array([1.0, -2.0, 3.0, 4.0])
        np.testing.assert_array_equal(spmv(a, x), x)

    def test_small_direct(self):
        a = dense_to_sparse([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_array_equal(spmv(a, np.ones(2)), [3.0, 4.0])

    def test_against_dense_triple_loop(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((50, 50))
        m[np.abs(m) < 0.8] = 0.0
        m = m + m.T + 50 * np.eye(50)
        a = dense_to_sparse(m)
        x = rng.standard_normal(50)
        # independent oracle: explicit accumulation over the dense matrix
        y_ref = np.zeros(50)
        for i in range(50):
            acc = 0.0
            for j in range(50):
                acc += m[i, j] * x[j]
            y_ref[i] = acc
        y = spmv(a, x)
        bound = 50 * EPS * np.linalg.norm(m, 2) * np.linalg.norm(x)
        assert np.max(np.abs(y - y_ref)) <= bound

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((30, 30))
        m = m + m.T
        a = dense_to_sparse(m)
        x = rng.standard_normal(30)
        assert np.array_equal(spmv(a, x), spmv(a, x))

    def test_dimension_mismatch(self):
        a = dense_to_sparse(np.eye(3))
        with pytest.raises(ValueError):
            spmv(a, np.ones(4))


def _deflation_eigs(m, tol=1e-13, iters=20000):
    """Independent eigensolver: shifted power iteration plus deflation."""
    m = np.array(m, dtype=float)
    n = m.shape[0]
    shift = np.linalg.norm(m, np.inf) * 1.001
    work = m + shift * np.eye(n)  # positive definite shift
    vals = []
    vecs = []
    rng = np.random.default_rng(42)
    for _ in range(n):
        v = rng.standard_normal(n)
        for u in vecs:
            v -= (u @ v) * u
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = work @ v
            for u in vecs:
                w -= (u @ w) * u
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            v = w / nw
            new = v @ (work @ v)
            if abs(new - lam) <= tol * abs(new):
                lam = new
                break
            lam = new
        vals.append(lam - shift)
        vecs.append(v)
    return np.sort(np.array(vals))


class TestSymEig:
    def test_diagonal(self):
        np.testing.assert_allclose(sym_eig(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_2x2_characteristic_roots(self):
        w = sym_eig(np.array([[1.0, 1.0], [1.0, 2.0]]))
        expected = np.array([(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2])
        np.testing.assert_allclose(w, expected, rtol=1e-14)

    def test_against_deflation_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((15, 15))
        m = m + m.T
        w = sym_eig(m)
        w_ref = _deflation_eigs(m)
        np.testing.assert_allclose(w, w_ref, rtol=1e-10, atol=1e-10 * np.abs(w_ref).max())

    @pytest.mark.parametrize("order", [1, 2, 5, 13, 21, 31])
    def test_trace_identity(self, order):
        rng = np.random.default_rng(order)
        m = rng.standard_normal((order, order))
        m = m + m.T
        w = sym_eig(m)
        assert np.sum(w) == pytest.approx(np.trace(m), rel=1e-12, abs=1e-12)

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(6)
        for order in (3, 10, 25):
            m = rng.standard_normal((order, order))
            m = m + m.T
            np.testing.assert_allclose(
                sym_eig(m), np.linalg.eigvalsh(m), rtol=1e-11, atol=1e-11
            )


class TestGram:
    def test_orthonormal_columns(self):
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((40, 6)))
        g = gram(q)
        assert np.max(np.abs(g - np.eye(6))) <= 40 * EPS

    def test_direct_inner_products(self):
        e1 = np.array([1.0, 0.0, 0.0])
        y = np.column_stack([e1, e1 + np.array([0.0, 1.0, 0.0])])
        np.testing.assert_array_equal(gram(y), [[1.0, 1.0], [1.0, 2.0]])

    def test_against_pair_dot_oracle(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((100, 7))
        g = gram(y)
        ref = np.empty((7, 7))
        for i in range(7):
            for j in range(7):
                ref[i, j] = np.dot(y[:, i], y[:, j])
        scale = np.abs(ref).max()
        assert np.max(np.abs(g - ref)) <= 100 * EPS * scale

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((64, 21))
        g = gram(y)
        assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("order", range(1, 22))
    def test_bitwise_equal_to_tril_indices_mirror(self, order):
        y = np.random.default_rng(order).standard_normal((50, order))
        ref = y.T @ y
        il = np.tril_indices(order, -1)
        ref[il[1], il[0]] = ref[il]
        g = gram(y)
        np.testing.assert_array_equal(g, ref)
        assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("name", ["nos1", "494_bus", "nos6", "gr_30_30"])
    @pytest.mark.parametrize("s", [1, 4, 10])
    def test_bitwise_symmetry_of_built_block(self, name, s):
        # the layout the engine passes: the F-ordered transpose of the
        # (2s+1, n) rows build_block writes
        prob = load_problem(require_matrix(name))
        block = build_block(prob.a, prob.b, prob.b[::-1].copy(), monomial_params(s), s)
        assert block.y.flags.f_contiguous and not block.y.flags.c_contiguous
        g = gram(block.y)
        assert np.array_equal(g, g.T)
        np.testing.assert_array_equal(block.g, g)

    def test_bitwise_symmetry_at_large_n(self):
        prob = laplacian_2d_problem(320)
        assert prob.a.n >= 10**5
        block = build_block(prob.a, prob.b, np.sin(np.arange(prob.a.n)), monomial_params(10), 10)
        g = gram(block.y)
        assert np.array_equal(g, g.T)


class TestGramCondEstimate:
    def test_identity_gram(self):
        assert gram_cond_estimate(np.eye(5), range(5)) == 1.0

    def test_parallel_columns_sentinel(self):
        v = np.random.default_rng(10).standard_normal(30)
        y = np.column_stack([v, 2 * v])
        assert gram_cond_estimate(gram(y), [0, 1]) == np.inf

    def test_monomial_basis_vs_svd_oracle(self):
        # agreement with sqrt(kappa(G)) holds while kappa(Y)^2 stays
        # resolvable in binary64; the 10-column basis saturates instead
        d = np.linspace(1.0, 2.0, 50)
        y = np.empty((50, 10))
        y[:, 0] = 1.0
        for k in range(1, 10):
            y[:, k] = d * y[:, k - 1]
        g = gram(y)
        for cols in (3, 4, 5, 6):
            est = gram_cond_estimate(g, range(cols))
            sv = np.linalg.svd(y[:, :cols], compute_uv=False)
            kappa = sv[0] / sv[-1]
            if np.finfo(float).eps * kappa**2 < 1e-6:
                assert est == pytest.approx(kappa, rel=1e-6)
        est10 = gram_cond_estimate(g, range(10))
        sv10 = np.linalg.svd(y, compute_uv=False)
        assert np.isfinite(est10)
        assert est10 >= 1e8  # saturated but still flags extreme conditioning
        assert sv10[0] / sv10[-1] >= est10

    def test_empty_index_set(self):
        with pytest.raises(ValueError):
            gram_cond_estimate(np.eye(3), [])

    def test_monotone_in_index_lattice(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((60, 9))
        y[:, 5] = y[:, 0] + 1e-5 * rng.standard_normal(60)
        g = gram(y)
        prev = 0.0
        for size in range(1, 10):
            est = gram_cond_estimate(g, range(size))
            assert est >= prev * (1 - 1e-8)
            prev = est

    def test_nested_series_matches_single_calls(self):
        rng = np.random.default_rng(12)
        s_bar = 6
        y = rng.standard_normal((80, 2 * s_bar + 1))
        g = gram(y)
        conds = nested_basis_conds(g, s_bar)
        for i in range(1, s_bar + 1):
            cols = list(range(0, i + 1)) + list(range(s_bar + 1, s_bar + 1 + i))
            assert conds[i] == gram_cond_estimate(g, cols)

    def test_equals_list_built_gathers(self):
        rng = np.random.default_rng(13)
        for s_bar in (1, 3, 10):
            y = rng.standard_normal((90, 2 * s_bar + 1))
            g = gram(y)
            ref = [np.nan]
            for i in range(1, s_bar + 1):
                cols = list(range(0, i + 1)) + list(range(s_bar + 1, s_bar + 1 + i))
                w = np.linalg.eigvalsh(g[np.ix_(cols, cols)])
                ref.append(np.sqrt(w[-1] / np.abs(w).min()))
            # twice: the second call reuses the cached index sets
            for _ in range(2):
                np.testing.assert_array_equal(nested_basis_conds(g, s_bar), ref)
