import numpy as np
import pytest

from conftest import dense_to_sparse, random_spd
from sstepcg.basis import (
    BasisBreakdownError,
    ParameterError,
    assemble_change_of_basis,
    build_block,
    chebyshev_params,
    leja_points,
    monomial_params,
    newton_params,
    params_for,
)
from sstepcg.classic import hscg_solve
from sstepcg.lacore import gram, spmv
from sstepcg.ritz import RitzState

EPS = np.finfo(float).eps


def brute_force_leja(lmin, lmax, count, grid=10**6):
    """Oracle: exhaustive argmax over a very fine grid."""
    pts = [lmax, lmin]
    xs = np.linspace(lmin, lmax, grid)
    while len(pts) < count:
        obj = np.sum(np.log(np.abs(xs[:, None] - np.array(pts)[None, :]) + 1e-300), axis=1)
        best = obj.max()
        # smallest point attaining the max within fp slack
        idx = np.nonzero(obj >= best - 1e-12)[0][0]
        pts.append(float(xs[idx]))
    return np.array(pts)


class TestMonomialParams:
    def test_s1(self):
        p = monomial_params(1)
        np.testing.assert_array_equal(p.thetas, [0.0])
        np.testing.assert_array_equal(p.gammas, [1.0])
        assert p.mus.size == 0

    def test_s3(self):
        p = monomial_params(3)
        np.testing.assert_array_equal(p.thetas, np.zeros(3))
        np.testing.assert_array_equal(p.gammas, np.ones(3))
        np.testing.assert_array_equal(p.mus, np.zeros(2))

    def test_build_gives_power_basis(self):
        a = dense_to_sparse(np.diag([1.0, 2.0, 3.0]))
        v = np.array([1.0, 1.0, 1.0])
        block = build_block(a, v, v, monomial_params(2), 2)
        expect = np.column_stack([v, np.diag(a.to_dense()) * v, np.diag(a.to_dense()) ** 2 * v])
        np.testing.assert_array_equal(block.y[:, :3], expect)


class TestNewtonParams:
    def test_first_two_points_are_endpoints(self):
        p = newton_params(1.0, 3.0, 2)
        np.testing.assert_array_equal(p.thetas, [3.0, 1.0])
        np.testing.assert_array_equal(p.gammas, [1.0, 1.0])
        np.testing.assert_array_equal(p.mus, [0.0])

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ParameterError):
            newton_params(0.5, 0.5, 3)
        with pytest.raises(ParameterError):
            leja_points(2.0, 1.0, 3)

    def test_four_point_sequence_with_tie_broken_low(self):
        # stationary points of the 3-term product are 2 +- 2/sqrt(3); the
        # symmetric tie resolves toward the smaller shift
        p = newton_params(0.0, 4.0, 4, grid_points=10**5)
        cell = 4.0 / 10**5
        assert p.thetas[0] == 4.0
        assert p.thetas[1] == 0.0
        assert abs(p.thetas[2] - 2.0) <= cell
        assert abs(p.thetas[3] - (2.0 - 2.0 / np.sqrt(3))) <= 2 * cell

    def test_prefixes_satisfy_argmax_property(self):
        # each chosen point attains the global distance-product maximum of
        # its prefix (ties between symmetric peaks may go either way in the
        # oracle, so compare objective values, not coordinates)
        got = leja_points(0.5, 2.5, 5, grid_points=20000)
        xs = np.linspace(0.5, 2.5, 10**6)
        for l in range(2, 5):
            prefix = got[:l]
            obj = np.sum(np.log(np.abs(xs[:, None] - prefix[None, :]) + 1e-300), axis=1)
            chosen = np.sum(np.log(np.abs(got[l] - prefix) + 1e-300))
            assert chosen >= obj.max() - 1e-6

    def test_deterministic(self):
        a = leja_points(1e-6, 2.0, 10)
        b = leja_points(1e-6, 2.0, 10)
        assert np.array_equal(a, b)

    def test_count_and_grid_checked(self):
        with pytest.raises(ParameterError, match="count"):
            leja_points(1.0, 2.0, -1)
        with pytest.raises(ParameterError, match="grid_points"):
            leja_points(1.0, 2.0, 4, grid_points=1)
        with pytest.raises(ParameterError, match="grid_points"):
            leja_points(1.0, 2.0, 2, grid_points=0)
        empty = leja_points(1.0, 2.0, 0)
        assert empty.shape == (0,)


def _golden_refine(fun, lo, hi, iters=80):
    """Reference: the scalar golden-section search of the one-bracket-at-a-time
    Leja construction, kept verbatim."""
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


def reference_leja_points(lmin, lmax, count, grid_points=10000):
    """Reference: grid objective recomputed from scratch for every point, each
    of the four best local maxima refined by its own scalar search."""
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
        tied = [x for x, v in refined if v >= vmax - 1e-12 * max(1.0, abs(vmax))]
        pts.append(min(tied))
    return np.array(pts)


# (lmin, lmax, count, grid_points): the lmin = 0 interval whose interior
# points tie at noise level, every count from 1 to 16 (sums of 8 or more
# log terms are reduced pairwise), three grid sizes, widths 1e-3 to 1e4
LEJA_CASES = (
    [(0.0, 1.0, 10, 10000), (0.0, 4.0, 4, 10000)]
    + [(1e-3, 2.0, count, 10000) for count in range(1, 17)]
    + [(0.37, 0.37 + 10.0 ** e, 10, 10000) for e in range(-3, 5)]
    + [(lmin, lmax, count, grid) for grid in (1000, 20000)
       for lmin, lmax, count in ((1e-6, 1.0, 12), (2.5, 3.5, 9), (0.0, 1e4, 16))]
    + [(5e-5, 1.3, count, 1000) for count in (3, 5, 8, 11)]
    + [(12.0, 12.001, 7, 20000), (1e-8, 1e-5, 13, 10000), (0.0, 1.0, 16, 20000)]
)


class TestLejaBits:
    """The lockstep construction reproduces the one-bracket-at-a-time points
    bit for bit: the Newton solve's path depends on every last bit."""

    @pytest.mark.parametrize("lmin, lmax, count, grid", LEJA_CASES)
    def test_equals_scalar_reference(self, lmin, lmax, count, grid):
        ref = reference_leja_points(lmin, lmax, count, grid)
        got = leja_points(lmin, lmax, count, grid_points=grid)
        assert np.array_equal(got, ref), got - ref


class TestChebyshevParams:
    def test_direct_substitution(self):
        p = chebyshev_params(1.0, 3.0, 3)
        np.testing.assert_array_equal(p.thetas, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(p.gammas, [2.0, 1.0, 1.0])
        np.testing.assert_array_equal(p.mus, [0.25, 0.25])

    def test_s2(self):
        p = chebyshev_params(1.0, 2.0, 2)
        np.testing.assert_array_equal(p.thetas, [1.5, 1.5])
        np.testing.assert_array_equal(p.gammas, [1.0, 0.5])
        np.testing.assert_array_equal(p.mus, [0.125])

    def test_relations_recomputable(self):
        lmin, lmax, s = 0.3, 1.9, 6
        w = lmax - lmin
        p = chebyshev_params(lmin, lmax, s)
        assert np.all(p.thetas == (lmin + lmax) / 2)
        assert p.gammas[0] == w
        assert np.all(p.gammas[1:] == w / 2)
        assert np.all(p.mus == w / 8)

    def test_columns_proportional_to_chebyshev(self):
        # rho_l(A)v must align with T_l on the shifted/scaled spectrum
        lmin, lmax, s = 1.0, 3.0, 4
        d = np.linspace(lmin, lmax, 30)
        a = dense_to_sparse(np.diag(d))
        v = np.ones(30)
        block = build_block(a, v, v, chebyshev_params(lmin, lmax, s), s)
        t = np.polynomial.chebyshev.chebvander((2 * d - lmin - lmax) / (lmax - lmin), s)
        for l in range(s + 1):
            col = block.y[:, l]
            ref = t[:, l]
            ratio = col @ ref / (ref @ ref)
            np.testing.assert_allclose(col, ratio * ref, atol=1e-12 * abs(ratio))

    def test_invalid_interval(self):
        with pytest.raises(ParameterError):
            chebyshev_params(2.0, 2.0, 3)


class TestBuildBlock:
    def test_identity_operator_constant_columns(self):
        a = dense_to_sparse(np.eye(4))
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        block = build_block(a, e1, e1, monomial_params(3), 3)
        for col in range(4):
            np.testing.assert_array_equal(block.y[:, col], e1)
        np.testing.assert_array_equal(block.g[:4, :4], np.ones((4, 4)))

    def test_change_of_basis_identity_chebyshev(self):
        a = dense_to_sparse(np.diag([1.0, 2.0, 3.0]))
        v = np.ones(3) / np.sqrt(3.0)
        s = 2
        block = build_block(a, v, v, chebyshev_params(1.0, 3.0, s), s)
        y_under = block.y.copy()
        y_under[:, s] = 0.0
        y_under[:, 2 * s] = 0.0
        lhs = a.to_dense() @ y_under
        rhs = block.y @ block.b_mat
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.abs(block.y).max() * 3

    def test_newton_conditioning_beats_monomial(self, bus494_problem):
        prob = bus494_problem
        _, _, coeffs = hscg_solve(prob, 0.0, max_iters=120)
        ritz = RitzState()
        for al, be in zip(coeffs.alphas, coeffs.betas):
            ritz.absorb_step(al, be)
        s = 15
        newton = build_block(
            prob.a, prob.b, prob.b, newton_params(ritz.lambda_min, ritz.lambda_max, s), s
        )
        mono = build_block(prob.a, prob.b, prob.b, monomial_params(s), s)

        def svd_kappa(y):
            sv = np.linalg.svd(y[:, : s + 1], compute_uv=False)
            return sv[0] / sv[-1]

        assert svd_kappa(newton.y) <= svd_kappa(mono.y) / 1e3

    def test_recurrence_identity_on_random_blocks(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            n = int(rng.integers(10, 40))
            s = int(rng.integers(1, 6))
            a_dense = random_spd(n, float(rng.uniform(10, 1e4)), seed=100 + trial)
            a = dense_to_sparse(a_dense)
            p = rng.standard_normal(n)
            r = rng.standard_normal(n)
            kind = ("monomial", "newton", "chebyshev")[trial % 3]
            params = params_for(kind, s, 0.5, 2.0)
            block = build_block(a, p, r, params, s)
            y_under = block.y.copy()
            y_under[:, s] = 0.0
            y_under[:, 2 * s] = 0.0
            resid = a_dense @ y_under - block.y @ block.b_mat
            norm_a = np.linalg.norm(a_dense, 2)
            bound = 50 * EPS * norm_a * np.linalg.norm(block.y, "fro")
            assert np.linalg.norm(resid, "fro") <= bound

    def test_span_matches_monomial_krylov(self):
        rng = np.random.default_rng(14)
        n, s = 25, 5
        a_dense = random_spd(n, 100.0, seed=15)
        v = rng.standard_normal(n)
        for kind in ("newton", "chebyshev"):
            params = params_for(kind, s, 1.0, 100.0)
            block = build_block(dense_to_sparse(a_dense), v, v, params, s)
            p_block = block.y[:, : s + 1]
            krylov = np.empty((n, s + 1))
            krylov[:, 0] = v
            for k in range(1, s + 1):
                krylov[:, k] = a_dense @ krylov[:, k - 1]
            p_block = p_block / np.linalg.norm(p_block, axis=0)
            krylov = krylov / np.linalg.norm(krylov, axis=0)
            assert np.linalg.matrix_rank(p_block) == np.linalg.matrix_rank(krylov)
            # mutual least-squares residuals on normalized columns
            for lhs, rhs in ((p_block, krylov), (krylov, p_block)):
                sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
                rel = np.linalg.norm(lhs @ sol - rhs) / np.linalg.norm(rhs)
                assert rel <= 1e-8

    def test_block_structure_zero_columns(self):
        params = chebyshev_params(0.5, 1.5, 4)
        b = assemble_change_of_basis(4, params)
        assert np.all(b[:, 4] == 0.0)
        assert np.all(b[:, 8] == 0.0)

    def test_degenerate_interval_falls_back_to_monomial(self):
        p = params_for("newton", 4, 2.0, 2.0)
        assert p.kind == "monomial"
        p = params_for("chebyshev", 4, None, None)
        assert p.kind == "monomial"


def reference_block(a, p, r, params, s):
    """The column-wise construction: each recurrence column written into a
    C-ordered n x (degree+1) array, P and R joined by hstack, then gram."""

    def columns(v, degree):
        cols = np.empty((len(v), degree + 1))
        cols[:, 0] = v
        prev2 = None
        prev = v
        for l in range(degree):
            w = spmv(a, prev) - params.thetas[l] * prev
            if l >= 1 and params.mus[l - 1] != 0.0:
                w = w - params.mus[l - 1] * prev2
            w = w / params.gammas[l]
            cols[:, l + 1] = w
            prev2 = prev
            prev = w
        return cols

    y = np.hstack([columns(p, s), columns(r, s - 1)])
    return y, gram(y)


class TestBuildBlockBits:
    """The row-major in-place build is bitwise the column-wise one."""

    @pytest.mark.parametrize("kind", ["monomial", "newton", "chebyshev"])
    @pytest.mark.parametrize("s", [1, 2, 5, 10])
    def test_equals_columnwise_reference(self, kind, s):
        rng = np.random.default_rng(60 + s)
        n = 237
        a = dense_to_sparse(random_spd(n, 1e3, seed=61))
        p = rng.standard_normal(n)
        r = rng.standard_normal(n)
        params = params_for(kind, s, 1e-3, 1.0)
        y_ref, g_ref = reference_block(a, p, r, params, s)
        block = build_block(a, p, r, params, s)
        np.testing.assert_array_equal(block.y, y_ref)
        np.testing.assert_array_equal(block.g, g_ref)
        # written into a larger per-solve buffer: same bits, no copy
        buf = np.full((2 * 12 + 1) * n, np.nan)
        in_buf = build_block(a, p, r, params, s, out=buf)
        np.testing.assert_array_equal(in_buf.y, y_ref)
        np.testing.assert_array_equal(in_buf.g, g_ref)
        assert in_buf.y.flags.f_contiguous
        assert np.shares_memory(in_buf.y, buf)

    def test_non_finite_column_raises(self):
        a = dense_to_sparse(np.diag([1.0, 1e300, 2.0]))
        v = np.ones(3)
        with pytest.raises(BasisBreakdownError, match="degree 2"):
            build_block(a, v, v, monomial_params(3), 3)
        with pytest.raises(BasisBreakdownError):
            build_block(a, v, v, monomial_params(3), 3, out=np.empty(7 * 3))
