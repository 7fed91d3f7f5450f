"""The generator's closed-form spectrum and Matrix Market output.

Run with `python -m pytest perfbench/test_laplacian.py` from the repository
root.
"""

import numpy as np
import pytest

from laplacian import CHUNK, Laplacian

CASES = [
    Laplacian((6, 6, 6), (1.0, 1.0, 0.01)),
    Laplacian((6, 5, 4), (1.0, 1.0, 1.0)),
    Laplacian((9, 7), (1.0, 1.0)),
    Laplacian((8, 8), (1.0, 0.1)),
]


@pytest.mark.parametrize("lap", CASES, ids=lambda l: f"{l.shape}-{l.coeffs}")
def test_closed_form_extremes_match_dense_eigvalsh(lap):
    w = np.linalg.eigvalsh(lap.to_dense())
    lo, hi = lap.extremal_eigenvalues()
    assert lo == pytest.approx(w[0], rel=1e-12)
    assert hi == pytest.approx(w[-1], rel=1e-12)
    assert lap.kappa() == pytest.approx(w[-1] / w[0], rel=1e-12)


@pytest.mark.parametrize("lap", CASES[:3], ids=lambda l: f"{l.shape}-{l.coeffs}")
def test_stencil_pattern(lap):
    dense = lap.to_dense()
    assert np.array_equal(dense, dense.T)
    rows, _, _ = lap.lower_triangle()
    assert np.count_nonzero(dense) == 2 * len(rows) - lap.n
    assert np.all(np.diag(dense) == lap.diagonal)
    # one neighbour per axis direction in the interior: 2d+1 entries per row at most
    assert np.count_nonzero(dense, axis=1).max() == 2 * len(lap.shape) + 1


def test_matrix_market_round_trip(tmp_path):
    import scipy.io
    import scipy.sparse as sp

    lap = Laplacian((40, 40, 20), (1.0, 1.0, 0.01))  # more entries than one chunk
    rows, cols, vals = lap.lower_triangle()
    assert len(rows) > CHUNK
    lower = sp.coo_matrix((vals, (rows, cols)), shape=(lap.n, lap.n))
    expected = (lower + sp.tril(lower, -1).T).tocsr()
    back = scipy.io.mmread(lap.write_matrix_market(str(tmp_path / "lap.mtx"))).tocsr()
    assert (back != expected).nnz == 0


def test_rejects_bad_grids():
    with pytest.raises(ValueError):
        Laplacian((4,), (1.0,))
    with pytest.raises(ValueError):
        Laplacian((4, 4), (1.0, 0.0))
