import time

import numpy as np
import pytest

from gtslatent import graphs, linalg
from gtslatent.rng import Rng


def _rand_matrix(rng, rows, cols, lo=-2.0, hi=2.0):
    return rng.uniform_matrix(rows, cols, lo, hi)


class TestMse:
    def test_identical_is_zero(self):
        x = _rand_matrix(Rng(4), 3, 4)
        assert linalg.mse(x, x) == 0.0

    def test_unit_difference(self):
        assert linalg.mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand_arithmetic(self):
        assert abs(linalg.mse([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) - 14.0 / 3.0) < 1e-15

    def test_symmetry(self):
        rng = Rng(5)
        a = _rand_matrix(rng, 4, 4)
        b = _rand_matrix(rng, 4, 4)
        assert linalg.mse(a, b) == linalg.mse(b, a)

    def test_zero_iff_equal(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.0 + 1e-9])
        assert linalg.mse(a, b) > 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            linalg.mse(np.ones(3), np.ones(4))


def _path_laplacian(n):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return np.diag(w.sum(axis=1)) - w


def _sign_fixed(vecs):
    """Oracle of the sign convention, one column at a time."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        peak = np.max(np.abs(col))
        lead = next(i for i in range(len(col))
                    if abs(col[i]) >= (1.0 - 1e-8) * peak)
        if col[lead] < 0.0:
            out[:, j] = -col
    return out


class TestSymEig:
    def test_path_laplacian_matches_signed_dct_oracle(self):
        # the path Laplacian's eigenvectors are the DCT-II vectors, with
        # distinct eigenvalues 2 - 2 cos(pi k / n); compared exactly,
        # not up to sign
        for n in range(2, 65):
            _, vecs = linalg.sym_eig(_path_laplacian(n))
            i = np.arange(n)[:, None] + 0.5
            k = np.arange(n)[None, :]
            dct = np.cos(np.pi * k * i / n)
            dct /= np.linalg.norm(dct, axis=0)
            err = np.max(np.abs(vecs - _sign_fixed(dct)))
            assert err < 1e-10, f"n={n}: max column error {err:.3g}"

    def test_full_scale_grid_laplacian(self):
        # the 45x45 crop graph (n=2025) of the full-scale configuration
        lap = graphs.laplacian(graphs.grid_graph(45, 45))
        start = time.perf_counter()
        vals, vecs = linalg.sym_eig(lap)
        elapsed = time.perf_counter() - start
        residual = np.linalg.norm(lap @ vecs - vecs * vals)
        assert residual <= 1e-10 * np.linalg.norm(lap)
        assert np.linalg.norm(vecs.T @ vecs - np.eye(2025)) <= 1e-10
        assert np.all(np.diff(vals) >= 0.0)
        # ~1 s on a 2-core x86_64 box; loose so a loaded machine passes
        assert elapsed < 60.0

    def test_2x2_closed_form(self):
        vals, vecs = linalg.sym_eig([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(vals, [0.0, 2.0], atol=1e-12)
        u0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        u1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(abs(vecs[:, 0] @ u0) - 1.0) < 1e-12  # sign-invariant
        assert abs(abs(vecs[:, 1] @ u1) - 1.0) < 1e-12

    def test_identity_postconditions_only(self):
        vals, vecs = linalg.sym_eig(np.eye(3))
        assert np.allclose(vals, [1.0, 1.0, 1.0])
        assert np.max(np.abs(vecs.T @ vecs - np.eye(3))) < 1e-8
        assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - np.eye(3))) < 1e-8

    def test_random_symmetric_reconstruction(self):
        rng = Rng(6)
        a = _rand_matrix(rng, 6, 6)
        s = (a + a.T) / 2.0
        vals, vecs = linalg.sym_eig(s)
        assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - s)) < 1e-10
        assert np.max(np.abs(vecs.T @ vecs - np.eye(6))) < 1e-8
        assert np.all(np.diff(vals) >= 0.0)

    def test_matches_lapack_oracle(self):
        rng = Rng(7)
        for _ in range(10):
            n = rng.randint(12) + 2
            a = _rand_matrix(rng, n, n)
            s = (a + a.T) / 2.0
            vals, _ = linalg.sym_eig(s)
            assert np.max(np.abs(vals - np.sort(np.linalg.eigvalsh(s)))) < 1e-10

    def test_trace_equals_eigenvalue_sum(self):
        rng = Rng(8)
        for _ in range(10):
            n = rng.randint(10) + 2
            a = _rand_matrix(rng, n, n)
            s = (a + a.T) / 2.0
            vals, _ = linalg.sym_eig(s)
            assert abs(vals.sum() - np.trace(s)) < 1e-8

    def test_laplacian_psd(self):
        vals, _ = linalg.sym_eig(_path_laplacian(9))
        assert vals.min() >= -1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            linalg.sym_eig(np.ones((2, 3)))
        with pytest.raises(ValueError):
            linalg.sym_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_zero_and_single(self):
        vals, vecs = linalg.sym_eig(np.zeros((0, 0)))
        assert vals.shape == (0,) and vecs.shape == (0, 0)
        vals, vecs = linalg.sym_eig(np.zeros((4, 4)))
        assert np.array_equal(vals, np.zeros(4))
        assert np.array_equal(vecs, np.eye(4))
        vals, vecs = linalg.sym_eig([[3.5]])
        assert vals[0] == 3.5 and vecs[0, 0] == 1.0
