import numpy as np
import pytest

from gtslatent import graphs, linalg, spectral
from gtslatent.rng import Rng


def _path_laplacian(n):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return np.diag(w.sum(axis=1)) - w


def _random_laplacian(rng, t, n):
    frames = rng.uniform_matrix(t, n, -1.0, 1.0)
    return graphs.laplacian(graphs.correlation_graph(frames, 0.6))


def _basis(lap, m):
    """The harness's graph basis: sym_eig, LinearCodec, then truncate."""
    return spectral.truncate(spectral.LinearCodec(linalg.sym_eig(lap)[1]), m)


class TestComputeBasis:
    def test_path3_closed_form(self):
        eigenvalues = linalg.sym_eig(_path_laplacian(3))[0]
        expect = [2.0 - 2.0 * np.cos(k * np.pi / 3.0) for k in range(3)]
        assert np.max(np.abs(eigenvalues - expect)) < 1e-8

    def test_connected_graph_first_column_constant(self):
        lap = graphs.laplacian(graphs.grid_graph(2, 3))
        basis = _basis(lap, 1)
        assert abs(linalg.sym_eig(lap)[0][0]) < 1e-10
        assert np.max(np.abs(np.abs(basis.a[:, 0]) - 1.0 / np.sqrt(6.0))) < 1e-8

    def test_full_basis_orthonormal(self):
        lap = _random_laplacian(Rng(1), 12, 7)
        basis = _basis(lap, 7)
        assert np.max(np.abs(basis.a.T @ basis.a - np.eye(7))) < 1e-8

    def test_m_out_of_range(self):
        full = spectral.LinearCodec(linalg.sym_eig(_path_laplacian(4))[1])
        with pytest.raises(ValueError, match=r"^m=0 out of range \[1, 4\]$"):
            spectral.truncate(full, 0)
        with pytest.raises(ValueError, match=r"^m=5 out of range \[1, 4\]$"):
            spectral.truncate(full, 5)

    def test_truncate_matches_direct_computation(self):
        lap = _random_laplacian(Rng(2), 10, 6)
        full = _basis(lap, 6)
        narrowed = spectral.truncate(full, 3)
        direct = _basis(lap, 3)
        assert np.array_equal(narrowed.a, direct.a)
        assert narrowed.a.flags.c_contiguous
        with pytest.raises(ValueError):
            spectral.truncate(narrowed, 4)


class TestEncodeDecode:
    def test_constant_signal_concentrates_on_first_coefficient(self):
        basis = _basis(graphs.laplacian(graphs.grid_graph(3, 3)), 4)
        coeffs = spectral.encode_frames(basis, np.full((1, 9), 0.5))[0]
        assert abs(abs(coeffs[0]) - 0.5 * 3.0) < 1e-10  # +-c sqrt(n)
        assert np.max(np.abs(coeffs[1:])) < 1e-10

    def test_eigenvector_maps_to_unit_coefficient(self):
        lap = _random_laplacian(Rng(3), 12, 6)
        basis = _basis(lap, 4)
        coeffs = spectral.encode_frames(basis, basis.a.T)  # row k: vector k
        assert np.max(np.abs(np.abs(coeffs) - np.eye(4))) < 1e-9

    def test_parseval_full_basis(self):
        lap = _random_laplacian(Rng(4), 10, 6)
        basis = _basis(lap, 6)
        x = Rng(5).uniform_matrix(3, 6, -1.0, 1.0)
        coeffs = spectral.encode_frames(basis, x)
        assert np.max(np.abs(np.linalg.norm(coeffs, axis=1)
                             - np.linalg.norm(x, axis=1))) < 1e-10

    def test_full_round_trip(self):
        lap = _random_laplacian(Rng(6), 10, 5)
        basis = _basis(lap, 5)
        x = Rng(7).uniform_matrix(3, 5, -1.0, 1.0)
        back = spectral.decode_frames(basis, spectral.encode_frames(basis, x))
        assert np.max(np.abs(back - x)) < 1e-10

    def test_zero_coefficients_decode_to_zero(self):
        basis = _basis(_path_laplacian(4), 2)
        assert np.array_equal(spectral.decode_frames(basis, np.zeros((3, 2))),
                              np.zeros((3, 4)))

    def test_orthogonal_complement_round_trips_to_zero(self):
        lap = _random_laplacian(Rng(8), 12, 6)
        full = _basis(lap, 6)
        trunc = spectral.truncate(full, 3)
        x = full.a[:, 3:].T  # orthogonal to the retained span
        back = spectral.decode_frames(trunc, spectral.encode_frames(trunc, x))
        assert np.max(np.abs(back)) < 1e-10

    def test_length_mismatch_errors(self):
        basis = _basis(_path_laplacian(4), 2)
        with pytest.raises(ValueError):
            spectral.encode_frames(basis, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            spectral.decode_frames(basis, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            spectral.encode_frames(basis, np.zeros(4))  # frames are rows
        with pytest.raises(ValueError):
            spectral.reconstruction_mse(basis, np.zeros((2, 3)))


class TestProjectionProperties:
    def test_round_trip_error_non_increasing_in_m(self):
        lap = graphs.laplacian(graphs.grid_graph(4, 4))
        full = _basis(lap, 16)
        frames = Rng(9).uniform_matrix(20, 16, -1.0, 1.0)
        errors = [spectral.reconstruction_mse(spectral.truncate(full, m), frames)
                  for m in range(1, 17)]
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev
        assert errors[-1] < 1e-20

    def test_idempotent_round_trip(self):
        lap = _random_laplacian(Rng(10), 12, 6)
        basis = spectral.truncate(_basis(lap, 6), 3)
        x = Rng(11).uniform_matrix(4, 6, -1.0, 1.0)
        once = spectral.encode_frames(basis, x)
        again = spectral.encode_frames(basis,
                                       spectral.decode_frames(basis, once))
        assert np.max(np.abs(again - once)) < 1e-10

    def test_sign_flip_invariance(self):
        lap = _random_laplacian(Rng(12), 12, 6)
        basis = spectral.truncate(_basis(lap, 6), 3)
        flipped = spectral.LinearCodec(basis.a * np.array([1.0, -1.0, 1.0]))
        frames = Rng(13).uniform_matrix(8, 6, -1.0, 1.0)
        a = spectral.reconstruction_mse(basis, frames)
        b = spectral.reconstruction_mse(flipped, frames)
        assert abs(a - b) < 1e-14

    def test_reconstruction_mse_equals_discarded_energy(self):
        lap = graphs.laplacian(graphs.grid_graph(3, 3))
        full = _basis(lap, 9)
        frames = Rng(14).uniform_matrix(15, 9, -1.0, 1.0)
        coeffs = spectral.encode_frames(full, frames)
        for m in (2, 5, 8):
            direct = spectral.reconstruction_mse(spectral.truncate(full, m), frames)
            discarded = float(np.mean(np.sum(coeffs[:, m:] ** 2, axis=1))) / 9.0
            assert abs(direct - discarded) < 1e-8


class TestBasisValidation:
    def test_shape_checks(self):
        codec = spectral.LinearCodec(np.zeros((4, 2)))
        assert (codec.n, codec.m) == (4, 2)
        with pytest.raises(ValueError, match="out of range"):
            spectral.LinearCodec(np.zeros((4, 0)))
        with pytest.raises(ValueError, match="out of range"):
            spectral.LinearCodec(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="2-D"):
            spectral.LinearCodec(np.zeros(4))
        with pytest.raises(ValueError, match="codec matrix contains non-finite"):
            spectral.LinearCodec(np.array([[1.0], [np.nan]]))
