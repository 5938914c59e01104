"""Traced peak memory of the spatial stage, in n x n float64 buffers.

The main process builds every graph, Laplacian and eigenbasis, so these
bound what it allocates at the full-basis shape.  Each bound is the
peak measured at n=576 (a 24x24 grid, 100 frames) plus about 0.1 n^2,
rounded down to a multiple of 0.05.  What a peak holds is noted beside
each bound; the figures at n=2025 are in CHANGES.md.  The STL-10 and
dataset-file readers, which run in the same process, are bounded in
multiples of their result.  A prediction cell, which runs in a worker,
is bounded in multiples of the training frames it encodes.
"""

import io
import tracemalloc

import numpy as np
import pytest

from gtslatent import data, graphs, harness, linalg, spectral
from gtslatent.rng import Rng

SIDE = 24
N = SIDE * SIDE
N2_BYTES = N * N * 8


def _traced_peak(fn, *args):
    """fn(*args) and its traced peak allocation in n x n doubles."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak / N2_BYTES


@pytest.fixture(scope="module")
def frames():
    f = Rng(5).uniform_matrix(100, N, -1.0, 1.0)
    f[:, 1:] += 0.5 * f[:, :-1]  # correlated neighbours, as in images
    return f


@pytest.fixture(scope="module")
def lap(frames):
    return graphs.laplacian(graphs.correlation_graph(frames))


def test_correlation_graph(frames):
    # measured 1.50: the correlation matrix and the upper-triangle
    # scores (was 5.15 with the index, sort-key and sum temporaries)
    _, peak = _traced_peak(graphs.correlation_graph, frames)
    assert peak <= 1.6


def test_semi_geometric_graph(frames):
    # measured 1.18: the covariance and np.cov's centred frames (0.17
    # n^2 here); was 3.15 with the dense support product
    _, peak = _traced_peak(graphs.semi_geometric_graph, frames, SIDE, SIDE)
    assert peak <= 1.25


def test_laplacian():
    g = graphs.grid_graph(SIDE, SIDE)
    out, peak = _traced_peak(graphs.laplacian, g)
    # measured 1.00: the result alone
    assert peak <= 1.1
    # bitwise, so the +0.0 of every missing edge too
    assert out.tobytes() == (np.diag(g.degrees) - g.weights).tobytes()


def test_sym_eig(lap):
    # measured 2.03: one work buffer and LAPACK's eigenvectors (was 2.25)
    _, peak = _traced_peak(linalg.sym_eig, lap)
    assert peak <= 2.1


def test_compute_basis_full(lap):
    # measured 2.03: sym_eig's peak; at m == n truncate returns the
    # codec itself, so the eigenvectors are not copied again
    def full_codec():
        _, eigenvectors = linalg.sym_eig(lap)
        return spectral.truncate(spectral.LinearCodec(eigenvectors), N)

    codec, peak = _traced_peak(full_codec)
    assert peak <= 2.1
    assert codec.a.flags.c_contiguous


def test_full_basis(frames):
    # measured 3.03: the Laplacian (its graph already freed) and
    # sym_eig's two matrices; was 4.03 with the graph alive throughout.
    # The harness's own path: sym_eig of the Laplacian, the eigenvectors
    # kept as the full codec beside the eigenvalues
    config = harness.config_from_dict({
        "dataset": {"type": "moving_crop", "crop": SIDE},
        "methods": ["gft-geo"], "latent_dims": [4], "train_fraction": 0.7,
        "warmup": 2, "seed": 1})

    def full_basis():
        eigenvalues, eigenvectors = linalg.sym_eig(
            harness._laplacian(config, "gft-geo", frames, (SIDE, SIDE)))
        return eigenvalues, spectral.LinearCodec(eigenvectors)

    (eigenvalues, codec), peak = _traced_peak(full_basis)
    assert peak <= 3.1
    assert codec.m == N and eigenvalues.shape == (N,)


def test_load_stl10(tmp_path):
    # measured 1.24 results: the result, and one 8-image block's bytes
    # and float64 temporary (was 5.50 with the whole file's bytes and
    # float64 planes alive at once)
    path = tmp_path / "images.bin"
    count = 50
    path.write_bytes(Rng(6).uniform_matrix(count, data.STL10_IMAGE_BYTES,
                                           0.0, 256.0).astype(np.uint8))
    tracemalloc.start()
    try:
        images = data.load_stl10(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert images.shape == (count, 96, 96)
    assert peak <= 1.5 * images.nbytes


def test_load_dataset(tmp_path):
    # measured 1.13 results: the result and the dataset's finiteness
    # mask (was 1.50 with the float32 file's bytes alive beside it)
    path = tmp_path / "dataset.npy"
    frames = Rng(7).uniform_matrix(20 * 10, N, -1.0, 1.0)
    dataset = data.SequenceDataset(frames.reshape(20, 10, N), (SIDE, SIDE))
    data.save_dataset(path, dataset)
    tracemalloc.start()
    try:
        loaded = data.load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.sequences.tobytes() == dataset.sequences.tobytes()
    assert peak <= 1.2 * loaded.sequences.nbytes


def test_load_dataset_rejects_an_oversized_header_unallocated(tmp_path):
    # a header that claims 800 MB in a 192-byte file fails on the file
    # size; read_array would allocate the claimed array before reading
    path = tmp_path / "dataset.npy"
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False,
                 "shape": (100, 1000, 1000)})
    path.write_bytes(header.getvalue() + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="claims 800000000 bytes"):
            data.load_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.fixture(scope="module")
def cell_inputs():
    """What every cell of a prediction run at m = n reads.

    Zero-epoch schedules keep the test fast; a cell's peak is set by its
    latents and decoded predictions, which training does not resize.
    """
    config = harness.config_from_dict({
        "dataset": {"type": "moving_crop",
                    "source": {"type": "textured", "count": 600,
                               "height": 16, "width": 16},
                    "crop": 8, "frames": 10, "sequences": 600},
        "methods": ["gft-grid", "ae", "raw"], "latent_dims": [64],
        "train_fraction": 0.7, "warmup": 5, "seed": 1,
        "ae_schedule": {"epochs": 0, "batch_size": 25, "lr0": 0.003},
        "lstm_schedule": {"epochs": 0, "batch_size": 6, "lr0": 0.001}})
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_run_cells",
                   lambda inputs, cells: captured.append(inputs) or [])
        harness.run_prediction_experiment(config)
    return captured[0]


@pytest.mark.parametrize("method", ["gft-grid", "ae", "raw"])
def test_prediction_cell_scales_its_latents_in_place(cell_inputs, method):
    # measured 3.05 (gft-grid) and 3.07 (ae, raw) training frames: the
    # encoded frames, scaled in place, and the decoded predictions; was
    # 4.48 and 4.49 for gft-grid and ae with a scaled copy of each stack
    # of latents (raw, which encoded nothing, read 3.05)
    train_bytes = cell_inputs.train_set.sequences.nbytes
    tracemalloc.start()
    try:
        cell = harness._run_cell(cell_inputs, method, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(cell.pred_mse)
    assert peak <= 3.5 * train_bytes
