import numpy as np
import pytest

from gtslatent import graphs, linalg
from gtslatent.rng import Rng


class TestGridGraph:
    def test_single_node(self):
        g = graphs.grid_graph(1, 1)
        assert g.weights.shape == (1, 1)
        assert g.edge_count() == 0

    def test_2x2(self):
        g = graphs.grid_graph(2, 2)
        assert g.edge_count() == 4
        assert np.array_equal(g.degrees, [2.0, 2.0, 2.0, 2.0])
        assert set(np.unique(g.weights)) == {0.0, 1.0}

    def test_3x3_degrees(self):
        g = graphs.grid_graph(3, 3)
        assert g.edge_count() == 12  # 2hw - h - w
        assert g.degrees[4] == 4.0   # center
        for corner in (0, 2, 6, 8):
            assert g.degrees[corner] == 2.0

    def test_indexing_row_major(self):
        g = graphs.grid_graph(2, 3)
        # node (r, c) = r*w + c; (0,0)-(0,1) and (0,0)-(1,0) are edges
        assert g.weights[0, 1] == 1.0
        assert g.weights[0, 3] == 1.0
        assert g.weights[0, 4] == 0.0

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            graphs.grid_graph(0, 3)


class TestSemiGeometricGraph:
    def test_constant_frames_zero_weights(self):
        frames = np.ones((5, 4))
        g = graphs.semi_geometric_graph(frames, 2, 2)
        assert np.all(g.weights == 0.0)

    def test_two_node_equal_series(self):
        # 2x1 grid; both nodes carry the series [0, 1, 2]: cov = var = 1
        frames = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        g = graphs.semi_geometric_graph(frames, 2, 1)
        assert abs(g.weights[0, 1] - 1.0) < 1e-12

    def test_anticorrelated_series_absolute_value(self):
        frames = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]])
        g = graphs.semi_geometric_graph(frames, 2, 1)
        assert abs(g.weights[0, 1] - 1.0) < 1e-12  # |cov| = |-1|

    def test_unbiased_divisor(self):
        frames = np.array([[0.0, 0.0], [2.0, 2.0]])  # var with N-1: 2.0
        g = graphs.semi_geometric_graph(frames, 2, 1)
        assert abs(g.weights[0, 1] - 2.0) < 1e-12

    def test_support_subset_of_grid(self):
        rng = Rng(1)
        frames = rng.uniform_matrix(12, 9, -1.0, 1.0)
        g = graphs.semi_geometric_graph(frames, 3, 3)
        grid = graphs.grid_graph(3, 3)
        assert np.all((g.weights > 0.0) <= (grid.weights > 0.0))

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            graphs.semi_geometric_graph(np.ones((1, 4)), 2, 2)

    def test_frame_length_mismatch(self):
        with pytest.raises(ValueError):
            graphs.semi_geometric_graph(np.ones((3, 5)), 2, 2)


class TestCorrelationGraph:
    def test_keep_all_gives_complete_graph(self):
        rng = Rng(2)
        series = rng.uniform_matrix(20, 5, -1.0, 1.0)
        g = graphs.correlation_graph(series, keep_fraction=1.0)
        assert g.edge_count() == 10

    def test_duplicate_series_always_kept(self):
        rng = Rng(3)
        series = rng.uniform_matrix(15, 4, -1.0, 1.0)
        series[:, 1] = series[:, 0]
        g = graphs.correlation_graph(series, keep_fraction=1.0 / 6.0)  # 1 edge
        assert g.edge_count() == 1
        assert abs(g.weights[0, 1] - 1.0) < 1e-10

    def test_top_pair_by_brute_force(self):
        rng = Rng(4)
        series = rng.uniform_matrix(30, 3, -1.0, 1.0)
        g = graphs.correlation_graph(series, keep_fraction=1.0 / 3.0)
        # brute force all three pair correlations
        best, best_pair = -1.0, None
        for i in range(3):
            for j in range(i + 1, 3):
                c = abs(np.corrcoef(series[:, i], series[:, j])[0, 1])
                if c > best:
                    best, best_pair = c, (i, j)
        assert g.edge_count() == 1
        assert abs(g.weights[best_pair] - best) < 1e-12

    def test_edge_count_is_exact_ceiling(self):
        rng = Rng(5)
        series = rng.uniform_matrix(10, 8, -1.0, 1.0)
        total = 8 * 7 // 2
        for frac in (0.05, 0.1, 0.33, 0.5, 1.0):
            g = graphs.correlation_graph(series, keep_fraction=frac)
            assert g.edge_count() == int(np.ceil(frac * total - 1e-9))

    def test_zero_variance_node_identified(self):
        series = Rng(6).uniform_matrix(10, 3, -1.0, 1.0)
        series[:, 2] = 0.7
        with pytest.raises(ValueError, match="node 2"):
            graphs.correlation_graph(series)

    def test_one_node_has_no_edges(self):
        g = graphs.correlation_graph(Rng(8).uniform_matrix(5, 1, -1.0, 1.0))
        assert g.weights.tobytes() == np.zeros((1, 1)).tobytes()
        assert graphs.laplacian(g).tobytes() == np.zeros((1, 1)).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            graphs.correlation_graph(np.ones((1, 3)))
        series = Rng(7).uniform_matrix(5, 3, -1.0, 1.0)
        with pytest.raises(ValueError):
            graphs.correlation_graph(series, keep_fraction=0.0)
        with pytest.raises(ValueError):
            graphs.correlation_graph(series, keep_fraction=1.5)


class TestLaplacian:
    def test_path_of_two(self):
        lap = graphs.laplacian(graphs.grid_graph(1, 2))
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_single_weighted_edge(self):
        g = graphs.Graph(np.array([[0.0, 0.35], [0.35, 0.0]]))
        lap = graphs.laplacian(g)
        assert np.allclose(lap, [[0.35, -0.35], [-0.35, 0.35]])

    def test_row_sums_zero(self):
        rng = Rng(8)
        frames = rng.uniform_matrix(10, 12, -1.0, 1.0)
        for g in (graphs.grid_graph(3, 4),
                  graphs.semi_geometric_graph(frames, 3, 4),
                  graphs.correlation_graph(frames, 0.2)):
            lap = graphs.laplacian(g)
            assert np.max(np.abs(lap.sum(axis=1))) < 1e-12
            assert np.array_equal(lap, lap.T)
            off = lap - np.diag(np.diag(lap))
            assert np.allclose(off, -g.weights)

    def test_psd_and_constant_null_space(self):
        rng = Rng(9)
        frames = rng.uniform_matrix(9, 9, -1.0, 1.0)
        for g in (graphs.grid_graph(3, 3),
                  graphs.semi_geometric_graph(frames, 3, 3),
                  graphs.correlation_graph(frames, 0.3)):
            lap = graphs.laplacian(g)
            vals, _ = linalg.sym_eig(lap)
            assert vals.min() >= -1e-10
            assert np.max(np.abs(lap @ np.ones(len(g.weights)))) < 1e-10


class TestGraphValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            graphs.Graph(np.zeros((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            graphs.Graph(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            graphs.Graph(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            graphs.Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_degrees_consistent(self):
        g = graphs.grid_graph(2, 2)
        assert np.array_equal(g.degrees, g.weights.sum(axis=1))
