"""Weighted undirected graphs over signal dimensions, and their Laplacians.

Three constructions are provided, matching the three structural priors
the package compares:

* :func:`grid_graph` - pixels connected to their 4-neighbourhood with
  unit weights, purely structural;
* :func:`semi_geometric_graph` - same support as the grid, but each
  edge weighted by the absolute covariance of the two pixel series,
  mixing structure and data;
* :func:`correlation_graph` - no structural prior: the top fraction of
  node pairs by absolute Pearson correlation become edges.

Negative covariances/correlations are stored by absolute value: the
combinatorial Laplacian of a nonnegatively weighted graph is positive
semidefinite, which is what gives the low end of its spectrum the
usual low-frequency reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

DEFAULT_KEEP_FRACTION = 0.05


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on nodes 0..n-1, n the size of ``weights``.

    ``weights`` is the symmetric nonnegative adjacency matrix with a
    zero diagonal (no self-loops).  Node degrees are the row sums.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = linalg.as_array(self.weights, 2, "adjacency")
        if w.shape[0] != w.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("adjacency must have a zero diagonal")
        if np.any(w < 0.0):
            raise ValueError("edge weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @property
    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def edge_count(self) -> int:
        """Number of undirected edges with nonzero weight."""
        return int(np.count_nonzero(np.triu(self.weights, 1)))


def grid_graph(height: int, width: int) -> Graph:
    """Unit-weight 4-neighbourhood grid; node (r, c) has index r*width + c."""
    if height < 1 or width < 1:
        raise ValueError("grid dimensions must be at least 1x1")
    n = height * width
    w = np.zeros((n, n))
    i, j = _grid_edges(height, width)
    w[i, j] = w[j, i] = 1.0
    return Graph(w)


def _grid_edges(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) node indices, i < j, of the grid's 4-neighbourhood edges."""
    node = np.arange(height * width).reshape(height, width)
    return (np.concatenate((node[:, :-1].ravel(), node[:-1, :].ravel())),
            np.concatenate((node[:, 1:].ravel(), node[1:, :].ravel())))


def semi_geometric_graph(frames, height: int, width: int) -> Graph:
    """Grid-support graph weighted by absolute pixel covariances.

    ``frames`` is a (num_frames, height*width) stack of flattened
    frames (at least two).  The weight of grid edge (i, j) is
    ``|cov(series_i, series_j)|`` over the frames, with the unbiased
    N-1 divisor; pairs that are not grid neighbours stay at weight 0.
    """
    f = linalg.as_array(np.atleast_2d(frames), 2, "frames")
    if f.shape[0] < 2:
        raise ValueError("covariance needs at least 2 frames")
    n = height * width
    if f.shape[1] != n:
        raise ValueError(
            f"frame length {f.shape[1]} does not match {height}x{width} grid"
        )
    cov = np.atleast_2d(np.cov(f, rowvar=False))
    i, j = _grid_edges(height, width)
    # BLAS products are not exactly symmetric: average the two halves
    edge = np.abs((cov[i, j] + cov[j, i]) / 2.0)
    del cov
    w = np.zeros((n, n))
    w[i, j] = w[j, i] = edge
    return Graph(w)


def correlation_graph(series, keep_fraction: float = DEFAULT_KEEP_FRACTION) -> Graph:
    """Keep the top fraction of node pairs by absolute Pearson correlation.

    ``series`` is (timepoints, nodes).  All n(n-1)/2 pair correlations
    are computed and the ``ceil(keep_fraction * n(n-1)/2)`` pairs with
    the largest absolute correlation become edges, weighted by that
    absolute correlation.  Ties are broken by lexicographic (i, j)
    order so the edge set is deterministic.
    """
    s = linalg.as_array(series, 2, "series")
    t, n = s.shape
    if t < 2:
        raise ValueError("correlation needs at least 2 timepoints")
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")

    total = n * (n - 1) // 2
    if total == 0:
        return Graph(np.zeros((n, n)))

    constant = np.ptp(s, axis=0) == 0.0
    if np.any(constant):
        node = int(np.nonzero(constant)[0][0])
        raise ValueError(
            f"node {node} has zero variance; correlation is undefined"
        )

    corr = np.corrcoef(s, rowvar=False)
    # the pairs (i, i+1), ..., (i, n-1) of row i fill score[start[i]:
    # start[i+1]], so score holds the upper triangle in row-major order
    start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    score = np.empty(total)
    for i in range(n - 1):
        # BLAS products are not exactly symmetric: add the two halves
        np.add(corr[i, i + 1:], corr[i + 1:, i],
               out=score[start[i]:start[i + 1]])
    del corr
    score /= 2.0
    np.abs(score, out=score)

    # small slack so a keep_fraction*total that is mathematically an
    # integer is not pushed up by float noise
    keep = math.ceil(keep_fraction * total - 1e-9)
    keep = min(max(keep, 1), total)
    # a stable ascending sort of -score: largest first, and ties stay
    # in row-major (i, j) order
    np.negative(score, out=score)
    top = np.argsort(score, kind="stable")[:keep].copy()
    weight = -score[top]
    del score
    ii = np.searchsorted(start, top, side="right") - 1
    jj = top - start[ii] + ii + 1
    w = np.zeros((n, n))
    w[ii, jj] = w[jj, ii] = weight
    return Graph(w)


def laplacian(graph: Graph) -> np.ndarray:
    """Combinatorial Laplacian: degree matrix minus adjacency."""
    w = graph.weights
    # 0.0 - w, not -w: a missing edge stays +0.0, as in diag(d) - w
    lap = 0.0 - w
    np.fill_diagonal(lap, graph.degrees - w.diagonal())
    return lap
