"""Linear latent representations for graph-supported time series.

The package compares three linear codecs for spatially structured
signals - the graph Fourier transform on a plain grid graph, on a
covariance-weighted (semi-geometric) grid graph, and on a
correlation-thresholded graph, plus a tied-weight linear autoencoder -
first on raw reconstruction error, then on how well an FC-LSTM
predicts sequences from each compressed representation.

Modules:

* ``linalg``   - dense float64 helpers and a sign-fixed LAPACK eigensolver
* ``graphs``   - the three graph constructions and their Laplacians
* ``spectral`` - truncated graph Fourier transform
* ``ae``       - tied-weight linear autoencoder and its training
* ``optim``    - Adam and milestone schedules
* ``lstm``     - FC-LSTM cell, warm-up/free-run rollout, BPTT
* ``data``     - dataset generators, STL-10/CSV ingestion, GTS1 tensors
* ``harness``  - experiment driver, reports, plots
* ``cli``      - ``gtslatent`` command-line interface
"""

from . import ae, data, graphs, harness, linalg, lstm, optim, rng, spectral

__version__ = "0.1.0"

__all__ = [
    "ae",
    "data",
    "graphs",
    "harness",
    "linalg",
    "lstm",
    "optim",
    "rng",
    "spectral",
    "__version__",
]
