"""Linear latent representations for graph-supported time series.

The package compares three linear codecs for spatially structured
signals - the graph Fourier transform on a plain grid graph, on a
covariance-weighted (semi-geometric) grid graph, and on a
correlation-thresholded graph, plus a tied-weight linear autoencoder -
first on raw reconstruction error, then on how well an FC-LSTM
predicts sequences from each compressed representation.

Modules:

* ``linalg``   - dense float64 input checks, MSE, a sign-fixed LAPACK
  eigensolver
* ``graphs``   - the three graph constructions and their Laplacians
* ``spectral`` - ``LinearCodec``, the (n, m) matrix every codec is, and
  the truncated graph Fourier transform
* ``ae``       - tied-weight linear autoencoder (a ``LinearCodec``) and
  its training
* ``optim``    - Adam, milestone schedules and the one mini-batch
  training loop
* ``lstm``     - FC-LSTM cell, warm-up/free-run rollout, BPTT
* ``data``     - dataset generators, STL-10/CSV ingestion, float64
  ``.npy`` array files
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
