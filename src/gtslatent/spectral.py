"""Linear codecs: the truncated graph Fourier transform and its kin.

A :class:`LinearCodec` is one (n, m) matrix ``A``: encoding is ``x A``
and decoding is ``z A^T``, row by row, so the round trip is
``x A A^T``.  Both representations the package compares are such a
codec.  A graph Fourier basis is the eigenvector matrix of a graph
Laplacian with columns ordered by ascending eigenvalue; keeping the
first ``m`` columns keeps the ``m`` lowest graph frequencies, and the
round trip is the orthogonal projection onto the retained span.  The
tied linear autoencoder (:mod:`ae`) trains a general ``A``.

Eigenvector signs are fixed by :func:`linalg.sym_eig` (the first
peak-magnitude entry of each column is positive), so coefficients
are reproducible across solvers.  Inside a degenerate eigenspace the
basis is still the solver's choice, and a truncation ``m`` that splits
such an eigenspace keeps an arbitrary part of it; the harness keeps
each graph's eigenvalues and reports the gap and multiplicity at each
``m`` to flag those cuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class LinearCodec:
    """Encode/decode matrix ``a`` of shape (n, m), 1 <= m <= n."""

    a: np.ndarray

    def __post_init__(self):
        a = linalg.as_array(self.a, 2, "codec matrix")
        n, m = a.shape
        if not 1 <= m <= n:
            raise ValueError(f"m={m} out of range [1, {n}]")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.a.shape[1]


def compute_basis(lap, m: int) -> LinearCodec:
    """A Laplacian's m lowest-frequency eigenvectors; no eigenvalues."""
    _, eigenvectors = linalg.sym_eig(lap)
    return truncate(LinearCodec(eigenvectors), m)


def truncate(codec: LinearCodec, m: int) -> LinearCodec:
    """Keep a codec's first m columns: a basis's m lowest frequencies.

    Lets callers eigendecompose once per graph and reuse the result
    for a whole sweep of latent dimensions.  At ``m == codec.m`` it
    returns the codec itself: a copy would only add to the peak.
    """
    if not 1 <= m <= codec.m:
        raise ValueError(f"m={m} out of range [1, {codec.m}]")
    if m == codec.m:
        return codec
    # copies, not column views: a strided matrix may take another BLAS
    # path in the products below and round differently
    return LinearCodec(codec.a[:, :m].copy())


def encode_frames(codec: LinearCodec, frames) -> np.ndarray:
    """Encode a (num_frames, n) stack row by row."""
    f = linalg.as_array(frames, 2, "frames")
    if f.shape[1] != codec.n:
        raise ValueError(f"frame length {f.shape[1]} != n={codec.n}")
    return f @ codec.a


def decode_frames(codec: LinearCodec, coeffs) -> np.ndarray:
    """Decode a (num_frames, m) stack row by row."""
    c = linalg.as_array(coeffs, 2, "coefficients")
    if c.shape[1] != codec.m:
        raise ValueError(f"coefficient length {c.shape[1]} != m={codec.m}")
    return c @ codec.a.T


def reconstruction_mse(codec: LinearCodec, frames) -> float:
    """Mean squared round-trip error of the codec."""
    f = np.asarray(frames, dtype=np.float64)
    return linalg.mse(f, decode_frames(codec, encode_frames(codec, f)))
