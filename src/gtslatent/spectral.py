"""Graph Fourier transform with low-frequency truncation.

The basis is the eigenvector matrix of a graph Laplacian with columns
ordered by ascending eigenvalue; keeping the first ``m`` columns keeps
the ``m`` lowest graph frequencies.  Encoding projects a signal onto
those columns, decoding lifts coefficients back to the signal domain;
the round trip is the orthogonal projection onto the retained span.

Eigenvector signs are fixed by :func:`linalg.sym_eig` (the first
peak-magnitude entry of each column is positive), so coefficients
are reproducible across solvers.  Inside a degenerate eigenspace the
basis is still the solver's choice, and a truncation ``m`` that splits
such an eigenspace keeps an arbitrary part of it; the harness reports
the spectral gap and multiplicity at each ``m`` to flag those cuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class SpectralBasis:
    """The m lowest-frequency Laplacian eigenvectors of an n-node graph."""

    n: int
    m: int
    basis: np.ndarray        # (n, m), orthonormal columns
    eigenvalues: np.ndarray  # (m,), ascending

    def __post_init__(self):
        b = linalg.as_matrix(self.basis, "basis")
        ev = linalg.as_vector(self.eigenvalues, "eigenvalues")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"m={self.m} out of range [1, {self.n}]")
        if b.shape != (self.n, self.m):
            raise ValueError(f"basis shape {b.shape} != ({self.n}, {self.m})")
        if ev.shape != (self.m,):
            raise ValueError("eigenvalues length does not match m")
        if np.any(np.diff(ev) < -1e-10):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "eigenvalues", ev)


def compute_basis(lap, m: int) -> SpectralBasis:
    """Eigendecompose a Laplacian and keep the m lowest-eigenvalue columns."""
    l = linalg.as_matrix(lap, "laplacian")
    n = l.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range [1, {n}]")
    eigenvalues, eigenvectors = linalg.sym_eig(l)
    return SpectralBasis(n, m, eigenvectors[:, :m].copy(),
                         eigenvalues[:m].copy())


def truncate(basis: SpectralBasis, m: int) -> SpectralBasis:
    """Narrow an existing basis to its m lowest-frequency columns.

    Lets callers eigendecompose once per graph and reuse the result
    for a whole sweep of latent dimensions.
    """
    if not 1 <= m <= basis.m:
        raise ValueError(f"m={m} out of range [1, {basis.m}]")
    if m == basis.m:
        return basis
    return SpectralBasis(basis.n, m, basis.basis[:, :m].copy(),
                         basis.eigenvalues[:m].copy())


def encode(basis: SpectralBasis, x) -> np.ndarray:
    """Forward transform: coefficients of x on the retained eigenvectors."""
    v = linalg.as_vector(x, "signal")
    if v.shape[0] != basis.n:
        raise ValueError(f"signal length {v.shape[0]} != n={basis.n}")
    return basis.basis.T @ v


def decode(basis: SpectralBasis, coeffs) -> np.ndarray:
    """Inverse transform: signal-domain vector with the given coefficients."""
    c = linalg.as_vector(coeffs, "coefficients")
    if c.shape[0] != basis.m:
        raise ValueError(f"coefficient length {c.shape[0]} != m={basis.m}")
    return basis.basis @ c


def encode_frames(basis: SpectralBasis, frames) -> np.ndarray:
    """Encode a (num_frames, n) stack row by row."""
    f = linalg.as_matrix(frames, "frames")
    if f.shape[1] != basis.n:
        raise ValueError(f"frame length {f.shape[1]} != n={basis.n}")
    return f @ basis.basis


def decode_frames(basis: SpectralBasis, coeffs) -> np.ndarray:
    """Decode a (num_frames, m) stack row by row."""
    c = linalg.as_matrix(coeffs, "coefficients")
    if c.shape[1] != basis.m:
        raise ValueError(f"coefficient length {c.shape[1]} != m={basis.m}")
    return c @ basis.basis.T


def reconstruction_mse(basis: SpectralBasis, frames) -> float:
    """Mean squared round-trip error of the truncated transform."""
    f = linalg.as_matrix(frames, "frames")
    return linalg.mse(f, decode_frames(basis, encode_frames(basis, f)))
