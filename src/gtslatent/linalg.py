"""Dense float64 linear algebra: input checks, mean squared error, eigensolver.

Arrays are plain row-major ``numpy`` float64 arrays; :func:`as_array`
is the one check of an input array at a module boundary (rank,
finiteness), as :func:`as_int` and :func:`as_float` are of scalars.
Products are numpy's own ``@``.  The symmetric eigendecomposition is
LAPACK's (``np.linalg.eigh``) with one fixed sign per eigenvector, so a
basis is a function of the matrix alone except inside degenerate
eigenspaces, where only the span is determined.
"""

from __future__ import annotations

import numbers

import numpy as np

#: absolute tolerance under which an input counts as symmetric
SYMMETRY_ATOL = 1e-10

#: an eigenvector entry within this relative distance of its column's
#: peak magnitude counts as a peak for the sign convention of
#: :func:`sym_eig`
SIGN_RTOL = 1e-8


def as_int(value, label: str) -> int:
    """``value`` if it is an integer; bools, floats and the rest raise."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{label} must be an integer, got {value!r}")


def as_float(value, label: str) -> float:
    """``value`` as a float if it is a real number; bools and the rest raise."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{label} must be a number, got {value!r}")


def as_array(a, ndim: int, name: str) -> np.ndarray:
    """``a`` as a finite float64 array of rank ``ndim``, else ``ValueError``."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def mse(a, b) -> float:
    """Mean over all entries of the squared difference of two arrays."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    d = x - y
    return float(np.mean(d * d))


def sym_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted
    ascending and eigenvectors as orthonormal columns, i.e.
    ``s ~= eigenvectors @ np.diag(eigenvalues) @ eigenvectors.T``.

    The solver is LAPACK's symmetric eigensolver (``np.linalg.eigh``) on
    ``(s + s.T) / 2``.  Each column's sign is then fixed: the first
    entry whose magnitude is within a relative ``SIGN_RTOL`` of the
    column's peak magnitude is made positive.  Taking the *first* such
    entry, not the arg-max, keeps the choice stable on the mirror-equal
    entries of path and grid eigenvectors, where rounding decides which
    of two equal magnitudes is larger.  So a column of a simple
    eigenvalue is a fixed function of ``s`` up to rounding, whatever
    LAPACK build or eigensolver produced it.
    Inside a degenerate eigenspace the basis (not only the signs) is
    still the solver's choice; callers must rely only on its span there.

    Memory: one n x n buffer serves the symmetry check, the symmetrised
    input and the sign convention's magnitudes, so the peak is that
    buffer plus LAPACK's eigenvector matrix, about 2 n^2 doubles.

    Raises ``ValueError`` for non-square, non-symmetric or non-finite
    input, and ``np.linalg.LinAlgError`` (a ``ValueError``) if LAPACK
    does not converge.
    """
    a = as_array(s, 2, "matrix")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    buf = np.subtract(a, a.T)
    if float(np.max(np.abs(buf, out=buf))) > SYMMETRY_ATOL:
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_ATOL:g}")

    # make the ~1e-10 asymmetry exactly zero
    np.add(a, a.T, out=buf)
    buf /= 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(buf)
    # row k holds column k's magnitudes, then 1.0 at its peak entries,
    # so argmax runs along contiguous rows and needs no copy or mask
    mags = np.abs(eigenvectors.T, out=buf)
    np.greater_equal(mags, (1.0 - SIGN_RTOL) * mags.max(axis=1)[:, None],
                     out=mags)
    lead = np.argmax(mags, axis=1)
    eigenvectors *= np.where(eigenvectors[lead, np.arange(n)] < 0.0, -1.0, 1.0)
    return eigenvalues, eigenvectors
