"""Dense float64 linear algebra: products, mean squared error, eigensolver.

Matrices are plain 2-D row-major ``numpy`` arrays and vectors are 1-D
arrays; :func:`as_matrix` / :func:`as_vector` coerce and validate inputs
at module boundaries (shape, finiteness).  Products and reductions
delegate to numpy.  The symmetric eigendecomposition is LAPACK's
(``np.linalg.eigh``) with one fixed sign per eigenvector, so a basis
is a function of the matrix alone except inside degenerate
eigenspaces, where only the span is determined.
"""

from __future__ import annotations

import numpy as np

#: absolute tolerance under which an input counts as symmetric
SYMMETRY_ATOL = 1e-10

#: an eigenvector entry within this relative distance of its column's
#: peak magnitude counts as a peak for the sign convention of
#: :func:`sym_eig`
SIGN_RTOL = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float64 array or raise ``ValueError``."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array or raise ``ValueError``."""
    out = np.asarray(x, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def matmul(a, b) -> np.ndarray:
    """Matrix product with explicit dimension checking."""
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


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

    Raises ``ValueError`` for non-square, non-symmetric or non-finite
    input, and ``np.linalg.LinAlgError`` (a ``ValueError``) if LAPACK
    does not converge.
    """
    a = as_matrix(s, "matrix")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if float(np.max(np.abs(a - a.T))) > SYMMETRY_ATOL:
        raise ValueError(f"matrix is not symmetric within {SYMMETRY_ATOL:g}")

    # make the ~1e-10 asymmetry exactly zero
    eigenvalues, eigenvectors = np.linalg.eigh((a + a.T) / 2.0)
    mags = np.abs(eigenvectors)
    lead = np.argmax(mags >= (1.0 - SIGN_RTOL) * mags.max(axis=0), axis=0)
    eigenvectors *= np.where(eigenvectors[lead, np.arange(n)] < 0.0, -1.0, 1.0)
    return eigenvalues, eigenvectors
