"""Dense complex-matrix primitives sized for Hilbert dimensions up to 16.

Everything here is pure: inputs are never mutated and outputs are fresh
arrays.  ``hermitian_eig`` is the package's one eigensolver: LAPACK's
Hermitian driver (``numpy.linalg.eigh``), with matrices that are already
diagonal to within ``OFFDIAG_TOL`` answered from their diagonal, so
diagonal states (basis states, the maximally mixed state) keep exact
spectra.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10
OFFDIAG_TOL = 1e-13


class DimensionError(ValueError):
    """Operands have incompatible or malformed dimensions."""


class NonHermitianError(ValueError):
    """Input matrix deviates from Hermiticity beyond tolerance."""


def _as_square_complex(m, name="matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionError(f"{name} must be a square 2-D array, got shape {arr.shape}")
    return arr


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def hermiticity_defect(m) -> float:
    """Max entrywise magnitude of m - m†."""
    arr = np.asarray(m, dtype=complex)
    return float(np.abs(arr - arr.conj().T).max())


def is_hermitian(m, tol: float = HERMITIAN_TOL) -> bool:
    return hermiticity_defect(m) <= tol


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product: entry ((i*db+k),(j*db+l)) = a[i,j] * b[k,l]."""
    aa = _as_square_complex(a, "a")
    bb = _as_square_complex(b, "b")
    return np.kron(aa, bb)


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` are the subsystem dimensions whose product must equal the side
    of ``m``; ``keep`` is a subsystem index or set of indices.  Kept
    subsystems appear in ascending index order in the result.
    """
    arr = _as_square_complex(m)
    dims = tuple(int(x) for x in dims)
    if any(x < 1 for x in dims):
        raise DimensionError(f"subsystem dimensions must be positive, got {dims}")
    total = 1
    for x in dims:
        total *= x
    if total != arr.shape[0]:
        raise DimensionError(
            f"subsystem dimensions {dims} do not factor matrix of side {arr.shape[0]}"
        )
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted({int(k) for k in keep}))
    n = len(dims)
    if not keep:
        raise DimensionError("keep must name at least one subsystem")
    if any(k < 0 or k >= n for k in keep):
        raise DimensionError(f"keep indices {keep} out of range for {n} subsystems")
    keep_set = set(keep)
    t = arr.reshape(dims + dims)
    row_idx = list(range(n))
    col_idx = [n + k if k in keep_set else k for k in range(n)]
    out_idx = [k for k in keep] + [n + k for k in keep]
    reduced = np.einsum(t, row_idx + col_idx, out_idx)
    d_keep = 1
    for k in keep:
        d_keep *= dims[k]
    return reduced.reshape(d_keep, d_keep)


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a finite Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and eigenvector
    columns ``v[:, k]``.  The global phase of each column is fixed by making
    its largest-magnitude component real and positive.  If every
    off-diagonal entry is below ``OFFDIAG_TOL`` in magnitude, ``w`` is the
    real diagonal, stable-sorted, and ``v`` the matching identity columns;
    otherwise LAPACK decides the column order among exactly tied
    eigenvalues.
    """
    arr = _as_square_complex(m)
    finite = np.isfinite(arr)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"matrix entry [{i}, {j}] is not finite: {arr[i, j]!r}")
    defect = hermiticity_defect(arr)
    if defect > HERMITIAN_TOL:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |m - m†| = {defect:.3e} exceeds {HERMITIAN_TOL:.0e}"
        )
    a = (arr + arr.conj().T) / 2.0
    offdiag = np.abs(a)
    np.fill_diagonal(offdiag, 0.0)
    if offdiag.max() < OFFDIAG_TOL:
        w = a.diagonal().real
        order = np.argsort(w, kind="stable")
        return w[order], np.eye(a.shape[0], dtype=complex)[:, order]
    w, v = np.linalg.eigh(a)
    z = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return w, v * (z.conj() / np.abs(z))
