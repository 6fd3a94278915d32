"""Dense complex-matrix primitives sized for Hilbert dimensions up to 16.

Everything here is pure: inputs are never mutated and outputs are fresh
arrays.  ``hermitian_eig`` is the package's one eigensolver: LAPACK's
Hermitian driver (``numpy.linalg.eigh``), with matrices that are already
diagonal to within ``OFFDIAG_TOL`` answered from their diagonal, so
diagonal states (basis states, the maximally mixed state) keep exact
spectra.  It takes one ``(d, d)`` matrix or an ``(N, d, d)`` stack; a
single matrix is solved as a stack of one, and each member of a stack gets
the same answer it would get alone.  ``tensor_product`` and
``partial_trace`` take stacks with any number of leading axes.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10
OFFDIAG_TOL = 1e-13


class DimensionError(ValueError):
    """Operands have incompatible or malformed dimensions."""


class NonHermitianError(ValueError):
    """Input matrix deviates from Hermiticity beyond tolerance."""


def _as_square_complex(m, name="matrix", max_lead=None) -> np.ndarray:
    """``m`` as a complex stack of square matrices, with at most ``max_lead``
    leading axes (any number if None)."""
    arr = np.asarray(m, dtype=complex)
    lead_ok = arr.ndim >= 2 and (max_lead is None or arr.ndim - 2 <= max_lead)
    if not lead_ok or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 1:
        raise DimensionError(f"{name} must be a square 2-D array or a stack of them, got shape {arr.shape}")
    return arr


def dagger(m) -> np.ndarray:
    """Conjugate transpose (of each member of a stack)."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def hermiticity_defect(m) -> float:
    """Max entrywise magnitude of m - m† (over all members of a stack)."""
    arr = np.asarray(m, dtype=complex)
    return float(np.abs(arr - dagger(arr)).max())


def within_tol(residual, tol: float):
    """Whether every entry of a (..., a, b) residual lies within ``tol`` in
    magnitude: a bool for one matrix, an (N,) bool array for a stack."""
    ok = np.abs(residual).max(axis=(-2, -1)) <= tol
    return bool(ok) if ok.ndim == 0 else ok


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product: entry ((i*db+k),(j*db+l)) = a[i,j] * b[k,l].

    Either factor may be a stack (leading axes before the last two); leading
    axes broadcast, so a stack times one matrix gives the stack of products.
    Each entry is the one product a[i,j] * b[k,l], as in ``numpy.kron``.
    """
    aa = _as_square_complex(a, "a")
    bb = _as_square_complex(b, "b")
    prod = aa[..., :, None, :, None] * bb[..., None, :, None, :]
    side = aa.shape[-1] * bb.shape[-1]
    return prod.reshape(prod.shape[:-4] + (side, side))


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``, of a matrix or of each member of a stack.

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
    if total != arr.shape[-1]:
        raise DimensionError(
            f"subsystem dimensions {dims} do not factor matrix of side {arr.shape[-1]}"
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
    t = arr.reshape(arr.shape[:-2] + dims + dims)
    row_idx = list(range(n))
    col_idx = [n + k if k in keep_set else k for k in range(n)]
    out_idx = [k for k in keep] + [n + k for k in keep]
    reduced = np.einsum(t, [..., *row_idx, *col_idx], [..., *out_idx])
    d_keep = 1
    for k in keep:
        d_keep *= dims[k]
    return reduced.reshape(arr.shape[:-2] + (d_keep, d_keep))


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a finite Hermitian matrix or of an (N, d, d) stack.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and eigenvector
    columns ``v[:, k]`` (``w[n]`` and ``v[n]`` for member n of a stack).  The
    global phase of each column is fixed by making its largest-magnitude
    component real and positive.  If every off-diagonal entry of a matrix is
    below ``OFFDIAG_TOL`` in magnitude, its ``w`` is the real diagonal,
    stable-sorted, and its ``v`` the matching identity columns; otherwise
    LAPACK decides the column order among exactly tied eigenvalues.  Each
    member of a stack gets bitwise the answer it gets alone.
    """
    arr = _as_square_complex(m, max_lead=1)
    finite = np.isfinite(arr)
    if not finite.all():
        entry = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"matrix entry {list(entry)} is not finite: {arr[entry]!r}")
    defect = hermiticity_defect(arr)
    if defect > HERMITIAN_TOL:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |m - m†| = {defect:.3e} exceeds {HERMITIAN_TOL:.0e}"
        )
    d = arr.shape[-1]
    a = ((arr + dagger(arr)) / 2.0).reshape(-1, d, d)
    offdiag = np.abs(a)
    offdiag.reshape(len(a), -1)[:, :: d + 1] = 0.0
    full = offdiag.max(axis=(1, 2)) >= OFFDIAG_TOL
    if full.all():
        w, v = _lapack_eig(a)
    else:
        w, v = _diagonal_eig(a)
        if full.any():
            w[full], v[full] = _lapack_eig(a[full])
    return w.reshape(arr.shape[:-1]), v.reshape(arr.shape)


def _lapack_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a Hermitian stack, each column's largest component made real positive."""
    w, v = np.linalg.eigh(a)
    n, d = w.shape
    z = v[np.arange(n)[:, None], np.abs(v).argmax(axis=1), np.arange(d)]
    return w, v * (z.conj() / np.abs(z))[:, None, :]


def _diagonal_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable-sorted real diagonals of a stack, with permuted identity columns."""
    w = a.diagonal(axis1=1, axis2=2).real
    order = np.argsort(w, axis=1, kind="stable")
    columns = np.swapaxes(np.eye(a.shape[-1], dtype=complex)[order], 1, 2)
    return w[np.arange(len(w))[:, None], order], columns
