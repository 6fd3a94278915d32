"""Dense complex-matrix primitives sized for Hilbert dimensions up to 16.

Everything here is pure: inputs are never mutated and outputs are fresh
arrays.  ``hermitian_eig`` is the package's one eigensolver, and it solves
spectra only, since every quantity realmon reports is a difference of
entropies.  A 2x2 matrix (every qubit state) is solved in closed form, with
no LAPACK call; a larger one goes to LAPACK's eigenvalue-only Hermitian
solver (``numpy.linalg.eigvalsh``).  A matrix whose off-diagonal entries
are all at most ``OFFDIAG_TOL`` times its largest entry in magnitude is
answered from its diagonal, so diagonal states (basis states, the
maximally mixed state) keep exact spectra.  It takes one ``(d, d)`` matrix
or an ``(N, d, d)`` stack; a single matrix is solved as a stack of one, and
each member of a stack gets the same answer it would get alone.
``tensor_product``, ``partial_trace`` and ``ket_projectors`` take stacks
with any number of leading axes.

The qubit primitives sit here, below every other layer: the read-only
Pauli matrices ``SIGMA_X`` .. ``IDENTITY_2``, and ``bloch_matrices``, the one (I + r . sigma)/2.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

HERMITIAN_TOL = 1e-10
OFFDIAG_TOL = 1e-13

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2):
    _m.setflags(write=False)


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
    if not arr.size:
        raise DimensionError(f"{name} stack must have at least one member, got shape {arr.shape}")
    return arr


def common_batch(operands) -> int | None:
    """The member count the operands of one operation share; None if every one is single.

    ``operands`` maps plural nouns ("observables", "states") to objects with
    ``dim`` and ``batch``, or to bare member counts (None for a single
    operand).  The objects must share one dimension and the stacks one size: a
    stack of one is a stack, not broadcast against N.  A mismatch raises one
    ``DimensionError`` that names every size, e.g. "5 observables vs 3 states",
    and so does a stack of none, e.g. "0 intensities".
    """
    dims = {name: op.dim for name, op in operands.items() if hasattr(op, "dim")}
    sizes = {name: n for name, op in operands.items() if (n := getattr(op, "batch", op)) is not None}
    if 0 in sizes.values():
        raise DimensionError(f"a stack needs at least one member, got 0 {next(x for x, n in sizes.items() if n == 0)}")
    if len(set(dims.values())) > 1:
        raise DimensionError("dimensions differ: " + " vs ".join(f"{d}-dimensional {x}" for x, d in dims.items()))
    if len(set(sizes.values())) > 1:
        raise DimensionError("stack sizes differ: " + " vs ".join(f"{n} {name}" for name, n in sizes.items()))
    return next(iter(sizes.values()), None)


def operators(mat):
    """A (..., d, d) operator array as a ``common_batch`` operand: an (N, d, d)
    stack has N members, and a (d, d) matrix or any other stack broadcasts."""
    arr = _as_square_complex(mat, "operator")
    return SimpleNamespace(dim=arr.shape[-1], batch=len(arr) if arr.ndim == 3 else None)


def dagger(m) -> np.ndarray:
    """Conjugate transpose (of each member of a stack)."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def ket_projectors(kets) -> np.ndarray:
    """Rank-one projectors |c><c| of the kets along the last axis: (..., d) kets give (..., d, d)."""
    return kets[..., :, None] * kets.conj()[..., None, :]


def bloch_matrices(r) -> np.ndarray:
    """(I + r . sigma)/2 for a (3,) Bloch vector, or for each row of an (N, 3) or (..., 3) stack."""
    rx, ry, rz = np.moveaxis(np.asarray(r, dtype=float), -1, 0)[..., None, None]
    return 0.5 * (IDENTITY_2 + rx * SIGMA_X + ry * SIGMA_Y + rz * SIGMA_Z)


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
    if math.prod(dims) != arr.shape[-1]:
        raise DimensionError(f"subsystem dimensions {dims} do not factor matrix of side {arr.shape[-1]}")
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
    d_keep = math.prod(dims[k] for k in keep)
    return reduced.reshape(arr.shape[:-2] + (d_keep, d_keep))


def hermitian_eig(m) -> np.ndarray:
    """Ascending eigenvalues of a finite Hermitian matrix or of an (N, d, d) stack.

    Returns ``w`` of shape (d,), or (N, d) with ``w[n]`` for member n of a
    stack.  If no off-diagonal entry of a matrix exceeds ``OFFDIAG_TOL``
    times its largest entry in magnitude, its ``w`` is the real diagonal,
    stable-sorted.  Otherwise a 2x2 matrix [[p, b], [b*, q]] has ``w`` =
    (p + q)/2 -+ hypot((p - q)/2, |b|) in closed form, and a larger one is
    solved by LAPACK's eigenvalue-only routine (``numpy.linalg.eigvalsh``).
    Each member of a stack gets bitwise the answer it gets alone.
    """
    arr = _as_square_complex(m, max_lead=1)
    finite = np.isfinite(arr)
    if not finite.all():
        entry = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"matrix entry {list(entry)} is not finite: {arr[entry]!r}")
    adjoint = dagger(arr)
    defect = float(np.abs(arr - adjoint).max())
    if defect > HERMITIAN_TOL:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |m - m†| = {defect:.3e} exceeds {HERMITIAN_TOL:.0e}"
        )
    d = arr.shape[-1]
    a = ((arr + adjoint) / 2.0).reshape(-1, d, d)
    # entry magnitudes entry-major, (d*d, N), so each reduction runs along the stack
    size = np.ascontiguousarray(np.abs(a).reshape(len(a), -1).T)
    largest = size.max(axis=0)
    size[:: d + 1] = 0.0
    full = size.max(axis=0) > OFFDIAG_TOL * largest
    if full.all():
        w = _full_eig(a)
    else:
        w = np.sort(a.diagonal(axis1=1, axis2=2).real, axis=1, kind="stable")
        if full.any():
            w[full] = _full_eig(a[full])
    return w.reshape(arr.shape[:-1])


def _full_eig(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian stack: closed form at d = 2
    (``_qubit_eig``), LAPACK's ``eigvalsh`` above."""
    return _qubit_eig(a) if a.shape[-1] == 2 else np.linalg.eigvalsh(a)


def _qubit_eig(a: np.ndarray) -> np.ndarray:
    """Closed-form ascending eigenvalues of a stack of 2x2 Hermitian matrices
    [[p, b], [b*, q]]: mid -+ rad, where mid and h are the half-sum and
    half-difference of p and q and rad = hypot(h, |b|)."""
    p, q, b = a[:, 0, 0].real, a[:, 1, 1].real, a[:, 0, 1]
    mid, h = 0.5 * (p + q), 0.5 * (p - q)
    rad = np.hypot(h, np.hypot(b.real, b.imag))
    return np.stack((mid - rad, mid + rad), axis=1)
