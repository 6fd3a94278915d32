"""Validated density operators, pure states, and entropic functionals.

Entropy is measured in bits (base-2 logarithm) throughout, so a qubit has
at most 1 bit and a dimension-d system at most log2(d) bits.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DimensionError, _as_square_complex, hermitian_eig, hermiticity_defect

TRACE_TOL = 1e-10
HERMITIAN_TOL = 1e-10
NEGATIVITY_TOL = 1e-9
NORM_TOL = 1e-8


class NegativityError(ValueError):
    """Spectrum dips below the tolerated negativity window."""


class PureState:
    """Complex amplitude vector, renormalized to unit norm on construction.

    Raw norm must be within ``NORM_TOL`` of 1; the stored amplitudes are
    rescaled to machine-precision unit norm so derived projectors are
    idempotent and trace-1.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        arr = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if arr.size < 1:
            raise DimensionError("state vector must have at least one amplitude")
        finite = np.isfinite(arr)
        if not finite.all():
            i = np.flatnonzero(~finite)[0]
            raise ValueError(f"state vector entry [{i}] is not finite: {arr[i]!r}")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm!r} deviates from 1 beyond {NORM_TOL:.0e}")
        arr = arr / norm
        arr.setflags(write=False)
        self.amplitudes = arr

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self):
        return f"PureState(dim={self.dim})"


class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator.

    Validation (Hermiticity 1e-10, trace 1e-10, min eigenvalue >= -1e-9)
    runs by default; channel code that produces states valid by construction
    passes ``validate=False`` to skip the eigensolve.  The spectrum is
    computed lazily and cached, so validation and entropy share one solve.
    """

    __slots__ = ("matrix", "_eigensystem")

    def __init__(self, matrix, *, validate: bool = True):
        arr = np.ascontiguousarray(_as_square_complex(matrix, "density matrix"))
        arr.setflags(write=False)
        self.matrix = arr
        self._eigensystem = None
        if validate:
            defect = hermiticity_defect(arr)
            if defect > HERMITIAN_TOL:
                raise ValueError(f"density matrix not Hermitian: defect {defect:.3e}")
            tr = complex(np.trace(arr))
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"density matrix trace {tr!r} deviates from 1")
            if self.eigenvalues()[0] < -NEGATIVITY_TOL:
                raise NegativityError(
                    f"density matrix has eigenvalue {self.eigenvalues()[0]:.3e} < -{NEGATIVITY_TOL:.0e}"
                )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ascending eigenvalues and eigenvector columns."""
        if self._eigensystem is None:
            self._eigensystem = hermitian_eig(self.matrix)
        return self._eigensystem

    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem()[0]

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


def density_from_pure(psi: PureState) -> DensityOperator:
    """Rank-1 projector onto ``psi``."""
    amp = psi.amplitudes
    return DensityOperator(np.outer(amp, amp.conj()), validate=False)


def entropy_of_probabilities(probs) -> float:
    """Shannon entropy in bits with 0*log(0) = 0.

    Eigenvalues in [-1e-9, 0) are clamped to zero and values a rounding
    error above 1 are clamped to 1; no renormalization is applied.
    """
    total = 0.0
    for p in np.asarray(probs, dtype=float).reshape(-1):
        if p < -NEGATIVITY_TOL:
            raise NegativityError(f"probability {p!r} below -{NEGATIVITY_TOL:.0e}")
        if p > 1.0:
            p = 1.0
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Spectral entropy -sum(p log2 p) of a density operator, in bits."""
    return entropy_of_probabilities(rho.eigenvalues())


def bloch_vector(rho: DensityOperator) -> tuple[float, float, float]:
    """(Tr rho*sigma_x, Tr rho*sigma_y, Tr rho*sigma_z) for a qubit state."""
    if rho.dim != 2:
        raise DimensionError(f"Bloch vector requires a qubit state, got dim {rho.dim}")
    m = rho.matrix
    rx = float((m[0, 1] + m[1, 0]).real)
    ry = float((1j * (m[0, 1] - m[1, 0])).real)
    rz = float((m[0, 0] - m[1, 1]).real)
    return (rx, ry, rz)


def maximally_mixed(d: int) -> DensityOperator:
    return DensityOperator(np.eye(d, dtype=complex) / d, validate=False)
