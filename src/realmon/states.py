"""Validated density operators, pure states, and entropic functionals.

Entropy is measured in bits (base-2 logarithm) throughout, so a qubit has
at most 1 bit and a dimension-d system at most log2(d) bits.  A
``DensityOperator`` holds one (d, d) state or an (N, d, d) stack of states
of one dimension; the entropy of a stack is the array of its members'
entropies, each equal to the entropy of that member alone.  A state's
spectrum is solved once and cached, or carried in through ``spectrum=``.
"""

from __future__ import annotations

import numpy as np

from .linalg import DimensionError, _as_square_complex, hermitian_eig, ket_projectors

TRACE_TOL = 1e-10
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
        arr = np.asarray(amplitudes, dtype=complex)
        if arr.ndim != 1:
            raise DimensionError(f"state vector must be 1-D, got shape {arr.shape}")
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
    """Hermitian, unit-trace, positive-semidefinite operator, or a stack of them.

    ``matrix`` is (d, d) for one state and (N, d, d) for a stack of N (N >= 1),
    a read-only copy, so the caller's array is neither frozen nor aliased.
    Validation (trace 1e-10, min eigenvalue >= -1e-9, for every member) runs
    by default, and its eigensolve rejects a Hermiticity defect above 1e-10;
    code that produces states valid by construction passes ``validate=False``
    to skip the eigensolve.  The ascending spectrum, shape
    ``matrix.shape[:-1]``, is computed lazily by ``hermitian_eig`` (which
    solves eigenvalues only) and cached, so validation and entropy share one
    solve.  A producer that already knows the spectrum passes it as
    ``spectrum=``, and the state then makes no solve for it.  ``_images``
    keeps the state's ``channels.dephase`` and ``channels.monitor`` images,
    keyed on their observable, so each is built once.
    """

    __slots__ = ("matrix", "_spectrum", "_images")

    def __init__(self, matrix, *, validate: bool = True, spectrum=None):
        arr = _as_square_complex(np.array(matrix, dtype=complex, order="C"), "density matrix", max_lead=1)
        if spectrum is not None and np.shape(spectrum) != arr.shape[:-1]:
            raise DimensionError(f"spectrum must have shape {arr.shape[:-1]}, got shape {np.shape(spectrum)}")
        arr.setflags(write=False)
        self.matrix = arr
        self._spectrum = spectrum
        self._images = {}
        if validate:
            traces = np.trace(arr, axis1=-2, axis2=-1).reshape(-1)
            bad = np.abs(traces - 1.0) > TRACE_TOL
            if bad.any():
                raise ValueError(f"density matrix trace {complex(traces[bad][0])!r} deviates from 1")
            low = float(self.eigenvalues()[..., 0].min())
            if low < -NEGATIVITY_TOL:
                raise NegativityError(f"density matrix has eigenvalue {low:.3e} < -{NEGATIVITY_TOL:.0e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def batch(self) -> int | None:
        """Number of states in a stack; None for a single state."""
        return self.matrix.shape[0] if self.matrix.ndim == 3 else None

    def eigenvalues(self) -> np.ndarray:
        """Cached ascending eigenvalues: a carried spectrum if the state has one, else ``hermitian_eig``'s."""
        if self._spectrum is None:
            self._spectrum = hermitian_eig(self.matrix)
        return self._spectrum

    def __repr__(self):
        return f"DensityOperator(dim={self.dim})"


def stack_states(states) -> DensityOperator:
    """One (N, d, d) stack of N >= 1 single states of one dimension."""
    members = [s.matrix for s in states]
    if not members:
        raise DimensionError("a state stack needs at least one state")
    return DensityOperator(np.stack(members), validate=False)


def density_from_pure(psi: PureState) -> DensityOperator:
    """Rank-1 projector onto ``psi``."""
    return DensityOperator(ket_projectors(psi.amplitudes), validate=False)


def entropy_of_probabilities(probs):
    """Shannon entropy in bits with 0*log(0) = 0, along the last axis.

    A 1-D list of probabilities gives a float; an (N, d) stack gives the N
    entropies.  Eigenvalues in [-1e-9, 0) are clamped to zero and values a
    rounding error above 1 are clamped to 1; no renormalization is applied.
    """
    p = np.minimum(np.asarray(probs, dtype=float), 1.0)
    low = p.min()
    if low < -NEGATIVITY_TOL:
        raise NegativityError(f"probability {float(low)!r} below -{NEGATIVITY_TOL:.0e}")
    terms = p * np.log2(np.where(p > 0.0, p, 1.0))
    # accumulate adds the terms strictly in order, as a scalar loop would
    total = 0.0 - np.add.accumulate(terms, axis=-1)[..., -1]
    return float(total) if p.ndim == 1 else total


def von_neumann_entropy(rho: DensityOperator):
    """Spectral entropy -sum(p log2 p) of a density operator, in bits.

    A float for one state, an array of the members' entropies for a stack.
    """
    return entropy_of_probabilities(rho.eigenvalues())
