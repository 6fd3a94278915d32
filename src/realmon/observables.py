"""Projective observables: eigenbases, compatibility, mutual unbiasedness.

An observable is stored as a tuple of real eigenvalues matched with a
(k, d, d) array of Hermitian projectors; degenerate spectra are represented
by projectors of rank equal to the eigenvalue multiplicity.  The same type
holds a stack of N observables of one dimension and outcome count, (N, k)
eigenvalues with (N, k, d, d) projectors, one per member of a state stack.
``observable_from_axis`` builds one qubit observable from numbers or a
stack from (N,) angle arrays, through the same code;
``observable_from_basis`` builds one from a (d, d) basis or a stack from
(N, d, d) bases.
``commutes`` and ``is_mutually_unbiased`` take one observable or a stack on
either side, through the same code, and answer per member.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .config import check_choice, check_numbers
from .linalg import DimensionError, common_batch, hermiticity_defect, within_tol

PROJECTOR_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
DEGENERACY_TOL = 1e-9
COMMUTE_TOL = 1e-10
MU_TOL = 1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2):
    _m.setflags(write=False)


class DegenerateObservableError(ValueError):
    """Operation is only defined for observables with rank-1 projectors."""


class ProjectiveObservable:
    """Spectral decomposition sum_j x_j P_j with orthonormal projectors, or a stack of N.

    One observable has a tuple of k ``eigenvalues`` and one read-only
    (k, d, d) ``projectors`` array holding P_j at index j.  A stack of N
    (from :func:`stack_observables`, or an axis builder given angle arrays)
    has (N, k) eigenvalues and (N, k, d, d) projectors, and ``batch`` is N.
    """

    __slots__ = ("eigenvalues", "projectors", "_nondegenerate")

    def __init__(self, eigenvalues, projectors, *, validate: bool = True):
        values = np.array(eigenvalues, dtype=float)
        try:
            projs = np.array(projectors, dtype=complex)
        except ValueError:
            raise DimensionError("projectors must be square matrices of one dimension") from None
        if values.ndim not in (1, 2) or not values.size or projs.shape[: values.ndim] != values.shape:
            raise DimensionError("need one projector per eigenvalue, at least one of each")
        if projs.ndim != values.ndim + 2 or projs.shape[-1] != projs.shape[-2] or projs.shape[-1] < 1:
            raise DimensionError(f"projectors must be square matrices, got shape {projs.shape[values.ndim :]}")
        projs.setflags(write=False)
        values.setflags(write=False)
        self.eigenvalues = tuple(values.tolist()) if values.ndim == 1 else values
        self.projectors = projs
        self._nondegenerate = None
        if validate:
            self._validate()

    def _validate(self):
        """One pass over the whole (..., k, d, d) array, for one observable or a stack."""
        values, projs = np.asarray(self.eigenvalues), self.projectors
        if not (np.isfinite(values).all() and np.isfinite(projs).all()):
            raise ValueError("eigenvalues and projectors must be finite")
        if hermiticity_defect(projs) > PROJECTOR_TOL:
            raise ValueError("projectors are not Hermitian")
        k = self.n_outcomes
        # products[..., i, j] = P_i P_j, expected delta_ij P_i
        products = projs[..., :, None, :, :] @ projs[..., None, :, :, :]
        expected = np.eye(k)[:, :, None, None] * projs[..., :, None, :, :]
        bad = np.abs(products - expected).max(axis=(-2, -1)) > PROJECTOR_TOL
        if bad.any():
            i, j = np.argwhere(bad)[0][-2:]
            raise ValueError(f"projectors {i},{j} violate orthogonal idempotence")
        if np.abs(projs.sum(axis=-3) - np.eye(self.dim)).max() > COMPLETENESS_TOL:
            raise ValueError("projectors do not resolve the identity")
        traces = projs.trace(axis1=-2, axis2=-1).real
        empty = np.rint(traces) < 1
        if empty.any():
            *member, j = np.argwhere(empty)[0]
            raise ValueError(f"projector {j} has trace {traces[(*member, j)]:.3g}: an outcome needs rank >= 1")
        close = np.triu(np.abs(values[..., :, None] - values[..., None, :]) <= DEGENERACY_TOL, 1)
        if close.any():
            *member, i, j = np.argwhere(close)[0]
            a, b = values[(*member, i)], values[(*member, j)]
            raise ValueError(f"eigenvalues {a} and {b} closer than {DEGENERACY_TOL:.0e}")

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]

    @property
    def batch(self) -> int | None:
        """Number of observables in a stack; None for a single observable."""
        return self.projectors.shape[0] if self.projectors.ndim == 4 else None

    @property
    def n_outcomes(self) -> int:
        return self.projectors.shape[-3]

    @property
    def is_nondegenerate(self) -> bool:
        """Every projector has rank 1 (for a stack: in every member); computed once per object."""
        if self._nondegenerate is None:
            ranks = np.rint(self.projectors.trace(axis1=-2, axis2=-1).real)
            self._nondegenerate = bool((ranks == 1).all())
        return self._nondegenerate

    def matrix(self) -> np.ndarray:
        """Reconstruct the Hermitian operator sum_j x_j P_j, (N, d, d) for a stack."""
        values = np.asarray(self.eigenvalues)
        out = np.zeros(self.projectors.shape[:-3] + (self.dim, self.dim), dtype=complex)
        for j in range(self.n_outcomes):
            out += values[..., j, None, None] * self.projectors[..., j, :, :]
        return out

    def __repr__(self):
        return f"ProjectiveObservable(dim={self.dim}, eigenvalues={self.eigenvalues})"


def stack_observables(observables) -> ProjectiveObservable:
    """One stack of N single observables of one dimension and outcome count."""
    members = list(observables)
    if not members:
        raise DimensionError("an observable stack needs at least one observable")
    if any(x.projectors.shape != members[0].projectors.shape for x in members):
        raise DimensionError("stacked observables must share dimension and outcome count")
    return ProjectiveObservable(
        [x.eigenvalues for x in members], np.stack([x.projectors for x in members]), validate=False
    )


def observable_from_axis(theta, phi=0.0) -> ProjectiveObservable:
    """Qubit observable along the Bloch axis (theta, phi), eigenvalues (+1, -1).

    The +1 eigenket is (cos(theta/2), e^{i phi} sin(theta/2)) and the -1
    eigenket its orthogonal complement, so (0, 0) gives the computational
    basis and (pi/2, 0) the Hadamard basis.  Finite angles given as (N,)
    arrays, broadcast together, give a stack of N observables.
    """
    angles = (np.asarray(check_numbers(name, a, -math.inf, math.inf)) for name, a in (("theta", theta), ("phi", phi)))
    theta, phi = np.broadcast_arrays(*angles)
    c, s, ph = np.cos(0.5 * theta), np.sin(0.5 * theta), np.exp(1j * phi)
    kets = np.stack((np.stack((c, ph * s), axis=-1), np.stack((-s, ph * c), axis=-1)), axis=-2)
    projs = kets[..., :, None] * kets.conj()[..., None, :]
    return ProjectiveObservable(np.broadcast_to((1.0, -1.0), theta.shape + (2,)), projs, validate=False)


def commutes(x: ProjectiveObservable, x2: ProjectiveObservable) -> bool | np.ndarray:
    """True when the reconstructed operators commute entrywise within ``COMMUTE_TOL``,
    per member of a stack; two stacks must have one member count."""
    common_batch({"first observables": x, "second observables": x2})
    a = x.matrix()
    b = x2.matrix()
    return within_tol(a @ b - b @ a, COMMUTE_TOL)


def is_mutually_unbiased(x: ProjectiveObservable, x2: ProjectiveObservable) -> bool | np.ndarray:
    """True when every eigenbasis overlap |<x_j|x'_k>|^2 equals 1/d within ``MU_TOL``.

    Defined only for nondegenerate observables; the overlap is evaluated as
    Tr(P_j P'_k), which equals the squared amplitude for rank-1 projectors.
    A stack on either side gives the (N,) array of its members' answers;
    two stacks must have one member count.
    """
    common_batch({"first observables": x, "second observables": x2})
    if not (x.is_nondegenerate and x2.is_nondegenerate):
        raise DegenerateObservableError(
            "mutual unbiasedness is defined for nondegenerate observables only"
        )
    overlaps = np.einsum("...jab,...kba->...jk", x.projectors, x2.projectors).real
    return within_tol(overlaps - 1.0 / x.dim, MU_TOL)


def observable_from_basis(columns: np.ndarray, eigenvalues) -> ProjectiveObservable:
    """Observable with eigenvalue k on the k-th column: P_k = |c_k><c_k|.

    (N, d, d) columns with (N, k) eigenvalues give a stack of N.
    """
    kets = np.swapaxes(columns, -1, -2)
    projs = kets[..., :, :, None] * np.conj(kets)[..., :, None, :]
    return ProjectiveObservable(eigenvalues, projs, validate=False)


def standard_mub_observables(d: int) -> tuple[ProjectiveObservable, ...]:
    """A fixed set of pairwise mutually unbiased bases, as observables.

    d=2 gives the three Pauli eigenbases; d=3 gives the computational basis
    plus the three Fourier-type bases (four bases, any three of which form a
    triple); any other d gives ().  This function alone decides which
    dimensions have MU bases.
    """
    if d == 2:
        return tuple(
            ProjectiveObservable((1.0, -1.0), ((IDENTITY_2 + sigma) / 2, (IDENTITY_2 - sigma) / 2), validate=False)
            for sigma in (SIGMA_Z, SIGMA_X, SIGMA_Y)
        )
    if d == 3:
        # column k of Fourier-type basis m has entries omega^(m j^2 + j k) / sqrt(3)
        omega = cmath.exp(2j * cmath.pi / 3)
        phases = np.array([omega**e / math.sqrt(3.0) for e in range(3)])
        m, j, k = np.arange(3)[:, None, None], np.arange(3)[:, None], np.arange(3)
        bases = np.concatenate(([np.eye(3)], phases[(m * j * j + j * k) % 3]))
        return tuple(observable_from_basis(cols, range(3)) for cols in bases)
    return ()


def pauli_observable(axis: str) -> ProjectiveObservable:
    """Pauli observable 'x', 'y', or 'z' with exact rational projector entries."""
    check_choice("axis", axis, ("z", "x", "y"))
    return standard_mub_observables(2)[("z", "x", "y").index(axis)]
