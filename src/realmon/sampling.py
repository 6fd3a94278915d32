"""Seeded random instances: Haar states, random bases, Ginibre densities.

Unitaries come from QR orthogonalization of complex Gaussian matrices with
the R-diagonal phase fix, so columns are Haar-distributed.  All functions
take an explicit ``numpy.random.Generator`` so sweeps stay reproducible and
per-task streams stay independent.
"""

from __future__ import annotations

import numpy as np

from .linalg import DimensionError
from .observables import ProjectiveObservable, observable_from_basis, standard_mub_observables
from .states import DensityOperator, PureState

MIN_EIGENVALUE_GAP = 1e-3


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = _complex_gaussian(rng, (d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return q * diag


def haar_pure_state(d: int, rng: np.random.Generator) -> PureState:
    z = _complex_gaussian(rng, d)
    return PureState(z / np.linalg.norm(z))


def ginibre_density(d: int, rng: np.random.Generator) -> DensityOperator:
    """Full-rank random density operator G G† / Tr, G a d x d complex Gaussian."""
    g = _complex_gaussian(rng, (d, d))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    m /= np.trace(m).real
    return DensityOperator(m, validate=False)


def random_density(d: int, rng: np.random.Generator) -> DensityOperator:
    """Mixed sampling plan: one in four draws is a Haar-random pure state."""
    if rng.random() < 0.25:
        psi = haar_pure_state(d, rng)
        return DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()), validate=False)
    return ginibre_density(d, rng)


def _distinct_eigenvalues(d: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        vals = np.sort(rng.uniform(-1.0, 1.0, size=d))
        if d == 1 or np.diff(vals).min() > MIN_EIGENVALUE_GAP:
            return vals


def random_observable(d: int, rng: np.random.Generator) -> ProjectiveObservable:
    """Nondegenerate observable with a Haar-random eigenbasis."""
    return observable_from_basis(haar_unitary(d, rng), _distinct_eigenvalues(d, rng))


def random_commuting_pair(
    d: int, rng: np.random.Generator
) -> tuple[ProjectiveObservable, ProjectiveObservable]:
    """Two nondegenerate observables sharing a Haar-random eigenbasis."""
    u = haar_unitary(d, rng)
    return (
        observable_from_basis(u, _distinct_eigenvalues(d, rng)),
        observable_from_basis(u, _distinct_eigenvalues(d, rng)),
    )


def random_mu_pair(
    d: int, rng: np.random.Generator
) -> tuple[ProjectiveObservable, ProjectiveObservable]:
    """Maximally incompatible pair: a standard MU pair conjugated by a Haar unitary."""
    if d not in (2, 3):
        raise DimensionError(f"random MU pairs provided for d in (2, 3), got {d}")
    base_a, base_b = standard_mub_observables(d)[:2]
    w = haar_unitary(d, rng)
    out = []
    for base in (base_a, base_b):
        projs = [w @ p @ w.conj().T for p in base.projectors]
        out.append(ProjectiveObservable(_distinct_eigenvalues(d, rng), projs, validate=False))
    return tuple(out)


def random_probabilities(n: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(n) + 1e-12
    return u / u.sum()


def mixture_of_eigenstates(obs: ProjectiveObservable, probs) -> DensityOperator:
    """Diagonal-in-the-eigenbasis state sum_j p_j P_j (rank-1 projectors)."""
    probs = np.asarray(probs, dtype=float)
    if len(probs) != obs.n_outcomes:
        raise DimensionError("need one probability per projector")
    m = np.zeros((obs.dim, obs.dim), dtype=complex)
    for p, proj in zip(probs, obs.projectors):
        m += p * proj
    m /= np.trace(m).real
    return DensityOperator(m, validate=False)
