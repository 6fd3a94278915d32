"""Seeded random instances: Haar states, random bases, Ginibre densities.

Sampling is split into draws and builds: a draw records raw numbers; a
build does all arithmetic.  A draw takes one instance's random numbers from
an explicit ``numpy.random.Generator``, in a fixed order:
``draw_observable`` a Gaussian block then distinct eigenvalues,
``draw_pair`` one shared Gaussian block then each member's eigenvalues,
``draw_density`` the pure/mixed coin then a Gaussian block for a vector or
matrix.  A Gaussian block is one ``standard_normal((2, *shape))`` call, real
parts then imaginary parts; eigenvalues are one ``random(d)`` call mapped
to ``2u - 1`` (the values and stream of ``uniform(-1, 1)``), rejected as
plain floats.  A build draws nothing: it turns the draw records of N instances
into one stack, combining the blocks into complex Gaussians once.
Unitaries come from QR of the Gaussian matrices with the R-diagonal phase
fix (Mezzadri, Notices AMS 54, 592, 2007), so columns are Haar-distributed;
QR, the projector products, ``W P W†`` and ``G G†`` each run once on the
(N, d, d) stack.

The public samplers are the builds.  ``random_observable(d, rng)`` draws
one observable and builds it as a stack of one; ``random_observable(d,
draws=records)`` builds the stack of N that N ``draw_observable`` records
define, each member bitwise equal to the one-at-a-time call that would have
drawn it.  A caller that draws several fields per instance, as ``verify``
does, draws every instance in turn and then builds each field once.
``haar_unitary``, ``haar_pure_state`` and ``ginibre_density`` build one
block as a stack of one, through the same helpers.
"""

from __future__ import annotations

import numpy as np

from .linalg import DimensionError, common_batch
from .observables import ProjectiveObservable, observable_from_basis, standard_mub_observables
from .states import DensityOperator, PureState

MIN_EIGENVALUE_GAP = 1e-3


def _gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """One raw Gaussian block (2, *shape): the real parts, then the imaginary parts."""
    return rng.standard_normal((2, *shape))


def _complex(z: np.ndarray) -> np.ndarray:
    """Complex Gaussians of unit variance from raw Gaussian blocks stacked as (N, 2, *shape)."""
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices (..., d, d): QR with the R-diagonal phase fix."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    diag = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return q * diag[..., None, :]


def _ginibre(g: np.ndarray) -> np.ndarray:
    """G G† / Tr for complex Gaussian matrices (..., d, d), symmetrised to be exactly Hermitian."""
    g_dag = np.conj(g).swapaxes(-1, -2)
    m = g @ g_dag
    m = (m + np.conj(m).swapaxes(-1, -2)) / 2.0
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    return m


def _pure_state(z: np.ndarray) -> PureState:
    # the 1-D norm, once per vector: a stacked norm differs in the last bit
    return PureState(z / np.linalg.norm(z))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_unitaries(_complex(_gaussian(rng, (d, d))[None]))[0]


def haar_pure_state(d: int, rng: np.random.Generator) -> PureState:
    return _pure_state(_complex(_gaussian(rng, (d,))[None])[0])


def ginibre_density(d: int, rng: np.random.Generator) -> DensityOperator:
    """Full-rank random density operator G G† / Tr, G a d x d complex Gaussian."""
    return DensityOperator(_ginibre(_complex(_gaussian(rng, (d, d))[None]))[0], validate=False)


def _distinct_eigenvalues(d: int, rng: np.random.Generator) -> list[float]:
    """d sorted uniform values in [-1, 1), redrawn until every adjacent gap exceeds ``MIN_EIGENVALUE_GAP``.

    numpy's ``uniform(-1, 1)`` computes ``-1 + 2u`` from ``random``'s stream
    and doubling is exact, so ``2u - 1`` is the same value at less cost.
    """
    while True:
        vals = sorted((2.0 * rng.random(d) - 1.0).tolist())
        if all(b - a > MIN_EIGENVALUE_GAP for a, b in zip(vals, vals[1:])):
            return vals


def draw_observable(d: int, rng: np.random.Generator):
    """One observable's draws: a Gaussian block, then distinct eigenvalues."""
    return _gaussian(rng, (d, d)), _distinct_eigenvalues(d, rng)


def draw_pair(d: int, rng: np.random.Generator):
    """One commuting or MU pair's draws: one shared Gaussian block, then each member's eigenvalues."""
    return _gaussian(rng, (d, d)), _distinct_eigenvalues(d, rng), _distinct_eigenvalues(d, rng)


def draw_density(d: int, rng: np.random.Generator):
    """One state's draws: a coin that is pure one time in four, then a Gaussian block (a vector if pure)."""
    pure = rng.random() < 0.25
    return pure, _gaussian(rng, (d,) if pure else (d, d))


def _records(draw, d, rng, draws) -> list:
    """``draws`` as given, or one record freshly drawn with ``draw(d, rng)``."""
    if (rng is None) == (draws is None):
        raise TypeError("give either rng, for one instance, or draws, for a stack")
    records = [draw(d, rng)] if draws is None else list(draws)
    if not records:
        raise DimensionError("a stack needs at least one draw record")
    return records


def _fields(records) -> list[np.ndarray]:
    """Each field of N draw records as one (N, ...) array."""
    return [np.array(field) for field in zip(*records)]


def _single(stack):
    """The one member of a stack of one, as a single observable or state."""
    if isinstance(stack, DensityOperator):
        return DensityOperator(stack.matrix[0], validate=False)
    return ProjectiveObservable(stack.eigenvalues[0], stack.projectors[0], validate=False)


def _one_or_stack(built, draws):
    """A build's stacks as they are when ``draws`` were given, else their single members."""
    if draws is not None:
        return built
    return tuple(_single(x) for x in built) if isinstance(built, tuple) else _single(built)


def random_density(d: int, rng: np.random.Generator | None = None, *, draws=None) -> DensityOperator:
    """Mixed sampling plan: one in four draws is a Haar-random pure state, the rest Ginibre.

    ``rng`` draws one state; ``draws``, a list of ``draw_density`` records,
    gives the stack they define.
    """
    records = _records(draw_density, d, rng, draws)
    pure = np.array([is_pure for is_pure, _ in records], dtype=bool)
    m = np.empty((len(records), d, d), dtype=complex)
    if pure.any():
        vectors = _complex(np.array([z for is_pure, z in records if is_pure]))
        amps = np.stack([_pure_state(v).amplitudes for v in vectors])
        m[pure] = amps[:, :, None] * np.conj(amps)[:, None, :]
    if not pure.all():
        m[~pure] = _ginibre(_complex(np.array([z for is_pure, z in records if not is_pure])))
    return _one_or_stack(DensityOperator(m, validate=False), draws)


def random_observable(d: int, rng: np.random.Generator | None = None, *, draws=None) -> ProjectiveObservable:
    """Nondegenerate observable with a Haar-random eigenbasis.

    ``rng`` draws one observable; ``draws``, a list of ``draw_observable``
    records, gives the stack they define.
    """
    z, values = _fields(_records(draw_observable, d, rng, draws))
    return _one_or_stack(observable_from_basis(_haar_unitaries(_complex(z)), values), draws)


def random_commuting_pair(
    d: int, rng: np.random.Generator | None = None, *, draws=None
) -> tuple[ProjectiveObservable, ProjectiveObservable]:
    """Two nondegenerate observables sharing a Haar-random eigenbasis (stacks, from ``draw_pair`` records)."""
    z, values_a, values_b = _fields(_records(draw_pair, d, rng, draws))
    u = _haar_unitaries(_complex(z))
    return _one_or_stack((observable_from_basis(u, values_a), observable_from_basis(u, values_b)), draws)


def random_mu_pair(
    d: int, rng: np.random.Generator | None = None, *, draws=None
) -> tuple[ProjectiveObservable, ProjectiveObservable]:
    """Maximally incompatible pair: a standard MU pair conjugated by a Haar unitary
    (stacks, from ``draw_pair`` records)."""
    bases = standard_mub_observables(d)[:2]
    if not bases:
        raise DimensionError(f"no mutually unbiased bases stored for dimension {d}")
    z, values_a, values_b = _fields(_records(draw_pair, d, rng, draws))
    w = _haar_unitaries(_complex(z))[:, None]
    w_dag = np.conj(w).swapaxes(-1, -2)
    pair = tuple(
        ProjectiveObservable(values, w @ base.projectors @ w_dag, validate=False)
        for base, values in zip(bases, (values_a, values_b))
    )
    return _one_or_stack(pair, draws)


def random_probabilities(n: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(n) + 1e-12
    return u / u.sum()


def mixture_of_eigenstates(obs: ProjectiveObservable, probs) -> DensityOperator:
    """Diagonal-in-the-eigenbasis state sum_j p_j P_j (rank-1 projectors), summed in outcome order.

    (N, k) probabilities, or a stack of N observables, give a stack of N
    states; given both, they must have one member count.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim not in (1, 2) or probs.shape[-1] != obs.n_outcomes:
        raise DimensionError("need one probability per projector")
    n = common_batch({"observables": obs, "probability rows": len(probs) if probs.ndim == 2 else None})
    m = np.zeros((() if n is None else (n,)) + (obs.dim, obs.dim), dtype=complex)
    for j in range(obs.n_outcomes):
        m += probs[..., j, None, None] * obs.projectors[..., j, :, :]
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    return DensityOperator(m, validate=False)
