"""Non-revealed measurement and monitoring channels.

Channels are structural descriptors (observable plus intensity, or a
composition tree) applied exactly; the superoperator form exists as an
independent equality oracle.  Superoperators use the row-major matrix-unit
basis: column k*d+l holds the row-stacked image of the unit E_kl, i.e.
S[i*d+j, k*d+l] = channel(E_kl)[i, j].  ``to_superoperator`` builds it from
any channel's own ``apply_matrix``, fed all d^2 units as one stack.

Each channel is one, or a stack of N with ``batch`` N as circuits are:
under N observables (projectors (N, k, d, d)) or N intensities.  A
channel acts on a (d, d) matrix or an (N, d, d) stack; each member's image
equals its image alone, and ``to_superoperator`` extracts a stack the way
it extracts a circuit stack.  Dephasing in a nondegenerate observable's
rank-one projectors is the pinching sum_j Tr(P_j M) P_j (Bhatia, *Matrix
Analysis*, GTM 169): two einsums over the outcome weights Tr(P_j M), for
any M.  A degenerate observable sums the products P_j M P_j, two batched
matrix products per outcome.

``dephase`` and ``monitor`` memoize their images on the source
``DensityOperator``: a repeated call returns the same image object, and
with it the image's cached spectrum.  A nondegenerate ``dephase`` image is
diagonal in x's eigenbasis, so its spectrum is its sorted outcome weights
and it carries them, with no eigensolve; ``monitor`` images are solved.
Both key on the observable object itself (it hashes by identity),
``monitor`` also on the intensity's value, since callers pass mutable
arrays; ``monitor`` builds its image from ``dephase``.  Channel objects
act on matrices and never read the memo, so a ``ComposedChannel`` stays a
computation separate from the sequential ``dephase``/``monitor`` route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_numbers
from .linalg import DimensionError, common_batch, operators
from .observables import ProjectiveObservable, observable_from_axis
from .states import DensityOperator


def _dephased(x: ProjectiveObservable, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(sum_j P_j mat P_j, outcome weights) over the outcome axis of x's (..., k, d, d) projectors.

    For a nondegenerate x, P_j mat P_j = Tr(P_j mat) P_j, so the image is
    sum_j w_j P_j with weights w_j = Tr(P_j mat), (..., k), for any mat; a
    degenerate x sums the products and has no weights (None).
    """
    projs = x.projectors
    if not x.is_nondegenerate:
        return sum(projs[..., j, :, :] @ mat @ projs[..., j, :, :] for j in range(x.n_outcomes)), None
    weights = np.einsum("...kij,...ji->...k", projs, mat)
    return np.einsum("...k,...kij->...ij", weights, projs), weights


def _blend(epsilon, mat: np.ndarray, dephased: np.ndarray) -> np.ndarray:
    """(1 - eps) mat + eps dephased, an (N,) intensity broadcast over the member axis."""
    eps = np.asarray(epsilon)[..., None, None]
    return (1.0 - eps) * mat + eps * dephased


class MonitoringChannel:
    """Intensity-epsilon interpolation between identity and full dephasing:
    rho -> (1 - eps) rho + eps sum_j P_j rho P_j, the full non-revealed
    measurement at eps = 1.

    ``epsilon`` is one intensity in [0, 1], or an (N,) array of them for a
    stack; a stacked observable and a stacked intensity must have one member
    count, ``batch`` (None for a single channel).
    """

    __slots__ = ("observable", "epsilon", "dim", "batch")

    def __init__(self, observable: ProjectiveObservable, epsilon):
        eps = check_numbers("epsilon", epsilon, 0, 1)
        self.batch = common_batch({"observables": observable, "intensities": len(eps) if np.ndim(eps) else None})
        self.observable, self.dim, self.epsilon = observable, observable.dim, eps

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        common_batch({"channels": self, "operators": operators(mat)})
        return _blend(self.epsilon, mat, _dephased(self.observable, mat)[0])


class ComposedChannel:
    """Sequential application: outer after inner.  The stages share one
    dimension, and two stacked stages one member count, which is ``batch``."""

    __slots__ = ("outer", "inner", "dim", "batch")

    def __init__(self, outer, inner):
        self.batch = common_batch({"outer stages": outer, "inner stages": inner})
        self.outer, self.inner, self.dim = outer, inner, outer.dim

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        common_batch({"channels": self, "operators": operators(mat)})
        return self.outer.apply_matrix(self.inner.apply_matrix(mat))


@dataclass(frozen=True)
class Superoperator:
    """Dense d^2 x d^2 matrix form of a channel (matrix-unit basis), or an
    (N, d^2, d^2) stack of them for a channel stack."""

    dim: int
    matrix: np.ndarray

    @property
    def batch(self) -> int | None:
        """Number of superoperators in a stack; None for a single one."""
        return self.matrix.shape[0] if self.matrix.ndim == 3 else None

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Image of a (d, d) operator or a stack of them: an (N, d, d) stack
        meets a stack of N member by member, and other leading axes broadcast."""
        mat = np.asarray(mat, dtype=complex)
        common_batch({"superoperators": self, "operators": operators(mat)})
        images = self.matrix @ mat.reshape(mat.shape[:-2] + (self.dim**2, 1))
        return images.reshape(images.shape[:-2] + mat.shape[-2:])


def dephase(x: ProjectiveObservable, rho: DensityOperator) -> DensityOperator:
    """Post-measurement state of a non-revealed projective measurement of x,
    sum_j P_j rho P_j: monitoring at intensity 1.

    A stack of observables or of states gives the stack of images.  The
    image is built once per (x, rho) and memoized on rho; for a
    nondegenerate x it carries its spectrum, the sorted outcome weights.
    """
    common_batch({"observables": x, "states": rho})
    key = ("dephase", x)
    if key not in rho._images:
        image, weights = _dephased(x, rho.matrix)
        out = DensityOperator(image, validate=False)
        if weights is not None:  # diagonal in x's eigenbasis, with the weights on its diagonal
            out._spectrum = np.sort(weights.real, axis=-1)
        rho._images[key] = out
    return rho._images[key]


def monitor(ch: MonitoringChannel, rho: DensityOperator) -> DensityOperator:
    """State after monitoring: (1-eps) rho + eps * dephased(rho), per member of a stack.

    The image is built once per (observable, intensity value, rho) and
    memoized on rho; its dephased part is ``dephase(x, rho)``, itself memoized.
    """
    common_batch({"channels": ch, "states": rho})
    x, eps = ch.observable, np.asarray(ch.epsilon)
    key = ("monitor", x, eps.shape, eps.tobytes())
    if key not in rho._images:
        rho._images[key] = DensityOperator(_blend(eps, rho.matrix, dephase(x, rho).matrix), validate=False)
    return rho._images[key]


def to_superoperator(ch) -> Superoperator:
    """Materialize any linear channel (anything with ``dim`` and
    ``apply_matrix``, noiseless circuits included) by acting on the d^2
    matrix units, pushed through ``apply_matrix`` as one (d^2, d, d) stack.

    A channel stack of N members (a ``batch`` of N: a stacked analytic
    channel or circuit) takes the units as a (d^2, 1, d, d) stack, which
    broadcasts against its member axis, and gives an (N, d^2, d^2) matrix.
    """
    if isinstance(ch, Superoperator):
        return ch
    d = ch.dim
    lead = (d * d,) if ch.batch is None else (d * d, 1)
    images = ch.apply_matrix(np.eye(d * d, dtype=complex).reshape(lead + (d, d)))
    columns = images.reshape(images.shape[:-2] + (d * d,))
    return Superoperator(d, np.ascontiguousarray(np.moveaxis(columns, 0, -1)))


def product_monitor(bases, epsilon) -> Superoperator:
    """Superoperator of per-qubit monitoring of a product basis on an n-qubit register.

    ``bases`` lists one (theta, phi) axis per qubit, qubit 0 the most
    significant.  One ancilla per qubit implements the tensor product of
    the one-qubit maps: entry ((i, j), (k, l)) is the product over q of
    qubit q's ((i_q, j_q), (k_q, l_q)), formed in one ``einsum``.  As in
    ``circuits.build_monitor_circuit``, (N,) angle or ``epsilon`` arrays
    make a stack of N, member k built from the k-th entries.
    """
    n = len(bases)
    if n < 1:
        raise DimensionError("need at least one qubit basis")
    factors = [to_superoperator(MonitoringChannel(observable_from_axis(t, p), epsilon)).matrix for t, p in bases]
    sizes = {f.shape[0] for f in factors if f.ndim == 3}
    if len(sizes) > 1:
        raise DimensionError(f"qubit stack sizes differ: {sorted(sizes)}")
    axes = np.arange(4 * n).reshape(n, 4)  # qubit q's (i_q, j_q, k_q, l_q)
    operands = [x for f, ax in zip(factors, axes.tolist()) for x in (f.reshape(f.shape[:-2] + (2,) * 4), [..., *ax])]
    full = np.einsum(*operands, [..., *axes.T.ravel().tolist()])
    d = 2**n
    return Superoperator(d, full.reshape(full.shape[: -4 * n] + (d * d, d * d)))
