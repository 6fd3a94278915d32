"""Non-revealed measurement and monitoring channels.

Channels are structural descriptors (observable plus intensity, or a
composition tree) applied exactly; the superoperator form exists as an
independent equality oracle.  Superoperators use the row-major matrix-unit
basis: column k*d+l holds the row-stacked image of the unit E_kl, i.e.
S[i*d+j, k*d+l] = channel(E_kl)[i, j].  ``to_superoperator`` builds it from
any channel's own ``apply_matrix``, fed all d^2 units as one stack.

Each channel is one, or a stack of N with ``batch`` N as circuits are:
under N observables (projectors (N, k, d, d)) or N intensities, built by
``product_monitor`` from (N,) angle arrays.  A channel acts on a (d, d)
matrix or an (N, d, d) stack, with one batched matrix product per outcome;
each member's image equals its image alone, and ``to_superoperator``
extracts a stack the way it extracts a circuit stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError
from .observables import ProjectiveObservable, observable_on_qubit
from .states import DensityOperator


class DephasingChannel:
    """Full non-revealed measurement: rho -> sum_j P_j rho P_j."""

    __slots__ = ("observable",)

    def __init__(self, observable: ProjectiveObservable):
        self.observable = observable

    @property
    def dim(self) -> int:
        return self.observable.dim

    @property
    def batch(self) -> int | None:
        """Number of channels in a stack; None for a single channel."""
        return self.observable.batch

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        p = self.observable.projectors
        return sum(p[..., j, :, :] @ mat @ p[..., j, :, :] for j in range(p.shape[-3]))


class MonitoringChannel:
    """Intensity-epsilon interpolation between identity and full dephasing.

    ``epsilon`` is one intensity, or an (N,) array of them for a stack.
    """

    __slots__ = ("observable", "epsilon")

    def __init__(self, observable: ProjectiveObservable, epsilon):
        eps = np.asarray(epsilon, dtype=float)
        if eps.ndim > 1 or not ((0.0 <= eps) & (eps <= 1.0)).all():
            raise ValueError(f"measurement intensity must lie in [0, 1], got {epsilon!r}")
        self.observable = observable
        self.epsilon = float(eps) if eps.ndim == 0 else eps

    @property
    def dim(self) -> int:
        return self.observable.dim

    @property
    def batch(self) -> int | None:
        lead = np.broadcast_shapes(self.observable.projectors.shape[:-3], np.shape(self.epsilon))
        return lead[0] if lead else None

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        dephased = DephasingChannel(self.observable).apply_matrix(mat)
        eps = np.asarray(self.epsilon)[..., None, None]
        return (1.0 - eps) * mat + eps * dephased


class ComposedChannel:
    """Sequential application: outer after inner."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner):
        if outer.dim != inner.dim:
            raise DimensionError(f"channel dimensions differ: {outer.dim} vs {inner.dim}")
        self.outer = outer
        self.inner = inner

    @property
    def dim(self) -> int:
        return self.outer.dim

    @property
    def batch(self) -> int | None:
        return self.inner.batch if self.outer.batch is None else self.outer.batch

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        return self.outer.apply_matrix(self.inner.apply_matrix(mat))


@dataclass(frozen=True)
class Superoperator:
    """Dense d^2 x d^2 matrix form of a channel (matrix-unit basis), or an
    (N, d^2, d^2) stack of them for a channel stack."""

    dim: int
    matrix: np.ndarray

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Image of a (d, d) operator or a stack of them; stacks broadcast against the member axis."""
        mat = np.asarray(mat, dtype=complex)
        images = self.matrix @ mat.reshape(mat.shape[:-2] + (self.dim**2, 1))
        return images.reshape(images.shape[:-2] + mat.shape[-2:])


def _check_dims(channel_dim: int, rho: DensityOperator):
    if channel_dim != rho.dim:
        raise DimensionError(f"channel dimension {channel_dim} does not match state dimension {rho.dim}")


def dephase(x: ProjectiveObservable, rho: DensityOperator) -> DensityOperator:
    """Post-measurement state of a non-revealed projective measurement of x.

    A stack of observables or of states gives the stack of images.
    """
    _check_dims(x.dim, rho)
    return DensityOperator(DephasingChannel(x).apply_matrix(rho.matrix), validate=False)


def monitor(ch: MonitoringChannel, rho: DensityOperator) -> DensityOperator:
    """State after monitoring: (1-eps) rho + eps * dephased(rho), per member of a stack."""
    _check_dims(ch.dim, rho)
    return DensityOperator(ch.apply_matrix(rho.matrix), validate=False)


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


def product_monitor(bases, epsilon) -> ComposedChannel | MonitoringChannel:
    """Per-qubit monitoring of a product basis on an n-qubit register.

    ``bases`` lists one (theta, phi) axis per qubit; the result is the
    composition of the commuting single-qubit monitoring channels, which is
    what one ancilla per qubit implements.  One qubit gives one stage.  As
    in ``circuits.build_monitor_circuit``, any angle given as an (N,) array,
    or an (N,) ``epsilon``, makes a stack of N channels, member k built from
    the k-th entries.
    """
    n = len(bases)
    if n < 1:
        raise DimensionError("need at least one qubit basis")
    channel = None
    for q, (theta, phi) in enumerate(bases):
        stage = MonitoringChannel(observable_on_qubit(n, q, theta, phi), epsilon)
        channel = stage if channel is None else ComposedChannel(stage, channel)
    return channel
