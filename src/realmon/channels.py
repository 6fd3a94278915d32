"""Non-revealed measurement and monitoring channels.

Channels are structural descriptors (observable plus intensity, or a
composition tree) applied exactly; the superoperator form exists as an
independent equality oracle.  Superoperators use the row-major matrix-unit
basis: column k*d+l holds the row-stacked image of the unit E_kl, i.e.
S[i*d+j, k*d+l] = channel(E_kl)[i, j].

Dephasing and monitoring also act on stacks: a (d, d) matrix or an
(N, d, d) stack of them, under one observable or an ``ObservableStack`` of N
(projectors (N, k, d, d)) and one intensity or N of them.  A stack takes one
batched matrix product per outcome, and each member's image equals its
image alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError
from .observables import ObservableStack, ProjectiveObservable, observable_from_axis, observable_on_qubit
from .states import DensityOperator


class DephasingChannel:
    """Full non-revealed measurement: rho -> sum_j P_j rho P_j."""

    __slots__ = ("observable",)

    def __init__(self, observable: ProjectiveObservable | ObservableStack):
        self.observable = observable

    @property
    def dim(self) -> int:
        return self.observable.dim

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        p = self.observable.projectors
        return sum(p[..., j, :, :] @ mat @ p[..., j, :, :] for j in range(p.shape[-3]))


class MonitoringChannel:
    """Intensity-epsilon interpolation between identity and full dephasing.

    ``epsilon`` is one intensity, or an (N,) array of them for a stack.
    """

    __slots__ = ("observable", "epsilon")

    def __init__(self, observable: ProjectiveObservable | ObservableStack, epsilon):
        eps = np.asarray(epsilon, dtype=float)
        if eps.ndim > 1 or not ((0.0 <= eps) & (eps <= 1.0)).all():
            raise ValueError(f"measurement intensity must lie in [0, 1], got {epsilon!r}")
        self.observable = observable
        self.epsilon = float(eps) if eps.ndim == 0 else eps

    @property
    def dim(self) -> int:
        return self.observable.dim

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

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        return self.outer.apply_matrix(self.inner.apply_matrix(mat))


@dataclass(frozen=True)
class Superoperator:
    """Dense d^2 x d^2 matrix form of a channel (matrix-unit basis)."""

    dim: int
    matrix: np.ndarray

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        d = self.dim
        return (self.matrix @ np.asarray(mat, dtype=complex).reshape(-1)).reshape(d, d)


def _check_dims(channel_dim: int, rho: DensityOperator):
    if channel_dim != rho.dim:
        raise DimensionError(f"channel dimension {channel_dim} does not match state dimension {rho.dim}")


def dephase(x: ProjectiveObservable | ObservableStack, rho: DensityOperator) -> DensityOperator:
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
    """Materialize any linear channel by acting on the d^2 matrix units."""
    if isinstance(ch, Superoperator):
        return ch
    d = ch.dim
    mat = np.zeros((d * d, d * d), dtype=complex)
    unit = np.zeros((d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            unit[k, l] = 1.0
            mat[:, k * d + l] = ch.apply_matrix(unit).reshape(-1)
            unit[k, l] = 0.0
    return Superoperator(d, mat)


def product_monitor(bases, epsilon: float) -> ComposedChannel | MonitoringChannel:
    """Per-qubit monitoring of a product basis on an n-qubit register.

    ``bases`` lists one (theta, phi) axis per qubit; the result is the
    composition of the commuting single-qubit monitoring channels, which is
    what one ancilla per qubit implements.
    """
    n = len(bases)
    if n < 1:
        raise DimensionError("need at least one qubit basis")
    if n == 1:
        theta, phi = bases[0]
        return MonitoringChannel(observable_from_axis(theta, phi), epsilon)
    channel = None
    for q, (theta, phi) in enumerate(bases):
        stage = MonitoringChannel(observable_on_qubit(n, q, theta, phi), epsilon)
        channel = stage if channel is None else ComposedChannel(stage, channel)
    return channel
