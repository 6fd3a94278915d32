"""Irreality and reality of observables, and their variation under monitoring.

Irreality of X in state rho is the entropy cost of fully dephasing rho in
the X eigenbasis; reality is its complement against log2(d).  Monitoring X
with intensity epsilon raises the reality of X by S(monitored) - S(rho) and
changes the reality of any probe observable X' by the four-entropy
combination computed here.  All general-path quantities come from entropies
of explicitly constructed states; ``qubit_spectra`` gives the same qubit
spectra in closed Bloch-vector form, including circuit and readout noise,
as an independent cross-check oracle for every qubit sweep path.

Every measure and the case label take one configuration or a stack of N:
the observables may be stacks of N, the intensity an (N,) array and the
state an (N, d, d) ``DensityOperator`` stack, in any mix, and the result is
then the (N,) array of the members' values (a tuple of N labels for
``classify_case``).  A single configuration is evaluated by the same code
as a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import ComposedChannel, MonitoringChannel, dephase, monitor
from .linalg import common_batch, within_tol
from .observables import (
    ProjectiveObservable,
    commutes,
    is_mutually_unbiased,
    standard_mub_observables,
)
from .states import DensityOperator, von_neumann_entropy

FIXED_POINT_TOL = 1e-9


class CaseLabel(str, Enum):
    """Deterministic classification of a (monitored, probe, state) triple.

    Members are listed in the order ``classify_case`` tests them."""

    COMPATIBLE = "compatible"
    X_DIAGONAL = "X-diagonal"
    XPRIME_DIAGONAL = "Xprime-diagonal"
    TRIPLE_MU = "triple-MU"
    MU = "MU"
    GENERIC = "generic"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


@dataclass(frozen=True)
class RealityReport:
    """Entropies and reality variations in bits: floats for one monitoring
    configuration, (N,) arrays for a stack (a quantity of an unstacked state,
    such as ``entropy_initial``, stays a float)."""

    irreality_before: float
    reality_before: float
    delta_r_monitored: float
    delta_r_probe: float
    entropy_initial: float
    entropy_monitored: float
    entropy_probe: float
    entropy_probe_monitored: float


def irreality(x: ProjectiveObservable, rho: DensityOperator) -> float:
    """Entropy gained by fully dephasing rho in the eigenbasis of x, in bits (``dephase`` checks the operands)."""
    return von_neumann_entropy(dephase(x, rho)) - von_neumann_entropy(rho)


def reality(x: ProjectiveObservable, rho: DensityOperator) -> float:
    """log2(d) minus the irreality of x: how definite x already is in rho."""
    return math.log2(rho.dim) - irreality(x, rho)


def delta_reality_monitored(x: ProjectiveObservable, epsilon: float, rho: DensityOperator) -> float:
    """Reality gain of the monitored observable itself: S(monitored) - S(rho)."""
    mon = monitor(MonitoringChannel(x, epsilon), rho)
    return von_neumann_entropy(mon) - von_neumann_entropy(rho)


def delta_reality_other(
    xprime: ProjectiveObservable,
    x: ProjectiveObservable,
    epsilon: float,
    rho: DensityOperator,
) -> float:
    """Reality gain of a probe observable X' under monitoring of X.

    Evaluates S(dephase_X'(rho)) + S(monitored) - S(rho)
    - S(dephase_X'(monitored)) with sequentially constructed states.

    The sign is not fixed in general: monitoring along a tilted axis that is
    neither compatible with nor unbiased against X' can reduce the reality
    of X' (e.g. a z-definite state monitored along a pi/4 axis).  It is
    nonnegative for compatible nondegenerate pairs and for mutually
    unbiased pairs, and never positive when rho is already X'-diagonal.

    What holds for every pair is a lower bound by the full-strength gain:
    delta_reality_other(xprime, x, epsilon, rho) >= epsilon *
    delta_reality_other(xprime, x, 1.0, rho).  The irreality of X' is the
    relative entropy D(s || dephase_X'(s)), the monitored state is the
    mixture (1 - epsilon) rho + epsilon dephase_X(rho), and relative entropy
    is jointly convex.  With xprime == x this is the epsilon * irreality
    bound on delta_reality_monitored.  The probe, the monitoring channel and
    rho must share one dimension and, where stacked, one member count.
    """
    channel = MonitoringChannel(x, epsilon)
    common_batch({"probes": xprime, "monitoring channels": channel, "states": rho})
    mon = monitor(channel, rho)
    probe = dephase(xprime, rho)
    probe_mon = dephase(xprime, mon)
    return (
        von_neumann_entropy(probe)
        + von_neumann_entropy(mon)
        - von_neumann_entropy(rho)
        - von_neumann_entropy(probe_mon)
    )


def _is_fixed_point(x: ProjectiveObservable, rho: DensityOperator):
    """Whether dephasing in the eigenbasis of x leaves rho unchanged, per member of a stack."""
    return within_tol(dephase(x, rho).matrix - rho.matrix, FIXED_POINT_TOL)


def classify_case(
    x: ProjectiveObservable, xprime: ProjectiveObservable, rho: DensityOperator
) -> CaseLabel | tuple[CaseLabel, ...]:
    """Label the configuration by the first matching structural test.

    Order: commuting pair, state diagonal in X, state diagonal in X', then
    for mutually unbiased pairs a search over the stored MU set
    (``standard_mub_observables``; none in some dimensions) for a third basis
    that is MU with both observables and leaves rho invariant, which upgrades
    MU to triple-MU.  Anything else is generic.  The MU tests need both
    observables nondegenerate, which holds for all members of a stack or none.

    One configuration gives a ``CaseLabel``; a stack on any argument gives a
    tuple of N labels, each member taking its first true test.  The stacks
    must have one member count, and all three arguments one dimension.
    """
    common_batch({"monitored observables": x, "probes": xprime, "states": rho})
    mu = triple = False
    if x.is_nondegenerate and xprime.is_nondegenerate:
        mu = is_mutually_unbiased(x, xprime)
        triple = mu & np.any([
            is_mutually_unbiased(cand, x) & is_mutually_unbiased(cand, xprime) & _is_fixed_point(cand, rho)
            for cand in standard_mub_observables(rho.dim)
        ], axis=0)
    tests = np.broadcast_arrays(
        commutes(x, xprime), _is_fixed_point(x, rho), _is_fixed_point(xprime, rho), triple, mu, True
    )
    labels = tuple(CaseLabel)
    first = np.argmax(np.stack(tests, axis=-1), axis=-1)
    return labels[first] if first.ndim == 0 else tuple(labels[k] for k in first)


def reality_report(
    x: ProjectiveObservable,
    xprime: ProjectiveObservable,
    epsilon: float,
    rho: DensityOperator,
) -> RealityReport:
    """Full entropy bookkeeping for one (X, X', epsilon, rho) configuration or a stack.

    The chained state is produced through the channel-composition route
    (full-strength monitoring of X' after monitoring of X), which keeps it an
    independent consistency check against the sequential route used by
    :func:`delta_reality_other`, and checks its operands as that function does.
    """
    monitor_channel = MonitoringChannel(x, epsilon)
    common_batch({"probes": xprime, "monitoring channels": monitor_channel, "states": rho})
    mon = monitor(monitor_channel, rho)
    probe = dephase(xprime, rho)
    chained = ComposedChannel(MonitoringChannel(xprime, 1.0), monitor_channel)
    probe_mon = DensityOperator(chained.apply_matrix(rho.matrix), validate=False)

    s_rho = von_neumann_entropy(rho)
    s_mon = von_neumann_entropy(mon)
    s_probe = von_neumann_entropy(probe)
    s_probe_mon = von_neumann_entropy(probe_mon)

    irr = von_neumann_entropy(dephase(x, rho)) - s_rho
    return RealityReport(
        irreality_before=irr,
        reality_before=math.log2(rho.dim) - irr,
        delta_r_monitored=s_mon - s_rho,
        delta_r_probe=s_probe + s_mon - s_rho - s_probe_mon,
        entropy_initial=s_rho,
        entropy_monitored=s_mon,
        entropy_probe=s_probe,
        entropy_probe_monitored=s_probe_mon,
    )


def qubit_spectra(bloch, monitor_axis, probe_axis, epsilon, depolarizing=0.0, readout_flip=0.0) -> np.ndarray:
    """Closed-form larger eigenvalues (1 + |r|)/2 of a qubit sweep's four states.

    ``bloch`` is the Bloch vector r of rho and the axes are unit Bloch
    vectors n (monitored) and m (probe); each is a 3-vector or an (N, 3)
    stack, broadcast with ``epsilon``.  Monitoring along n maps r to
    r - eps (r - (r.n) n), so eps = 0 leaves r unchanged, and full dephasing
    along m maps r to (r.m) m.  Each circuit pass shrinks the vector by
    1 - ``depolarizing`` and readout shrinks every vector by
    1 - 2 ``readout_flip``.  Returns the (..., 4) larger eigenvalues of
    (rho, monitored, probe, probe-after-monitor), in that order.

    This is plain vector algebra, independent of the eigensolver, channel
    and circuit code, so it serves as their cross-check oracle.
    """
    r, n, m = (np.asarray(v, dtype=float) for v in (bloch, monitor_axis, probe_axis))
    eps = np.asarray(epsilon, dtype=float)[..., None]
    keep = 1.0 - depolarizing

    def along(v, axis):
        return np.sum(v * axis, axis=-1, keepdims=True) * axis

    mon = keep * (r - eps * (r - along(r, n)))
    vectors = np.stack(np.broadcast_arrays(r, mon, keep * along(r, m), keep * along(mon, m)), axis=-2)
    return 0.5 * (1.0 + np.linalg.norm(vectors * (1.0 - 2.0 * readout_flip), axis=-1))
