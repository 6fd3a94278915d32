"""Irreality and reality of observables, and their variation under monitoring.

Irreality of X in state rho is the entropy cost of fully dephasing rho in
the X eigenbasis; reality is its complement against log2(d).  Monitoring X
with intensity epsilon raises the reality of X by S(monitored) - S(rho) and
changes the reality of any probe observable X' by the four-entropy
combination computed here.  All general-path quantities come from entropies
of explicitly constructed states; the closed-form qubit spectra are kept as
independent cross-check oracles.

Every measure takes one configuration or a stack of N: the observables may
be ``ObservableStack``s, the intensity an (N,) array and the state an
(N, d, d) ``DensityOperator`` stack, and the result is then the (N,) array
of the members' values.  A single configuration is evaluated by the same
code as a stack of one.  Case labels are per configuration and are computed
only where they are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channels import ComposedChannel, DephasingChannel, MonitoringChannel, dephase, monitor
from .linalg import DimensionError
from .observables import (
    ObservableStack,
    ProjectiveObservable,
    commutes,
    is_mutually_unbiased,
    standard_mub_observables,
)
from .states import DensityOperator, von_neumann_entropy

FIXED_POINT_TOL = 1e-9


class CaseLabel(str, Enum):
    """Deterministic classification of a (monitored, probe, state) triple."""

    COMPATIBLE = "compatible"
    X_DIAGONAL = "X-diagonal"
    XPRIME_DIAGONAL = "Xprime-diagonal"
    MU = "MU"
    TRIPLE_MU = "triple-MU"
    GENERIC = "generic"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


Observable = ProjectiveObservable | ObservableStack


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
    configuration: tuple = field(repr=False, compare=False)

    @property
    def case_label(self) -> CaseLabel:
        """:func:`classify_case` of a single configuration, computed on access."""
        return classify_case(*self.configuration)


def irreality(x: Observable, rho: DensityOperator) -> float:
    """Entropy gained by fully dephasing rho in the eigenbasis of x, in bits."""
    if x.dim != rho.dim:
        raise DimensionError(f"observable dim {x.dim} does not match state dim {rho.dim}")
    return von_neumann_entropy(dephase(x, rho)) - von_neumann_entropy(rho)


def reality(x: Observable, rho: DensityOperator) -> float:
    """log2(d) minus the irreality of x: how definite x already is in rho."""
    return math.log2(rho.dim) - irreality(x, rho)


def delta_reality_monitored(x: Observable, epsilon: float, rho: DensityOperator) -> float:
    """Reality gain of the monitored observable itself: S(monitored) - S(rho)."""
    mon = monitor(MonitoringChannel(x, epsilon), rho)
    return von_neumann_entropy(mon) - von_neumann_entropy(rho)


def delta_reality_other(
    xprime: Observable,
    x: Observable,
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
    bound on delta_reality_monitored.
    """
    if xprime.dim != x.dim:
        raise DimensionError(f"observable dims differ: {xprime.dim} vs {x.dim}")
    mon = monitor(MonitoringChannel(x, epsilon), rho)
    probe = dephase(xprime, rho)
    probe_mon = dephase(xprime, mon)
    return (
        von_neumann_entropy(probe)
        + von_neumann_entropy(mon)
        - von_neumann_entropy(rho)
        - von_neumann_entropy(probe_mon)
    )


def _is_fixed_point(channel, rho: DensityOperator) -> bool:
    return bool(np.abs(channel.apply_matrix(rho.matrix) - rho.matrix).max() <= FIXED_POINT_TOL)


def classify_case(
    x: ProjectiveObservable, xprime: ProjectiveObservable, rho: DensityOperator
) -> CaseLabel:
    """Label the configuration by the first matching structural test.

    Order: commuting pair, state diagonal in X, state diagonal in X', then
    for mutually unbiased pairs a search over the stored MU sets (d=2: Pauli
    triple; d=3: Fourier-type quadruple) for a third basis that is MU with
    both observables and leaves rho invariant, which upgrades MU to
    triple-MU.  Anything else is generic.  Labels one configuration; the
    members of a stack are classified one at a time.
    """
    if isinstance(x, ObservableStack) or isinstance(xprime, ObservableStack) or rho.batch is not None:
        raise DimensionError("classify_case labels one configuration, not a stack")
    if x.dim != xprime.dim or x.dim != rho.dim:
        raise DimensionError("observables and state must share one dimension")
    if commutes(x, xprime):
        return CaseLabel.COMPATIBLE
    if _is_fixed_point(DephasingChannel(x), rho):
        return CaseLabel.X_DIAGONAL
    if _is_fixed_point(DephasingChannel(xprime), rho):
        return CaseLabel.XPRIME_DIAGONAL
    if x.is_nondegenerate and xprime.is_nondegenerate and is_mutually_unbiased(x, xprime):
        if rho.dim in (2, 3):
            for cand in standard_mub_observables(rho.dim):
                if (
                    is_mutually_unbiased(cand, x)
                    and is_mutually_unbiased(cand, xprime)
                    and _is_fixed_point(DephasingChannel(cand), rho)
                ):
                    return CaseLabel.TRIPLE_MU
        return CaseLabel.MU
    return CaseLabel.GENERIC


def reality_report(
    x: Observable,
    xprime: Observable,
    epsilon: float,
    rho: DensityOperator,
) -> RealityReport:
    """Full entropy bookkeeping for one (X, X', epsilon, rho) configuration or a stack.

    The chained state is produced through the channel-composition route,
    which keeps it an independent consistency check against the sequential
    route used by :func:`delta_reality_other`.
    """
    monitor_channel = MonitoringChannel(x, epsilon)
    mon = monitor(monitor_channel, rho)
    probe = dephase(xprime, rho)
    chained = ComposedChannel(DephasingChannel(xprime), monitor_channel)
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
        configuration=(x, xprime, rho),
    )


@dataclass(frozen=True)
class ScenarioOneSpectra:
    """Closed-form spectra for the plus-state, z-monitor, tilted-probe setup.

    Pairs are (larger, smaller) eigenvalues of the monitored state, the
    dephased-probe state, and the probe-after-monitoring state.
    """

    monitored: tuple[float, float]
    probe: tuple[float, float]
    probe_monitored: tuple[float, float]


def scenario1_eigenvalues(theta: float, epsilon: float) -> ScenarioOneSpectra:
    """Spectra for rho = |+><+|, monitored axis z, probe axis theta (phi = 0)."""
    lam_x = 0.5 * (1.0 + (1.0 - epsilon))
    lam_xp = 0.5 * (1.0 + math.sin(theta))
    lam_xxp = 0.5 * (1.0 + (1.0 - epsilon) * math.sin(theta))
    return ScenarioOneSpectra(
        monitored=(lam_x, 1.0 - lam_x),
        probe=(lam_xp, 1.0 - lam_xp),
        probe_monitored=(lam_xxp, 1.0 - lam_xxp),
    )


def scenario2_eigenvalues(theta: float, epsilon: float) -> tuple[float, float]:
    """Monitored-state spectrum for rho = |+><+|, monitored axis theta, probe z.

    lam_pm = (1 +- sqrt(eps^2 sin^2 cos^2 + (1 - eps cos^2)^2)) / 2.
    """
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    radical = math.sqrt(
        epsilon * epsilon * sin_t * sin_t * cos_t * cos_t
        + (1.0 - epsilon * cos_t * cos_t) ** 2
    )
    return (0.5 * (1.0 + radical), 0.5 * (1.0 - radical))
