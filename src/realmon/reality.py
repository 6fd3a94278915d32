"""Irreality and reality of observables, and their variation under monitoring.

Irreality of X in state rho is the entropy cost of fully dephasing rho in
the X eigenbasis; reality is its complement against log2(d).  Monitoring X
with intensity epsilon raises the reality of X by S(monitored) - S(rho) and
changes the reality of any probe observable X' by the four-entropy
combination computed here.  All general-path quantities come from entropies
of explicitly constructed states; the closed-form qubit spectra are kept as
independent cross-check oracles.

Every measure and the case label take one configuration or a stack of N:
the observables may be stacks of N, the intensity an (N,) array and the
state an (N, d, d) ``DensityOperator`` stack, in any mix, and the result is
then the (N,) array of the members' values (a tuple of N labels for
``classify_case``).  A single configuration is evaluated by the same code
as a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channels import ComposedChannel, DephasingChannel, MonitoringChannel, dephase, monitor
from .linalg import DimensionError, within_tol
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
    configuration: tuple = field(repr=False, compare=False)

    @property
    def case_label(self) -> CaseLabel | tuple[CaseLabel, ...]:
        """:func:`classify_case` of the configuration (a tuple of N labels for a stack), computed on access."""
        return classify_case(*self.configuration)


def irreality(x: ProjectiveObservable, rho: DensityOperator) -> float:
    """Entropy gained by fully dephasing rho in the eigenbasis of x, in bits."""
    if x.dim != rho.dim:
        raise DimensionError(f"observable dim {x.dim} does not match state dim {rho.dim}")
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


def _is_fixed_point(x: ProjectiveObservable, rho: DensityOperator):
    """Whether dephasing in the eigenbasis of x leaves rho unchanged, per member of a stack."""
    return within_tol(DephasingChannel(x).apply_matrix(rho.matrix) - rho.matrix, FIXED_POINT_TOL)


def classify_case(
    x: ProjectiveObservable, xprime: ProjectiveObservable, rho: DensityOperator
) -> CaseLabel | tuple[CaseLabel, ...]:
    """Label the configuration by the first matching structural test.

    Order: commuting pair, state diagonal in X, state diagonal in X', then
    for mutually unbiased pairs a search over the stored MU sets (d=2: Pauli
    triple; d=3: Fourier-type quadruple) for a third basis that is MU with
    both observables and leaves rho invariant, which upgrades MU to
    triple-MU.  Anything else is generic.  The MU tests need both
    observables nondegenerate, which holds for all members of a stack or none.

    One configuration gives a ``CaseLabel``; a stack on any argument gives a
    tuple of N labels, each member taking its first true test.
    """
    if x.dim != xprime.dim or x.dim != rho.dim:
        raise DimensionError("observables and state must share one dimension")
    mu = triple = False
    if x.is_nondegenerate and xprime.is_nondegenerate:
        mu = is_mutually_unbiased(x, xprime)
        if rho.dim in (2, 3):
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
