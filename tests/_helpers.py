"""Helpers shared by several test modules.

The acceptance checks that a mutation test also runs live here, so that both
tests run the same check.  They look ``realmon.reality`` functions up at call
time, so a fault patched into that module reaches them.
"""

import math

import numpy as np

import realmon.reality as reality
from realmon.observables import ProjectiveObservable, observable_from_axis, pauli_observable
from realmon.states import DensityOperator, entropy_of_probabilities

SZ = pauli_observable("z")
PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex))


def maximally_mixed(d):
    """The maximally mixed state I/d."""
    return DensityOperator(np.eye(d, dtype=complex) / d, validate=False)


def members(stack) -> list:
    """The single observables or states of a stack, in order."""
    if isinstance(stack, DensityOperator):
        return [DensityOperator(m, validate=False) for m in stack.matrix]
    return [ProjectiveObservable(v, p, validate=False) for v, p in zip(stack.eigenvalues, stack.projectors)]


CNOT_MAPPING_CHECK = "CNOT mapping vs 1 - sin(theta_m)"
CNOT_MONOTONE_CHECK = "CNOT mapping monotone (largest eps step)"


def named_check(report, name) -> dict:
    """The check called ``name`` in a ``CheckReport`` or in its JSON dict, as a dict."""
    data = report if isinstance(report, dict) else report.to_dict()
    return next(c for c in data["checks"] if c["name"] == name)


def count_negative(values):
    return int(np.count_nonzero(np.asarray(values) < -1e-9))


def binary_entropy(p):
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def probe_gain_sign_check(probe_gains):
    """Criterion 2c: the probe gain has no fixed sign.

    Passes when some of ``probe_gains`` are negative and a z-definite state
    monitored along the pi/4 axis at full strength loses exactly
    h(cos^2(pi/8)) - h(1/4) bits of z reality (within 1e-12).  Returns
    (passed, negatives, counterexample, closed-form gap).
    """
    negatives = count_negative(probe_gains)
    zero = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
    counterexample = reality.delta_reality_other(SZ, observable_from_axis(math.pi / 4, 0.0), 1.0, zero)
    closed_form = binary_entropy(math.cos(math.pi / 8) ** 2) - binary_entropy(0.25)
    gap = abs(counterexample - closed_form)
    return negatives > 0 and gap <= 1e-12, negatives, counterexample, gap


def scenario1_grid(thetas, epsilons):
    """Criterion 4: plus state, z monitor, probe axis theta, on a (theta, eps) grid.

    Returns the largest gap between the report's three entropies and the
    entropies of ``scenario1_eigenvalues``' closed-form spectra, and every
    (theta, eps, report).
    """
    worst = 0.0
    reports = []
    for theta in thetas:
        probe_obs = observable_from_axis(theta, 0.0)
        for eps in epsilons:
            rep = reality.reality_report(SZ, probe_obs, eps, PLUS)
            spectra = reality.scenario1_eigenvalues(theta, eps)
            worst = max(
                worst,
                abs(rep.entropy_monitored - entropy_of_probabilities(spectra.monitored)),
                abs(rep.entropy_probe - entropy_of_probabilities(spectra.probe)),
                abs(rep.entropy_probe_monitored - entropy_of_probabilities(spectra.probe_monitored)),
            )
            reports.append((theta, eps, rep))
    return worst, reports
