"""Circuit certification: extracted dilation channels against the channel algebra.

Each coupling and width is one stack of circuits, extracted in one pass,
and one stack of analytic ``product_monitor`` references built from the
same angle arrays as tensor products of one-qubit superoperators, with no
gate run; one array difference compares every member with its own
reference.  The CNOT intensity mapping is certified on its own, from the
damping factor of the extracted channel.  Each of these comparisons is
one check of an ``output.CheckReport``, held to its own bound.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import product_monitor
from .circuits import COUPLINGS, build_monitor_circuit, epsilon_of_strength, extract_channel
from .config import MAX_RESOLUTION, check_integer
from .output import CheckReport, check

CNOT_MAPPING_NOTE = (
    "CNOT coupling: certified mapping is eps = 1 - sin(theta_m), decreasing from 1 to 0 "
    "on [0, pi/2]; the often-quoted eps = 1 - (1/2) sin(theta) does NOT match the "
    "extracted channel (its range [1/2, 1] is inconsistent with the observed damping)."
)


def _random_bases(n, rng):
    return tuple((float(rng.uniform(0, math.pi)), float(rng.uniform(-math.pi, math.pi))) for _ in range(n))


def _extract_and_compare(coupling, members) -> tuple[np.ndarray, np.ndarray]:
    """Extract the circuits of ``members`` (theta_m, bases) as one stack, and
    build their analytic maps as one ``product_monitor`` stack.

    Returns the (N, d^2, d^2) extracted superoperators and each member's
    sup-norm gap to its own analytic map.
    """
    thetas = np.array([theta_m for theta_m, _ in members])
    per_qubit = np.array([bases for _, bases in members]).transpose(1, 2, 0)  # per qubit: (theta, phi) arrays
    extracted = extract_channel(build_monitor_circuit(per_qubit, thetas, coupling)).matrix
    reference = product_monitor(per_qubit, epsilon_of_strength(coupling, thetas)).matrix
    return extracted, np.abs(extracted - reference).max(axis=(1, 2))


def certify_circuits(resolution: int = 17, seed: int = 11, include_three_qubit: bool = True) -> CheckReport:
    """Compare extracted dilation channels against the analytic monitoring maps.

    Widths 1 and 2 are checked at every grid strength on the z basis, the
    pi/4 basis and a fresh random basis per strength, one circuit stack per
    coupling and width; the three-qubit smoke test checks one random basis
    at three strengths with CZ coupling.  The CNOT mapping reuses the
    one-qubit z-basis CNOT channels extracted here.
    """
    check_integer("resolution", resolution, 2, MAX_RESOLUTION)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    grid = [math.pi / 2 * k / (resolution - 1) for k in range(resolution)]
    checks = []
    z_basis = ((0.0, 0.0),)

    for coupling in COUPLINGS:
        for n in (1, 2):
            fixed = (z_basis * n, ((math.pi / 4, 0.0),) * n)
            members = [(theta_m, bases) for theta_m in grid for bases in (*fixed, _random_bases(n, rng))]
            extracted, gaps = _extract_and_compare(coupling, members)
            checks.append(check(f"n={n} {coupling}", "max<=", [gaps], 1e-10))
            if coupling == "CNOT" and n == 1:
                cnot_z = extracted[::3]  # the z-basis members, in grid order

    if include_three_qubit:
        bases = _random_bases(3, rng)
        gaps = _extract_and_compare("CZ", [(t, bases) for t in (0.0, 0.7, math.pi / 2)])[1]
        checks.append(check("n=3 CZ smoke", "max<=", [gaps], 1e-9))

    # independent CNOT intensity mapping from the extracted damping factor
    eps = 1.0 - cnot_z[:, 1, 1].real
    mapping_error = np.abs(eps - (1.0 - np.sin(grid)))
    checks += [
        check("CNOT mapping vs 1 - sin(theta_m)", "max<=", [mapping_error], 1e-10, note=CNOT_MAPPING_NOTE),
        check("CNOT mapping monotone (largest eps step)", "max<=", [np.diff(eps)], 1e-12),
    ]
    return CheckReport("circuit certification", {"resolution": resolution, "seed": seed}, tuple(checks))
