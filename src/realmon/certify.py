"""Circuit certification: extracted dilation channels against the channel algebra.

Each coupling and width is one stack of circuits, extracted in one pass,
and one stack of analytic ``product_monitor`` references built from the
same angle arrays; one array difference compares every member with its
own reference.  The CNOT intensity mapping is certified on its own, from
the damping factor of the extracted channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import product_monitor, to_superoperator
from .circuits import COUPLINGS, build_monitor_circuit, epsilon_of_strength, extract_channel
from .config import MAX_RESOLUTION, ConfigError, check_seed, is_integer

CNOT_MAPPING_NOTE = (
    "CNOT coupling: certified mapping is eps = 1 - sin(theta_m), decreasing from 1 to 0 "
    "on [0, pi/2]; the often-quoted eps = 1 - (1/2) sin(theta) does NOT match the "
    "extracted channel (its range [1/2, 1] is inconsistent with the observed damping)."
)


@dataclass(frozen=True)
class CertificationReport:
    resolution: int
    seed: int
    deviations: dict  # label -> max sup-norm deviation
    cnot_mapping_max_error: float
    cnot_monotone: bool
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        limits = {"n=3": 1e-9}
        for label, dev in self.deviations.items():
            limit = limits.get(label.split()[0], 1e-10)
            if dev > limit:
                return False
        return self.cnot_mapping_max_error <= 1e-10 and self.cnot_monotone

    def render_text(self) -> str:
        lines = [f"circuit certification: resolution={self.resolution} seed={self.seed}"]
        for label, dev in sorted(self.deviations.items()):
            lines.append(f"  {label}: max superoperator deviation {dev:.3e}")
        lines.append(
            f"  CNOT mapping vs 1 - sin(theta_m): max error {self.cnot_mapping_max_error:.3e}, "
            f"monotone={self.cnot_monotone}"
        )
        for note in self.notes:
            lines.append("  note: " + note)
        lines.append("result: " + ("certified" if self.ok else "DEVIATION FOUND"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "seed": self.seed,
            "ok": self.ok,
            "deviations": dict(self.deviations),
            "cnot_mapping_max_error": self.cnot_mapping_max_error,
            "cnot_monotone": self.cnot_monotone,
            "notes": list(self.notes),
        }


def _random_bases(n, rng):
    return tuple((float(rng.uniform(0, math.pi)), float(rng.uniform(-math.pi, math.pi))) for _ in range(n))


def _extract_and_compare(coupling, members) -> tuple[np.ndarray, float]:
    """Extract the circuits of ``members`` (theta_m, bases) as one stack, and
    build their analytic maps as one ``product_monitor`` stack.

    Returns the (N, d^2, d^2) extracted superoperators and the largest
    sup-norm gap of a member to its own analytic map.
    """
    thetas = np.array([theta_m for theta_m, _ in members])
    per_qubit = np.array([bases for _, bases in members]).transpose(1, 2, 0)  # per qubit: (theta, phi) arrays
    extracted = extract_channel(build_monitor_circuit(per_qubit, thetas, coupling)).matrix
    reference = to_superoperator(product_monitor(per_qubit, epsilon_of_strength(coupling, thetas))).matrix
    return extracted, float(np.abs(extracted - reference).max())


def certify_circuits(resolution: int = 17, seed: int = 11, include_three_qubit: bool = True) -> CertificationReport:
    """Compare extracted dilation channels against the analytic monitoring maps.

    Widths 1 and 2 are checked at every grid strength on the z basis, the
    pi/4 basis and a fresh random basis per strength, one circuit stack per
    coupling and width; the three-qubit smoke test checks one random basis
    at three strengths with CZ coupling.  The CNOT mapping reuses the
    one-qubit z-basis CNOT channels extracted here.
    """
    if not (is_integer(resolution) and 2 <= resolution <= MAX_RESOLUTION):
        raise ConfigError(f"resolution: must be an integer in [2, {MAX_RESOLUTION}], got {resolution!r}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    grid = [math.pi / 2 * k / (resolution - 1) for k in range(resolution)]
    deviations: dict[str, float] = {}
    z_basis = ((0.0, 0.0),)

    for coupling in COUPLINGS:
        for n in (1, 2):
            fixed = (z_basis * n, ((math.pi / 4, 0.0),) * n)
            members = [(theta_m, bases) for theta_m in grid for bases in (*fixed, _random_bases(n, rng))]
            extracted, deviations[f"n={n} {coupling}"] = _extract_and_compare(coupling, members)
            if coupling == "CNOT" and n == 1:
                cnot_z = extracted[::3]  # the z-basis members, in grid order

    if include_three_qubit:
        bases = _random_bases(3, rng)
        deviations["n=3 CZ smoke"] = _extract_and_compare("CZ", [(t, bases) for t in (0.0, 0.7, math.pi / 2)])[1]

    # independent CNOT intensity mapping from the extracted damping factor
    eps_values = [1.0 - float(sup[1, 1].real) for sup in cnot_z]
    worst_map = max(abs(eps - (1.0 - math.sin(theta_m))) for eps, theta_m in zip(eps_values, grid))
    monotone = all(eps_values[k + 1] <= eps_values[k] + 1e-12 for k in range(len(eps_values) - 1))

    return CertificationReport(
        resolution=resolution,
        seed=seed,
        deviations=deviations,
        cnot_mapping_max_error=worst_map,
        cnot_monotone=monotone,
        notes=(CNOT_MAPPING_NOTE,),
    )
