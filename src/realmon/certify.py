"""Circuit certification: extracted dilation channels against the channel algebra.

The CNOT intensity mapping is certified on its own, from the damping factor
of the extracted channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import product_monitor, to_superoperator
from .circuits import COUPLINGS, build_monitor_circuit, epsilon_of_strength, extract_channel
from .config import ConfigError, check_seed

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


def _deviation(coupling, theta_m, bases) -> float:
    """Sup-norm gap between one circuit's extracted channel and its analytic map."""
    extracted = extract_channel(build_monitor_circuit(bases, theta_m, coupling))
    reference = to_superoperator(product_monitor(bases, epsilon_of_strength(coupling, theta_m)))
    return float(np.abs(extracted.matrix - reference.matrix).max())


def certify_circuits(resolution: int = 17, seed: int = 11, include_three_qubit: bool = True) -> CertificationReport:
    """Compare extracted dilation channels against the analytic monitoring maps.

    Widths 1 and 2 are checked at every grid strength on the z basis, the
    pi/4 basis and a fresh random basis per strength; the three-qubit smoke
    test checks one random basis at three strengths with CZ coupling.
    """
    if resolution < 2:
        raise ConfigError(f"resolution: must be at least 2, got {resolution}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    grid = [math.pi / 2 * k / (resolution - 1) for k in range(resolution)]
    deviations: dict[str, float] = {}

    for coupling in COUPLINGS:
        for n in (1, 2):
            fixed = (((0.0, 0.0),) * n, ((math.pi / 4, 0.0),) * n)
            deviations[f"n={n} {coupling}"] = max(
                _deviation(coupling, theta_m, bases)
                for theta_m in grid
                for bases in (*fixed, _random_bases(n, rng))
            )

    if include_three_qubit:
        bases = _random_bases(3, rng)
        deviations["n=3 CZ smoke"] = max(_deviation("CZ", theta_m, bases) for theta_m in (0.0, 0.7, math.pi / 2))

    # independent CNOT intensity mapping from the extracted damping factor
    worst_map = 0.0
    eps_values = []
    for theta_m in grid:
        circ = build_monitor_circuit([(0.0, 0.0)], theta_m, "CNOT")
        sup = extract_channel(circ).matrix
        eps_extracted = 1.0 - float(sup[1, 1].real)
        eps_values.append(eps_extracted)
        worst_map = max(worst_map, abs(eps_extracted - (1.0 - math.sin(theta_m))))
    monotone = all(eps_values[k + 1] <= eps_values[k] + 1e-12 for k in range(len(eps_values) - 1))

    return CertificationReport(
        resolution=resolution,
        seed=seed,
        deviations=deviations,
        cnot_mapping_max_error=worst_map,
        cnot_monotone=monotone,
        notes=(CNOT_MAPPING_NOTE,),
    )
