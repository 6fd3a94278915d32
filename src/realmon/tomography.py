"""Finite-shot single-qubit state estimation.

Mirrors a hardware pipeline: rotate each Pauli axis onto the computational
basis, optionally push the outcome probabilities through a readout
confusion matrix, sample counts, and rebuild the state from the empirical
Bloch vector with an eigenvalue clamp-and-renormalize repair.  A shot count
of zero is the infinite-shot sentinel (exact expectations, zero standard
error).

``tomography_errors`` repeats one state's reconstruction over independent
seeds and summarises the reconstruction errors (the ``tomo-sim`` command).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_SHOTS, ConfigError, check_seed, resolve_state
from .linalg import DimensionError
from .noise import NoiseModel, apply_readout_noise, default_noise_model, sample_shots
from .observables import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .states import DensityOperator

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_HADAMARD = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
_SDG = np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex)
# R sigma_axis R† = sigma_z, so diag(R rho R†) are the axis outcome probabilities.
_AXIS_ROTATIONS = {"x": _HADAMARD, "y": _HADAMARD @ _SDG, "z": IDENTITY_2}


@dataclass(frozen=True)
class PauliEstimates:
    """Empirical Bloch components with per-axis shot counts and standard errors."""

    means: tuple[float, float, float]
    shots: int
    stderrs: tuple[float, float, float]


def _axis_probabilities(rho: DensityOperator, axis: str) -> np.ndarray:
    r = _AXIS_ROTATIONS[axis]
    rotated = r @ rho.matrix @ r.conj().T
    p = np.clip(np.diagonal(rotated).real, 0.0, None)
    return p / p.sum()


def estimate_pauli(
    rho: DensityOperator,
    shots: int,
    rng,
    noise: NoiseModel | None = None,
    qubit: int = 0,
) -> PauliEstimates:
    """Measure each Pauli axis of a qubit state with ``shots`` samples per axis."""
    if rho.dim != 2:
        raise DimensionError(f"single-qubit tomography needs dim 2, got {rho.dim}")
    if shots < 0:
        raise ValueError(f"shot count must be nonnegative, got {shots}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    means = []
    errs = []
    for axis in ("x", "y", "z"):
        p = _axis_probabilities(rho, axis)
        if noise is not None:
            p = apply_readout_noise(p, [noise.confusion_for(qubit)])
        if shots == 0:
            mean = float(p[0] - p[1])
            err = 0.0
        else:
            counts = sample_shots(p, shots, rng)
            mean = float(counts[0] - counts[1]) / shots
            err = math.sqrt(max(0.0, 1.0 - mean * mean) / shots)
        means.append(mean)
        errs.append(err)
    return PauliEstimates(tuple(means), shots, tuple(errs))


def reconstruct_state(est: PauliEstimates) -> DensityOperator:
    """Bloch-vector reconstruction (I + r . sigma)/2 with spectrum repair.

    Shot noise can push the Bloch norm above 1; any negative eigenvalue is
    clamped to zero and the spectrum renormalized to unit trace.
    """
    rx, ry, rz = est.means
    rho = DensityOperator(0.5 * (IDENTITY_2 + rx * SIGMA_X + ry * SIGMA_Y + rz * SIGMA_Z), validate=False)
    w, v = rho.eigensystem()  # kept on rho, so its entropy needs no second solve
    if w[0] < 0.0:
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        rho = DensityOperator((v * w) @ v.conj().T, validate=False)
    return rho


def tomography_errors(state: str, shots: int, seeds: int, seed: int, noisy: bool) -> dict:
    """Reconstruction errors of a preset state over ``seeds`` independent repetitions.

    Repetition k samples from the generator seeded ``[seed, k]``; its error
    is the largest entry of |reconstructed - true|.  Returns the per-seed
    ``errors`` and a ``summary`` with their median (upper median), nearest-rank
    90th percentile and maximum.
    """
    rho = resolve_state(state)
    if shots < 0:
        raise ConfigError(f"shots: must be nonnegative, got {shots}")
    if seeds < 1:
        raise ConfigError(f"seeds: must be at least 1, got {seeds}")
    check_seed(seed)
    noise = default_noise_model(depolarizing_rate=0.0) if noisy else None
    errors = []
    for k in range(seeds):
        rec = reconstruct_state(estimate_pauli(rho, shots, np.random.default_rng([seed, k]), noise=noise, qubit=0))
        errors.append(float(np.abs(rec.matrix - rho.matrix).max()))
    ranked = sorted(errors)
    summary = {
        "state": state,
        "shots": shots,
        "shots_note": f"default shots per axis is {DEFAULT_SHOTS}; this run used {shots}",
        "seeds": seeds,
        "readout_noise": bool(noisy),
        "median_error": ranked[seeds // 2],
        "p90_error": ranked[(9 * seeds + 9) // 10 - 1],  # nearest rank: ceil(0.9 n)-th smallest
        "max_error": ranked[-1],
    }
    return {"summary": summary, "errors": errors}
