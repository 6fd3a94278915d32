"""Finite-shot single-qubit state estimation.

Mirrors a hardware pipeline that reads one qubit: rotate the x, y and z
Pauli axes onto the computational basis in one stacked product, optionally
push the three rows of outcome probabilities through the qubit's 2x2
readout ``confusion`` matrix, sample all three axes' counts in one draw, and
rebuild the state from the empirical Bloch vector with an eigenvalue
clamp-and-renormalize repair.  A shot count of zero is the infinite-shot
sentinel (exact expectations).

``tomography_errors`` repeats one state's reconstruction over independent
seeds and summarises the reconstruction errors (the ``tomo-sim`` command);
with readout noise it uses the default readout flip.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_SHOTS, ConfigError, check_seed, check_shots, is_integer, resolve_state
from .linalg import DimensionError
from .noise import DEFAULT_READOUT_FLIP, apply_readout_noise, confusion_from_flip, sample_shots
from .observables import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .states import DensityOperator

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_HADAMARD = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
_SDG = np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex)
# R sigma_axis R† = sigma_z, so diag(R rho R†) are the axis outcome probabilities (x, y, z).
_AXIS_ROTATIONS = np.stack((_HADAMARD, _HADAMARD @ _SDG, IDENTITY_2))
_AXIS_ROTATIONS_DAG = _AXIS_ROTATIONS.conj().transpose(0, 2, 1)


def estimate_pauli(rho: DensityOperator, shots: int, rng, confusion: np.ndarray | None = None) -> tuple[float, float, float]:
    """The empirical Bloch vector of a qubit state, from ``shots`` samples per Pauli axis.

    ``confusion`` is the column-stochastic 2x2 readout matrix of the measured
    qubit, or None for perfect readout.
    """
    if rho.dim != 2:
        raise DimensionError(f"single-qubit tomography needs dim 2, got {rho.dim}")
    check_shots(shots)
    rotated = _AXIS_ROTATIONS @ rho.matrix @ _AXIS_ROTATIONS_DAG
    p = np.clip(np.diagonal(rotated, axis1=1, axis2=2).real, 0.0, None)
    p = p / p.sum(axis=1, keepdims=True)
    if confusion is not None:
        p = apply_readout_noise(p, confusion)
    if shots == 0:
        means = p[:, 0] - p[:, 1]
    else:
        counts = sample_shots(p, shots, rng)
        means = (counts[:, 0] - counts[:, 1]) / shots
    return tuple(float(m) for m in means)


def reconstruct_state(bloch: tuple[float, float, float]) -> DensityOperator:
    """Bloch-vector reconstruction (I + r . sigma)/2 with spectrum repair.

    Shot noise can push the Bloch norm above 1; any negative eigenvalue is
    clamped to zero and the spectrum renormalized to unit trace.
    """
    rx, ry, rz = bloch
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
    check_shots(shots)
    if not is_integer(seeds) or seeds < 1:
        raise ConfigError(f"seeds: must be an integer of at least 1, got {seeds!r}")
    check_seed(seed)
    confusion = confusion_from_flip(DEFAULT_READOUT_FLIP) if noisy else None
    errors = []
    for k in range(seeds):
        rec = reconstruct_state(estimate_pauli(rho, shots, np.random.default_rng([seed, k]), confusion))
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
