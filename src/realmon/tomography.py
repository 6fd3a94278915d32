"""Finite-shot single-qubit state estimation.

Mirrors a hardware pipeline that reads one qubit: rotate the x, y and z
Pauli axes onto the computational basis in one stacked product, optionally
push the three rows of outcome probabilities through the qubit's 2x2
readout ``confusion`` matrix, sample all three axes' counts in one draw, and
rebuild the state from the empirical Bloch vector with an eigenvalue
clamp-and-renormalize repair.  A shot count of zero is the infinite-shot
sentinel (exact expectations).  Both steps take one state or a stack, with
one generator per member.

``tomography_errors`` reconstructs one state from independent seeds, in
stacks of at most ``SEED_CHUNK`` seeds so that memory stays flat in the
seed count, and summarises the reconstruction errors (the ``tomo-sim``
command); with readout noise it uses the default readout flip.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_SHOTS, MAX_SEEDS, ConfigError, check_seed, check_shots, is_integer, resolve_state
from .linalg import DimensionError, dagger
from .noise import DEFAULT_READOUT_FLIP, apply_readout_noise, confusion_from_flip, sample_shots
from .observables import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .states import DensityOperator, stack_states

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_HADAMARD = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
_SDG = np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex)
# R sigma_axis R† = sigma_z, so diag(R rho R†) are the axis outcome probabilities (x, y, z).
_AXIS_ROTATIONS = np.stack((_HADAMARD, _HADAMARD @ _SDG, IDENTITY_2))
_AXIS_ROTATIONS_DAG = _AXIS_ROTATIONS.conj().transpose(0, 2, 1)
SEED_CHUNK = 4096  # seeds per stack in tomography_errors


def estimate_pauli(rho: DensityOperator, shots: int, rng, confusion: np.ndarray | None = None):
    """The empirical Bloch vector of a qubit state, from ``shots`` samples per Pauli axis.

    One state gives an ``(x, y, z)`` tuple drawn from ``rng``; an (N, 2, 2)
    stack gives an (N, 3) array and takes N generators or seeds (a seed
    becomes its generator when it samples), row k equal to the single call on
    member k with the k-th.  ``confusion`` is the measured qubit's
    column-stochastic 2x2 readout matrix, or None for perfect readout.
    """
    if rho.dim != 2:
        raise DimensionError(f"single-qubit tomography needs dim 2, got {rho.dim}")
    check_shots(shots)
    rotated = _AXIS_ROTATIONS @ rho.matrix.reshape(-1, 1, 2, 2) @ _AXIS_ROTATIONS_DAG
    p = np.clip(np.diagonal(rotated, axis1=-2, axis2=-1).real, 0.0, None)
    p = p / p.sum(axis=-1, keepdims=True)
    if confusion is not None:
        p = apply_readout_noise(p, confusion)
    if shots == 0:
        means = p[..., 0] - p[..., 1]
    else:
        counts = sample_shots(p, shots, [rng] if rho.batch is None else rng)
        means = (counts[..., 0] - counts[..., 1]) / shots
    return tuple(float(m) for m in means[0]) if rho.batch is None else means


def reconstruct_state(bloch) -> DensityOperator:
    """Bloch-vector reconstruction (I + r . sigma)/2 with spectrum repair.

    An ``(x, y, z)`` vector gives one state, an (N, 3) array a stack.  Shot
    noise can push the Bloch norm above 1; a member's negative eigenvalue is
    then clamped to zero and its spectrum renormalized to unit trace.
    """
    rx, ry, rz = np.moveaxis(np.asarray(bloch, dtype=float), -1, 0)[..., None, None]
    rho = DensityOperator(0.5 * (IDENTITY_2 + rx * SIGMA_X + ry * SIGMA_Y + rz * SIGMA_Z), validate=False)
    w, v = rho.eigensystem()  # kept on rho, so its entropy needs no second solve
    negative = w[..., 0] < 0.0
    if negative.any():
        w = np.clip(w, 0.0, None)
        w = w / w.sum(axis=-1, keepdims=True)
        repaired = (v * w[..., None, :]) @ dagger(v)
        rho = DensityOperator(np.where(negative[..., None, None], repaired, rho.matrix), validate=False)
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
    if not (is_integer(seeds) and 1 <= seeds <= MAX_SEEDS):
        raise ConfigError(f"seeds: must be an integer in [1, {MAX_SEEDS}], got {seeds!r}")
    check_seed(seed)
    confusion = confusion_from_flip(DEFAULT_READOUT_FLIP) if noisy else None
    errors = []
    for start in range(0, seeds, SEED_CHUNK):
        streams = [[seed, k] for k in range(start, min(start + SEED_CHUNK, seeds))]
        rec = reconstruct_state(estimate_pauli(stack_states([rho] * len(streams)), shots, streams, confusion))
        errors += np.abs(rec.matrix - rho.matrix).max(axis=(1, 2)).tolist()
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
