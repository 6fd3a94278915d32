"""Finite-shot single-qubit state estimation.

Mirrors a hardware pipeline that reads one qubit: rotate the x, y and z
Pauli axes onto the computational basis in one stacked product, optionally
push the three rows of outcome probabilities through the qubit's 2x2
readout ``confusion`` matrix, sample all three axes' counts in one draw, and
rebuild the state from the empirical Bloch vector with an eigenvalue
clamp-and-renormalize repair.  A shot count of zero is the infinite-shot
sentinel (exact expectations).  Both steps take one state or a stack; a
stack draws all of its counts from one generator, member after member.
``estimate_pauli`` also takes a repeat count: the probabilities are
computed once and every repeat of the stack is drawn in the same call.

``reconstructions`` is the one tomography loop: it draws a state or stack
over many repeats from one seeded generator, a chunk of whole repeats per
repeated ``estimate_pauli`` call, and yields each chunk's reconstructions,
so memory stays flat in the repeat count and the chunk size changes no
draw.  The noisy sweep turns its chunks into entropies, and
``tomography_errors`` (the ``tomo-sim`` command) into reconstruction errors,
with the default readout flip when readout noise is on.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_READOUT_FLIP, DEFAULT_SHOTS, MAX_SEED, MAX_SEEDS, MAX_SHOTS, check_integer, resolve_state
from .linalg import DimensionError, dagger
from .noise import apply_readout_noise, check_probabilities, confusion_from_flip, sample_shots
from .observables import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .states import DensityOperator

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_HADAMARD = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
_SDG = np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex)
# R sigma_axis R† = sigma_z, so diag(R rho R†) are the axis outcome probabilities (x, y, z).
_AXIS_ROTATIONS = np.stack((_HADAMARD, _HADAMARD @ _SDG, IDENTITY_2))
_AXIS_ROTATIONS_DAG = _AXIS_ROTATIONS.conj().transpose(0, 2, 1)
SEED_CHUNK = 4096  # states per draw in reconstructions


def estimate_pauli(
    rho: DensityOperator, shots: int, rng, confusion: np.ndarray | None = None, repeats: int | None = None
):
    """The empirical Bloch vector of a qubit state, from ``shots`` samples per Pauli axis.

    ``rng`` is one ``np.random.Generator`` or one integer seed.  One state
    gives an ``(x, y, z)`` tuple; an (N, 2, 2) stack gives an (N, 3) array
    drawn in one ``sample_shots`` call, row k equal to the single call on
    member k after members 0..k-1 have drawn from the same generator.
    ``confusion`` is the measured qubit's column-stochastic 2x2 readout
    matrix, or None for perfect readout.

    ``repeats`` R draws R tomography repeats of the same states: the outcome
    probabilities are computed once and every repeat's rows are drawn in
    the same ``sample_shots`` call, repeat-major, so the counts equal R
    consecutive calls on the same generator.  It gives an (R, N, 3) array,
    or (R, 3) for one state.
    """
    if rho.dim != 2:
        raise DimensionError(f"single-qubit tomography needs dim 2, got {rho.dim}")
    check_integer("shots", shots, 0, MAX_SHOTS)
    if repeats is not None:
        check_integer("repeats", repeats, 1)
    rotated = _AXIS_ROTATIONS @ rho.matrix.reshape(-1, 1, 2, 2) @ _AXIS_ROTATIONS_DAG
    p = np.clip(np.diagonal(rotated, axis1=-2, axis2=-1).real, 0.0, None)
    p = p / p.sum(axis=-1, keepdims=True)
    if confusion is not None:
        p = apply_readout_noise(p, confusion)
    if repeats is not None:
        p = np.broadcast_to(p, (repeats, *p.shape))
    if shots == 0:
        check_probabilities(p)  # sample_shots checks the rows it draws, so only this path checks here
        means = p[..., 0] - p[..., 1]
    else:
        counts = sample_shots(p, shots, rng)
        means = (counts[..., 0] - counts[..., 1]) / shots
    if rho.batch is not None:
        return means
    return tuple(float(m) for m in means[0]) if repeats is None else means[:, 0]


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


def reconstructions(rho: DensityOperator, shots: int, repeats: int, seed: int, confusion: np.ndarray | None = None):
    """The reconstructions of ``repeats`` tomography repeats of ``rho``, one
    (r*N, 2, 2) stack per chunk of r whole repeats, repeat-major (N = 1 for one
    state).

    A chunk holds at most ``SEED_CHUNK`` states, or one repeat where a repeat
    alone is larger, and makes one ``estimate_pauli`` call.  Every chunk draws
    in turn from one generator seeded ``seed``, so the concatenated stacks do
    not depend on the chunk size.
    """
    check_integer("repeats", repeats, 1)
    check_integer("seed", seed, 0, MAX_SEED)
    rng = np.random.default_rng(seed)
    per_chunk = max(1, SEED_CHUNK // (rho.batch or 1))
    for start in range(0, repeats, per_chunk):
        bloch = estimate_pauli(rho, shots, rng, confusion, min(per_chunk, repeats - start))
        yield reconstruct_state(bloch.reshape(-1, 3))


def tomography_errors(state: str, shots: int, seeds: int, seed: int, noisy: bool) -> dict:
    """Reconstruction errors of a preset state over ``seeds`` independent repetitions.

    The repetitions are the ``reconstructions`` repeats, seeded ``seed``;
    repetition k's error is the largest entry of |reconstructed - true|.
    Returns the per-repetition ``errors`` and a ``summary`` with their median
    (upper median), nearest-rank 90th percentile and maximum.
    """
    rho = resolve_state(state)
    check_integer("shots", shots, 0, MAX_SHOTS)
    check_integer("seeds", seeds, 1, MAX_SEEDS)
    confusion = confusion_from_flip(DEFAULT_READOUT_FLIP) if noisy else None
    errors = []
    for rec in reconstructions(rho, shots, seeds, seed, confusion):
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
