"""Shot sampling, readout confusion, and the gate-noise model.

Relaxation during two-qubit gates is folded into a single per-gate
depolarizing probability; readout error is a symmetric per-qubit flip
applied as a column-stochastic confusion matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError

PROB_SUM_TOL = 1e-9

DEFAULT_READOUT_FLIPS = (0.0208, 0.0192, 0.0213)
DEFAULT_DEPOLARIZING_RATE = 0.01


def confusion_from_flip(p: float) -> np.ndarray:
    """Symmetric single-qubit confusion matrix for flip probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p!r}")
    m = np.array([[1.0 - p, p], [p, 1.0 - p]])
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit readout confusion plus a per-two-qubit-gate depolarizing rate."""

    readout_confusion: tuple[np.ndarray, ...]
    depolarizing_rate: float = 0.0

    def __post_init__(self):
        mats = []
        for i, c in enumerate(self.readout_confusion):
            arr = np.asarray(c, dtype=float)
            if arr.shape != (2, 2):
                raise DimensionError(f"confusion matrix {i} must be 2x2, got {arr.shape}")
            if (arr < -1e-12).any():
                raise ValueError(f"confusion matrix {i} has negative entries")
            if np.abs(arr.sum(axis=0) - 1.0).max() > PROB_SUM_TOL:
                raise ValueError(f"confusion matrix {i} columns must sum to 1")
            arr = arr.copy()
            arr.setflags(write=False)
            mats.append(arr)
        object.__setattr__(self, "readout_confusion", tuple(mats))
        if not 0.0 <= self.depolarizing_rate <= 1.0:
            raise ValueError(f"depolarizing rate must lie in [0, 1], got {self.depolarizing_rate!r}")

    def confusion_for(self, qubit: int) -> np.ndarray:
        if qubit >= len(self.readout_confusion):
            raise DimensionError(
                f"no confusion matrix for qubit {qubit} (model covers {len(self.readout_confusion)})"
            )
        return self.readout_confusion[qubit]


def default_noise_model(depolarizing_rate: float = DEFAULT_DEPOLARIZING_RATE) -> NoiseModel:
    """Readout flips of a public three-qubit superconducting device
    (2.08e-2, 1.92e-2, 2.13e-2) plus a configurable depolarizing rate."""
    return NoiseModel(
        readout_confusion=tuple(confusion_from_flip(p) for p in DEFAULT_READOUT_FLIPS),
        depolarizing_rate=depolarizing_rate,
    )


def _validated_probabilities(probabilities) -> np.ndarray:
    p = np.asarray(probabilities, dtype=float).reshape(-1)
    if (p < -1e-12).any():
        raise ValueError(f"negative probability in {p.tolist()}")
    if abs(p.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def sample_shots(probabilities, n_shots: int, rng) -> np.ndarray:
    """Multinomial outcome counts, deterministic for a given generator/seed."""
    p = _validated_probabilities(probabilities)
    if n_shots < 1:
        raise ValueError(f"shot count must be positive, got {n_shots}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return rng.multinomial(int(n_shots), p)


def apply_readout_noise(probabilities, confusions) -> np.ndarray:
    """Push outcome probabilities through per-qubit confusion matrices.

    ``confusions`` lists one 2x2 column-stochastic matrix per qubit; matrix
    k acts along outcome axis k of the 2**n outcome vector (qubit 0 is the
    most significant bit).
    """
    p = _validated_probabilities(probabilities)
    mats = list(confusions)
    if 2 ** len(mats) != p.size:
        raise DimensionError(
            f"{len(mats)} confusion matrices cannot act on {p.size} outcomes"
        )
    t = p.reshape((2,) * len(mats))
    for axis, c in enumerate(mats):
        t = np.moveaxis(np.tensordot(np.asarray(c, dtype=float), t, axes=(1, axis)), 0, axis)
    return t.reshape(-1)
