"""Shot sampling, readout confusion, and the default noise settings.

Relaxation during two-qubit gates is folded into a single per-gate
depolarizing probability, which the circuits take as ``depolarizing``;
readout error is a symmetric per-qubit flip applied as a column-stochastic
confusion matrix (``confusion_from_flip``), which tomography takes as
``confusion``.  The defaults are the readout flips of a public three-qubit
superconducting device and a 1% depolarizing rate.
"""

from __future__ import annotations

import math

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


def _validated_confusion(confusion) -> np.ndarray:
    c = np.asarray(confusion, dtype=float)
    if c.shape != (2, 2):
        raise DimensionError(f"confusion matrix must be 2x2, got shape {c.shape}")
    (a, b), (e, f) = entries = c.tolist()
    if not all(0.0 <= x < math.inf for x in (a, b, e, f)):
        raise ValueError(f"confusion matrix entries must be finite and nonnegative, got {entries}")
    if abs(a + e - 1.0) > PROB_SUM_TOL or abs(b + f - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"confusion matrix column sums are {[a + e, b + f]}, expected 1")
    return c


def apply_readout_noise(probabilities, confusions) -> np.ndarray:
    """Push outcome probabilities through per-qubit confusion matrices.

    ``confusions`` lists one 2x2 column-stochastic matrix per qubit (finite,
    nonnegative, each column summing to 1, else ``ValueError``); matrix k
    acts along outcome axis k of the 2**n outcome vector (qubit 0 is the
    most significant bit).
    """
    p = _validated_probabilities(probabilities)
    mats = [_validated_confusion(c) for c in confusions]
    if 2 ** len(mats) != p.size:
        raise DimensionError(
            f"{len(mats)} confusion matrices cannot act on {p.size} outcomes"
        )
    t = p.reshape((2,) * len(mats))
    for axis, c in enumerate(mats):
        t = np.moveaxis(np.tensordot(c, t, axes=(1, axis)), 0, axis)
    return t.reshape(-1)
