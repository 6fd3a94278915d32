"""Shot sampling, readout confusion, and the default noise settings.

Relaxation during two-qubit gates is folded into a single per-gate
depolarizing probability, which the circuits take as ``depolarizing``.
Tomography reads only the system qubit, so readout error is one symmetric
flip of that qubit, applied as a column-stochastic 2x2 confusion matrix
(``confusion_from_flip``) to rows of two outcome probabilities.  The
defaults are the system-qubit readout flip of a public three-qubit
superconducting device and a 1% depolarizing rate.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .linalg import DimensionError

PROB_SUM_TOL = 1e-9

DEFAULT_READOUT_FLIP = 0.0208
DEFAULT_DEPOLARIZING_RATE = 0.01


def confusion_from_flip(p: float) -> np.ndarray:
    """Symmetric single-qubit confusion matrix for flip probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p!r}")
    m = np.array([[1.0 - p, p], [p, 1.0 - p]])
    m.setflags(write=False)
    return m


def _validated_probabilities(probabilities) -> np.ndarray:
    """Outcome probabilities as rows along the last axis, each checked and renormalised."""
    p = np.asarray(probabilities, dtype=float)
    if (p < -1e-12).any():
        raise ValueError(f"negative probability in {p.tolist()}")
    sums = p.sum(axis=-1, keepdims=True)
    if (np.abs(sums - 1.0) > PROB_SUM_TOL).any():
        raise ValueError(f"probabilities sum to {sums[..., 0].tolist()!r}, expected 1")
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def sample_shots(probabilities, n_shots: int, rngs) -> np.ndarray:
    """Multinomial outcome counts for an (N, ..., m) stack of probability rows.

    ``rngs`` holds one generator or seed per member, and member k draws its
    rows in order from ``np.random.default_rng(rngs[k])``, so its counts are
    deterministic for a given generator state or seed.  The whole stack is
    checked once.
    """
    p = _validated_probabilities(probabilities)
    if p.ndim < 2:
        raise DimensionError(f"probabilities must be an (N, ..., m) stack, got shape {p.shape}")
    if not isinstance(n_shots, numbers.Integral) or isinstance(n_shots, bool) or n_shots < 1:
        raise ValueError(f"shot count must be a positive integer, got {n_shots!r}")
    try:
        got = len(rngs)
    except TypeError:  # one generator or seed, not one per member
        got = f"one {type(rngs).__name__}"
    if got != len(p):
        raise ValueError(f"a stack of {len(p)} members needs {len(p)} generators or seeds, got {got}")
    return np.stack([np.random.default_rng(r).multinomial(int(n_shots), member) for r, member in zip(rngs, p)])


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


def apply_readout_noise(probabilities, confusion) -> np.ndarray:
    """Push rows of two outcome probabilities through the system qubit's confusion matrix.

    ``confusion`` is 2x2 and column-stochastic (finite, nonnegative, each
    column summing to 1, else ``ValueError``); it acts on every ``(..., 2)`` row.
    """
    p = _validated_probabilities(probabilities)
    c = _validated_confusion(confusion)
    if p.shape[-1:] != (2,):
        raise DimensionError(f"readout confusion acts on rows of 2 outcomes, got shape {p.shape}")
    return (c @ p[..., None])[..., 0]
