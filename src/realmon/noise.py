"""Shot sampling and readout confusion.

Relaxation during two-qubit gates is folded into a single per-gate
depolarizing probability, which the circuits take as ``depolarizing``.
Tomography reads only the system qubit, so readout error is one symmetric
flip of that qubit, applied as a column-stochastic 2x2 confusion matrix
(``confusion_from_flip``) to rows of two outcome probabilities.  Their
defaults are ``config.DEFAULT_DEPOLARIZING_RATE`` and ``DEFAULT_READOUT_FLIP``.
``sample_shots`` draws a whole stack of probability rows from one generator.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .config import MAX_SHOTS, check_integer, check_number
from .linalg import DimensionError

PROB_SUM_TOL = 1e-9


def confusion_from_flip(flip: float) -> np.ndarray:
    """Symmetric single-qubit confusion matrix for flip probability ``flip`` in [0, 1]."""
    check_number("flip", flip, 0, 1)
    m = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    m.setflags(write=False)
    return m


def _first_bad_row(p: np.ndarray, bad: np.ndarray) -> str:
    """The index and values of the first row flagged in ``bad``, for an error message."""
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    return (f" in row {index}" if index else "") + f": {p[index].tolist()}"


def _distinct_rows(p: np.ndarray) -> np.ndarray:
    """``p`` with each broadcast (zero-stride) axis but the last cut to length 1."""
    return p[tuple(slice(0, 1) if stride == 0 else slice(None) for stride in p.strides[:-1])]


def check_probabilities(probabilities) -> np.ndarray:
    """Outcome probabilities as rows along the last axis, each checked to be
    finite, nonnegative (to 1e-12) and summing to 1 (else ``ValueError``
    naming the first bad row's index and values, not the whole stack); a row
    repeated along a broadcast axis is checked once, named at index 0 there."""
    p = np.asarray(probabilities, dtype=float)
    rows = _distinct_rows(p)
    if not np.isfinite(rows).all():
        raise ValueError(f"non-finite probability{_first_bad_row(rows, ~np.isfinite(rows).all(axis=-1))}")
    if (rows < -1e-12).any():
        raise ValueError(f"negative probability{_first_bad_row(rows, (rows < -1e-12).any(axis=-1))}")
    off = np.abs(rows.sum(axis=-1) - 1.0) > PROB_SUM_TOL
    if off.any():
        raise ValueError(f"probabilities must sum to 1{_first_bad_row(rows, off)}")
    return p


def _validated_probabilities(probabilities) -> np.ndarray:
    """Outcome probabilities as rows along the last axis, each distinct row checked and renormalised once."""
    p = check_probabilities(probabilities)
    rows = np.clip(_distinct_rows(p), 0.0, None)
    return np.broadcast_to(rows / rows.sum(axis=-1, keepdims=True), p.shape)


def sample_shots(probabilities, n_shots: int, rng) -> np.ndarray:
    """Multinomial outcome counts for an (N, ..., m) stack of probability rows.

    ``rng`` is one ``np.random.Generator`` or one integer seed for the whole
    stack, and every row draws from it in C order in a single ``multinomial``
    call, so the counts equal one-member-at-a-time calls on the same
    generator and are deterministic for a given generator state or seed.
    A list or tuple (one generator or seed per member) is a ``TypeError``.
    Each distinct row of the stack is checked once; ``n_shots`` is >= 1.
    """
    p = _validated_probabilities(probabilities)
    if p.ndim < 2 or not p.size:
        raise DimensionError(f"probabilities must be an (N, ..., m) stack with N >= 1, got shape {p.shape}")
    check_integer("n_shots", n_shots, 1, MAX_SHOTS)
    if not isinstance(rng, np.random.Generator) and (isinstance(rng, bool) or not isinstance(rng, numbers.Integral)):
        raise TypeError(
            "sample_shots draws the whole stack from one np.random.Generator or one integer seed, "
            f"got {type(rng).__name__}"
        )
    return np.random.default_rng(rng).multinomial(int(n_shots), p)


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
