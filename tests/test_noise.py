import numpy as np
import pytest

from realmon.circuits import apply_circuit_matrix, build_monitor_circuit
from realmon.linalg import DimensionError
from realmon.noise import (
    DEFAULT_DEPOLARIZING_RATE,
    DEFAULT_READOUT_FLIP,
    apply_readout_noise,
    confusion_from_flip,
    sample_shots,
)
from realmon.states import DensityOperator
from realmon.tomography import estimate_pauli


class TestNoiseModel:
    """The noise settings: default rates, and the checks where each is read."""

    def test_default_model_readout_rates(self):
        assert DEFAULT_DEPOLARIZING_RATE == 0.01
        assert float(confusion_from_flip(DEFAULT_READOUT_FLIP)[1, 0]) == 0.0208
        assert not confusion_from_flip(0.1).flags.writeable

    def test_column_sums_validated(self):
        bad = np.array([[0.9, 0.0], [0.2, 1.0]])
        zero = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match=r"column sums are \[1\.1"):
            estimate_pauli(zero, 10, 0, bad)

    def test_column_sums_validated_without_shots(self):
        # the infinite-shot sentinel samples nothing, so the confusion itself is checked
        bad = np.array([[0.9, 0.0], [0.2, 1.0]])
        zero = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match=r"column sums are \[1\.1"):
            estimate_pauli(zero, 0, 0, bad)

    def test_rate_range(self):
        circ = build_monitor_circuit([(0.0, 0.0)], 0.5, "CZ")
        for rate in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="depolarizing"):
                apply_circuit_matrix(circ, np.eye(2) / 2, depolarizing=rate)

    def test_flip_range(self):
        with pytest.raises(ValueError, match="flip"):
            confusion_from_flip(1.5)


class TestSampleShots:
    def test_deterministic_outcome(self):
        counts = sample_shots([1.0, 0.0], 500, 123)
        assert counts.tolist() == [500, 0]

    def test_unbiased_within_five_sigma(self):
        counts = sample_shots([0.5, 0.5], 10**6, 7)
        sigma = 500.0
        assert abs(counts[0] - 5 * 10**5) <= 5 * sigma

    def test_seeded_reproducibility(self):
        a = sample_shots([0.3, 0.7], 1000, 42)
        b = sample_shots([0.3, 0.7], 1000, 42)
        assert np.array_equal(a, b)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sample_shots([1.1, -0.1], 10, 0)

    def test_sum_validated(self):
        with pytest.raises(ValueError, match="sum"):
            sample_shots([0.5, 0.4], 10, 0)
        with pytest.raises(ValueError, match="sum"):
            sample_shots([[0.5, 0.5], [0.5, 0.4]], 10, 0)  # each row is checked, not the stack's total

    def test_shot_count_positive(self):
        with pytest.raises(ValueError):
            sample_shots([1.0, 0.0], 0, 0)

    @pytest.mark.parametrize("n_shots", [2.5, True, -1, "8", float("nan")])
    def test_shot_count_must_be_an_integer(self, n_shots):
        with pytest.raises(ValueError, match="shot count"):
            sample_shots([1.0, 0.0], n_shots, 0)

    def test_rows_drawn_in_order(self):
        rows = [[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]]
        stacked = sample_shots(rows, 1000, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        assert stacked.tolist() == [sample_shots(row, 1000, rng).tolist() for row in rows]


class TestReadoutNoise:
    def test_single_qubit_flip_golden(self):
        out = apply_readout_noise([1.0, 0.0], confusion_from_flip(0.0208))
        assert np.abs(out - np.array([0.9792, 0.0208])).max() <= 1e-12

    def test_preserves_normalization(self):
        rng = np.random.default_rng(0)
        p = rng.random((5, 2))
        p /= p.sum(axis=1, keepdims=True)
        out = apply_readout_noise(p, confusion_from_flip(0.03))
        assert out.shape == (5, 2)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        assert (out >= 0).all()

    @pytest.mark.parametrize(
        "confusion, message",
        [
            (np.eye(3), "2x2"),
            ([0.9, 0.1], "2x2"),
            ([[float("nan"), 0.0], [0.0, 1.0]], "finite and nonnegative"),
            ([[float("inf"), 0.0], [0.0, 1.0]], "finite and nonnegative"),
            ([[1.1, 0.0], [-0.1, 1.0]], "finite and nonnegative"),
            ([[0.9, 0.0], [0.2, 1.0]], "column sums"),
            ([[0.5, 0.5], [0.5, 0.6]], "column sums"),
        ],
        ids=["3x3", "vector", "nan", "inf", "negative", "column-0-sum", "column-1-sum"],
    )
    def test_confusion_validated(self, confusion, message):
        with pytest.raises(ValueError, match=message):
            apply_readout_noise([0.5, 0.5], confusion)

    def test_rows_of_two_outcomes(self):
        with pytest.raises(DimensionError, match="rows of 2"):
            apply_readout_noise([0.25] * 4, confusion_from_flip(0.1))
