import math

import numpy as np
import pytest

from realmon.linalg import DimensionError
from realmon.noise import default_noise_model
from realmon.sampling import ginibre_density, haar_pure_state
from realmon.observables import SIGMA_X, SIGMA_Y, SIGMA_Z
from realmon.states import DensityOperator, density_from_pure, maximally_mixed
from realmon.tomography import PauliEstimates, estimate_pauli, reconstruct_state

ZERO = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex))


def pauli_traces(rho):
    """Bloch components Tr(rho sigma) for sigma = x, y, z."""
    return [np.trace(rho.matrix @ sigma).real for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)]


class TestEstimatePauli:
    def test_infinite_shot_exact(self):
        est = estimate_pauli(ZERO, 0, 0)
        assert est.means == (0.0, 0.0, 1.0)
        assert est.stderrs == (0.0, 0.0, 0.0)

    def test_finite_shots_within_five_sigma(self):
        est = estimate_pauli(ZERO, 4096, 11)
        sigma = 1.0 / math.sqrt(4096)
        assert abs(est.means[2] - 1.0) <= 5 * sigma
        assert abs(est.means[0]) <= 5 * sigma

    def test_readout_confusion_golden(self):
        est = estimate_pauli(ZERO, 0, 0, noise=default_noise_model(), qubit=0)
        assert abs(est.means[2] - 0.9584) <= 1e-12

    def test_standard_error_formula(self):
        est = estimate_pauli(PLUS, 2048, 5)
        for mean, err in zip(est.means, est.stderrs):
            assert abs(err - math.sqrt((1 - mean * mean) / 2048)) <= 1e-12

    def test_seeded_reproducibility(self):
        a = estimate_pauli(PLUS, 1024, 9)
        b = estimate_pauli(PLUS, 1024, 9)
        assert a == b

    def test_requires_qubit_state(self):
        with pytest.raises(DimensionError):
            estimate_pauli(maximally_mixed(4), 0, 0)


class TestReconstruct:
    def test_center_of_ball(self):
        rec = reconstruct_state(PauliEstimates((0.0, 0.0, 0.0), 0, (0.0,) * 3))
        assert np.abs(rec.matrix - np.eye(2) / 2).max() <= 1e-15

    def test_north_pole(self):
        rec = reconstruct_state(PauliEstimates((0.0, 0.0, 1.0), 0, (0.0,) * 3))
        assert np.abs(rec.matrix - ZERO.matrix).max() <= 1e-15

    def test_clamp_and_renormalize_overlong_bloch(self):
        rec = reconstruct_state(PauliEstimates((1.02, 0.0, 0.0), 0, (0.0,) * 3))
        assert np.abs(rec.matrix - PLUS.matrix).max() <= 1e-12
        assert min(rec.eigenvalues()) >= -1e-15

    def test_always_valid_state(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = rng.uniform(-1.1, 1.1, 3)
            rec = reconstruct_state(PauliEstimates(tuple(r), 128, (0.0,) * 3))
            assert abs(np.trace(rec.matrix) - 1.0) <= 1e-10
            assert rec.eigenvalues()[0] >= -1e-12


class TestRoundTrip:
    def test_infinite_shot_noiseless_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = ginibre_density(2, rng)
            rec = reconstruct_state(estimate_pauli(rho, 0, rng))
            assert np.abs(rec.matrix - rho.matrix).max() <= 1e-12

    def test_error_scaling_quarter_shots(self):
        # quadrupling the shot count should halve the median error (within x1.5)
        rho = density_from_pure(haar_pure_state(2, np.random.default_rng(2)))

        def median_error(shots):
            errs = []
            for seed in range(100):
                est = estimate_pauli(rho, shots, np.random.default_rng([seed, shots]))
                rec = reconstruct_state(est)
                errs.append(max(abs(a - b) for a, b in zip(pauli_traces(rec), pauli_traces(rho))))
            return sorted(errs)[50]

        e1 = median_error(512)
        e2 = median_error(2048)
        ratio = e1 / e2
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5
