import math

import numpy as np
import pytest

from realmon.linalg import DimensionError
from realmon.noise import DEFAULT_READOUT_FLIP, confusion_from_flip
from realmon.sampling import ginibre_density, haar_pure_state
from realmon.observables import SIGMA_X, SIGMA_Y, SIGMA_Z
from realmon.states import DensityOperator, density_from_pure, maximally_mixed, stack_states, von_neumann_entropy
from realmon.config import ConfigError, resolve_state
from realmon.tomography import estimate_pauli, reconstruct_state, tomography_errors

ZERO = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex))


def pauli_traces(rho):
    """Bloch components Tr(rho sigma) for sigma = x, y, z."""
    return [np.trace(rho.matrix @ sigma).real for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)]


class TestEstimatePauli:
    def test_infinite_shot_exact(self):
        assert estimate_pauli(ZERO, 0, 0) == (0.0, 0.0, 1.0)

    def test_finite_shots_within_five_sigma(self):
        bloch = estimate_pauli(ZERO, 4096, 11)
        sigma = 1.0 / math.sqrt(4096)
        assert abs(bloch[2] - 1.0) <= 5 * sigma
        assert abs(bloch[0]) <= 5 * sigma

    def test_readout_confusion_golden(self):
        bloch = estimate_pauli(ZERO, 0, 0, confusion_from_flip(DEFAULT_READOUT_FLIP))
        assert abs(bloch[2] - 0.9584) <= 1e-12

    @pytest.mark.parametrize("shots", [2.5, True, -1, "8", math.nan])
    def test_shot_count_must_be_a_nonnegative_integer(self, shots):
        with pytest.raises(ConfigError, match="shots"):
            estimate_pauli(ZERO, shots, 0)

    def test_seeded_reproducibility(self):
        a = estimate_pauli(PLUS, 1024, 9)
        b = estimate_pauli(PLUS, 1024, 9)
        assert a == b

    def test_requires_qubit_state(self):
        with pytest.raises(DimensionError):
            estimate_pauli(maximally_mixed(4), 0, 0)


def _reference_estimate(rho, shots, rng, confusion):
    """The per-axis estimator: one rotation, readout pass and multinomial draw per axis."""
    s = 1.0 / math.sqrt(2.0)
    hadamard = np.array([[s, s], [s, -s]], dtype=complex)
    sdg = np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex)
    means = []
    for r in (hadamard, hadamard @ sdg, np.eye(2, dtype=complex)):
        p = np.clip(np.diagonal(r @ rho.matrix @ r.conj().T).real, 0.0, None)
        p = p / p.sum()
        if confusion is not None:
            p = np.clip(p, 0.0, None)
            p = np.tensordot(confusion, p / p.sum(), axes=(1, 0))
        if shots == 0:
            means.append(float(p[0] - p[1]))
        else:
            p = np.clip(p, 0.0, None)
            counts = rng.multinomial(shots, p / p.sum())
            means.append(float(counts[0] - counts[1]) / shots)
    return tuple(means)


class TestStackedAxesMatchPerAxisReference:
    """One stacked pass over the three axes gives the per-axis estimator's bits."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal-readout", "readout-flip"])
    @pytest.mark.parametrize("shots", [0, 1, 8192])
    def test_bitwise_on_random_states(self, shots, noisy):
        confusion = confusion_from_flip(DEFAULT_READOUT_FLIP) if noisy else None
        states = np.random.default_rng(2024)
        for k in range(200):
            rho = ginibre_density(2, states) if k % 2 else density_from_pure(haar_pure_state(2, states))
            got = estimate_pauli(rho, shots, np.random.default_rng([k, shots]), confusion)
            want = _reference_estimate(rho, shots, np.random.default_rng([k, shots]), confusion)
            assert got == want, k


def _random_states(count, seed):
    """Alternating Haar-pure and Ginibre qubit states."""
    g = np.random.default_rng(seed)
    return [ginibre_density(2, g) if k % 2 else density_from_pure(haar_pure_state(2, g)) for k in range(count)]


class TestStackedTomography:
    """A stack goes through the same code as one state, member by member."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal-readout", "readout-flip"])
    @pytest.mark.parametrize("shots", [0, 8192])
    def test_stack_members_equal_single_calls_bitwise(self, shots, noisy):
        confusion = confusion_from_flip(DEFAULT_READOUT_FLIP) if noisy else None
        states = _random_states(200, 31)
        rngs = [np.random.default_rng([k, shots]) for k in range(len(states))]
        stacked = estimate_pauli(stack_states(states), shots, rngs, confusion)
        single = [estimate_pauli(s, shots, np.random.default_rng([k, shots]), confusion) for k, s in enumerate(states)]
        assert stacked.shape == (200, 3)
        assert [tuple(row) for row in stacked.tolist()] == single
        rebuilt = reconstruct_state(stacked)
        assert rebuilt.batch == 200
        for member, bloch in zip(rebuilt.matrix, single):
            assert (member == reconstruct_state(bloch).matrix).all()

    def test_stack_with_clamped_members_equals_single_calls_bitwise(self):
        # pure states at 8192 shots and perfect readout overshoot the Bloch ball on about half the draws
        states = [density_from_pure(haar_pure_state(2, np.random.default_rng(k))) for k in range(40)]
        bloch = estimate_pauli(stack_states(states), 8192, [np.random.default_rng(k) for k in range(40)])
        bloch = np.vstack((bloch, [[1.02, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -0.7, 0.75]]))
        overlong = np.linalg.norm(bloch, axis=1) > 1.0
        assert 0 < overlong.sum() < len(bloch)
        rebuilt = reconstruct_state(bloch)
        singles = [reconstruct_state(tuple(row)) for row in bloch.tolist()]
        for member, one in zip(rebuilt.matrix, singles):
            assert (member == one.matrix).all()
        assert (von_neumann_entropy(rebuilt) == [von_neumann_entropy(one) for one in singles]).all()
        assert rebuilt.eigenvalues()[:, 0].min() >= -1e-15

    def test_single_state_still_returns_a_tuple_and_a_state(self):
        bloch = estimate_pauli(PLUS, 64, np.random.default_rng(3))
        assert isinstance(bloch, tuple) and len(bloch) == 3
        assert reconstruct_state(bloch).batch is None

    @pytest.mark.parametrize("rngs", [[0, 1], [0, 1, 2, 3], np.random.default_rng(0)], ids=["two", "four", "one"])
    def test_generator_count_must_match_the_stack(self, rngs):
        with pytest.raises(ValueError, match="3 generators"):
            estimate_pauli(stack_states([PLUS, ZERO, PLUS]), 16, rngs)

    def test_tomography_errors_equal_the_per_seed_loop(self):
        rho = resolve_state("iplus")
        confusion = confusion_from_flip(DEFAULT_READOUT_FLIP)
        want = []
        for k in range(30):
            rec = reconstruct_state(estimate_pauli(rho, 256, np.random.default_rng([4, k]), confusion))
            want.append(float(np.abs(rec.matrix - rho.matrix).max()))
        assert tomography_errors("iplus", 256, 30, 4, True)["errors"] == want


class TestReconstruct:
    def test_center_of_ball(self):
        rec = reconstruct_state((0.0, 0.0, 0.0))
        assert np.abs(rec.matrix - np.eye(2) / 2).max() <= 1e-15

    def test_north_pole(self):
        rec = reconstruct_state((0.0, 0.0, 1.0))
        assert np.abs(rec.matrix - ZERO.matrix).max() <= 1e-15

    def test_clamp_and_renormalize_overlong_bloch(self):
        rec = reconstruct_state((1.02, 0.0, 0.0))
        assert np.abs(rec.matrix - PLUS.matrix).max() <= 1e-12
        assert min(rec.eigenvalues()) >= -1e-15

    def test_always_valid_state(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = rng.uniform(-1.1, 1.1, 3)
            rec = reconstruct_state(tuple(r))
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
                rec = reconstruct_state(estimate_pauli(rho, shots, np.random.default_rng([seed, shots])))
                errs.append(max(abs(a - b) for a, b in zip(pauli_traces(rec), pauli_traces(rho))))
            return sorted(errs)[50]

        e1 = median_error(512)
        e2 = median_error(2048)
        ratio = e1 / e2
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


class TestTomographyErrors:
    @pytest.mark.parametrize("seeds", [2.5, True, 3.0, "3", 0])
    def test_seeds_must_be_a_positive_integer(self, seeds):
        with pytest.raises(ConfigError, match="seeds"):
            tomography_errors("plus", 64, seeds, 0, False)

    def test_integer_seeds_accepted(self):
        out = tomography_errors("plus", 64, np.int64(3), 0, False)
        assert len(out["errors"]) == 3
