import math
import re

import numpy as np
import pytest

from _helpers import maximally_mixed
from realmon import states
from realmon.config import STATE_PRESETS, resolve_state
from realmon.linalg import DimensionError, hermitian_eig
from realmon.sampling import ginibre_density, haar_pure_state, haar_unitary
from realmon.states import (
    DensityOperator,
    NegativityError,
    PureState,
    density_from_pure,
    entropy_of_probabilities,
    stack_states,
    von_neumann_entropy,
)


H2_QUARTER = 0.8112781244591328  # binary entropy of 0.25, frozen from direct evaluation


class TestPureState:
    def test_norm_window(self):
        PureState([1.0, 0.0])
        with pytest.raises(ValueError, match="norm"):
            PureState([1.0, 0.5])

    def test_renormalizes(self):
        psi = PureState([1.0 + 5e-9, 0.0])
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-15

    @pytest.mark.parametrize(
        "amplitudes, entry", [([math.nan, 1.0], 0), ([0.0, math.inf], 1), ([1.0, complex(0, math.nan)], 1)]
    )
    def test_rejects_non_finite_amplitude(self, amplitudes, entry):
        with pytest.raises(ValueError, match=rf"entry \[{entry}\] is not finite"):
            PureState(amplitudes)

    def test_amplitudes_are_read_only(self):
        psi = PureState([1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    @pytest.mark.parametrize("amplitudes", [np.eye(2) / math.sqrt(2), [[1.0, 0.0]], 1.0], ids=["matrix", "row", "scalar"])
    def test_rejects_non_vector_amplitudes(self, amplitudes):
        # a flattened (2, 2) array would pass as a 4-dimensional state
        with pytest.raises(DimensionError, match=r"must be 1-D, got shape \("):
            PureState(amplitudes)


class TestDensityOperator:
    def test_validation_accepts_good_state(self):
        rho = DensityOperator(np.full((2, 2), 0.5, dtype=complex))
        assert rho.dim == 2

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2, dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(m)

    def test_rejects_negative_spectrum(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(NegativityError):
            DensityOperator(m)

    def test_rejects_non_finite_entry(self):
        m = np.array([[0.5, math.nan], [math.nan, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not finite"):
            DensityOperator(m)

    def test_the_callers_array_is_copied_not_frozen(self):
        m = np.eye(2, dtype=complex) / 2
        rho = DensityOperator(m)
        assert rho.matrix is not m and m.flags.writeable and not rho.matrix.flags.writeable
        m[0, 0] = 0.3  # once "assignment destination is read-only"
        assert rho.matrix[0, 0] == 0.5 and von_neumann_entropy(rho) == 1.0

    @pytest.mark.parametrize("name", sorted(STATE_PRESETS))
    def test_presets_are_read_only_where_defined_and_copied_per_state(self, name):
        preset = STATE_PRESETS[name]
        assert not preset.flags.writeable
        with pytest.raises(ValueError):
            preset[0, 0] = 0.0
        rho = resolve_state(name)
        assert rho.matrix is not preset and np.array_equal(rho.matrix, preset)

    def test_matrix_is_read_only(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestDensityFromPure:
    def test_zero_ket(self):
        rho = density_from_pure(PureState([1.0, 0.0]))
        assert np.array_equal(rho.matrix, np.diag([1.0, 0.0]))

    def test_plus_ket(self):
        rho = density_from_pure(PureState([1 / math.sqrt(2), 1 / math.sqrt(2)]))
        assert np.abs(rho.matrix - 0.5).max() <= 1e-15

    def test_tilted_ket_golden(self):
        # outer product with cos^2(pi/8) = (1 + cos(pi/4)) / 2
        rho = density_from_pure(PureState([math.cos(math.pi / 8), math.sin(math.pi / 8)]))
        expected = np.array([[0.8536, 0.3536], [0.3536, 0.1464]])
        assert np.abs(rho.matrix.real - expected).max() <= 5e-5

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            rho = density_from_pure(haar_pure_state(d, rng))
            m = rho.matrix
            assert np.abs(m @ m - m).max() <= 1e-10


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(density_from_pure(PureState([1.0, 0.0]))) == 0.0

    def test_maximally_mixed_one_bit(self):
        assert von_neumann_entropy(maximally_mixed(2)) == 1.0

    def test_binary_entropy_golden(self):
        rho = DensityOperator(np.diag([0.25, 0.75]).astype(complex))
        assert abs(von_neumann_entropy(rho) - H2_QUARTER) <= 1e-12

    def test_range_and_clamping(self):
        assert entropy_of_probabilities([1.0 + 1e-16, -1e-10]) == 0.0
        with pytest.raises(NegativityError):
            entropy_of_probabilities([1.0, -1e-8])

    def test_unitary_invariance(self):
        rng = np.random.default_rng(1)
        for d in (2, 4, 8):
            rho = ginibre_density(d, rng)
            u = haar_unitary(d, rng)
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T, validate=False)
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-9

    def test_zero_entropy_iff_pure(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 4):
            for _ in range(10):
                rho = ginibre_density(d, rng)
                s = von_neumann_entropy(rho)
                if s <= 1e-12:
                    assert rho.eigenvalues()[-1] >= 1.0 - 1e-8
                pure = density_from_pure(haar_pure_state(d, rng))
                assert von_neumann_entropy(pure) <= 1e-12

    def test_concavity_spot_check(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            r1, r2 = ginibre_density(d, rng), ginibre_density(d, rng)
            lam = float(rng.random())
            mix = DensityOperator(lam * r1.matrix + (1 - lam) * r2.matrix, validate=False)
            bound = lam * von_neumann_entropy(r1) + (1 - lam) * von_neumann_entropy(r2)
            assert von_neumann_entropy(mix) >= bound - 1e-9

    def test_upper_bound_log_d(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4, 8):
            rho = ginibre_density(d, rng)
            assert 0.0 <= von_neumann_entropy(rho) <= math.log2(d) + 1e-12


class TestSpectrumSolves:
    """Spectra come from one values-only solve, cached on the state."""

    def spy(self, monkeypatch):
        calls, solve = [], states.hermitian_eig
        monkeypatch.setattr(states, "hermitian_eig", lambda m: calls.append(m.shape) or solve(m))
        return calls

    def test_validation_and_entropy_share_one_values_only_solve(self, monkeypatch):
        calls = self.spy(monkeypatch)
        rho = DensityOperator(ginibre_density(3, np.random.default_rng(8)).matrix)
        von_neumann_entropy(rho)
        assert calls == [(3, 3)] and rho.eigenvalues() is rho.eigenvalues()
        assert np.array_equal(hermitian_eig(rho.matrix), rho.eigenvalues())
        assert calls == [(3, 3)]

    def test_a_carried_spectrum_makes_no_solve(self, monkeypatch):
        calls = self.spy(monkeypatch)
        matrix = np.stack([np.eye(2) / 2, np.diag([0.0, 1.0])]).astype(complex)
        w = np.array([[0.5, 0.5], [0.0, 1.0]])
        rho = DensityOperator(matrix, spectrum=w)  # validation reads the carried spectrum
        assert rho.eigenvalues() is w and von_neumann_entropy(rho).tolist() == [1.0, 0.0]
        assert calls == []

    @pytest.mark.parametrize(
        "matrix_shape, spectrum_shape",
        [((2, 2), (3,)), ((2, 2), (1, 2)), ((2, 2), ()), ((4, 2, 2), (2,)), ((4, 2, 2), (4, 3)), ((4, 2, 2), (3, 2))],
    )
    def test_a_carried_spectrum_of_the_wrong_shape_is_refused(self, matrix_shape, spectrum_shape):
        matrix = np.broadcast_to(np.eye(2) / 2, matrix_shape)
        with pytest.raises(DimensionError, match=re.escape(f"got shape {spectrum_shape}")):
            DensityOperator(matrix, validate=False, spectrum=np.full(spectrum_shape, 0.5))

    @pytest.mark.parametrize("name", sorted(STATE_PRESETS))
    def test_presets_keep_exact_spectra(self, name):
        rho = DensityOperator(STATE_PRESETS[name])
        expected = [0.5, 0.5] if name == "mixed" else [0.0, 1.0]
        assert np.array_equal(rho.eigenvalues(), expected)
        assert von_neumann_entropy(rho) == (1.0 if name == "mixed" else 0.0)

    def test_diagonal_states_keep_exact_spectra(self):
        stack = np.stack([np.diag([0.75, 0.25]), np.diag([0.0, 1.0]), np.eye(2) / 2]).astype(complex)
        assert np.array_equal(DensityOperator(stack).eigenvalues(), [[0.25, 0.75], [0.0, 1.0], [0.5, 0.5]])
        assert np.array_equal(maximally_mixed(4).eigenvalues(), np.full(4, 0.25))


class TestStacks:
    def test_stack_entropy_equals_member_entropies(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4):
            members = [ginibre_density(d, rng) for _ in range(4)] + [maximally_mixed(d)]
            stack = stack_states(members)
            assert stack.dim == d and stack.batch == 5
            s = von_neumann_entropy(stack)
            assert s.shape == (5,)
            for n, rho in enumerate(members):
                assert s[n] == von_neumann_entropy(rho)

    def test_stacking_makes_no_eigensolve(self, monkeypatch):
        # members are states already: the stack is not validated again
        members = [maximally_mixed(2), DensityOperator(np.diag([1.0, 0.0]).astype(complex))]
        monkeypatch.setattr(states, "hermitian_eig", lambda m: pytest.fail("stack_states solved a spectrum"))
        stack = stack_states(members)
        assert stack.batch == 2 and stack._spectrum is None

    def test_single_state_has_no_batch(self):
        assert maximally_mixed(2).batch is None

    def test_validation_checks_every_member(self):
        good = np.full((2, 2), 0.5, dtype=complex)
        DensityOperator(np.stack([good, good]))
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.stack([good, 2 * good]))
        with pytest.raises(NegativityError):
            DensityOperator(np.stack([good, np.diag([1.5, -0.5])]))

    def test_entropy_of_probability_rows(self):
        s = entropy_of_probabilities([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
        assert abs(s[0] - H2_QUARTER) <= 1e-12 and s[1] == 0.0 and s[2] == 1.0
