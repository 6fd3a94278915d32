import math

import numpy as np
import pytest

from _helpers import observable_on_qubit, same_bits
from realmon.linalg import DimensionError, dagger, tensor_product
from realmon.observables import (
    DEGENERACY_TOL,
    DegenerateObservableError,
    ProjectiveObservable,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutes,
    is_mutually_unbiased,
    observable_from_axis,
    pauli_observable,
    stack_observables,
    standard_mub_observables,
)
from realmon.sampling import draw_observable, random_commuting_pair, random_observable


def observable_from_hermitian(m):
    """Spectral decomposition of a Hermitian matrix, eigenvalues within
    ``DEGENERACY_TOL`` merged into one projector."""
    w, v = np.linalg.eigh(m)
    groups = [[0]]
    for k in range(1, len(w)):
        if w[k] - w[groups[-1][-1]] <= DEGENERACY_TOL:
            groups[-1].append(k)
        else:
            groups.append([k])
    projectors = [v[:, grp] @ dagger(v[:, grp]) for grp in groups]
    return ProjectiveObservable([float(np.mean(w[grp])) for grp in groups], projectors, validate=False)


class TestObservableFromAxis:
    def test_z_axis(self):
        obs = observable_from_axis(0.0, 0.0)
        assert obs.eigenvalues == (1.0, -1.0)
        assert np.array_equal(obs.projectors[0], np.diag([1.0, 0.0]))
        assert np.array_equal(obs.projectors[1], np.diag([0.0, 1.0]))

    def test_x_axis(self):
        obs = observable_from_axis(math.pi / 2, 0.0)
        assert np.abs(obs.projectors[0] - 0.5).max() <= 1e-15
        assert np.abs(obs.matrix() - SIGMA_X).max() <= 1e-15

    def test_y_axis_eigenket(self):
        # substituting (theta, phi) = (pi/2, pi/2) into the eigenket formula
        obs = observable_from_axis(math.pi / 2, math.pi / 2)
        n0 = np.array([1.0, 1j]) / math.sqrt(2)
        assert np.abs(obs.projectors[0] - np.outer(n0, n0.conj())).max() <= 1e-15
        assert np.abs(obs.matrix() - SIGMA_Y).max() <= 1e-15

    def test_reconstruction_is_axis_combination(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            theta = float(rng.uniform(0, math.pi))
            phi = float(rng.uniform(-math.pi, math.pi))
            obs = observable_from_axis(theta, phi)
            n = (
                math.sin(theta) * math.cos(phi) * SIGMA_X
                + math.sin(theta) * math.sin(phi) * SIGMA_Y
                + math.cos(theta) * SIGMA_Z
            )
            assert np.abs(obs.matrix() - n).max() <= 1e-12
            assert np.abs(obs.projectors[0] + obs.projectors[1] - np.eye(2)).max() <= 1e-12


class TestObservableFromHermitian:
    def test_sigma_z(self):
        obs = observable_from_hermitian(SIGMA_Z)
        assert obs.eigenvalues == (-1.0, 1.0)
        assert np.array_equal(obs.projectors[0], np.diag([0.0, 1.0]))
        assert np.array_equal(obs.projectors[1], np.diag([1.0, 0.0]))

    def test_full_degeneracy(self):
        obs = observable_from_hermitian(np.eye(2, dtype=complex))
        assert obs.n_outcomes == 1
        assert obs.eigenvalues == (1.0,)
        assert np.trace(obs.projectors[0]).real == 2.0

    def test_tensor_degeneracy(self):
        obs = observable_from_hermitian(tensor_product(SIGMA_Z, np.eye(2, dtype=complex)))
        assert obs.eigenvalues == (-1.0, 1.0)
        assert np.trace(obs.projectors, axis1=1, axis2=2).real.round().tolist() == [2.0, 2.0]

    def test_reconstruction_random(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 4, 8):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = (g + g.conj().T) / 2
            obs = observable_from_hermitian(h)
            assert np.abs(obs.matrix() - h).max() <= 1e-9


class TestValidation:
    def test_rejects_non_orthogonal(self):
        p = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(ValueError, match="orthogonal"):
            ProjectiveObservable((1.0, -1.0), (p, p))

    def test_rejects_close_eigenvalues(self):
        obs_projs = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(ValueError, match="closer"):
            ProjectiveObservable((1.0, 1.0 + 1e-10), obs_projs)

    def test_completeness_enforced(self):
        with pytest.raises(ValueError, match="identity"):
            ProjectiveObservable((1.0,), (np.diag([1.0, 0.0]).astype(complex),))

    def test_rejects_a_zero_projector(self):
        # complete, orthogonal and idempotent, but outcome 2.0 is not in the spectrum of matrix() = I
        with pytest.raises(ValueError, match="projector 1 has trace 0"):
            ProjectiveObservable((1.0, 2.0), (np.eye(2), np.zeros((2, 2))))
        z = pauli_observable("z")
        with pytest.raises(ValueError, match="projector 0 has trace 0"):
            ProjectiveObservable([z.eigenvalues] * 2, [z.projectors, [np.zeros((2, 2)), np.eye(2)]])


class TestCommutes:
    def test_with_identity_observable(self):
        identity_obs = observable_from_hermitian(np.eye(2, dtype=complex))
        assert commutes(pauli_observable("z"), identity_obs)

    def test_pauli_pair(self):
        assert not commutes(pauli_observable("z"), pauli_observable("x"))

    def test_disjoint_supports(self):
        a = observable_on_qubit(2, 0, 0.0, 0.0)  # z on first qubit
        b = observable_on_qubit(2, 1, math.pi / 2, 0.0)  # x on second qubit
        assert commutes(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutes(pauli_observable("z"), observable_from_hermitian(np.eye(4, dtype=complex)))


class TestMutuallyUnbiased:
    def test_z_x_pair(self):
        assert is_mutually_unbiased(pauli_observable("z"), pauli_observable("x"))

    def test_same_basis_not_unbiased(self):
        assert not is_mutually_unbiased(pauli_observable("z"), pauli_observable("z"))

    def test_tilted_overlap_golden(self):
        # |<0|n0(pi/3)>|^2 = cos^2(pi/6) = 0.75
        tilted = observable_from_axis(math.pi / 3, 0.0)
        z = pauli_observable("z")
        assert not is_mutually_unbiased(z, tilted)
        overlap = float(np.trace(z.projectors[0] @ tilted.projectors[0]).real)
        assert abs(overlap - 0.75) <= 1e-12

    def test_degenerate_rejected(self):
        identity_obs = observable_from_hermitian(np.eye(2, dtype=complex))
        with pytest.raises(DegenerateObservableError):
            is_mutually_unbiased(pauli_observable("z"), identity_obs)

    @pytest.mark.parametrize("d", [2, 3])
    def test_standard_sets_pairwise_unbiased(self, d):
        bases = standard_mub_observables(d)
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                assert is_mutually_unbiased(bases[i], bases[j])

    def test_pauli_triple_is_the_d2_set(self):
        z, x, y = standard_mub_observables(2)
        assert np.abs(z.matrix() - SIGMA_Z).max() <= 1e-15
        assert np.abs(x.matrix() - SIGMA_X).max() <= 1e-15
        assert np.abs(y.matrix() - SIGMA_Y).max() <= 1e-15


class TestRandomObservables:
    def test_completeness_and_reconstruction(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 4, 8):
            obs = random_observable(d, rng)
            assert np.abs(sum(obs.projectors) - np.eye(d)).max() <= 1e-10
            for i, p in enumerate(obs.projectors):
                for j, q in enumerate(obs.projectors):
                    ref = p if i == j else 0.0
                    assert np.abs(p @ q - ref).max() <= 1e-10
            assert obs.is_nondegenerate


class TestProjectorArrays:
    def test_projectors_are_one_read_only_array(self):
        obs = observable_from_axis(0.3, 0.1)
        assert obs.projectors.shape == (2, 2, 2)
        with pytest.raises(ValueError):
            obs.projectors[0, 0, 0] = 2.0

    def test_mismatched_projector_shapes_rejected(self):
        with pytest.raises(DimensionError):
            ProjectiveObservable((1.0, -1.0), (np.eye(2), np.eye(3)), validate=False)

    def test_degenerate_observable_detected(self):
        assert not observable_on_qubit(2, 0, 0.0, 0.0).is_nondegenerate
        assert pauli_observable("x").is_nondegenerate


def outcome_loop(weights, projectors):
    """sum_j w_j P_j accumulated one outcome at a time into zeros: the oracle of ``weighted_sum``."""
    weights = np.asarray(weights)
    lead = np.broadcast_shapes(weights.shape[:-1], projectors.shape[:-3])
    out = np.zeros(lead + projectors.shape[-2:], dtype=complex)
    for j in range(projectors.shape[-3]):
        out += weights[..., j, None, None] * projectors[..., j, :, :]
    return out


class TestWeightedSum:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_equals_the_outcome_loop_bitwise(self, d):
        rng = np.random.default_rng(700 + d)
        stack = random_observable(d, draws=[draw_observable(d, rng) for _ in range(5)])
        single = random_observable(d, rng)
        sparse = rng.random((5, d)) * (rng.random((5, d)) < 0.5)  # exact zero weights, and -0.0 below
        # real weights, as the operator and a mixture pass; dephasing's complex
        # weights took this same einsum before it moved here
        for x in (single, stack):
            for w in (rng.standard_normal(d), rng.standard_normal((5, d)), sparse, -sparse):
                assert same_bits(x.weighted_sum(w), outcome_loop(w, x.projectors))
            assert same_bits(x.matrix(), outcome_loop(x.eigenvalues, x.projectors))

    @pytest.mark.parametrize("d", (2, 3))
    def test_exact_projectors_keep_their_zeros(self, d):
        for x in standard_mub_observables(d):
            for w in (np.arange(d, dtype=float), -np.ones(d), np.zeros(d), np.full(d, -0.0)):
                assert same_bits(x.weighted_sum(w), outcome_loop(w, x.projectors))


class TestStackObservables:
    def test_stacks_member_eigenvalues_and_projectors(self):
        rng = np.random.default_rng(3)
        members = [random_observable(3, rng) for _ in range(4)]
        stack = stack_observables(members)
        assert stack.batch == 4 and stack.dim == 3 and stack.n_outcomes == 3
        assert stack.projectors.shape == (4, 3, 3, 3) and stack.eigenvalues.shape == (4, 3)
        assert members[0].batch is None and isinstance(members[0].eigenvalues, tuple)
        for n, obs in enumerate(members):
            assert np.array_equal(stack.projectors[n], obs.projectors)
            assert tuple(stack.eigenvalues[n]) == obs.eigenvalues
            assert np.array_equal(stack.matrix()[n], obs.matrix())
        with pytest.raises(ValueError):
            stack.eigenvalues[0, 0] = 2.0

    def test_rejects_empty_and_mixed_stacks(self):
        with pytest.raises(DimensionError):
            stack_observables([])
        with pytest.raises(DimensionError):
            stack_observables([pauli_observable("z"), standard_mub_observables(3)[0]])

    def test_validation_runs_per_member(self):
        z, x = pauli_observable("z"), pauli_observable("x")
        ProjectiveObservable([z.eigenvalues, x.eigenvalues], [z.projectors, x.projectors])
        bad = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(ValueError, match="orthogonal"):
            ProjectiveObservable([z.eigenvalues, x.eigenvalues], [z.projectors, [bad, bad]])

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("nan", "finite"),
            ("skew", "not Hermitian"),
            ("overlap", "projectors 0,1 violate orthogonal"),
            ("incomplete", "identity"),
            ("close", "eigenvalues 1.0 and 1.0000000001 closer"),
            ("short", "need one projector per eigenvalue"),
            ("not-square", r"projectors must be square matrices, got shape \(2, 1\)"),
        ],
    )
    def test_one_bad_member_fails_the_whole_stack(self, fault, message):
        z, x = pauli_observable("z"), pauli_observable("x")
        values, projs = np.array([z.eigenvalues, x.eigenvalues]), np.array([z.projectors, x.projectors])
        if fault == "nan":
            values[1, 1] = np.nan
        elif fault == "skew":
            projs[1, 0, 1, 0] += 1e-6
        elif fault == "overlap":
            projs[1] = np.full((2, 2, 2), 0.5)
        elif fault == "incomplete":
            projs[1] = (np.diag([1.0, 0.0]), np.zeros((2, 2)))
        elif fault == "close":
            values[1] = (1.0, 1.0 + 1e-10)
        elif fault == "short":
            values = values[:, :1]
        else:
            projs = projs[..., :1]
        with pytest.raises(ValueError, match=message):
            ProjectiveObservable(values, projs)

    def test_pair_tests_answer_per_member(self):
        rng = np.random.default_rng(4)
        for d in (2, 3):
            b0, b1 = standard_mub_observables(d)[:2]
            c0, c1 = random_commuting_pair(d, rng)
            xs = [random_observable(d, rng), c0, b0, b0]
            x2s = [b1, c1, b0, b1]
            x, x2 = stack_observables(xs), stack_observables(x2s)
            assert commutes(x, x2).tolist() == [False, True, True, False]
            assert is_mutually_unbiased(x, x2).tolist() == [False, False, False, True]
            for test in (commutes, is_mutually_unbiased):
                assert test(x, x2).tolist() == [test(a, b) for a, b in zip(xs, x2s)]
                assert test(x, b1).tolist() == [test(a, b1) for a in xs]
                assert test(b0, x2).tolist() == [test(b0, b) for b in x2s]

    def test_degenerate_stack_has_no_mu_test(self):
        stack = stack_observables([observable_on_qubit(2, 0, 0.0), observable_on_qubit(2, 1, 0.0)])
        assert not stack.is_nondegenerate
        with pytest.raises(DegenerateObservableError):
            is_mutually_unbiased(stack, stack)
