import math

import numpy as np
import pytest

from realmon.channels import MonitoringChannel, product_monitor, to_superoperator
from realmon.circuits import (
    Circuit,
    Gate,
    apply_circuit_matrix,
    build_monitor_circuit,
    epsilon_of_strength,
    extract_channel,
    gate_matrix,
    run_circuit_density,
    strength_of_epsilon,
    u3_adjoint_params,
    u3_matrix,
)
from realmon.linalg import DimensionError
from realmon.noise import NoiseModel, default_noise_model
from realmon.observables import SIGMA_X, SIGMA_Y, SIGMA_Z, observable_from_axis
from realmon.reality import scenario2_eigenvalues
from realmon.states import DensityOperator, maximally_mixed

PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex))


def adjoint_params_match(theta, phi, lam):
    """U3(theta, phi, lam)† equals U3 of the adjoint parameters, entrywise to 1e-12."""
    direct = u3_matrix(theta, phi, lam).conj().T
    return np.abs(direct - u3_matrix(*u3_adjoint_params(theta, phi, lam))).max() <= 1e-12


def channels_equal(a, b, tol=1e-10):
    """Sup-norm agreement of the two channels' superoperators."""
    return bool(np.abs(to_superoperator(a).matrix - to_superoperator(b).matrix).max() <= tol)


class TestU3:
    def test_matrix_definition(self):
        theta, phi, lam = 0.7, -1.2, 2.4
        u = u3_matrix(theta, phi, lam)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        assert abs(u[0, 0] - c) <= 1e-15
        assert abs(u[0, 1] + np.exp(1j * lam) * s) <= 1e-15
        assert abs(u[1, 0] - np.exp(1j * phi) * s) <= 1e-15
        assert abs(u[1, 1] - np.exp(1j * (phi + lam)) * c) <= 1e-15

    def test_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = u3_matrix(*rng.uniform(-2 * math.pi, 2 * math.pi, 3))
            assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-14

    def test_adjoint_identity_trivial(self):
        assert adjoint_params_match(0.0, 0.0, 0.0)

    def test_adjoint_identity_caption_instance(self):
        assert adjoint_params_match(math.pi / 2, 0.0, 0.0)

    def test_adjoint_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            theta, phi, lam = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
            assert adjoint_params_match(float(theta), float(phi), float(lam))


class TestGateAndCircuitValidation:
    def test_gate_kind_checked(self):
        with pytest.raises(ValueError):
            Gate("HADAMARD", (0,))
        with pytest.raises(ValueError):
            Gate("U3", (0, 1), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            Gate("CZ", (1, 1))

    def test_circuit_checks_indices(self):
        with pytest.raises(DimensionError):
            Circuit(2, (Gate("U3", (5,), (0.0, 0.0, 0.0)),), (0,))

    def test_ancilla_coupling_counted(self):
        gates = (Gate("U3", (1,), (0.3, 0.0, 0.0)),)  # ancilla never coupled
        with pytest.raises(ValueError, match="exactly one"):
            Circuit(2, gates, (0,))

    def test_gate_matrix(self):
        assert np.array_equal(gate_matrix(Gate("CZ", (0, 1))), np.diag([1, 1, 1, -1]))
        # (control, target) order: the reversed pair gets the same 4x4 matrix
        cx = gate_matrix(Gate("CNOT", (1, 0)))
        assert np.array_equal(cx, np.eye(4)[[0, 1, 3, 2]])
        u = gate_matrix(Gate("U3", (2,), (0.7, -1.2, 2.4)))
        assert np.array_equal(u, u3_matrix(0.7, -1.2, 2.4))


def _embed(width, factors):
    """Full-width kron of 2x2 ``factors`` (qubit -> matrix), identity elsewhere."""
    out = np.eye(1, dtype=complex)
    for q in range(width):
        out = np.kron(out, factors.get(q, np.eye(2, dtype=complex)))
    return out


def _full_unitary(gate, width):
    """Reference full-width unitary of one gate, qubit 0 the leftmost factor."""
    if gate.kind == "U3":
        return _embed(width, {gate.qubits[0]: u3_matrix(*gate.params)})
    control, target = gate.qubits
    action = SIGMA_Z if gate.kind == "CZ" else SIGMA_X
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return _embed(width, {control: p0}) + _embed(width, {control: p1, target: action})


def _random_operator(d, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


class TestLocalGateOracle:
    """Gates applied on their own axes against full-width kron conjugation."""

    @pytest.mark.parametrize(
        "gate",
        [Gate("U3", (q,), (0.7, -1.2, 2.4)) for q in range(3)]
        + [Gate(kind, pair) for kind in ("CZ", "CNOT") for pair in ((0, 2), (2, 0))],
        ids=str,
    )
    def test_matches_full_width_conjugation(self, gate):
        circ = Circuit(3, (gate,), (0, 1, 2))
        m = _random_operator(8, 4)
        u = _full_unitary(gate, 3)
        assert np.abs(apply_circuit_matrix(circ, m) - u @ m @ u.conj().T).max() <= 1e-14

    @pytest.mark.parametrize("pair", [(0, 2), (3, 1)])
    def test_depolarizing_matches_pauli_twirl(self, pair):
        rate = 0.3
        gate = Gate("CNOT", pair)
        circ = Circuit(4, (gate,), (0, 1, 2, 3))
        m = _random_operator(16, 5)
        u = _full_unitary(gate, 4)
        conj = u @ m @ u.conj().T
        singles = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)
        twirl = np.zeros_like(conj)
        for a in singles:
            for b in singles:
                p = _embed(4, {pair[0]: a, pair[1]: b})
                twirl += p @ conj @ p.conj().T
        expected = (1.0 - rate) * conj + (rate / 16.0) * twirl
        out = apply_circuit_matrix(circ, m, NoiseModel((), rate))
        assert np.abs(out - expected).max() <= 1e-14


class TestBuildAndRun:
    def test_zero_strength_is_identity_channel(self):
        circ = build_monitor_circuit([(0.0, 0.0)], 0.0, "CZ")
        sup = extract_channel(circ)
        assert np.abs(sup.matrix - np.eye(4)).max() <= 1e-12

    def test_golden_half_intensity_output(self):
        # strength pi/3 gives intensity 1 - cos(pi/3) = 1/2
        circ = build_monitor_circuit([(0.0, 0.0)], math.pi / 3, "CZ")
        out = run_circuit_density(circ, PLUS)
        assert np.abs(out.matrix - np.array([[0.5, 0.25], [0.25, 0.5]])).max() <= 1e-12

    def test_identityish_circuit_returns_input(self):
        circ = Circuit(1, (Gate("U3", (0,), (0.0, 0.0, 0.0)),), (0,))
        out = run_circuit_density(circ, PLUS)
        assert np.abs(out.matrix - PLUS.matrix).max() <= 1e-15

    def test_tilted_axis_matches_scenario2_spectrum(self):
        theta = 1.1
        for theta_m in (0.4, 1.2):
            eps = epsilon_of_strength("CZ", theta_m)
            circ = build_monitor_circuit([(theta, 0.0)], theta_m, "CZ")
            out = run_circuit_density(circ, PLUS)
            lam = scenario2_eigenvalues(theta, eps)
            w = sorted(out.eigenvalues(), reverse=True)
            assert abs(w[0] - lam[0]) <= 1e-10 and abs(w[1] - lam[1]) <= 1e-10

    def test_two_qubit_full_strength_dephases(self):
        circ = build_monitor_circuit([(0.0, 0.0), (0.0, 0.0)], math.pi / 2, "CZ")
        rho = maximally_mixed(4)
        m = np.full((4, 4), 0.25, dtype=complex)
        out = apply_circuit_matrix(circ, m)
        offdiag = out - np.diag(np.diag(out))
        assert np.abs(offdiag).max() <= 1e-12
        assert np.abs(np.diag(out).real - 0.25).max() <= 1e-12
        assert np.abs(run_circuit_density(circ, rho).matrix - rho.matrix).max() <= 1e-12

    def test_dimension_mismatch(self):
        circ = build_monitor_circuit([(0.0, 0.0)], 0.3, "CZ")
        with pytest.raises(DimensionError):
            run_circuit_density(circ, maximally_mixed(4))

    def test_strength_range_enforced(self):
        with pytest.raises(ValueError):
            build_monitor_circuit([(0.0, 0.0)], 2.0, "CZ")
        with pytest.raises(ValueError):
            build_monitor_circuit([(0.0, 0.0)], 0.3, "SWAP")


class TestChannelExtraction:
    def test_cz_damping_golden(self):
        for theta_m in (0.0, 0.6, math.pi / 2):
            circ = build_monitor_circuit([(0.0, 0.0)], theta_m, "CZ")
            sup = extract_channel(circ).matrix
            expected = np.diag([1.0, math.cos(theta_m), math.cos(theta_m), 1.0])
            assert np.abs(sup - expected).max() <= 1e-12

    def test_cnot_damping_golden(self):
        for theta_m in (0.0, 0.6, math.pi / 2):
            circ = build_monitor_circuit([(0.0, 0.0)], theta_m, "CNOT")
            sup = extract_channel(circ).matrix
            expected = np.diag([1.0, math.sin(theta_m), math.sin(theta_m), 1.0])
            assert np.abs(sup - expected).max() <= 1e-12

    @pytest.mark.parametrize("coupling", ["CZ", "CNOT"])
    def test_dilation_equals_monitoring_channel(self, coupling):
        rng = np.random.default_rng(2)
        for _ in range(4):
            theta_b = float(rng.uniform(0, math.pi))
            phi_b = float(rng.uniform(-math.pi, math.pi))
            theta_m = float(rng.uniform(0, math.pi / 2))
            eps = epsilon_of_strength(coupling, theta_m)
            circ = build_monitor_circuit([(theta_b, phi_b)], theta_m, coupling)
            ref = MonitoringChannel(observable_from_axis(theta_b, phi_b), eps)
            assert channels_equal(extract_channel(circ), to_superoperator(ref))

    def test_two_qubit_dilation_equals_product_monitor(self):
        bases = [(math.pi / 4, 0.0), (1.3, -0.7)]
        theta_m = 0.9
        circ = build_monitor_circuit(bases, theta_m, "CZ")
        ref = product_monitor(bases, epsilon_of_strength("CZ", theta_m))
        assert channels_equal(extract_channel(circ), to_superoperator(ref))


class TestEpsilonOfStrength:
    def test_goldens(self):
        assert epsilon_of_strength("CZ", 0.0) == 0.0
        assert abs(epsilon_of_strength("CZ", math.pi / 2) - 1.0) <= 1e-15
        assert abs(epsilon_of_strength("CZ", math.pi / 3) - 0.5) <= 1e-15

    def test_agrees_with_extraction(self):
        for coupling in ("CZ", "CNOT"):
            for theta_m in np.linspace(0.0, math.pi / 2, 9):
                circ = build_monitor_circuit([(0.0, 0.0)], float(theta_m), coupling)
                sup = extract_channel(circ).matrix
                eps_extracted = 1.0 - float(sup[1, 1].real)
                assert abs(eps_extracted - epsilon_of_strength(coupling, float(theta_m))) <= 1e-10

    def test_inverse(self):
        for coupling in ("CZ", "CNOT"):
            for eps in (0.0, 0.25, 0.8, 1.0):
                theta_m = strength_of_epsilon(coupling, eps)
                assert abs(epsilon_of_strength(coupling, theta_m) - eps) <= 1e-12

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            epsilon_of_strength("CZ", -0.1)
        with pytest.raises(ValueError):
            epsilon_of_strength("CZ", math.pi)


class TestNoiseInCircuits:
    def test_noisy_outputs_remain_valid_states(self):
        noise = default_noise_model()
        rng = np.random.default_rng(3)
        for theta_m in (0.0, 0.8, math.pi / 2):
            circ = build_monitor_circuit([(0.6, 0.2)], theta_m, "CZ")
            out = run_circuit_density(circ, PLUS, noise)
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-10
            assert np.abs(out.matrix - out.matrix.conj().T).max() <= 1e-10
            assert out.eigenvalues()[0] >= -1e-9

    def test_depolarizing_pulls_toward_mixed(self):
        clean = run_circuit_density(build_monitor_circuit([(0.0, 0.0)], 0.5, "CZ"), PLUS)
        noisy = run_circuit_density(
            build_monitor_circuit([(0.0, 0.0)], 0.5, "CZ"), PLUS, default_noise_model(0.2)
        )
        from realmon.states import von_neumann_entropy

        assert von_neumann_entropy(noisy) > von_neumann_entropy(clean)

    def test_zero_rate_matches_noiseless(self):
        circ = build_monitor_circuit([(0.3, 0.1)], 0.7, "CZ")
        clean = run_circuit_density(circ, PLUS)
        noisy = run_circuit_density(circ, PLUS, default_noise_model(0.0))
        assert np.abs(clean.matrix - noisy.matrix).max() <= 1e-15
