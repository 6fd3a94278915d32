import math
from dataclasses import replace

import numpy as np
import pytest

from _helpers import PRESET_BLOCH, axis_vector, maximally_mixed, noisy_dilation_gap
from realmon import circuits
from realmon.channels import MonitoringChannel, product_monitor, to_superoperator
from realmon.circuits import (
    COUPLINGS,
    Circuit,
    Gate,
    apply_circuit_matrix,
    build_monitor_circuit,
    epsilon_of_strength,
    extract_channel,
    run_circuit_density,
    strength_of_epsilon,
    u3_adjoint_params,
    u3_matrix,
)
from realmon.config import DEFAULT_DEPOLARIZING_RATE, ConfigError
from realmon.linalg import DimensionError
from realmon.observables import SIGMA_X, SIGMA_Y, SIGMA_Z, observable_from_axis
from realmon.reality import qubit_spectra
from realmon.states import DensityOperator


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
            Circuit(2, (Gate("U3", (5,), (0.0, 0.0, 0.0)),), 1)

    def test_ancilla_coupling_counted(self):
        gates = (Gate("U3", (1,), (0.3, 0.0, 0.0)),)  # ancilla never coupled
        with pytest.raises(ValueError, match="exactly one"):
            Circuit(2, gates, 1)

    @pytest.mark.parametrize("n_system", [0, -1, 3, True, 1.0])
    def test_circuit_checks_system_count(self, n_system):
        gates = (Gate("U3", (0,), (0.3, 0.0, 0.0)),)
        with pytest.raises(ConfigError, match="n_system"):
            Circuit(2, gates, n_system)

    def test_gate_matrix(self):
        cz = Gate("CZ", (0, 1))
        assert np.array_equal(cz.matrix, np.diag([1, 1, 1, -1]))
        # (control, target) order: the reversed pair gets the same 4x4 matrix
        cx = Gate("CNOT", (1, 0))
        assert np.array_equal(cx.matrix, np.eye(4)[[0, 1, 3, 2]])
        u = Gate("U3", (2,), (0.7, -1.2, 2.4))
        assert np.array_equal(u.matrix, u3_matrix(0.7, -1.2, 2.4))
        for gate in (cz, cx, u):
            assert not gate.matrix.flags.writeable
            with pytest.raises(ValueError):
                gate.matrix[0, 0] = 2.0
        assert Gate("CZ", (2, 3)).matrix is cz.matrix  # one shared constant per coupling
        assert u == Gate("U3", (2,), (0.7, -1.2, 2.4))  # equality ignores the matrix


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
        circ = Circuit(3, (gate,), 3)
        m = _random_operator(8, 4)
        u = _full_unitary(gate, 3)
        assert np.abs(apply_circuit_matrix(circ, m) - u @ m @ u.conj().T).max() <= 1e-14

    @pytest.mark.parametrize("pair", [(0, 2), (3, 1)])
    def test_depolarizing_matches_pauli_twirl(self, pair):
        rate = 0.3
        gate = Gate("CNOT", pair)
        circ = Circuit(4, (gate,), 4, rate)
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
        out = apply_circuit_matrix(circ, m)
        assert np.abs(out - expected).max() <= 1e-14


def _bases(kind, n):
    """``n`` measurement axes: all z, all pi/4, or seeded random (theta, phi)."""
    if kind == "random":
        rng = np.random.default_rng(20 + n)
        return [(float(rng.uniform(0, math.pi)), float(rng.uniform(-math.pi, math.pi))) for _ in range(n)]
    return [(0.0 if kind == "z" else math.pi / 4, 0.0)] * n


class TestIsometryOracle:
    """The compiled isometry against the density-tensor route at depolarizing rate 0.

    Noiseless circuits do not reach the density route's column-axis
    conjugation, so this comparison is what keeps it covered.
    """

    @pytest.mark.parametrize("basis", ["z", "pi/4", "random"])
    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_routes_agree(self, n, coupling, basis):
        circ = build_monitor_circuit(_bases(basis, n), 0.7, coupling)
        m = _random_operator(2**n, 8)
        dense = circuits._density_route(circ, m)
        assert np.abs(apply_circuit_matrix(circ, m) - dense).max() <= 1e-14
        v = circ.isometry
        assert v.shape == (4**n, 2**n) and not v.flags.writeable
        assert np.abs(v.conj().T @ v - np.eye(2**n)).max() <= 1e-14

    def test_compiled_once_per_circuit(self, monkeypatch):
        pushes = []
        apply_on_axes = circuits._apply_on_axes
        monkeypatch.setattr(circuits, "_apply_on_axes", lambda *a: pushes.append(a[2]) or apply_on_axes(*a))
        bases = [(0.4, 0.1), (1.2, -0.3)]
        circ = build_monitor_circuit(bases, 0.8, "CNOT")
        to_superoperator(circ)  # d**2 = 16 matrix units through one compile
        assert pushes == [g.qubits for g in circ.gates]
        v = circ.isometry
        to_superoperator(circ)
        assert circ.isometry is v and len(pushes) == len(circ.gates)
        fresh = build_monitor_circuit(bases, 0.8, "CNOT")
        assert fresh == circ
        to_superoperator(fresh)
        assert fresh.isometry is not v and len(pushes) == 2 * len(circ.gates)


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
        circ = Circuit(1, (Gate("U3", (0,), (0.0, 0.0, 0.0)),), 1)
        out = run_circuit_density(circ, PLUS)
        assert np.abs(out.matrix - PLUS.matrix).max() <= 1e-15

    def test_tilted_axis_matches_scenario2_spectrum(self):
        theta = 1.1
        for theta_m in (0.4, 1.2):
            eps = epsilon_of_strength("CZ", theta_m)
            circ = build_monitor_circuit([(theta, 0.0)], theta_m, "CZ")
            out = run_circuit_density(circ, PLUS)
            lam = qubit_spectra(PRESET_BLOCH["plus"], axis_vector(theta), axis_vector(0.0), eps)[1]
            w = sorted(out.eigenvalues(), reverse=True)
            assert abs(w[0] - lam) <= 1e-10 and abs(w[1] - (1.0 - lam)) <= 1e-10

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
    def test_circuit_is_a_channel(self):
        circ = build_monitor_circuit([(0.4, 0.1), (1.2, -0.3)], 0.8, "CNOT")
        assert circ.dim == 4 and circ.n_system == 2
        m = _random_operator(4, 6)
        assert np.array_equal(circ.apply_matrix(m), apply_circuit_matrix(circ, m))
        assert np.array_equal(extract_channel(circ).matrix, to_superoperator(circ).matrix)

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


    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_units_match_the_per_unit_loop(self, n, coupling):
        circ = build_monitor_circuit(_bases("random", n), 0.7, coupling)
        d = circ.dim
        loop = np.zeros((d * d, d * d), dtype=complex)
        for k in range(d):
            for l in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[k, l] = 1.0
                loop[:, k * d + l] = circ.apply_matrix(unit).reshape(-1)
        assert np.abs(extract_channel(circ).matrix - loop).max() <= 1e-15

    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kraus_contraction_equals_the_matrix_unit_route_bitwise(self, n, coupling):
        # to_superoperator pushes the d^2 matrix units through Tr_anc(V E V†): the oracle
        stack, singles = _random_stack(n, 7, coupling, 90 + n)
        for circ in (stack, *singles):
            assert np.array_equal(extract_channel(circ).matrix, to_superoperator(circ).matrix)


def _random_stack(n, size, coupling, seed):
    """A stack of ``size`` monitor circuits on ``n`` qubits with random strengths
    and axes, and the same circuits built one at a time."""
    rng = np.random.default_rng(seed)
    strength = rng.uniform(0, math.pi / 2, size)
    theta = rng.uniform(0, math.pi, (n, size))
    phi = rng.uniform(-math.pi, math.pi, (n, size))
    stack = build_monitor_circuit([(theta[q], phi[q]) for q in range(n)], strength, coupling)
    singles = [
        build_monitor_circuit([(float(theta[q, k]), float(phi[q, k])) for q in range(n)], float(strength[k]), coupling)
        for k in range(size)
    ]
    return stack, singles


class TestCircuitStacks:
    """An N-member circuit stack against its members built and run one at a time."""

    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_members_match_single_circuits_bitwise(self, n, coupling):
        stack, singles = _random_stack(n, 5, coupling, 30 + n)
        d = 2**n
        assert stack.batch == 5 and singles[0].batch is None
        assert stack.isometry.shape == (5, 4**n, d) and not stack.isometry.flags.writeable
        mats = np.stack([_random_operator(d, 40 + k) for k in range(5)])
        one = _random_operator(d, 50)
        member_wise = apply_circuit_matrix(stack, mats)
        broadcast = apply_circuit_matrix(stack, one)
        noisy = apply_circuit_matrix(replace(stack, depolarizing=0.1), mats)
        extracted = extract_channel(stack).matrix
        assert extracted.shape == (5, d * d, d * d)
        for k, single in enumerate(singles):
            assert np.array_equal(stack.isometry[k], single.isometry)
            assert np.array_equal(member_wise[k], apply_circuit_matrix(single, mats[k]))
            assert np.array_equal(broadcast[k], apply_circuit_matrix(single, one))
            assert np.array_equal(noisy[k], apply_circuit_matrix(replace(single, depolarizing=0.1), mats[k]))
            assert np.array_equal(extracted[k], extract_channel(single).matrix)

    @pytest.mark.parametrize("rate", [0.0, 0.05])
    @pytest.mark.parametrize("n", [1, 2])
    def test_extraction_routes_take_one_operator_per_member(self, monkeypatch, n, rate):
        stack = replace(_random_stack(n, 3, "CNOT", 70 + n)[0], depolarizing=rate)
        shapes = []
        for name in ("_isometry_route", "_density_route"):
            route = getattr(circuits, name)
            monkeypatch.setattr(circuits, name, lambda c, mat, route=route: shapes.append(mat.shape) or route(c, mat))
        extracted = extract_channel(stack).matrix
        d = 2**n
        assert extracted.shape == (3, d * d, d * d)
        # noiseless extraction contracts the Kraus blocks and reaches no route
        assert shapes == ([(1, d, d)] * d * d if rate else [])

    def test_state_stacks_run_member_by_member(self):
        stack, singles = _random_stack(1, 4, "CZ", 60)
        states = DensityOperator(np.stack([np.full((2, 2), 0.5), np.diag([1.0, 0.0]), np.eye(2) / 2, PLUS.matrix]))
        out = run_circuit_density(replace(stack, depolarizing=DEFAULT_DEPOLARIZING_RATE), states)
        for k, single in enumerate(singles):
            rho = DensityOperator(states.matrix[k])
            noisy = replace(single, depolarizing=DEFAULT_DEPOLARIZING_RATE)
            assert np.array_equal(out.matrix[k], run_circuit_density(noisy, rho).matrix)

    def test_stack_validation(self):
        gate = Gate("U3", (0,), (np.array([0.1, 0.2, 0.3]), 0.0, 0.0))
        assert gate.matrix.shape == (3, 2, 2)
        assert gate == Gate("U3", (0,), ([0.1, 0.2, 0.3], 0.0, 0.0))
        assert hash(gate) == hash(Gate("U3", (0,), ((0.1, 0.2, 0.3), 0.0, 0.0)))
        assert np.array_equal(gate.matrix[1], u3_matrix(0.2, 0.0, 0.0))
        with pytest.raises(DimensionError):
            Gate("U3", (0,), (np.zeros((2, 2)), 0.0, 0.0))
        with pytest.raises(DimensionError):
            Circuit(1, (gate, Gate("U3", (0,), (np.zeros(2), 0.0, 0.0))), 1)
        with pytest.raises(ValueError):
            build_monitor_circuit([(0.0, 0.0)], np.array([0.1, 2.0]), "CZ")
        with pytest.raises(DimensionError):
            apply_circuit_matrix(build_monitor_circuit([(0.0, 0.0)], np.array([0.1, 0.2])), np.eye(4))


class TestEpsilonOfStrength:
    def test_goldens(self):
        assert epsilon_of_strength("CZ", 0.0) == 0.0
        assert epsilon_of_strength("CZ", math.pi / 2) == 1.0
        # the grid check's rounding slack above pi/2 must not push the intensity past 1
        assert epsilon_of_strength("CZ", math.pi / 2 + 1e-12) == 1.0
        assert epsilon_of_strength("CNOT", math.pi / 2 + 1e-12) == 0.0
        assert abs(epsilon_of_strength("CZ", math.pi / 3) - 0.5) <= 1e-15

    @pytest.mark.parametrize("coupling", ["CZ", "CNOT"])
    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_endpoints_round_trip_exactly(self, coupling, epsilon):
        assert epsilon_of_strength(coupling, strength_of_epsilon(coupling, epsilon)) == epsilon
        assert epsilon_of_strength(coupling, np.array([strength_of_epsilon(coupling, epsilon)])).tolist() == [epsilon]

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
        for bad in ([0.1, 2.0], [0.1, math.nan]):
            with pytest.raises(ValueError, match="theta_m"):
                epsilon_of_strength("CNOT", np.array(bad))
        with pytest.raises(ValueError, match="coupling"):
            epsilon_of_strength("CY", np.zeros(2))

    def test_array_equals_the_per_element_calls(self):
        theta = np.concatenate(([0.0, math.pi / 2], np.random.default_rng(3).uniform(0, math.pi / 2, 500)))
        for coupling in COUPLINGS:
            eps = epsilon_of_strength(coupling, theta)
            each = [epsilon_of_strength(coupling, t) for t in theta.tolist()]
            assert all(isinstance(e, float) for e in each)
            assert eps.shape == theta.shape and eps.tobytes() == np.array(each).tobytes()


class TestStackedSuperoperator:
    """An (N, d^2, d^2) superoperator acts on one operator or on N, member by member."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_circuit_and_product_monitor_stacks(self, n):
        rng = np.random.default_rng(60 + n)
        members, d = 4, 2**n
        thetas = rng.uniform(0, math.pi / 2, members)
        bases = [(rng.uniform(0, math.pi, members), rng.uniform(-math.pi, math.pi, members)) for _ in range(n)]
        mats = rng.normal(size=(members, d, d)) + 1j * rng.normal(size=(members, d, d))
        for coupling in COUPLINGS:
            for build in (build_monitor_circuit, _product_monitor_at):
                sup = to_superoperator(build(bases, thetas, coupling))
                assert sup.matrix.shape == (members, d * d, d * d)
                one, each = sup.apply_matrix(mats[0]), sup.apply_matrix(mats)
                assert one.shape == each.shape == (members, d, d)
                for k in range(members):
                    alone = build([(float(t[k]), float(p[k])) for t, p in bases], float(thetas[k]), coupling)
                    assert np.abs(one[k] - alone.apply_matrix(mats[0])).max() <= 1e-12
                    assert np.abs(each[k] - alone.apply_matrix(mats[k])).max() <= 1e-12


def _product_monitor_at(bases, theta_m, coupling):
    """The analytic monitoring map a dilation circuit at strength ``theta_m`` realizes."""
    return product_monitor(bases, epsilon_of_strength(coupling, theta_m))


class TestNoiseInCircuits:
    def test_noisy_outputs_remain_valid_states(self):
        for theta_m in (0.0, 0.8, math.pi / 2):
            circ = build_monitor_circuit([(0.6, 0.2)], theta_m, "CZ", DEFAULT_DEPOLARIZING_RATE)
            out = run_circuit_density(circ, PLUS)
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-10
            assert np.abs(out.matrix - out.matrix.conj().T).max() <= 1e-10
            assert out.eigenvalues()[0] >= -1e-9

    def test_depolarizing_pulls_toward_mixed(self):
        clean = run_circuit_density(build_monitor_circuit([(0.0, 0.0)], 0.5, "CZ"), PLUS)
        noisy = run_circuit_density(build_monitor_circuit([(0.0, 0.0)], 0.5, "CZ", 0.2), PLUS)
        from realmon.states import von_neumann_entropy

        assert von_neumann_entropy(noisy) > von_neumann_entropy(clean)

    def test_zero_rate_matches_noiseless(self):
        clean = run_circuit_density(build_monitor_circuit([(0.3, 0.1)], 0.7, "CZ"), PLUS)
        noisy = run_circuit_density(build_monitor_circuit([(0.3, 0.1)], 0.7, "CZ", depolarizing=0.0), PLUS)
        assert np.abs(clean.matrix - noisy.matrix).max() <= 1e-15

    @pytest.mark.parametrize("rate", [0.01, 0.3, 1.0])
    @pytest.mark.parametrize("coupling", COUPLINGS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_noisy_dilation_matches_closed_form(self, n, coupling, rate):
        """Pair depolarizing after each coupling is single-qubit depolarizing on its
        system qubit: monitoring along z, x and y at 1 - sqrt(1 - rate) after the
        noiseless channel."""
        assert noisy_dilation_gap(n, coupling, rate) <= 1e-12

    def test_noisy_circuit_has_no_isometry(self):
        circ = build_monitor_circuit([(0.3, 0.1)], 0.7, "CZ", 0.1)
        with pytest.raises(ValueError, match="no isometry"):
            circ.isometry
        assert run_circuit_density(circ, PLUS).matrix.shape == (2, 2)
