import math

import numpy as np
import pytest

from _helpers import carried_spectrum_gap, composed_product_monitor, maximally_mixed
from realmon.channels import (
    ComposedChannel,
    MonitoringChannel,
    Superoperator,
    dephase,
    monitor,
    product_monitor,
    to_superoperator,
)
from realmon import channels, states, verify
from realmon.circuits import apply_circuit_matrix, build_monitor_circuit, run_circuit_density
from realmon.linalg import DimensionError
from realmon.observables import (
    ProjectiveObservable,
    commutes,
    is_mutually_unbiased,
    observable_from_axis,
    pauli_observable,
    stack_observables,
)
from realmon.reality import classify_case, delta_reality_monitored, delta_reality_other, irreality, reality_report
from realmon.sampling import (
    draw_density,
    draw_observable,
    ginibre_density,
    haar_unitary,
    mixture_of_eigenstates,
    random_density,
    random_mu_pair,
    random_observable,
)
from realmon.states import (
    DensityOperator,
    PureState,
    density_from_pure,
    stack_states,
    von_neumann_entropy,
)


PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex))
ZERO = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
SZ = pauli_observable("z")
SX = pauli_observable("x")
FIVE_AXES = observable_from_axis(np.linspace(0.1, 1.0, 5))
THREE_AXES = observable_from_axis(np.linspace(0.2, 0.6, 3))
THREE_STATES = stack_states([PLUS, ZERO, PLUS])
FIVE_CIRCUITS = build_monitor_circuit([(np.linspace(0.1, 1.0, 5), 0.0)], 0.5)


def per_unit_superoperator(ch):
    """The superoperator built one matrix unit at a time, column k*d+l the image of E_kl."""
    d = ch.dim
    mat = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[k, l] = 1.0
            mat[:, k * d + l] = ch.apply_matrix(unit).reshape(-1)
    return mat


def channels_equal(a, b, tol=1e-10):
    """Sup-norm agreement of the two channels' superoperators."""
    return bool(np.abs(to_superoperator(a).matrix - to_superoperator(b).matrix).max() <= tol)


class TestDephase:
    def test_full_decoherence_of_plus(self):
        out = dephase(SZ, PLUS)
        assert np.abs(out.matrix - np.eye(2) / 2).max() == 0.0

    def test_eigenstate_fixed_point(self):
        out = dephase(SZ, ZERO)
        assert np.abs(out.matrix - ZERO.matrix).max() == 0.0

    def test_tilted_state_in_x_basis(self):
        # spectrum (1 +- sin(pi/4)) / 2 after dephasing along x
        psi = PureState([math.cos(math.pi / 8), math.sin(math.pi / 8)])
        out = dephase(SX, density_from_pure(psi))
        probs = sorted(out.eigenvalues())
        expected = [(1 - math.sin(math.pi / 4)) / 2, (1 + math.sin(math.pi / 4)) / 2]
        assert np.abs(np.array(probs) - expected).max() <= 1e-12

    def test_output_commutes_with_projectors_and_preserves_diagonal(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 4):
            obs = random_observable(d, rng)
            rho = ginibre_density(d, rng)
            out = dephase(obs, rho)
            for p in obs.projectors:
                assert np.abs(out.matrix @ p - p @ out.matrix).max() <= 1e-10
                before = np.trace(p @ rho.matrix).real
                after = np.trace(p @ out.matrix).real
                assert abs(before - after) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dephase(SZ, maximally_mixed(3))


ROTATION = haar_unitary(3, np.random.default_rng(5))


def outcome_sum(projectors, mat):
    """sum_j P_j mat P_j written out over the outcome axis: the dephasing of any observable."""
    return sum(projectors[..., j, :, :] @ mat @ projectors[..., j, :, :] for j in range(projectors.shape[-3]))


def random_stack(d, members, rng):
    """A stack of random observables and one of random states, drawn instance by instance."""
    x = random_observable(d, draws=[draw_observable(d, rng) for _ in range(members)])
    return x, random_density(d, draws=[draw_density(d, rng) for _ in range(members)])


def unit_superoperator(projectors, d):
    """Superoperator of full dephasing from ``outcome_sum`` on the d^2 matrix units, (..., d^2, d^2)."""
    units = np.eye(d * d, dtype=complex).reshape((d * d,) + (1,) * (projectors.ndim - 3) + (d, d))
    columns = outcome_sum(projectors, units).reshape((d * d,) + projectors.shape[:-3] + (d * d,))
    return np.moveaxis(columns, 0, -1)


class TestRankOneDephasing:
    """A nondegenerate observable dephases through its outcome weights, sum_j Tr(P_j M) P_j;
    a degenerate one keeps the written-out sum bitwise."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_weights_equal_the_outcome_sum_on_hermitian_stacks(self, d):
        x, rho = random_stack(d, 40, np.random.default_rng(300 + d))
        image, weights = channels._dephased(x, rho.matrix)
        assert weights.shape == (40, d)
        assert np.abs(image - outcome_sum(x.projectors, rho.matrix)).max() <= 1e-15
        single = ProjectiveObservable(x.eigenvalues[0], x.projectors[0], validate=False)
        alone, _ = channels._dephased(single, rho.matrix)  # one observable broadcast over the states
        assert np.abs(alone - outcome_sum(single.projectors, rho.matrix)).max() <= 1e-15

    @pytest.mark.parametrize("d", range(2, 9))
    def test_weights_equal_the_outcome_sum_on_matrix_units(self, d):
        x, _ = random_stack(d, 6, np.random.default_rng(400 + d))
        stacked = to_superoperator(MonitoringChannel(x, 1.0)).matrix
        assert stacked.shape == (6, d * d, d * d)
        assert np.abs(stacked - unit_superoperator(x.projectors, d)).max() <= 1e-15
        single = ProjectiveObservable(x.eigenvalues[0], x.projectors[0], validate=False)
        alone = to_superoperator(MonitoringChannel(single, 1.0)).matrix
        assert np.abs(alone - unit_superoperator(single.projectors, d)).max() <= 1e-15

    @pytest.mark.parametrize(
        "projectors",
        [
            # passes validation with as many outcomes as dimensions, but I has rank 2
            np.array([np.eye(2), np.zeros((2, 2))], dtype=complex),
            # a rank-2 projector and its rank-1 complement at d = 3, in a rotated basis
            ROTATION @ np.array([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]) @ ROTATION.conj().T,
        ],
        ids=["identity-and-zero", "rank-2-at-d3"],
    )
    def test_degenerate_observables_keep_the_outcome_sum_bitwise(self, projectors):
        x = ProjectiveObservable([1.0, 2.0], projectors)
        assert not x.is_nondegenerate
        rng = np.random.default_rng(6)
        for mat in (ginibre_density(x.dim, rng).matrix, rng.standard_normal((4, x.dim, x.dim)) + 0j):
            image, weights = channels._dephased(x, mat)
            assert weights is None and same_bits(image, outcome_sum(x.projectors, mat))
        rho = ginibre_density(x.dim, rng)
        assert dephase(x, rho)._spectrum is None  # no weights to carry: the spectrum is solved


class TestCarriedSpectrum:
    """A nondegenerate ``dephase`` image takes its spectrum from its outcome weights, with no solve."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_carried_spectrum_is_ascending_and_equals_a_solve(self, d, monkeypatch):
        x, rho = random_stack(d, 40, np.random.default_rng(500 + d))
        single = ProjectiveObservable(x.eigenvalues[0], x.projectors[0], validate=False)
        counts = {}
        counting(monkeypatch, states, "hermitian_eig", counts)
        images = [dephase(x, rho), dephase(single, rho), dephase(single, DensityOperator(rho.matrix[0]))]
        spectra = [image.eigenvalues() for image in images]
        assert counts["hermitian_eig"] == 1  # the single state's validation, no image
        for image, w in zip(images, spectra):
            assert w.shape == image.matrix.shape[:-1] and np.all(np.diff(w, axis=-1) >= 0)
        # eigh's own rounding: up to 1.2e-15 seen on 2,000-member stacks at d = 2 and 3
        assert carried_spectrum_gap(x, rho) <= 2e-15 and carried_spectrum_gap(single, rho) <= 2e-15

    def test_vectors_are_still_solved_on_demand(self):
        image = dephase(SX, PLUS)
        carried = image.eigenvalues()
        w, v = image.eigensystem()
        assert image.eigenvalues() is carried and np.array_equal(w, carried)
        assert np.abs(v @ np.diag(w) @ v.conj().T - image.matrix).max() <= 1e-15

    def test_entropy_of_a_dephased_pure_state_is_exact(self):
        assert von_neumann_entropy(dephase(SZ, PLUS)) == 1.0
        assert von_neumann_entropy(dephase(SZ, ZERO)) == 0.0


class TestMonitor:
    def test_zero_intensity_identity(self):
        out = monitor(MonitoringChannel(SZ, 0.0), PLUS)
        assert np.abs(out.matrix - PLUS.matrix).max() == 0.0

    def test_full_intensity_is_dephasing(self):
        out = monitor(MonitoringChannel(SZ, 1.0), PLUS)
        assert np.abs(out.matrix - dephase(SZ, PLUS).matrix).max() == 0.0

    def test_half_intensity_golden(self):
        out = monitor(MonitoringChannel(SZ, 0.5), PLUS)
        expected = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert np.abs(out.matrix - expected).max() <= 1e-15

    def test_intensity_range_enforced(self):
        with pytest.raises(ValueError):
            MonitoringChannel(SZ, 1.5)
        with pytest.raises(ValueError):
            MonitoringChannel(SZ, -0.1)

    def test_monitoring_never_decreases_entropy(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 4):
            for _ in range(15):
                obs = random_observable(d, rng)
                rho = ginibre_density(d, rng)
                eps = float(rng.random())
                out = monitor(MonitoringChannel(obs, eps), rho)
                assert von_neumann_entropy(out) >= von_neumann_entropy(rho) - 1e-9

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            obs = random_observable(d, rng)
            rho = ginibre_density(d, rng)
            out = monitor(MonitoringChannel(obs, float(rng.random())), rho)
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-10
            assert np.abs(out.matrix - out.matrix.conj().T).max() <= 1e-10


class TestCompose:
    def test_dephasing_idempotent_as_superoperator(self):
        s = to_superoperator(MonitoringChannel(SZ, 1.0)).matrix
        assert np.abs(s @ s - s).max() <= 1e-10

    def test_intensity_combination_rule(self):
        # eps_eff = eps1 + eps2 - eps1*eps2, from expanding the convex blend
        e1, e2 = 0.3, 0.45
        lhs = ComposedChannel(MonitoringChannel(SZ, e1), MonitoringChannel(SZ, e2))
        rhs = MonitoringChannel(SZ, e1 + e2 - e1 * e2)
        assert channels_equal(lhs, rhs)

    def test_identity_fixed_point_for_mu_chain(self):
        chain = ComposedChannel(MonitoringChannel(SX, 1.0), MonitoringChannel(SZ, 0.7))
        out = chain.apply_matrix(np.eye(2, dtype=complex) / 2)
        assert np.abs(out - np.eye(2) / 2).max() <= 1e-12

    def test_dimension_mismatch(self):
        obs3 = random_observable(3, np.random.default_rng(3))
        with pytest.raises(DimensionError):
            ComposedChannel(MonitoringChannel(SZ, 1.0), MonitoringChannel(obs3, 1.0))


class TestSuperoperator:
    def test_identity_channel(self):
        s = to_superoperator(MonitoringChannel(SZ, 0.0))
        assert np.array_equal(s.matrix, np.eye(4))

    def test_dephasing_golden_diagonal(self):
        s = to_superoperator(MonitoringChannel(SZ, 1.0))
        assert np.abs(s.matrix - np.diag([1.0, 0.0, 0.0, 1.0])).max() <= 1e-15

    def test_monitor_golden_diagonal(self):
        eps = 0.37
        s = to_superoperator(MonitoringChannel(SZ, eps))
        assert np.abs(s.matrix - np.diag([1.0, 1 - eps, 1 - eps, 1.0])).max() <= 1e-15

    def test_superoperator_reproduces_channel_action(self):
        rng = np.random.default_rng(4)
        for d in (2, 3):
            obs = random_observable(d, rng)
            ch = MonitoringChannel(obs, 0.6)
            s = to_superoperator(ch)
            rho = ginibre_density(d, rng)
            assert np.abs(s.apply_matrix(rho.matrix) - ch.apply_matrix(rho.matrix)).max() <= 1e-12

    def test_channels_equal_tolerance(self):
        a = MonitoringChannel(SZ, 0.5)
        b = MonitoringChannel(SZ, 0.5 + 1e-12)
        c = MonitoringChannel(SZ, 0.5 + 1e-6)
        assert channels_equal(a, b)
        assert not channels_equal(a, c)
        assert channels_equal(a, to_superoperator(a))

    def test_stacked_units_equal_the_per_unit_loop_bitwise(self):
        rng = np.random.default_rng(8)
        channels = [MonitoringChannel(SZ, 1.0), MonitoringChannel(SX, 0.3)]
        for d in (2, 3, 4):
            obs = random_observable(d, rng)
            channels += [MonitoringChannel(obs, 1.0), MonitoringChannel(obs, float(rng.random()))]
            channels.append(ComposedChannel(MonitoringChannel(random_observable(d, rng), 0.7), channels[-1]))
        for n in (1, 2, 3):
            bases = [(float(rng.uniform(0, math.pi)), float(rng.uniform(-math.pi, math.pi))) for _ in range(n)]
            channels.append(product_monitor(bases, float(rng.random())))
        for ch in channels:
            assert np.array_equal(to_superoperator(ch).matrix, per_unit_superoperator(ch))

    def test_trace_preservation_on_basis(self):
        rng = np.random.default_rng(5)
        obs = random_observable(3, rng)
        s = to_superoperator(MonitoringChannel(obs, 0.8))
        d = 3
        for k in range(d):
            for l in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[k, l] = 1.0
                out = s.apply_matrix(unit)
                assert abs(np.trace(out) - np.trace(unit)) <= 1e-10


class TestMuBlendIdentity:
    def test_dephased_monitor_equals_blend(self):
        # for unbiased pairs, probing after monitoring blends toward I/d
        rng = np.random.default_rng(6)
        for d in (2, 3):
            for _ in range(10):
                x, xp = random_mu_pair(d, rng)
                rho = ginibre_density(d, rng)
                eps = float(rng.random())
                chained = dephase(xp, monitor(MonitoringChannel(x, eps), rho))
                blend = (1 - eps) * dephase(xp, rho).matrix + eps * np.eye(d) / d
                assert np.abs(chained.matrix - blend).max() <= 1e-10


class TestProductMonitor:
    def test_single_qubit_reduces_to_monitor(self):
        ch = product_monitor([(0.3, 0.4)], 0.6)
        ref = MonitoringChannel(observable_from_axis(0.3, 0.4), 0.6)
        assert channels_equal(ch, ref)

    def test_two_qubit_damping_pattern(self):
        # element (i j),(k l) picks up one factor (1 - eps) per mismatched qubit
        eps = 0.4
        ch = product_monitor([(0.0, 0.0), (0.0, 0.0)], eps)
        s = to_superoperator(ch).matrix
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        row = (i * 2 + j) * 4 + (k * 2 + l)
                        damp = (1 - eps) ** ((i != k) + (j != l))
                        assert abs(s[row, row] - damp) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_composed_full_register_stages_in_either_order(self, n):
        rng = np.random.default_rng(50 + n)
        thetas, phis = rng.uniform(0, math.pi, (n, 5)), rng.uniform(-math.pi, math.pi, (n, 5))
        bases = list(zip(thetas, phis))
        bases[0] = (float(thetas[0, 0]), phis[0])  # a number with an array
        if n > 1:
            bases[-1] = (float(thetas[-1, 0]), float(phis[-1, 0]))  # numbers only
        eps = rng.random(5)
        product = product_monitor(bases, eps)
        assert isinstance(product, Superoperator) and product.matrix.shape == (5, 4**n, 4**n)
        for reverse in (False, True):
            oracle = to_superoperator(composed_product_monitor(bases, eps, reverse)).matrix
            assert np.abs(product.matrix - oracle).max() <= 1e-14

    def test_qubit_stacks_must_share_a_size(self):
        with pytest.raises(DimensionError, match=r"qubit stack sizes differ: \[2, 3\]"):
            product_monitor([(np.zeros(3), 0.0), (np.zeros(2), 0.0)], 0.5)


def test_superoperator_is_dataclass_with_dim():
    s = to_superoperator(MonitoringChannel(random_observable(3, np.random.default_rng(7)), 0.0))
    assert isinstance(s, Superoperator) and s.dim == 3 and s.matrix.shape == (9, 9)


class TestStacks:
    def test_dephase_and_monitor_stacks_match_members_bitwise(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 4):
            xs = [random_observable(d, rng) for _ in range(5)]
            rhos = [ginibre_density(d, rng) for _ in range(5)]
            eps = rng.random(5)
            x, rho = stack_observables(xs), stack_states(rhos)
            dephased = dephase(x, rho).matrix
            monitored = monitor(MonitoringChannel(x, eps), rho).matrix
            for n in range(5):
                assert np.array_equal(dephased[n], dephase(xs[n], rhos[n]).matrix)
                assert np.array_equal(monitored[n], monitor(MonitoringChannel(xs[n], eps[n]), rhos[n]).matrix)

    def test_one_observable_broadcasts_over_a_state_stack(self):
        rng = np.random.default_rng(32)
        rhos = [ginibre_density(2, rng) for _ in range(3)]
        out = dephase(SZ, stack_states(rhos))
        assert out.batch == 3
        for n, rho in enumerate(rhos):
            assert np.array_equal(out.matrix[n], dephase(SZ, rho).matrix)

    def test_intensity_array_over_one_state(self):
        eps = np.array([0.0, 0.5, 1.0])
        out = monitor(MonitoringChannel(SZ, eps), PLUS).matrix
        assert np.array_equal(out[:, 0, 1], [0.5, 0.25, 0.0])

    def test_composed_stages_must_share_a_stack_size(self):
        three = MonitoringChannel(observable_from_axis(np.zeros(3)), 0.5)
        two = MonitoringChannel(observable_from_axis(np.zeros(2)), 0.5)
        for outer in (three, to_superoperator(three)):
            with pytest.raises(DimensionError, match="^stack sizes differ: 3 outer stages vs 2 inner stages$"):
                ComposedChannel(outer, two)
            assert ComposedChannel(outer, MonitoringChannel(SZ, 0.5)).batch == 3
        single = MonitoringChannel(SX, 0.4)
        assert channels_equal(ComposedChannel(to_superoperator(single), single), ComposedChannel(single, single))

    def test_observable_and_intensity_stacks_must_share_a_size(self):
        with pytest.raises(DimensionError, match="3 observables vs 2 intensities"):
            MonitoringChannel(observable_from_axis(np.zeros(3)), np.array([0.2, 0.4]))
        assert MonitoringChannel(observable_from_axis(np.zeros(3)), np.array([0.2, 0.4, 0.6])).batch == 3

    @pytest.mark.parametrize(
        "call",
        [
            lambda x, eps, rho: dephase(x, rho),
            lambda x, eps, rho: monitor(MonitoringChannel(x, 0.5), rho),
            lambda x, eps, rho: monitor(MonitoringChannel(SZ, eps), rho),
            lambda x, eps, rho: delta_reality_other(SX, x, 0.5, rho),
            lambda x, eps, rho: delta_reality_other(SX, SZ, eps, rho),
            lambda x, eps, rho: delta_reality_other(x, SZ, 0.5, rho),
            lambda x, eps, rho: delta_reality_monitored(SZ, eps, rho),
            lambda x, eps, rho: irreality(x, rho),
            lambda x, eps, rho: reality_report(x, SX, 0.5, rho),
            lambda x, eps, rho: reality_report(SZ, SX, eps, rho),
            lambda x, eps, rho: reality_report(SZ, x, 0.5, rho),
            lambda x, eps, rho: classify_case(x, SX, rho),
            lambda x, eps, rho: classify_case(SZ, x, rho),
        ],
        ids=[
            "dephase", "monitor-observables", "monitor-intensities", "other-monitored", "other-intensities",
            "other-probe", "monitored-intensities", "irreality", "report-monitored", "report-intensities",
            "report-probe", "classify-monitored", "classify-probe",
        ],
    )
    def test_five_observables_or_intensities_against_three_states_name_the_sizes(self, call):
        five = observable_from_axis(np.linspace(0.1, 1.0, 5))
        three = stack_states([PLUS, ZERO, PLUS])
        with pytest.raises(DimensionError, match="stack sizes differ: .*5.* vs 3 states"):
            call(five, np.linspace(0.1, 0.9, 5), three)

    # the entry points that raised numpy's raw broadcast error, and the probe against the monitored observable
    FIVE_AGAINST_THREE = {
        "commutes": (lambda: commutes(FIVE_AXES, THREE_AXES), "5 first observables vs 3 second observables"),
        "is_mutually_unbiased": (
            lambda: is_mutually_unbiased(FIVE_AXES, THREE_AXES),
            "5 first observables vs 3 second observables",
        ),
        "mixture_of_eigenstates": (
            lambda: mixture_of_eigenstates(FIVE_AXES, np.full((3, 2), 0.5)),
            "5 observables vs 3 probability rows",
        ),
        "apply_circuit_matrix": (
            lambda: apply_circuit_matrix(FIVE_CIRCUITS, THREE_STATES.matrix),
            "5 circuits vs 3 operators",
        ),
        "run_circuit_density": (lambda: run_circuit_density(FIVE_CIRCUITS, THREE_STATES), "5 circuits vs 3 operators"),
        "Superoperator.apply_matrix": (
            lambda: to_superoperator(MonitoringChannel(FIVE_AXES, 0.5)).apply_matrix(THREE_STATES.matrix),
            "5 superoperators vs 3 operators",
        ),
        "MonitoringChannel.apply_matrix": (
            lambda: MonitoringChannel(FIVE_AXES, 0.5).apply_matrix(THREE_STATES.matrix),
            "5 channels vs 3 operators",
        ),
        "ComposedChannel.apply_matrix": (
            lambda: ComposedChannel(MonitoringChannel(FIVE_AXES, 1.0), MonitoringChannel(FIVE_AXES, 0.5)).apply_matrix(
                THREE_STATES.matrix
            ),
            "5 channels vs 3 operators",
        ),
        "delta_reality_other-probe-vs-monitored": (
            lambda: delta_reality_other(FIVE_AXES, THREE_AXES, 0.5, PLUS),
            "5 probes vs 3 monitoring channels",
        ),
    }

    @pytest.mark.parametrize("entry", FIVE_AGAINST_THREE)
    def test_every_mixed_operand_entry_point_names_both_stack_sizes(self, entry):
        call, sizes = self.FIVE_AGAINST_THREE[entry]
        with pytest.raises(DimensionError, match=f"^stack sizes differ: {sizes}$"):
            call()

    def test_a_stack_of_one_is_a_stack(self):
        one = stack_states([PLUS])
        with pytest.raises(DimensionError, match="^stack sizes differ: 1 observables vs 3 states$"):
            dephase(observable_from_axis(np.zeros(1)), THREE_STATES)
        with pytest.raises(DimensionError, match="^stack sizes differ: 3 circuits vs 1 operators$"):
            run_circuit_density(build_monitor_circuit([(np.zeros(3), 0.0)], 0.5), one)

    def test_mismatched_dimensions_are_named(self):
        with pytest.raises(DimensionError, match="^dimensions differ: 2-dimensional circuits vs 4-dimensional operators$"):
            apply_circuit_matrix(build_monitor_circuit([(0.0, 0.0)], 0.5), np.eye(4) / 4)
        with pytest.raises(DimensionError, match="^dimensions differ: 2-dimensional first .* vs 3-dimensional second"):
            commutes(SZ, random_observable(3, np.random.default_rng(0)))
        for channel in (MonitoringChannel(SZ, 0.5), ComposedChannel(MonitoringChannel(SZ, 1.0), MonitoringChannel(SZ, 0.5))):
            with pytest.raises(DimensionError, match="^dimensions differ: 2-dimensional channels vs 4-dimensional operators$"):
                channel.apply_matrix(np.eye(4) / 4)

    def test_intensity_array_range_enforced(self):
        with pytest.raises(ValueError):
            MonitoringChannel(SZ, np.array([0.2, 1.5]))
        with pytest.raises(ValueError):
            MonitoringChannel(SZ, np.array([0.2, math.nan]))

    @pytest.mark.parametrize(
        "epsilon, named",
        [
            (1.0000000000005, "got 1.0000000000005$"),
            (np.array([0.0, 1.0000000000005, -1.0]), r"got 1\.0000000000005 at index 1$"),
            (np.array([0.2, math.nan]), "got nan at index 1$"),
        ],
    )
    def test_intensity_error_names_the_first_value_outside_the_range(self, epsilon, named):
        with pytest.raises(ValueError, match=named):
            MonitoringChannel(SZ, epsilon)


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes, so signed zeros must match too."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAngleArrays:
    """Builders given (N,) angle arrays equal their per-member scalar calls bitwise."""

    def test_observable_from_axis_stack_equals_its_members(self):
        rng = np.random.default_rng(41)
        theta, phi = rng.uniform(-2 * math.pi, 2 * math.pi, (2, 64))
        theta[:3], phi[:3] = (0.0, -0.0, math.pi), (-0.0, math.pi, -1.0)
        for phis in (phi, 0.7, -0.0):  # an array, and numbers broadcast against theta
            stack = observable_from_axis(theta, phis)
            assert stack.batch == 64 and stack.eigenvalues.shape == (64, 2)
            for k, (t, p) in enumerate(zip(theta.tolist(), np.broadcast_to(phis, theta.shape).tolist())):
                alone = observable_from_axis(t, p)
                assert alone.batch is None and alone.eigenvalues == (1.0, -1.0)
                assert same_bits(stack.eigenvalues[k], alone.eigenvalues)
                assert same_bits(stack.projectors[k], alone.projectors)

    def test_axis_angles_must_be_numbers_or_vectors(self):
        with pytest.raises(DimensionError):
            observable_from_axis(np.zeros((2, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_product_monitor_stack_equals_its_members(self, n):
        rng = np.random.default_rng(40 + n)
        members = 5
        thetas = rng.uniform(0, math.pi, (n, members))
        phis = [0.25] + list(rng.uniform(-math.pi, math.pi, (n - 1, members)))  # qubit 0: one phi for all
        eps = rng.random(members)
        ch = product_monitor(list(zip(thetas, phis)), eps)
        assert ch.batch == members
        stack = to_superoperator(ch).matrix
        assert stack.shape == (members, 4**n, 4**n)
        for k in range(members):
            bases = [(float(t[k]), float(np.broadcast_to(p, (members,))[k])) for t, p in zip(thetas, phis)]
            alone = product_monitor(bases, float(eps[k]))
            assert alone.batch is None
            assert same_bits(stack[k], to_superoperator(alone).matrix)

    def test_one_basis_with_an_intensity_array_is_a_stack(self):
        eps = np.array([0.0, 0.4, 1.0])
        stack = to_superoperator(product_monitor([(0.3, 0.1)], eps)).matrix
        for k in range(3):
            assert same_bits(stack[k], to_superoperator(product_monitor([(0.3, 0.1)], float(eps[k]))).matrix)


def counting(monkeypatch, module, name, counts):
    """Replace ``module.name`` with a wrapper that counts its calls in ``counts[name]``."""
    original = getattr(module, name)
    counts[name] = 0

    def wrapper(*args):
        counts[name] += 1
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


class TestImageMemo:
    """``dephase`` and ``monitor`` build each image once per source state, and
    channel objects acting on matrices never read that memo."""

    def setup_method(self):
        rng = np.random.default_rng(41)  # a fresh state per test, so no test sees another's memo
        self.X = random_observable(3, rng)
        self.RHO = ginibre_density(3, rng)

    def test_repeated_calls_return_the_same_image(self):
        assert dephase(self.X, self.RHO) is dephase(self.X, self.RHO)
        first = monitor(MonitoringChannel(self.X, 0.3), self.RHO)
        assert monitor(MonitoringChannel(self.X, 0.3), self.RHO) is first
        assert first.eigensystem() is monitor(MonitoringChannel(self.X, 0.3), self.RHO).eigensystem()

    def test_an_equal_valued_intensity_array_hits(self):
        rho = stack_states([PLUS, ZERO, PLUS])
        eps = np.array([0.1, 0.2, 0.3])
        first = monitor(MonitoringChannel(SZ, eps), rho)
        assert monitor(MonitoringChannel(SZ, np.array([0.1, 0.2, 0.3])), rho) is first

    def test_a_changed_intensity_or_another_observable_misses(self):
        rho = stack_states([PLUS, ZERO, PLUS])
        eps = np.array([0.1, 0.2, 0.3])
        ch = MonitoringChannel(SZ, eps)  # holds the caller's array, not a copy
        first = monitor(ch, rho)
        before = first.matrix.copy()
        eps[0] = 0.9
        second = monitor(ch, rho)
        assert second is not first and np.array_equal(first.matrix, before)
        assert np.array_equal(second.matrix, ch.apply_matrix(rho.matrix))
        twin = ProjectiveObservable(SZ.eigenvalues, SZ.projectors)
        assert dephase(twin, rho) is not dephase(SZ, rho)
        assert monitor(MonitoringChannel(twin, eps), rho) is not second
        assert np.array_equal(dephase(twin, rho).matrix, dephase(SZ, rho).matrix)

    def test_an_observable_freed_after_its_call_leaves_no_stale_image(self):
        # the memo keeps each observable alive, so a new one never reuses its id
        for theta in np.linspace(0.0, 3.0, 20):
            x = observable_from_axis(theta)
            assert np.array_equal(dephase(x, PLUS).matrix, channels._dephased(x, PLUS.matrix)[0])
            del x

    def test_generic_section_makes_five_dephasings_and_three_eigensolves(self, monkeypatch):
        # rho, the monitored state and the composed probe-after-monitor state;
        # the three dephased images carry their spectra
        rng = np.random.default_rng(7)
        x, xp, rho, eps = verify._instances(3, 4, rng, verify.OBSERVABLE, verify.OBSERVABLE, verify.STATE, verify.INTENSITY)
        counts = {}
        counting(monkeypatch, channels, "_dephased", counts)
        counting(monkeypatch, states, "hermitian_eig", counts)
        reality_report(x, xp, eps, rho)
        delta_reality_other(xp, x, eps, rho)
        delta_reality_monitored(x, eps, rho)
        irreality(x, rho)
        assert counts == {"_dephased": 5, "hermitian_eig": 3}

    def test_channels_on_matrices_recompute_every_dephasing(self, monkeypatch):
        x, xp = self.X, random_observable(3, np.random.default_rng(42))
        dephase(xp, monitor(MonitoringChannel(x, 0.4), self.RHO))  # fills the memo
        counts = {}
        counting(monkeypatch, channels, "_dephased", counts)
        composed = ComposedChannel(MonitoringChannel(xp, 1.0), MonitoringChannel(x, 0.4))
        composed.apply_matrix(self.RHO.matrix)
        assert counts["_dephased"] == 2
