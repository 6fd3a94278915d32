import inspect
import math

import numpy as np
import pytest

from _helpers import PRESET_BLOCH, axis_vector, maximally_mixed, members, report_entropies, spectra_entropies
from realmon import verify
from realmon.channels import MonitoringChannel, monitor
from realmon.config import make_config, resolve_state
from realmon.linalg import DimensionError
from realmon.observables import (
    ProjectiveObservable,
    observable_from_axis,
    pauli_observable,
    stack_observables,
    standard_mub_observables,
)
from realmon.reality import (
    CaseLabel,
    classify_case,
    delta_reality_monitored,
    delta_reality_other,
    irreality,
    qubit_spectra,
    reality,
    reality_report,
)
from realmon.sampling import (
    ginibre_density,
    mixture_of_eigenstates,
    random_commuting_pair,
    random_density,
    random_mu_pair,
    random_observable,
    random_probabilities,
)
from realmon.states import (
    DensityOperator,
    PureState,
    density_from_pure,
    stack_states,
)
from realmon.sweeps import _grid_parameters


def diagonal_observable(values):
    """Observable with eigenvalue values[k] on basis state k."""
    return ProjectiveObservable(values, [np.diag(row) for row in np.eye(len(values), dtype=complex)])


IDENTITY_OBSERVABLE = ProjectiveObservable((1.0,), [np.eye(2, dtype=complex)])

SZ = pauli_observable("z")
SX = pauli_observable("x")
SY = pauli_observable("y")
PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex))
ZERO = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
ISTATE = DensityOperator(np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex))

H2_QUARTER = 0.8112781244591328
H2_SIN2_PI8 = 0.6008760366928562  # binary entropy of sin^2(pi/8), frozen


def test_realmon_reality_names_the_module():
    import realmon.reality as m

    assert inspect.ismodule(m) and m.reality is reality


class TestIrrealityReality:
    def test_plus_state_fully_indefinite(self):
        assert irreality(SZ, PLUS) == 1.0

    def test_eigenstate_fully_definite(self):
        assert irreality(SZ, ZERO) == 0.0
        assert reality(SZ, ZERO) == 1.0

    def test_tilted_state_golden(self):
        psi = density_from_pure(PureState([math.cos(math.pi / 8), math.sin(math.pi / 8)]))
        assert abs(irreality(SZ, psi) - H2_SIN2_PI8) <= 1e-12

    def test_reality_of_plus_is_zero(self):
        assert reality(SZ, PLUS) == 0.0

    def test_two_qubit_diagonal_reality(self):
        # nondegenerate diagonal observable on the maximally mixed 2-qubit state
        obs = diagonal_observable((1.5, 0.5, -0.5, -1.5))
        assert reality(obs, maximally_mixed(4)) == 2.0

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 4):
            for _ in range(10):
                assert irreality(random_observable(d, rng), random_density(d, rng)) >= -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            irreality(SZ, maximally_mixed(3))


class TestDeltaRealityMonitored:
    def test_full_strength_exact_bit(self):
        assert delta_reality_monitored(SZ, 1.0, PLUS) == 1.0

    def test_zero_strength(self):
        rng = np.random.default_rng(1)
        assert delta_reality_monitored(SZ, 0.0, ginibre_density(2, rng)) == 0.0

    def test_half_strength_golden(self):
        assert abs(delta_reality_monitored(SZ, 0.5, PLUS) - H2_QUARTER) <= 1e-12

    def test_spectrum_matches_closed_form(self):
        # lambda_pm = (1 +- (1 - eps)) / 2 for the plus state monitored along z
        for eps in (0.0, 0.25, 0.6, 1.0):
            out = monitor(MonitoringChannel(SZ, eps), PLUS)
            w = sorted(out.eigenvalues())
            assert abs(w[0] - 0.5 * (1 - (1 - eps))) <= 1e-12
            assert abs(w[1] - 0.5 * (1 + (1 - eps))) <= 1e-12

    def test_bounded_below_by_scaled_irreality(self):
        rng = np.random.default_rng(2)
        for d in (2, 3):
            for _ in range(25):
                x = random_observable(d, rng)
                rho = random_density(d, rng)
                eps = float(rng.random())
                assert delta_reality_monitored(x, eps, rho) >= eps * irreality(x, rho) - 1e-9

    def test_intensity_validated(self):
        with pytest.raises(ValueError):
            delta_reality_monitored(SZ, 1.2, PLUS)


class TestDeltaRealityOther:
    def test_probe_diagonal_state_unchanged(self):
        for eps in (0.1, 0.5, 1.0):
            assert abs(delta_reality_other(SX, SZ, eps, PLUS)) <= 1e-12

    def test_third_basis_state_matches_monitored_gain(self):
        for eps in (0.2, 0.7, 1.0):
            dro = delta_reality_other(SX, SZ, eps, ISTATE)
            drm = delta_reality_monitored(SZ, eps, ISTATE)
            assert abs(dro - drm) <= 1e-12

    def test_scenario2_point_golden(self):
        tilted = observable_from_axis(math.pi / 4, 0.0)
        value = delta_reality_other(SZ, tilted, 1.0, PLUS)
        expected = 1.0 + H2_SIN2_PI8 - H2_QUARTER  # = 0.7896 to 4 decimals
        assert abs(value - expected) <= 1e-12
        assert abs(value - 0.7896) <= 1e-4

    def test_sign_indefinite_for_generic_pairs(self):
        # monitoring a tilted non-unbiased axis degrades an established z reality
        tilted = observable_from_axis(math.pi / 4, 0.0)
        value = delta_reality_other(SZ, tilted, 1.0, ZERO)
        assert value < -0.2

    def test_four_entropy_identity_random(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            for _ in range(25):
                x = random_observable(d, rng)
                xp = random_observable(d, rng)
                rho = random_density(d, rng)
                eps = float(rng.random())
                report = reality_report(x, xp, eps, rho)
                dro = delta_reality_other(xp, x, eps, rho)
                recombined = (
                    report.delta_r_monitored
                    + report.entropy_probe
                    - report.entropy_probe_monitored
                )
                assert abs(dro - recombined) <= 1e-10


class TestCases:
    def test_case_i_commuting_equality(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4):
            for _ in range(15):
                x, xp = random_commuting_pair(d, rng)
                rho = random_density(d, rng)
                eps = float(rng.random())
                assert abs(
                    delta_reality_other(xp, x, eps, rho) - delta_reality_monitored(x, eps, rho)
                ) <= 1e-9

    def test_case_ii_monitored_diagonal_freezes_both(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            for _ in range(15):
                x = random_observable(d, rng)
                xp = random_observable(d, rng)
                rho = mixture_of_eigenstates(x, random_probabilities(d, rng))
                eps = float(rng.random())
                assert abs(delta_reality_monitored(x, eps, rho)) <= 1e-9
                assert abs(delta_reality_other(xp, x, eps, rho)) <= 1e-9

    def test_case_iii_probe_diagonal_never_gains(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            for _ in range(15):
                x = random_observable(d, rng)
                xp = random_observable(d, rng)
                rho = mixture_of_eigenstates(xp, random_probabilities(d, rng))
                eps = float(rng.random())
                assert delta_reality_other(xp, x, eps, rho) <= 1e-9

    def test_case_iv_mu_ordering_and_concavity(self):
        rng = np.random.default_rng(7)
        for d in (2, 3):
            for _ in range(15):
                x, xp = random_mu_pair(d, rng)
                rho = random_density(d, rng)
                eps = float(rng.random())
                report = reality_report(x, xp, eps, rho)
                assert report.delta_r_monitored >= report.delta_r_probe - 1e-9
                gain = report.entropy_probe_monitored - report.entropy_probe
                assert gain >= eps * (math.log2(d) - report.entropy_probe) - 1e-9

    def test_maximally_mixed_is_fixed_point_of_everything(self):
        rng = np.random.default_rng(13)
        for d in (2, 3, 4):
            rho = maximally_mixed(d)
            x = random_observable(d, rng)
            xp = random_observable(d, rng)
            eps = float(rng.random())
            assert delta_reality_monitored(x, eps, rho) == 0.0
            assert abs(delta_reality_other(xp, x, eps, rho)) <= 1e-12

    def test_case_v_equality_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            p = float(rng.uniform(0.0, 0.4))
            rho = mixture_of_eigenstates(SY, [p, 1 - p])
            eps = float(rng.uniform(0.1, 1.0))
            drm = delta_reality_monitored(SZ, eps, rho)
            dro = delta_reality_other(SX, SZ, eps, rho)
            assert abs(dro - drm) <= 1e-9
            assert drm > 0.0


class TestClassify:
    def test_compatible(self):
        assert classify_case(SZ, IDENTITY_OBSERVABLE, ISTATE) is CaseLabel.COMPATIBLE

    def test_x_diagonal(self):
        assert classify_case(SZ, observable_from_axis(1.0, 0.3), ZERO) is CaseLabel.X_DIAGONAL

    def test_xprime_diagonal(self):
        assert classify_case(SZ, SX, PLUS) is CaseLabel.XPRIME_DIAGONAL

    def test_triple_mu(self):
        assert classify_case(SZ, SX, ISTATE) is CaseLabel.TRIPLE_MU

    def test_plain_mu(self):
        rng = np.random.default_rng(9)
        rho = ginibre_density(2, rng)
        label = classify_case(SZ, SX, rho)
        assert label in (CaseLabel.MU, CaseLabel.TRIPLE_MU)
        tilted = DensityOperator(
            0.7 * np.diag([1.0, 0.0]).astype(complex) + 0.3 * np.full((2, 2), 0.5, dtype=complex),
            validate=False,
        )
        assert classify_case(SZ, SX, tilted) is not CaseLabel.TRIPLE_MU

    def test_generic(self):
        tilted = observable_from_axis(math.pi / 4, 0.0)
        rng = np.random.default_rng(10)
        rho = ginibre_density(2, rng)
        assert classify_case(tilted, SZ, rho) is CaseLabel.GENERIC

    def test_d3_triple_mu(self):
        from realmon.observables import standard_mub_observables

        b0, b1, b2, _ = standard_mub_observables(3)
        rho = mixture_of_eigenstates(b2, [0.5, 0.3, 0.2])
        assert classify_case(b0, b1, rho) is CaseLabel.TRIPLE_MU


def scenario1(theta, epsilon):
    """Larger eigenvalues of (rho, monitored, probe, probe-after-monitor):
    rho = |+><+|, monitored axis z, probe axis theta (phi = 0)."""
    return qubit_spectra(PRESET_BLOCH["plus"], axis_vector(0.0), axis_vector(theta), epsilon)


def scenario2(theta, epsilon):
    """The same four larger eigenvalues for rho = |+><+|, monitored axis theta, probe z."""
    return qubit_spectra(PRESET_BLOCH["plus"], axis_vector(theta), axis_vector(0.0), epsilon)


class TestScenarioOne:
    def test_full_strength_orthogonal_axis(self):
        rho, mon, probe, probe_mon = scenario1(math.pi / 2, 1.0)
        assert (rho, mon, probe, probe_mon) == (1.0, 0.5, 1.0, 0.5)
        assert (1.0 - probe, 1.0 - mon) == (0.0, 0.5)

    def test_no_monitoring_probe_unchanged(self):
        for theta in (0.1, 1.0, 2.5):
            rho, mon, probe, probe_mon = scenario1(theta, 0.0)
            assert mon == rho and probe_mon == probe

    def test_quarter_strength_golden(self):
        probe_mon = scenario1(math.pi / 6, 0.5)[3]
        assert abs(probe_mon - 0.5 * (1 + 0.25)) <= 1e-15
        assert abs((1.0 - probe_mon) - 0.5 * (1 - 0.25)) <= 1e-15

    def test_pairs_normalized(self):
        # the larger eigenvalue lies in [1/2, 1], so (lam, 1 - lam) is a spectrum,
        # for any state in the Bloch ball, any axes, intensity and noise rates
        rng = np.random.default_rng(11)
        directions = rng.normal(size=(25, 3))
        bloch = directions / np.linalg.norm(directions, axis=1, keepdims=True) * rng.random((25, 1))
        axes = [axis_vector(rng.uniform(0, math.pi, 25), rng.uniform(-math.pi, math.pi, 25)) for _ in range(2)]
        for noise in ((0.0, 0.0), (0.3, 0.1)):
            larger = qubit_spectra(bloch, *axes, rng.random(25), *noise)
            assert larger.shape == (25, 4)
            assert np.all((0.5 <= larger) & (larger <= 1.0 + 1e-12))

    def test_matches_closed_forms(self):
        # lam = (1 + |r|)/2 with |r| = 1 - eps, sin(theta) and (1 - eps) sin(theta)
        for theta in np.linspace(0.0, math.pi, 9):
            for eps in (0.0, 0.3, 1.0):
                expected = (1.0, 1.0 - 0.5 * eps, 0.5 * (1 + math.sin(theta)), 0.5 * (1 + (1 - eps) * math.sin(theta)))
                assert np.abs(scenario1(float(theta), eps) - expected).max() <= 1e-15

    def test_matches_machinery_entropies(self):
        for theta in np.linspace(0.0, math.pi, 9):
            probe_obs = observable_from_axis(float(theta), 0.0)
            for eps in (0.0, 0.3, 1.0):
                report = reality_report(SZ, probe_obs, eps, PLUS)
                assert np.abs(report_entropies(report) - spectra_entropies(scenario1(float(theta), eps))).max() <= 1e-10


class TestScenarioTwo:
    def test_quarter_axis_full_strength(self):
        mon = scenario2(math.pi / 4, 1.0)[1]
        assert abs(mon - 0.5 * (1 + math.sqrt(0.5))) <= 1e-15
        assert abs((1.0 - mon) - 0.5 * (1 - math.sqrt(0.5))) <= 1e-15

    def test_no_monitoring_pure(self):
        for theta in (0.2, 1.1, 3.0):
            mon = scenario2(theta, 0.0)[1]
            assert (mon, 1.0 - mon) == (1.0, 0.0)

    def test_zero_axis_matches_scenario1_monitored(self):
        for eps in (0.1, 0.5, 0.9):
            assert scenario2(0.0, eps)[1] == scenario1(1.0, eps)[1] == 1.0 - 0.5 * eps

    def test_matches_tilted_axis_closed_form(self):
        # lam = (1 + sqrt(eps^2 sin^2 cos^2 + (1 - eps cos^2)^2)) / 2
        for theta in np.linspace(0.0, math.pi, 9):
            s, c = math.sin(theta), math.cos(theta)
            for eps in (0.0, 0.4, 1.0):
                radical = math.sqrt(eps * eps * s * s * c * c + (1.0 - eps * c * c) ** 2)
                assert abs(scenario2(float(theta), eps)[1] - 0.5 * (1.0 + radical)) <= 1e-15

    def test_matches_machinery_spectrum(self):
        for theta in np.linspace(0.0, math.pi, 9):
            tilted = observable_from_axis(float(theta), 0.0)
            for eps in (0.0, 0.4, 1.0):
                out = monitor(MonitoringChannel(tilted, eps), PLUS)
                w = sorted(out.eigenvalues(), reverse=True)
                mon = scenario2(float(theta), eps)[1]
                assert abs(w[0] - mon) <= 1e-10 and abs(w[1] - (1.0 - mon)) <= 1e-10


class TestRealityReport:
    def test_fields_recombine(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            x = random_observable(2, rng)
            xp = random_observable(2, rng)
            rho = random_density(2, rng)
            eps = float(rng.random())
            r = reality_report(x, xp, eps, rho)
            assert abs(r.delta_r_monitored - (r.entropy_monitored - r.entropy_initial)) <= 1e-12
            assert abs(
                r.delta_r_probe
                - (r.entropy_probe + r.entropy_monitored - r.entropy_initial - r.entropy_probe_monitored)
            ) <= 1e-12
            assert abs(r.irreality_before + r.reality_before - 1.0) <= 1e-12

    def test_case_label_attached(self):
        # a report carries no label: sweeps and verify label its configuration with classify_case
        assert classify_case(SZ, SX, ISTATE) is CaseLabel.TRIPLE_MU


class TestStackedEvaluation:
    def test_stack_matches_members(self):
        rng = np.random.default_rng(13)
        for d in (2, 3, 4):
            members = [
                (random_observable(d, rng), random_observable(d, rng), random_density(d, rng), float(rng.random()))
                for _ in range(6)
            ]
            x = stack_observables(m[0] for m in members)
            xp = stack_observables(m[1] for m in members)
            rho = stack_states(m[2] for m in members)
            eps = np.array([m[3] for m in members])
            report = reality_report(x, xp, eps, rho)
            dro = delta_reality_other(xp, x, eps, rho)
            drm = delta_reality_monitored(x, eps, rho)
            irr = irreality(x, rho)
            for n, (xn, xpn, rhon, epsn) in enumerate(members):
                single = reality_report(xn, xpn, epsn, rhon)
                assert abs(report.delta_r_probe[n] - single.delta_r_probe) <= 1e-15
                assert abs(report.entropy_probe_monitored[n] - single.entropy_probe_monitored) <= 1e-15
                assert abs(dro[n] - delta_reality_other(xpn, xn, epsn, rhon)) <= 1e-15
                assert abs(drm[n] - delta_reality_monitored(xn, epsn, rhon)) <= 1e-15
                assert abs(irr[n] - irreality(xn, rhon)) <= 1e-15

    def test_unstacked_state_under_stacked_intensities(self):
        eps = np.array([0.0, 0.5, 1.0])
        gains = delta_reality_monitored(SZ, eps, PLUS)
        assert gains[0] == 0.0 and gains[2] == 1.0
        assert abs(gains[1] - H2_QUARTER) <= 1e-12

    def test_case_label_of_a_stacked_report_is_per_member(self):
        rng = np.random.default_rng(14)
        rho = stack_states([ISTATE, PLUS, ginibre_density(2, rng)])
        assert classify_case(SZ, SX, rho) == (CaseLabel.TRIPLE_MU, CaseLabel.XPRIME_DIAGONAL, CaseLabel.MU)


def assert_labels_match_members(x, xp, rho):
    """Label the configuration stacked, where an argument is a list of members,
    and compare each member's label with its label alone.  Returns the labels."""
    n = max(len(a) for a in (x, xp, rho) if isinstance(a, list))
    members = [a if isinstance(a, list) else [a] * n for a in (x, xp, rho)]
    stacked = classify_case(
        stack_observables(x) if isinstance(x, list) else x,
        stack_observables(xp) if isinstance(xp, list) else xp,
        stack_states(rho) if isinstance(rho, list) else rho,
    )
    alone = tuple(classify_case(*member) for member in zip(*members))
    assert stacked == alone
    return set(alone)


class TestStackedLabels:
    """A stacked ``classify_case`` gives every member the label it gets alone."""

    def test_every_label_in_one_stack(self):
        rng = np.random.default_rng(15)
        tilted = observable_from_axis(math.pi / 4, 0.0)
        configurations = [
            (SZ, SZ, ISTATE),
            (SZ, observable_from_axis(1.0, 0.3), ZERO),
            (SZ, SX, PLUS),
            (SZ, SX, ISTATE),
            (SZ, SX, ginibre_density(2, rng)),
            (tilted, SZ, ginibre_density(2, rng)),
        ] * 2
        labels = assert_labels_match_members(*(list(column) for column in zip(*configurations)))
        assert labels == set(CaseLabel)
        assert classify_case(SZ, SX, ISTATE) is CaseLabel.TRIPLE_MU  # one configuration: a label, not a tuple

    @pytest.mark.parametrize("scenario", ["fig1", "fig2", "fig4a", "fig4b", "fig4c"])
    def test_preset_grids(self, scenario):
        labels = set()
        for seed in range(4):
            grid = make_config(scenario).grid_values
            shift = float(np.random.default_rng(seed).uniform(-0.5, 0.5)) * (grid[1] - grid[0])
            grid = (grid[0],) + tuple(g + shift for g in grid[1:-1]) + (grid[-1],)
            config = make_config(scenario, grid_values=grid)
            *_, monitor_axes, probe_axes = _grid_parameters(config)
            x = [observable_from_axis(theta, phi) for theta, phi in monitor_axes.tolist()]
            xp = [observable_from_axis(theta, phi) for theta, phi in probe_axes.tolist()]
            labels |= assert_labels_match_members(x, xp, resolve_state(config.state))
        assert labels  # every preset grid is labelled

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_verify_style_sections(self, d):
        rng = np.random.default_rng(16 + d)
        trials = 40
        sections = [
            lambda: verify._instances(d, trials, rng),
            lambda: verify._instances(d, trials, rng, random_commuting_pair),
            lambda: verify._diagonal_instances(d, trials, rng, False),
            lambda: verify._diagonal_instances(d, trials, rng, True),
        ]
        if d in (2, 3):
            sections += [
                lambda: verify._instances(d, trials, rng, random_mu_pair),
                lambda: verify._mu_probe_instances(d, trials, rng),
            ]
        labels = set()
        for draw in sections:
            x, xp, rho, _, *rho_any = draw()
            x, xp, rho, rho_any = members(x), members(xp), members(rho), [members(r) for r in rho_any]
            labels |= assert_labels_match_members(x, xp, rho)
            if rho_any:
                labels |= assert_labels_match_members(x, xp, rho_any[0])
        # mixed stacks: configurations of every section interleaved
        drawn = [list(zip(*(members(stack) for stack in draw()[:3]))) for draw in sections]
        instances = [drawn[k % len(sections)][k // len(sections)] for k in range(3 * trials)]
        labels |= assert_labels_match_members(*(list(column) for column in zip(*instances)))
        expected = {CaseLabel.COMPATIBLE, CaseLabel.X_DIAGONAL, CaseLabel.XPRIME_DIAGONAL, CaseLabel.GENERIC}
        assert expected <= labels and ((CaseLabel.MU in labels) == (d in (2, 3)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_single_observables_broadcast_over_a_state_stack(self, d):
        rng = np.random.default_rng(20 + d)
        x, xp, third = standard_mub_observables(d)[:3]
        rho = members(verify._third_basis_instances(d, 40, rng, third)[0])
        rho += [random_density(d, rng) for _ in range(20)] + [mixture_of_eigenstates(xp, random_probabilities(d, rng))]
        labels = assert_labels_match_members(x, xp, rho)
        assert labels == {CaseLabel.TRIPLE_MU, CaseLabel.MU, CaseLabel.XPRIME_DIAGONAL}
        assert assert_labels_match_members(x, [xp] * 3, rho[:3]) == {CaseLabel.TRIPLE_MU}
