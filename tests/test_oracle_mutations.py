"""Mutation checks for the independent oracles.

Each test injects one small fault into one side of a comparison and asserts
that the check named for it no longer passes:

- circuit certification (the qubit order of the analytic product map, the
  compiled circuit stacks, the Kraus split of their isometries, the
  intensity mapping, or the order of the reference stack);
- verify-cases' four-entropy identity between the sequential and the
  composed-channel routes, and a dephased image's carried spectrum against
  a solve of its matrix (unsorted weights, or another basis's weights);
- acceptance criterion 2c, the sign of the probe gain;
- acceptance criterion 4, the closed-form qubit spectra;
- the closed-form noisy dilation and the sweep oracle, against a wrong
  depolarizing rate, pair or readout shrink;
- the two shot-statistics gates, against samplers that repeat one generator
  state, reuse one repeat's counts or draw half the shots.

A refactor that merges the two sides of a check, or that checks only part
of a stack, makes one of these pass silently and fails here.
"""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from _helpers import (
    CNOT_MAPPING_CHECK,
    bloch_gate_passes,
    bloch_shot_gate,
    carried_spectrum_gap,
    named_check,
    noisy_dilation_gap,
    probe_gain_sign_check,
    reality,
    scenario1_grid,
    sweep_gate_passes,
    sweep_oracle_gap,
    sweep_shot_gate,
)
from realmon import certify, channels, circuits, cli, noise, sweeps, tomography
from realmon.certify import certify_circuits
from realmon.channels import ComposedChannel, Superoperator, product_monitor
from realmon.circuits import COUPLINGS, Circuit, epsilon_of_strength
from realmon.config import make_config
from realmon.observables import stack_observables
from realmon.sampling import random_density, random_observable
from realmon.states import DensityOperator, stack_states
from realmon.verify import verify_cases

IDENTITY_CHECK = "four-entropy identity (sequential vs composed)"


def test_unfaulted_certification_passes():
    assert certify_circuits(3).ok


def test_reference_factors_in_reversed_qubit_order_are_caught(monkeypatch):
    def reversed_factors(bases, epsilon):
        return product_monitor(bases[::-1], epsilon)  # qubit q's factor lands on qubit n-1-q

    monkeypatch.setattr(certify, "product_monitor", reversed_factors)
    report = certify_circuits(3)
    assert not report.ok
    assert named_check(report, "n=2 CZ")["worst"] > 1e-10 and named_check(report, "n=3 CZ smoke")["worst"] > 1e-9
    assert named_check(report, "n=1 CZ")["worst"] < 1e-14


def test_error_in_one_member_of_a_circuit_stack_is_caught(monkeypatch):
    compile_isometry = Circuit.isometry.func

    def faulty(self):
        v = compile_isometry(self).copy()
        v[-1] += 1e-8  # the last member of each stack; certify extracts only stacks
        return v

    monkeypatch.setattr(Circuit, "isometry", property(faulty))
    assert not certify_circuits(3).ok


def test_kraus_split_with_the_ancilla_index_first_is_caught(monkeypatch):
    def ancilla_first(circuit):
        d, v = circuit.dim, circuit.isometry
        # rows read as (ancilla, system) index pairs, then put in the (i, a, k) order the contraction takes
        k = np.swapaxes(v.reshape(v.shape[:-2] + (v.shape[-2] // d, d, d)), -3, -2)
        s = np.einsum("...iak,...jal->...ijkl", k, k.conj())
        return Superoperator(d, s.reshape(s.shape[:-4] + (d * d, d * d)))

    monkeypatch.setattr(certify, "extract_channel", ancilla_first)
    report = certify_circuits(3)
    assert not report.ok
    assert all(named_check(report, f"n={n} {coupling}")["worst"] > 1e-10 for n in (1, 2) for coupling in COUPLINGS)
    assert named_check(report, CNOT_MAPPING_CHECK)["worst"] <= 1e-10  # read through the circuit, not the split


def half_sine(coupling, theta_m):
    """The often-quoted CNOT mapping eps = 1 - sin(theta_m)/2, in place of the certified one."""
    if coupling == "CNOT":
        return 1.0 - 0.5 * np.sin(theta_m)
    return epsilon_of_strength(coupling, theta_m)


def test_half_sine_cnot_mapping_is_caught(monkeypatch):
    monkeypatch.setattr(certify, "epsilon_of_strength", half_sine)
    report = certify_circuits(3)
    assert not report.ok
    assert named_check(report, "n=1 CNOT")["worst"] > 0.1 and named_check(report, "n=1 CZ")["worst"] < 1e-14


def test_certify_violation_names_its_check(monkeypatch, capsys):
    monkeypatch.setattr(certify, "epsilon_of_strength", half_sine)
    lines = certify_circuits(3).render_text().splitlines()
    failed = [line.strip() for line in lines if line.lstrip().startswith("[FAIL]")]
    assert len(failed) == 2 and all(" vs bound 1e-10 over 9 instances" in line for line in failed)
    assert {line.split(":")[0] for line in failed} == {"[FAIL] n=1 CNOT", "[FAIL] n=2 CNOT"}
    assert lines[-1] == "result: VIOLATIONS FOUND"
    assert cli.main(["certify-circuits", "--resolution", "3"]) == 2
    assert "[FAIL] n=1 CNOT: max margin" in capsys.readouterr().out


def test_reference_stack_out_of_order_is_caught(monkeypatch):
    def rolled(bases, epsilon):
        return product_monitor(bases, np.roll(epsilon, 1))  # member k gets member k-1's intensity

    monkeypatch.setattr(certify, "product_monitor", rolled)
    assert not certify_circuits(3).ok


def test_perturbed_composed_channel_breaks_the_four_entropy_identity(monkeypatch):
    assert {c.name: c.passed for c in verify_cases(0, 20, (2, 3)).checks}[IDENTITY_CHECK]
    apply = ComposedChannel.apply_matrix
    monkeypatch.setattr(ComposedChannel, "apply_matrix", lambda self, mat: apply(self, mat) + 1e-8)
    report = verify_cases(0, 20, (2, 3))
    assert {c.name: c.passed for c in report.checks}[IDENTITY_CHECK] is False
    assert not report.ok


class UnsortingNumpy:
    """numpy as ``channels`` sees it, but with a ``sort`` that hands back its input in order."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def sort(a, axis=-1):
        return np.asarray(a)


def _generic_stack(d, members, seed):
    rng = np.random.default_rng(seed)
    instances = [(random_observable(d, rng), random_density(d, rng)) for _ in range(members)]
    x, rho = (column for column in zip(*instances))
    return stack_observables(x), stack_states(rho)


def test_unsorted_carried_weights_are_caught(monkeypatch):
    x, rho = _generic_stack(3, 20, 7)
    assert carried_spectrum_gap(x, rho) <= 2e-15
    monkeypatch.setattr(channels, "np", UnsortingNumpy())
    fresh = DensityOperator(rho.matrix, validate=False)  # an empty image memo, so dephase builds again
    assert carried_spectrum_gap(x, fresh) > 1e-3


def test_weights_of_the_transposed_projectors_are_caught(monkeypatch):
    """Weights Tr(P_j^T rho), which belong to the complex-conjugate basis, carried as the image's spectrum."""
    x, rho = _generic_stack(3, 20, 8)
    dephased = channels._dephased

    def transposed_weights(obs, mat):
        image, weights = dephased(obs, mat)
        return image, None if weights is None else np.einsum("...kij,...ij->...k", obs.projectors, mat)

    monkeypatch.setattr(channels, "_dephased", transposed_weights)
    assert carried_spectrum_gap(x, rho) > 1e-3
    report = verify_cases(0, 20, (2, 3))
    assert {c.name: c.passed for c in report.checks}[IDENTITY_CHECK] is False
    assert not report.ok


def _generic_probe_gains(n):
    """Probe gains of n generic qubit instances, through ``reality.delta_reality_other``."""
    rng = np.random.default_rng(2024)
    instances = [(random_observable(2, rng), random_observable(2, rng), random_density(2, rng)) for _ in range(n)]
    x, xp, rho = (column for column in zip(*instances))
    eps = rng.random(n)
    return reality.delta_reality_other(stack_observables(xp), stack_observables(x), eps, stack_states(rho))


def test_clamped_probe_gain_fails_criterion_2c(monkeypatch):
    assert probe_gain_sign_check(_generic_probe_gains(500))[0]
    gain = reality.delta_reality_other
    monkeypatch.setattr(reality, "delta_reality_other", lambda *args: np.maximum(gain(*args), 0.0))
    passed, negatives, _, gap = probe_gain_sign_check(_generic_probe_gains(500))
    assert not passed
    assert negatives == 0 and gap > 0.2  # both halves of the check catch the clamp


def test_shifted_closed_form_spectra_fail_criterion_4(monkeypatch):
    grid = [math.pi * k / 8 for k in range(9)], [k / 8 for k in range(9)]
    assert scenario1_grid(*grid)[0] <= 1e-10
    spectra = reality.qubit_spectra

    def shifted(*args):
        # move every larger eigenvalue 1e-8 towards 1/2, so (lam, 1 - lam) stays a distribution
        return spectra(*args) - 1e-8

    monkeypatch.setattr(reality, "qubit_spectra", shifted)
    assert scenario1_grid(*grid)[0] > 1e-10


NOISY_SWEEP = dict(points=5, path="noisy", shots=0, depolarizing=0.1, readout_flip=0.03)


@pytest.mark.parametrize("scenario", ["fig4a", "fig4c"])
def test_halved_density_route_rate_fails_both_noise_oracles(monkeypatch, scenario):
    config = make_config(scenario, **NOISY_SWEEP)
    assert sweep_oracle_gap(config) <= 1e-12 and noisy_dilation_gap(2, "CZ", 0.3) <= 1e-12
    route = circuits._density_route

    def halved(circuit, mat):
        return route(replace(circuit, depolarizing=circuit.depolarizing / 2), mat)

    monkeypatch.setattr(circuits, "_density_route", halved)
    assert sweep_oracle_gap(config) > 1e-12
    assert noisy_dilation_gap(2, "CZ", 0.3) > 1e-12


@pytest.mark.parametrize("coupling", COUPLINGS)
@pytest.mark.parametrize("n", [2, 3])
def test_depolarizing_the_wrong_pair_fails_the_dilation_oracle(monkeypatch, n, coupling):
    # system qubit q with the next qubit's ancilla; a one-qubit sweep circuit
    # has a single (system, ancilla) pair, so only wider circuits can show this
    depolarize = circuits._depolarize_pair

    def wrong_pair(t, pair, rate, width):
        n_system = width // 2
        return depolarize(t, (pair[0], n_system + (pair[1] + 1) % n_system), rate, width)

    monkeypatch.setattr(circuits, "_depolarize_pair", wrong_pair)
    assert noisy_dilation_gap(n, coupling, 0.3) > 1e-12


def test_wrong_readout_shrink_fails_the_sweep_oracle(monkeypatch):
    config = make_config("fig4b", **NOISY_SWEEP)
    assert sweep_oracle_gap(config) <= 1e-12
    flip = sweeps.confusion_from_flip
    monkeypatch.setattr(sweeps, "confusion_from_flip", lambda p: flip(p / 2))  # shrinks by 1 - p, not 1 - 2p
    assert sweep_oracle_gap(config) > 1e-12


def fresh_copy_sampler():
    """Every member draws from a fresh copy of the generator's state, which never advances.

    The counts depend only on that state and the rows, so they are memoised on
    both (the same counts a fresh draw would give, at a fraction of the cost).
    """
    drawn = {}

    def sampler(probabilities, n_shots, rng):
        p = np.asarray(probabilities, dtype=float)
        key = (repr(rng.bit_generator.state), n_shots, p.tobytes())
        if key not in drawn:
            drawn[key] = np.stack([copy.deepcopy(rng).multinomial(n_shots, member) for member in p])
        return drawn[key]

    return sampler


def reused_repeat_sampler():
    """The first repeat's counts from each generator, handed back for every later repeat.

    A stacked call's rows are (repeats, N, 3, 2), so within a call repeat 0's
    rows stand in for every repeat, and later calls on the same generator get
    them again.
    """
    first = {}

    def sampler(probabilities, n_shots, rng):
        p = np.asarray(probabilities, dtype=float)
        if rng not in first:
            first[rng] = noise.sample_shots(p[0] if p.ndim == 4 else p, n_shots, rng)
        return np.broadcast_to(first[rng], p.shape)

    return sampler


def half_shot_sampler(probabilities, n_shots, rng):
    """Half the shots, rescaled to look like the full count."""
    return 2 * noise.sample_shots(probabilities, n_shots // 2, rng)


SHOT_MUTANTS = {
    "fresh-copy": fresh_copy_sampler,
    "reused-repeat": reused_repeat_sampler,
    "half-shots": lambda: half_shot_sampler,
}
SHOT_GATES = {
    "bloch": (bloch_shot_gate, bloch_gate_passes),
    "sweep": (sweep_shot_gate, sweep_gate_passes),
}


@pytest.mark.parametrize("gate", SHOT_GATES)
@pytest.mark.parametrize("mutant", SHOT_MUTANTS)
def test_broken_shot_sampler_fails_the_statistical_gate(monkeypatch, mutant, gate):
    run, passes = SHOT_GATES[gate]
    monkeypatch.setattr(tomography, "sample_shots", SHOT_MUTANTS[mutant]())
    assert not passes(run())
