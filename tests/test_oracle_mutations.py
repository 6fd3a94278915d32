"""Mutation checks for the circuit certification oracle.

Each test injects one small fault into one side of the comparison that
``certify_circuits`` makes (the analytic channel algebra, the compiled
circuit stacks, or the intensity mapping) and asserts that certification
no longer passes.  A refactor that merges the two sides, or that checks
only part of a stack, makes one of these pass silently and fails here.
"""

import math

from realmon import certify
from realmon.certify import certify_circuits
from realmon.channels import ComposedChannel
from realmon.circuits import Circuit, epsilon_of_strength


def test_unfaulted_certification_passes():
    assert certify_circuits(3).ok


def test_perturbed_composed_channel_is_caught(monkeypatch):
    apply = ComposedChannel.apply_matrix
    monkeypatch.setattr(ComposedChannel, "apply_matrix", lambda self, mat: apply(self, mat) + 1e-8)
    report = certify_circuits(3)
    assert not report.ok
    assert report.deviations["n=2 CZ"] > 1e-10 and report.deviations["n=1 CZ"] < 1e-14


def test_error_in_one_member_of_a_circuit_stack_is_caught(monkeypatch):
    compile_isometry = Circuit.isometry.func

    def faulty(self):
        v = compile_isometry(self).copy()
        v[-1] += 1e-8  # the last member of each stack; certify extracts only stacks
        return v

    monkeypatch.setattr(Circuit, "isometry", property(faulty))
    assert not certify_circuits(3).ok


def test_half_sine_cnot_mapping_is_caught(monkeypatch):
    def half_sine(coupling, theta_m):
        if coupling == "CNOT":
            return 1.0 - 0.5 * math.sin(theta_m)
        return epsilon_of_strength(coupling, theta_m)

    monkeypatch.setattr(certify, "epsilon_of_strength", half_sine)
    report = certify_circuits(3)
    assert not report.ok
    assert report.deviations["n=1 CNOT"] > 0.1 and report.deviations["n=1 CZ"] < 1e-14
