"""Every public numeric, integer and choice parameter of the domain layer is
checked by config's checkers: a bad value is a ``ConfigError`` that starts
with the parameter's name, and a stack of the wrong shape a ``DimensionError``."""

import math
import re

import numpy as np
import pytest

from realmon.channels import MonitoringChannel, product_monitor
from realmon.circuits import Circuit, Gate, build_monitor_circuit, epsilon_of_strength, strength_of_epsilon
from realmon.config import MAX_SEED, ConfigError, check_number, check_numbers, make_config, resolve_state
from realmon.linalg import DimensionError, hermitian_eig
from realmon.noise import confusion_from_flip, sample_shots
from realmon.observables import observable_from_axis, pauli_observable, stack_observables
from realmon.reality import delta_reality_monitored, reality_report
from realmon.sampling import mixture_of_eigenstates
from realmon.states import DensityOperator, PureState, stack_states
from realmon.svg import render_line_chart
from realmon.sweeps import emit_json
from realmon.tomography import estimate_pauli, reconstruct_state, reconstructions

SZ = pauli_observable("z")
U3 = Gate("U3", (0,), (0.3, 0.0, 0.0))

# entry point and parameter: (call on the value, the parameter's name, its bad values
# beyond NaN, +inf, -inf, a bool and a numeric string: out of range, or None for an angle)
NUMBERS = {
    "MonitoringChannel-epsilon": (lambda v: MonitoringChannel(SZ, v), "epsilon", (1.5, -0.1)),
    "observable_from_axis-theta": (lambda v: observable_from_axis(v, 0.0), "theta", None),
    "observable_from_axis-phi": (lambda v: observable_from_axis(0.3, v), "phi", None),
    "Gate-theta": (lambda v: Gate("U3", (0,), (v, 0.0, 0.0)), "theta", None),
    "Gate-phi": (lambda v: Gate("U3", (0,), (0.0, v, 0.0)), "phi", None),
    "Gate-lam": (lambda v: Gate("U3", (0,), (0.0, 0.0, v)), "lam", None),
    "epsilon_of_strength-theta_m": (lambda v: epsilon_of_strength("CZ", v), "theta_m", (2.0, -0.1)),
    "strength_of_epsilon-epsilon": (lambda v: strength_of_epsilon("CNOT", v), "epsilon", (1.5, -0.1)),
    "confusion_from_flip-flip": (confusion_from_flip, "flip", (1.5, -0.1)),
    "Circuit-depolarizing": (lambda v: Circuit(2, (U3, Gate("CZ", (0, 1))), 1, v), "depolarizing", (1.5, -0.1)),
    "build_monitor_circuit-strength": (lambda v: build_monitor_circuit([(0.0, 0.0)], v), "theta_m", (2.0, -0.1)),
    "build_monitor_circuit-basis": (lambda v: build_monitor_circuit([(v, 0.0)], 0.5), "theta", None),
    "build_monitor_circuit-depolarizing": (
        lambda v: build_monitor_circuit([(0.0, 0.0)], 0.5, "CZ", v), "depolarizing", (1.5, -0.1),
    ),
    "product_monitor-basis": (lambda v: product_monitor([(0.0, 0.0), (0.3, v)], 0.5), "phi", None),
    "product_monitor-epsilon": (lambda v: product_monitor([(0.0, 0.0)], v), "epsilon", (1.5, -0.1)),
}
CASES = [
    (entry, bad)
    for entry, (_, _, out_of_range) in NUMBERS.items()
    for bad in (math.nan, math.inf, -math.inf, True, "0.5", *(out_of_range or ()))
]
# the stack-form parameters, each given an (N,) array with one bad entry
STACKS = {
    "MonitoringChannel-epsilon": 1.5,
    "observable_from_axis-theta": math.nan,
    "observable_from_axis-phi": math.inf,
    "Gate-theta": -math.inf,
    "epsilon_of_strength-theta_m": 2.0,
    "build_monitor_circuit-strength": math.nan,
    "product_monitor-basis": math.nan,
}
INTEGERS_AND_CHOICES = {
    "sample_shots-n_shots": (lambda v: sample_shots([[1.0, 0.0]], v, 0), "n_shots", (math.nan, True, "8", 2.5, 0)),
    "Circuit-width": (lambda v: Circuit(v, (U3,), 1), "width", (math.nan, True, "2", 1.5, 0)),
    "epsilon_of_strength-coupling": (lambda v: epsilon_of_strength(v, 0.5), "coupling", ("CY", 1, None)),
    "strength_of_epsilon-coupling": (lambda v: strength_of_epsilon(v, 0.5), "coupling", ("cz", True)),
    "build_monitor_circuit-coupling": (lambda v: build_monitor_circuit([(0.0, 0.0)], 0.5, v), "coupling", ("U3",)),
    "Gate-kind": (lambda v: Gate(v, (0, 1)), "kind", ("SWAP", None, 3)),
    "pauli_observable-axis": (pauli_observable, "axis", (1, "X", "w")),
    "emit_json-records": (lambda v: emit_json(v, make_config("fig4a", points=2), "unwritten.json"), "records", ([],)),
    # a generator checks when first advanced, before its first draw
    "reconstructions-repeats": (
        lambda v: next(reconstructions(resolve_state("plus"), 8, v, 0)),
        "repeats",
        (math.nan, True, "8", 2.5, 0),
    ),
    "reconstructions-seed": (
        lambda v: next(reconstructions(resolve_state("plus"), 8, 1, v)),
        "seed",
        (math.nan, True, "8", 2.5, -1, MAX_SEED + 1),
    ),
}


@pytest.mark.parametrize("entry, bad", CASES, ids=[f"{e}-{b!r}" for e, b in CASES])
def test_every_numeric_parameter_refuses_a_bad_value_by_name(entry, bad):
    call, name, _ = NUMBERS[entry]
    with pytest.raises(ConfigError, match=f"^{name}: must be a finite number in "):
        call(bad)


@pytest.mark.parametrize("entry", STACKS)
def test_every_stack_parameter_names_its_first_bad_entry(entry):
    call, name, _ = NUMBERS[entry]
    bad = STACKS[entry]
    with pytest.raises(ConfigError, match=rf"^{name}: must be a finite number in .*, got {bad!r} at index 1$"):
        call(np.array([0.25, bad, 0.5, bad]))
    for stack in ([0.25, True], ["0.5", 0.25], [[0.25], 0.5], np.array([True, False]), np.array([0.5 + 1j, 0.2])):
        with pytest.raises(ConfigError, match=f"^{name}: must be finite real numbers, got "):
            call(stack)
    with pytest.raises(DimensionError, match=rf"^{name}: must be a number or an \(N,\) array, got shape \(2, 2\)$"):
        call(np.full((2, 2), 0.25))


@pytest.mark.parametrize("entry", INTEGERS_AND_CHOICES)
def test_every_integer_and_choice_parameter_refuses_a_bad_value_by_name(entry):
    call, name, bad_values = INTEGERS_AND_CHOICES[entry]
    for bad in bad_values:
        with pytest.raises(ConfigError, match=f"^{name}: "):
            call(bad)


def test_a_nan_basis_angle_never_gives_nan_output():
    for build in (product_monitor, build_monitor_circuit):
        with pytest.raises(ConfigError, match="^theta: "):
            build([(math.nan, 0.0)], 0.5)


PLUS = resolve_state("plus")
NO_MEMBERS = "a stack needs at least one member, got 0 "
# entry point: (call, the error it raises, the start of its message), for an
# empty or misshapen operand; each error names the operand
REFUSED = {
    # zero-member stacks and empty lists, each a DimensionError
    "DensityOperator": (lambda: DensityOperator(np.zeros((0, 2, 2))), DimensionError, "density matrix stack must"),
    "hermitian_eig": (lambda: hermitian_eig(np.zeros((0, 3, 3))), DimensionError, "matrix stack must have"),
    "delta_reality_monitored": (
        lambda: delta_reality_monitored(SZ, np.array([]), PLUS), DimensionError, NO_MEMBERS + "intensities",
    ),
    "reality_report": (
        lambda: reality_report(SZ, pauli_observable("x"), np.array([]), PLUS), DimensionError, NO_MEMBERS + "intensities",
    ),
    "MonitoringChannel": (lambda: MonitoringChannel(SZ, []), DimensionError, NO_MEMBERS + "intensities"),
    "build_monitor_circuit-angles": (
        lambda: build_monitor_circuit([(np.array([]), np.array([]))], 0.5), DimensionError, NO_MEMBERS + "members of gate",
    ),
    "estimate_pauli": (
        lambda: estimate_pauli(DensityOperator(np.zeros((0, 2, 2)), validate=False), 8, 0),
        DimensionError,
        "density matrix stack must",
    ),
    "sample_shots": (lambda: sample_shots(np.zeros((0, 2)), 5, 0), DimensionError, "probabilities must be an (N, ..., m)"),
    "stack_states": (lambda: stack_states([]), DimensionError, "a state stack needs at least one state"),
    "observable_from_axis": (lambda: observable_from_axis(np.array([])), DimensionError, "need one projector per"),
    "reconstruct_state": (lambda: reconstruct_state(np.zeros((0, 3))), DimensionError, "Bloch vector must have shape"),
    "stack_observables": (lambda: stack_observables([]), DimensionError, "an observable stack needs at least one"),
    "PureState": (lambda: PureState([]), DimensionError, "state vector must have at least one amplitude"),
    "build_monitor_circuit-bases": (lambda: build_monitor_circuit([], 0.5), DimensionError, "need at least one system"),
    "product_monitor": (lambda: product_monitor([], 0.5), DimensionError, "need at least one qubit basis"),
    "render_line_chart": (lambda: render_line_chart([]), ValueError, "need at least one series"),
    # misshapen operands
    "render_line_chart-lengths": (
        lambda: render_line_chart([("a", [0.0, 1.0], [0.5], None)]), ValueError, "series 'a' has mismatched lengths",
    ),
    "Gate-CZ-one-qubit": (lambda: Gate("CZ", (0,)), ValueError, "CZ takes two qubits and no angles"),
    "Gate-CNOT-angles": (lambda: Gate("CNOT", (0, 1), (0.5,)), ValueError, "CNOT takes two qubits and no angles"),
    "mixture_of_eigenstates": (lambda: mixture_of_eigenstates(SZ, [1.0]), DimensionError, "need one probability per"),
}


@pytest.mark.parametrize("entry", REFUSED)
def test_every_empty_or_misshapen_operand_is_refused_by_name(entry):
    call, error, message = REFUSED[entry]
    with pytest.raises(error, match="^" + re.escape(message)):
        call()


class TestCheckNumbers:
    def test_a_number_comes_back_as_a_float(self):
        for value in (0, 1, 0.5, np.float64(0.25), np.int64(1)):
            out = check_numbers("x", value, 0, 1)
            assert type(out) is float and out == value

    def test_a_float_array_comes_back_uncopied(self):
        values = np.linspace(0.0, 1.0, 5)
        assert check_numbers("x", values, 0, 1) is values
        ints = check_numbers("x", [0, 1], 0, 1)
        assert ints.dtype == float and ints.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (-math.inf, math.inf)])
    def test_both_bounds_are_inclusive(self, low, high):
        edges = np.array([0.0, 1.0])
        assert check_numbers("x", edges, low, high) is edges
        assert check_numbers("x", 1.0, low, high) == 1.0

    @pytest.mark.parametrize("bad, index", [([1.5, 0.5], 0), ([0.5, -1e-300], 1), ([0.0, 1.0, 1.0000001], 2)])
    def test_each_bound_is_checked(self, bad, index):
        with pytest.raises(ConfigError, match=f"at index {index}$"):
            check_numbers("x", bad, 0, 1)

    def test_the_stack_form_agrees_with_check_number(self):
        for value in (math.nan, math.inf, -0.5, 1.5, 0.0, 1.0, 0.5):
            try:
                check_number("x", value, 0, 1)
                scalar = None
            except ConfigError as exc:
                scalar = str(exc)
            try:
                check_numbers("x", [value], 0, 1)
                stack = None
            except ConfigError as exc:
                stack = str(exc)
            assert (scalar is None) == (stack is None)
            if stack is not None:
                assert stack == f"{scalar} at index 0"
