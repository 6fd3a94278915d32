"""Ancilla-dilation circuits realizing the monitoring map, and their oracle.

The one-qubit template puts the system through V-dagger, couples it to an
ancilla prepared by U(theta_m, 0, 0) with a controlled-phase (or
controlled-NOT) gate, undoes the basis change with V, and discards the
ancilla.  Controlled-phase coupling gives intensity eps = 1 - cos(theta_m);
controlled-NOT gives eps = 1 - sin(theta_m), both certified against the
extracted superoperator rather than assumed.  The register's operator is
held as a tensor with one row and one column axis per qubit, and each gate
acts as its own 2x2 or 4x4 matrix on the axes of the qubits it touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Superoperator
from .linalg import DimensionError, partial_trace, tensor_product
from .noise import NoiseModel
from .states import DensityOperator

COUPLINGS = ("CZ", "CNOT")


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit rotation
    [[cos(t/2), -e^{i lam} sin(t/2)], [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]]."""
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def u3_adjoint_params(theta: float, phi: float, lam: float) -> tuple[float, float, float]:
    """Parameters (theta, pi - lam, -pi - phi) whose U3 equals the adjoint."""
    return (theta, math.pi - lam, -math.pi - phi)


@dataclass(frozen=True)
class Gate:
    """U3(theta, phi, lam) on one qubit, or CZ/CNOT on (control, target)."""

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "U3":
            if len(self.qubits) != 1 or len(self.params) != 3:
                raise ValueError("U3 takes one qubit and three angles")
        elif self.kind in COUPLINGS:
            if len(self.qubits) != 2 or self.params:
                raise ValueError(f"{self.kind} takes two qubits and no angles")
            if self.qubits[0] == self.qubits[1]:
                raise ValueError("control and target must differ")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class Circuit:
    """Gate list over system plus ancilla qubits; ancillas start in |0>."""

    width: int
    gates: tuple[Gate, ...]
    system_qubits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "system_qubits", tuple(self.system_qubits))
        if self.width < 1:
            raise DimensionError("circuit needs at least one qubit")
        for g in self.gates:
            if any(q < 0 or q >= self.width for q in g.qubits):
                raise DimensionError(f"gate {g} addresses qubits outside width {self.width}")
        if self.system_qubits != tuple(range(len(self.system_qubits))):
            raise DimensionError("system qubits must be the leading contiguous block")
        ancillas = set(range(self.width)) - set(self.system_qubits)
        touched = {q: 0 for q in ancillas}
        for g in self.gates:
            if g.kind in COUPLINGS:
                for q in g.qubits:
                    if q in touched:
                        touched[q] += 1
        bad = {q: n for q, n in touched.items() if n != 1}
        if bad:
            raise ValueError(f"each ancilla must join exactly one controlled gate, got {bad}")

    @property
    def n_system(self) -> int:
        return len(self.system_qubits)


def build_monitor_circuit(bases, strength: float, coupling: str = "CZ") -> Circuit:
    """Dilation circuit monitoring each system qubit along its own axis.

    ``bases`` lists one (theta_b, phi_b) measurement axis per system qubit;
    ``strength`` is the ancilla preparation angle theta_m in [0, pi/2].  One
    ancilla per system qubit, so the circuit width is twice the qubit count.
    """
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be one of {COUPLINGS}, got {coupling!r}")
    if not 0.0 <= strength <= math.pi / 2 + 1e-12:
        raise ValueError(f"strength angle must lie in [0, pi/2], got {strength!r}")
    bases = [(float(t), float(p)) for t, p in bases]
    n = len(bases)
    if n < 1:
        raise DimensionError("need at least one system qubit")
    gates: list[Gate] = []
    for q, (theta_b, phi_b) in enumerate(bases):
        gates.append(Gate("U3", (q,), u3_adjoint_params(theta_b, phi_b, 0.0)))
    for q in range(n):
        gates.append(Gate("U3", (n + q,), (strength, 0.0, 0.0)))
    for q in range(n):
        gates.append(Gate(coupling, (q, n + q)))
    for q, (theta_b, phi_b) in enumerate(bases):
        gates.append(Gate("U3", (q,), (theta_b, phi_b, 0.0)))
    return Circuit(2 * n, tuple(gates), tuple(range(n)))


def epsilon_of_strength(coupling: str, theta_m: float) -> float:
    """Measurement intensity realized by the dilation at strength theta_m.

    Controlled-phase coupling damps off-diagonal elements by cos(theta_m),
    controlled-NOT by sin(theta_m); both mappings agree with the extracted
    superoperator to 1e-10 (see certify-circuits).
    """
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be one of {COUPLINGS}, got {coupling!r}")
    if not 0.0 <= theta_m <= math.pi / 2 + 1e-12:
        raise ValueError(f"strength angle must lie in [0, pi/2], got {theta_m!r}")
    if coupling == "CZ":
        return 1.0 - math.cos(theta_m)
    return 1.0 - math.sin(theta_m)


def strength_of_epsilon(coupling: str, epsilon: float) -> float:
    """Inverse of :func:`epsilon_of_strength` on [0, pi/2]."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"intensity must lie in [0, 1], got {epsilon!r}")
    if coupling == "CZ":
        return math.acos(min(1.0, max(-1.0, 1.0 - epsilon)))
    if coupling == "CNOT":
        return math.asin(min(1.0, max(-1.0, 1.0 - epsilon)))
    raise ValueError(f"coupling must be one of {COUPLINGS}, got {coupling!r}")


def gate_matrix(gate: Gate) -> np.ndarray:
    """The gate on its own qubits: 2x2 for U3, 4x4 in (control, target) order."""
    if gate.kind == "U3":
        return u3_matrix(*gate.params)
    if gate.kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    return np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def _apply_on_axes(t: np.ndarray, g: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract the k-qubit matrix ``g`` into ``axes`` of the qubit tensor ``t``.

    With the row axes this is g·t; with the column axes and conj(g) it is t·g†.
    """
    n = t.ndim
    new = list(range(n, n + len(axes)))
    out = [n + axes.index(a) if a in axes else a for a in range(n)]
    return np.einsum(g.reshape((2,) * 2 * len(axes)), new + list(axes), t, list(range(n)), out)


def _depolarize_pair(t: np.ndarray, pair: tuple[int, int], rate: float) -> np.ndarray:
    """Two-qubit depolarizing on ``pair`` of the qubit tensor ``t``.

    The 16-Pauli twirl of a qubit pair traces the pair out and puts I/4 in
    its place, so the channel is (1 - rate)·t + rate·(Tr_pair t ⊗ I/4).
    """
    width = t.ndim // 2
    axes = list(range(2 * width))
    traced = [a - width if a - width in pair else a for a in axes]
    rest = [a for a in axes if a % width not in pair]
    reduced = np.einsum(t, traced, rest)
    pair_axes = [pair[0], pair[1], width + pair[0], width + pair[1]]
    mixed = np.einsum(reduced, rest, np.eye(4).reshape(2, 2, 2, 2) / 4.0, pair_axes, axes)
    return (1.0 - rate) * t + rate * mixed


def apply_circuit_matrix(circuit: Circuit, mat: np.ndarray, noise: NoiseModel | None = None) -> np.ndarray:
    """Linear action of the circuit-plus-discard pipeline on a system operator.

    Tensors on |0...0><0...0| ancillas, conjugates each gate through the
    row and column axes of the qubits it touches (interleaving two-qubit
    depolarizing when a noise model is given), and partial-traces the
    ancillas out again.  Linearity makes this valid on arbitrary matrices,
    which is what the channel-extraction oracle needs.
    """
    n_sys = circuit.n_system
    d_sys = 2**n_sys
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (d_sys, d_sys):
        raise DimensionError(f"operator shape {mat.shape} does not match {n_sys} system qubits")
    width = circuit.width
    d_anc = 2 ** (width - n_sys)
    anc = np.zeros((d_anc, d_anc), dtype=complex)
    anc[0, 0] = 1.0
    full = tensor_product(mat, anc).reshape((2,) * 2 * width)
    depol = noise.depolarizing_rate if noise is not None else 0.0
    for g in circuit.gates:
        u = gate_matrix(g)
        full = _apply_on_axes(full, u, g.qubits)
        full = _apply_on_axes(full, u.conj(), tuple(width + q for q in g.qubits))
        if depol > 0.0 and g.kind in COUPLINGS:
            full = _depolarize_pair(full, g.qubits, depol)
    return partial_trace(full.reshape(2**width, 2**width), [2] * width, keep=circuit.system_qubits)


def run_circuit_density(
    circuit: Circuit, rho_system: DensityOperator, noise: NoiseModel | None = None
) -> DensityOperator:
    """Evolve a system state through the dilation and discard the ancillas."""
    if rho_system.dim != 2**circuit.n_system:
        raise DimensionError(
            f"state dim {rho_system.dim} does not match {circuit.n_system} system qubits"
        )
    return DensityOperator(apply_circuit_matrix(circuit, rho_system.matrix, noise), validate=False)


def extract_channel(circuit: Circuit, noise: NoiseModel | None = None) -> Superoperator:
    """Materialize the circuit's channel by pushing matrix units through it."""
    d = 2**circuit.n_system
    mat = np.zeros((d * d, d * d), dtype=complex)
    unit = np.zeros((d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            unit[k, l] = 1.0
            mat[:, k * d + l] = apply_circuit_matrix(circuit, unit, noise).reshape(-1)
            unit[k, l] = 0.0
    return Superoperator(d, mat)
