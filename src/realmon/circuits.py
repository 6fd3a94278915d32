"""Ancilla-dilation circuits realizing the monitoring map, and their oracle.

The one-qubit template puts the system through B-dagger, couples it to an
ancilla prepared by U(theta_m, 0, 0) with a controlled-phase (or
controlled-NOT) gate, undoes the basis change with B, and discards the
ancilla.  Controlled-phase coupling gives intensity eps = 1 - cos(theta_m);
controlled-NOT gives eps = 1 - sin(theta_m), both certified against the
extracted superoperator rather than assumed.  Each gate acts as its own
2x2 or 4x4 matrix, built once with the gate, on the tensor axes of the
qubits it touches.  A noiseless circuit is the Stinespring isometry
V = U (I ⊗ |0...0>), compiled once per circuit by pushing the d system
basis columns through the gates, and maps rho to Tr_anc(V rho V†); it is
a channel on its system qubits, so ``channels.to_superoperator`` extracts
it like any other.  A circuit may carry a two-qubit depolarizing rate,
applied after each coupling gate; only then is the register's operator
carried through the gates as a density tensor, with one row and one column
axis per qubit.

Circuits also come as stacks: U3 angles given as (N,) arrays make N
circuits with one gate layout, whose gates hold (N, 2, 2) matrices.  A
stack compiles one (N, 2**width, d) isometry with the same contractions,
and one operator, or an (N, d, d) stack of them, goes through it member by
member, so one call evolves a whole sweep grid or extracts N channels at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import Superoperator, to_superoperator
from .linalg import DimensionError, common_batch, dagger, operators, partial_trace, tensor_product
from .states import DensityOperator

COUPLINGS = ("CZ", "CNOT")
PRODUCT_CHUNK = 2**14  # complex entries of full-width products a noiseless run holds at once


def u3_matrix(theta, phi, lam) -> np.ndarray:
    """General single-qubit rotation
    [[cos(t/2), -e^{i lam} sin(t/2)], [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]].

    Angles given as (N,) arrays, broadcast together, give an (N, 2, 2) stack.
    """
    theta, phi, lam = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (theta, phi, lam)))
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    entries = (c, -np.exp(1j * lam) * s, np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c)
    return np.stack(entries, axis=-1).reshape(theta.shape + (2, 2))


def u3_adjoint_params(theta, phi, lam):
    """Parameters (theta, pi - lam, -pi - phi) whose U3 equals the adjoint."""
    return (theta, math.pi - lam, -math.pi - phi)


# 4x4 in (control, target) order, shared read-only by every coupling gate
_COUPLING_MATRICES = {"CZ": np.diag([1, 1, 1, -1]).astype(complex), "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]]}
for _m in _COUPLING_MATRICES.values():
    _m.setflags(write=False)


@dataclass(frozen=True)
class Gate:
    """U3(theta, phi, lam) on one qubit, or CZ/CNOT on (control, target).

    ``matrix`` is the read-only gate on its own qubits, built once here:
    2x2 for U3, 4x4 in (control, target) order for CZ/CNOT.  A U3 whose
    angles are (N,) arrays is a stack of N gates with an (N, 2, 2) matrix.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple = ()
    matrix: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "U3":
            if len(self.qubits) != 1 or len(self.params) != 3:
                raise ValueError("U3 takes one qubit and three angles")
            matrix = u3_matrix(*self.params)
            if matrix.ndim > 3:
                raise DimensionError(f"U3 angles must be numbers or (N,) arrays, got shape {matrix.shape[:-2]}")
            matrix.setflags(write=False)
            # arrays become tuples, so that stacked gates compare and hash by value too
            params = tuple(a if np.ndim(a) == 0 else tuple(np.asarray(a, dtype=float).tolist()) for a in self.params)
            object.__setattr__(self, "params", params)
        elif self.kind in COUPLINGS:
            if len(self.qubits) != 2 or self.params:
                raise ValueError(f"{self.kind} takes two qubits and no angles")
            if self.qubits[0] == self.qubits[1]:
                raise ValueError("control and target must differ")
            matrix = _COUPLING_MATRICES[self.kind]
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True)
class Circuit:
    """Gates over ``n_system`` leading system qubits plus ancillas in |0>,
    with two-qubit depolarizing at rate ``depolarizing`` after each coupling
    gate; a channel on the system qubits (``dim``, ``apply_matrix``), through
    its ``isometry`` when noiseless.  If any gate is a stack of N, the circuit
    is a stack of N circuits (``batch`` N) that share one gate layout."""

    width: int
    gates: tuple[Gate, ...]
    n_system: int
    depolarizing: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if not 0.0 <= self.depolarizing <= 1.0:
            raise ValueError(f"depolarizing rate must lie in [0, 1], got {self.depolarizing!r}")
        if not 1 <= self.n_system <= self.width:
            raise DimensionError(f"need 1 <= n_system <= width {self.width}, got n_system {self.n_system}")
        for g in self.gates:
            if any(q < 0 or q >= self.width for q in g.qubits):
                raise DimensionError(f"gate {g} addresses qubits outside width {self.width}")
        touched = {q: 0 for q in range(self.n_system, self.width)}
        for g in self.gates:
            if g.kind in COUPLINGS:
                for q in g.qubits:
                    if q in touched:
                        touched[q] += 1
        bad = {q: n for q, n in touched.items() if n != 1}
        if bad:
            raise ValueError(f"each ancilla must join exactly one controlled gate, got {bad}")
        sizes = {len(g.matrix) for g in self.gates if g.matrix.ndim == 3}
        if len(sizes) > 1:
            raise DimensionError(f"stacked gates must share one member count, got {sorted(sizes)}")

    @property
    def dim(self) -> int:
        return 2**self.n_system

    @property
    def batch(self) -> int | None:
        """Number of circuits in a stack; None for a single circuit."""
        return next((len(g.matrix) for g in self.gates if g.matrix.ndim == 3), None)

    @cached_property
    def isometry(self) -> np.ndarray:
        """The (2**width, dim) isometry V = U (I ⊗ |0...0>), compiled on first
        use; (N, 2**width, dim) for a stack of N.

        The d nonzero columns of the ancilla extension I ⊗ |0...0><0...0|
        go through the gates as a ``(2,)*width + (d,)`` tensor, one row-axis
        contraction per gate; the first stacked gate adds the member axis.
        """
        if self.depolarizing > 0.0:
            raise ValueError(f"a circuit with depolarizing rate {self.depolarizing!r} has no isometry")
        d_anc = 2 ** (self.width - self.n_system)
        cols = _ancilla_extension(self, np.eye(self.dim, dtype=complex))[:, ::d_anc]
        t = cols.reshape((2,) * self.width + (self.dim,))
        for g in self.gates:
            t = _apply_on_axes(t, g.matrix, g.qubits, self.width + 1)
        v = t.reshape(t.shape[: t.ndim - self.width - 1] + (2**self.width, self.dim))
        v.setflags(write=False)
        return v

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        return apply_circuit_matrix(self, mat)


def build_monitor_circuit(bases, strength, coupling: str = "CZ", depolarizing: float = 0.0) -> Circuit:
    """Dilation circuit monitoring each system qubit along its own axis.

    ``bases`` lists one (theta_b, phi_b) measurement axis per system qubit;
    ``strength`` is the ancilla preparation angle theta_m in [0, pi/2].  One
    ancilla per system qubit, so the circuit width is twice the qubit count;
    each pair depolarizes at rate ``depolarizing`` after its coupling gate.
    Any of these angles given as an (N,) array makes a stack of N circuits,
    member k built from the k-th entries.
    """
    epsilon_of_strength(coupling, strength)  # checks the coupling and the strength range
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
    return Circuit(2 * n, tuple(gates), n, depolarizing)


def epsilon_of_strength(coupling: str, theta_m):
    """Measurement intensity realized by the dilation at strength theta_m,
    a float, or an array of them for an array of angles.

    Controlled-phase coupling damps off-diagonal elements by cos(theta_m),
    controlled-NOT by sin(theta_m); both mappings agree with the extracted
    superoperator to 1e-10 (see certify-circuits).
    """
    if coupling not in COUPLINGS:
        raise ValueError(f"coupling must be one of {COUPLINGS}, got {coupling!r}")
    theta = np.asarray(theta_m, dtype=float)
    if not np.all((0.0 <= theta) & (theta <= math.pi / 2 + 1e-12)):
        raise ValueError(f"strength angle must lie in [0, pi/2], got {theta_m!r}")
    # cos(math.pi / 2) is 6e-17, not 0; taking it as 0 makes eps 1 invert strength_of_epsilon exactly,
    # and taking it as 0 on the slack above pi/2 keeps eps in [0, 1] there
    eps = 1.0 - (np.where(theta >= math.pi / 2, 0.0, np.cos(theta)) if coupling == "CZ" else np.sin(theta))
    return float(eps) if eps.ndim == 0 else eps


def strength_of_epsilon(coupling: str, epsilon: float) -> float:
    """Inverse of :func:`epsilon_of_strength` on [0, pi/2]."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"intensity must lie in [0, 1], got {epsilon!r}")
    if coupling == "CZ":
        return math.acos(min(1.0, max(-1.0, 1.0 - epsilon)))
    if coupling == "CNOT":
        return math.asin(min(1.0, max(-1.0, 1.0 - epsilon)))
    raise ValueError(f"coupling must be one of {COUPLINGS}, got {coupling!r}")


def _ancilla_extension(circuit: Circuit, mat: np.ndarray) -> np.ndarray:
    """The system operator ``mat`` (or each of a stack) tensored on the |0...0><0...0| ancillas."""
    d_anc = 2 ** (circuit.width - circuit.n_system)
    anc = np.zeros((d_anc, d_anc), dtype=complex)
    anc[0, 0] = 1.0
    return tensor_product(mat, anc)


def _apply_on_axes(t: np.ndarray, g: np.ndarray, axes: tuple[int, ...], n: int) -> np.ndarray:
    """Contract the k-qubit matrix ``g`` into ``axes`` of the last ``n`` axes of ``t``.

    With the row axes this is g·t; with the column axes and conj(g) it is t·g†.
    Axes of ``t`` before its last ``n`` and of ``g`` before its last two are
    member axes, and broadcast.
    """
    k = len(axes)
    new = list(range(n, n + k))
    out = [n + axes.index(a) if a in axes else a for a in range(n)]
    g = g.reshape(g.shape[:-2] + (2,) * 2 * k)
    return np.einsum(g, [..., *new, *axes], t, [..., *range(n)], [..., *out])


def _depolarize_pair(t: np.ndarray, pair: tuple[int, int], rate: float, width: int) -> np.ndarray:
    """Two-qubit depolarizing on ``pair`` of the qubit tensor ``t`` (after any member axes).

    The 16-Pauli twirl of a qubit pair traces the pair out and puts I/4 in
    its place, so the channel is (1 - rate)·t + rate·(Tr_pair t ⊗ I/4).
    """
    axes = list(range(2 * width))
    traced = [a - width if a - width in pair else a for a in axes]
    rest = [a for a in axes if a % width not in pair]
    reduced = np.einsum(t, [..., *traced], [..., *rest])
    pair_axes = [pair[0], pair[1], width + pair[0], width + pair[1]]
    mixed = np.einsum(reduced, [..., *rest], np.eye(4).reshape(2, 2, 2, 2) / 4.0, pair_axes, [..., *axes])
    return (1.0 - rate) * t + rate * mixed


def _density_route(circuit: Circuit, mat: np.ndarray) -> np.ndarray:
    """``mat`` tensored on |0...0><0...0| ancillas, each gate conjugated through
    the row and column axes of its qubits (then, after each coupling gate,
    the circuit's two-qubit depolarizing), ancillas traced out."""
    width = circuit.width
    full = _ancilla_extension(circuit, mat)
    full = full.reshape(full.shape[:-2] + (2,) * 2 * width)
    for g in circuit.gates:
        full = _apply_on_axes(full, g.matrix, g.qubits, 2 * width)
        full = _apply_on_axes(full, g.matrix.conj(), tuple(width + q for q in g.qubits), 2 * width)
        if g.kind in COUPLINGS:
            full = _depolarize_pair(full, g.qubits, circuit.depolarizing, width)
    full = full.reshape(full.shape[: full.ndim - 2 * width] + (2**width, 2**width))
    return partial_trace(full, [2] * width, keep=range(circuit.n_system))


def _isometry_route(circuit: Circuit, mat: np.ndarray) -> np.ndarray:
    """Tr_anc(V mat V†) for each operator of ``mat`` against each member's isometry V.

    Each product is a full-width (2**width)^2 matrix, so a stack is formed
    and traced in slices of its first leading axis, each holding about
    ``PRODUCT_CHUNK`` entries (at least one row): memory stays near one
    slice however many operators or members a call holds.
    """
    v = circuit.isometry
    dims, keep = [2] * circuit.width, range(circuit.n_system)
    lead = np.broadcast_shapes(v.shape[:-2], mat.shape[:-2])
    if not lead:
        return partial_trace(v @ mat @ dagger(v), dims, keep)
    step = max(1, PRODUCT_CHUNK // (math.prod(lead[1:]) * 4**circuit.width))

    def rows(x, i):
        """Rows i to i + step of ``x``'s first leading axis, or all of ``x`` if it broadcasts there."""
        return x[i : i + step] if x.ndim - 2 == len(lead) else x

    return np.concatenate(
        [partial_trace(rows(v, i) @ rows(mat, i) @ dagger(rows(v, i)), dims, keep) for i in range(0, lead[0], step)]
    )


def apply_circuit_matrix(circuit: Circuit, mat: np.ndarray) -> np.ndarray:
    """Linear action of the circuit-plus-discard pipeline on a system operator.

    Noiselessly this is Tr_anc(V mat V†) with the circuit's compiled
    ``isometry`` V.  A circuit with a nonzero depolarizing rate instead takes
    the operator through its gates as a density tensor on |0...0><0...0|
    ancillas.  Linearity makes either route valid on arbitrary matrices,
    which is what channel extraction needs.  ``mat`` is a (d, d) operator or
    a stack of them whose leading axes broadcast against a circuit stack's
    member axis: one operator through N circuits gives N images, and N
    operators through N circuits give member k's image of operator k (an
    (N, d, d) stack needs N circuits; the (d^2, 1, d, d) units of extraction
    broadcast).
    """
    mat = np.asarray(mat, dtype=complex)
    common_batch({"circuits": circuit, "operators": operators(mat)})
    if circuit.depolarizing > 0.0:
        return _density_route(circuit, mat)
    return _isometry_route(circuit, mat)


def run_circuit_density(circuit: Circuit, rho_system: DensityOperator) -> DensityOperator:
    """Evolve a system state through the dilation and discard the ancillas.

    A stack of states, a stack of circuits, or both (member by member, of
    one member count, which ``apply_circuit_matrix`` checks) give the stack
    of images.
    """
    return DensityOperator(apply_circuit_matrix(circuit, rho_system.matrix), validate=False)


def extract_channel(circuit: Circuit) -> Superoperator:
    """Materialize the circuit's channel, noise included, or each stack
    member's, by pushing the matrix units through it in one pass."""
    return to_superoperator(circuit)
