"""Ancilla-dilation circuits realizing the monitoring map, and their oracle.

The one-qubit template puts the system through B-dagger, couples it to an
ancilla prepared by U(theta_m, 0, 0) with a controlled-phase (or
controlled-NOT) gate, undoes the basis change with B, and discards the
ancilla.  Controlled-phase coupling gives intensity eps = 1 - cos(theta_m);
controlled-NOT gives eps = 1 - sin(theta_m), both certified against the
circuits rather than assumed.  Each gate acts as its own 2x2 or 4x4
matrix, built once with the gate, on the tensor axes of the qubits it
touches.  A noiseless circuit is the Stinespring isometry
V = U (I ⊗ |0...0>), compiled once per circuit by pushing the d system
basis columns through the gates, and maps rho to Tr_anc(V rho V†); its
channel is extracted from V's Kraus blocks K_a = (I ⊗ <a|) V in one
contraction.  A circuit may carry a two-qubit depolarizing rate, applied
after each coupling gate; only then is the register's operator carried
through the gates as a density tensor, with one row and one column axis
per qubit, and its channel extracted by pushing the matrix units through
(``channels.to_superoperator``).

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
from .config import COUPLINGS, GRID_RANGES, check_choice, check_integer, check_number, check_numbers
from .linalg import DimensionError, common_batch, dagger, operators, partial_trace, tensor_product
from .states import DensityOperator


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

    ``matrix`` is the read-only gate on its own qubits, built once here: 2x2
    for U3, 4x4 in (control, target) order for CZ/CNOT.  A U3 whose finite
    angles are (N,) arrays is a stack of N gates with an (N, 2, 2) matrix.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple = ()
    matrix: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_choice("kind", self.kind, ("U3", *COUPLINGS))
        if self.kind == "U3":
            if len(self.qubits) != 1 or len(self.params) != 3:
                raise ValueError("U3 takes one qubit and three angles")
            angles = [check_numbers(n, a, -math.inf, math.inf) for n, a in zip(("theta", "phi", "lam"), self.params)]
            matrix = u3_matrix(*angles)
            matrix.setflags(write=False)
            # arrays become tuples, so that stacked gates compare and hash by value too
            params = tuple(a if isinstance(a, float) else tuple(a.tolist()) for a in angles)
            object.__setattr__(self, "params", params)
        else:
            if len(self.qubits) != 2 or self.params:
                raise ValueError(f"{self.kind} takes two qubits and no angles")
            if self.qubits[0] == self.qubits[1]:
                raise ValueError("control and target must differ")
            matrix = _COUPLING_MATRICES[self.kind]
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True)
class Circuit:
    """Gates over ``n_system`` (1 to ``width``) system qubits plus ancillas in
    |0>, with two-qubit depolarizing at rate ``depolarizing`` in [0, 1] after
    each coupling gate; a channel on the system qubits (``dim``,
    ``apply_matrix``), through its ``isometry`` when noiseless.  If a gate is a
    stack of N, so is the circuit (``batch`` N), with one gate layout."""

    width: int
    gates: tuple[Gate, ...]
    n_system: int
    depolarizing: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        check_number("depolarizing", self.depolarizing, 0, 1)
        check_integer("width", self.width, 1)
        check_integer("n_system", self.n_system, 1, self.width)
        for g in self.gates:
            if any(q < 0 or q >= self.width for q in g.qubits):
                raise DimensionError(f"gate {g} addresses qubits outside width {self.width}")
        joined = [q for g in self.gates if g.kind in COUPLINGS for q in g.qubits]
        bad = {q: joined.count(q) for q in range(self.n_system, self.width) if joined.count(q) != 1}
        if bad:
            raise ValueError(f"each ancilla must join exactly one controlled gate, got {bad}")
        common_batch({f"members of gate {k}": len(g.matrix) for k, g in enumerate(self.gates) if g.matrix.ndim == 3})

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
    rotate = [Gate("U3", (q,), (theta_b, phi_b, 0.0)) for q, (theta_b, phi_b) in enumerate(bases)]
    unrotate = [Gate("U3", (q,), u3_adjoint_params(theta_b, phi_b, 0.0)) for q, (theta_b, phi_b) in enumerate(bases)]
    prepare = [Gate("U3", (n + q,), (strength, 0.0, 0.0)) for q in range(n)]
    couple = [Gate(coupling, (q, n + q)) for q in range(n)]
    return Circuit(2 * n, (*unrotate, *prepare, *couple, *rotate), n, depolarizing)


def epsilon_of_strength(coupling: str, theta_m):
    """Measurement intensity realized by the dilation at strength theta_m in
    ``GRID_RANGES["theta_m"]``, a float, or an array of them for an array.

    Controlled-phase coupling damps off-diagonal elements by cos(theta_m),
    controlled-NOT by sin(theta_m); both mappings agree with the circuits
    to 1e-10 (see certify-circuits).
    """
    check_choice("coupling", coupling, COUPLINGS)
    theta = np.asarray(check_numbers("theta_m", theta_m, *GRID_RANGES["theta_m"]))
    # cos(math.pi / 2) is 6e-17, not 0; taking it as 0 makes eps 1 invert strength_of_epsilon exactly,
    # and taking it as 0 on the slack above pi/2 keeps eps in [0, 1] there
    eps = 1.0 - (np.where(theta >= math.pi / 2, 0.0, np.cos(theta)) if coupling == "CZ" else np.sin(theta))
    return float(eps) if eps.ndim == 0 else eps


def strength_of_epsilon(coupling: str, epsilon: float) -> float:
    """Inverse of :func:`epsilon_of_strength` on [0, pi/2], for ``epsilon`` in [0, 1]."""
    check_choice("coupling", coupling, COUPLINGS)
    check_number("epsilon", epsilon, 0, 1)
    return (math.acos if coupling == "CZ" else math.asin)(1.0 - epsilon)


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
    """Tr_anc(V mat V†) for one operator, or one per member, against each member's isometry V."""
    v = circuit.isometry
    return partial_trace(v @ mat @ dagger(v), [2] * circuit.width, range(circuit.n_system))


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

    Either route holds one full-width operator per member at a time: axes in
    front of the member axis, as extraction's d^2 units, go through one
    operator at a time.
    """
    mat = np.asarray(mat, dtype=complex)
    common_batch({"circuits": circuit, "operators": operators(mat)})
    route = _density_route if circuit.depolarizing > 0.0 else _isometry_route
    if mat.ndim <= 3:
        return route(circuit, mat)
    images = np.stack([route(circuit, m) for m in mat.reshape((-1,) + mat.shape[-3:])])
    return images.reshape(mat.shape[:-3] + images.shape[1:])


def run_circuit_density(circuit: Circuit, rho_system: DensityOperator) -> DensityOperator:
    """Evolve a system state through the dilation and discard the ancillas.

    A stack of states, a stack of circuits, or both (member by member, of
    one member count, which ``apply_circuit_matrix`` checks) give the stack
    of images.
    """
    return DensityOperator(apply_circuit_matrix(circuit, rho_system.matrix), validate=False)


def extract_channel(circuit: Circuit) -> Superoperator:
    """Materialize the circuit's channel, or each stack member's.

    A noiseless circuit's isometry splits by ancilla index into the Kraus
    operators K_a = (I ⊗ <a|) V, each d x d, and S[(i,j),(k,l)] =
    sum_a K_a[i,k] conj(K_a[j,l]) is one contraction, with no matrix unit
    and nothing full-width.  A depolarizing circuit has no isometry; its
    matrix units go through the density route (``to_superoperator``).
    """
    if circuit.depolarizing > 0.0:
        return to_superoperator(circuit)
    d = circuit.dim
    v = circuit.isometry
    k = v.reshape(v.shape[:-2] + (d, v.shape[-2] // d, d))
    s = np.einsum("...iak,...jal->...ijkl", k, k.conj())
    return Superoperator(d, s.reshape(s.shape[:-4] + (d * d, d * d)))
