"""Helpers shared by several test modules.

The acceptance checks and shot-statistics gates that a mutation test also
runs live here, so that both tests run the same check.  They look
``realmon.reality``, ``realmon.tomography`` and ``realmon.linalg`` functions
up at call time, so a fault patched into those modules reaches them.
"""

import decimal
import functools
import json
import math
import os

import numpy as np

import realmon.reality as reality
from realmon import linalg, sweeps, tomography
from realmon.channels import ComposedChannel, MonitoringChannel, dephase, product_monitor, to_superoperator
from realmon.circuits import build_monitor_circuit, epsilon_of_strength
from realmon.config import make_config, resolve_state
from realmon.linalg import hermitian_eig, tensor_product
from realmon.noise import confusion_from_flip
from realmon.observables import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ProjectiveObservable,
    observable_from_axis,
    pauli_observable,
)
from realmon.states import DensityOperator, entropy_of_probabilities
from realmon.sweeps import run_sweep
from realmon.tomography import estimate_pauli

SZ = pauli_observable("z")
PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex))
# Bloch vectors of the preset states the oracle tests use, written out by hand
PRESET_BLOCH = {
    "plus": (1.0, 0.0, 0.0), "minus": (-1.0, 0.0, 0.0), "iplus": (0.0, 1.0, 0.0), "iminus": (0.0, -1.0, 0.0),
    "zero": (0.0, 0.0, 1.0), "one": (0.0, 0.0, -1.0), "mixed": (0.0, 0.0, 0.0),
}


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes, so signed zeros must match too."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def maximally_mixed(d):
    """The maximally mixed state I/d."""
    return DensityOperator(np.eye(d, dtype=complex) / d, validate=False)


def members(stack) -> list:
    """The single observables or states of a stack, in order."""
    if isinstance(stack, DensityOperator):
        return [DensityOperator(m, validate=False) for m in stack.matrix]
    return [ProjectiveObservable(v, p, validate=False) for v, p in zip(stack.eigenvalues, stack.projectors)]


def observable_on_qubit(n_qubits, qubit, theta, phi=0.0):
    """Single-qubit axis observable embedded in an ``n_qubits`` register, or a
    stack of them for (N,) angle arrays: projectors of rank 2**(n_qubits-1),
    eigenvalues (+1, -1)."""
    base = observable_from_axis(theta, phi)
    left, right = np.eye(2**qubit), np.eye(2 ** (n_qubits - qubit - 1))
    projectors = tensor_product(tensor_product(left, base.projectors), right)
    return ProjectiveObservable(base.eigenvalues, projectors, validate=False)


def composed_product_monitor(bases, epsilon, reverse=False):
    """The full-register oracle of ``product_monitor``: one ``MonitoringChannel``
    per qubit, stage q monitoring ``observable_on_qubit(n, q, ...)``, composed
    with qubit 0's stage first, or last when ``reverse``."""
    n = len(bases)
    stages = [MonitoringChannel(observable_on_qubit(n, q, t, p), epsilon) for q, (t, p) in enumerate(bases)]
    return functools.reduce(lambda inner, outer: ComposedChannel(outer, inner), stages[::-1] if reverse else stages)


CNOT_MAPPING_CHECK = "CNOT mapping vs 1 - sin(theta_m)"
CNOT_MONOTONE_CHECK = "CNOT mapping monotone (largest eps step)"


def carried_spectrum_gap(x, rho) -> float:
    """Largest gap between ``dephase(x, rho)``'s own ``eigenvalues()``, carried
    from its outcome weights, and an ascending solve of its matrix."""
    image = dephase(x, rho)
    return float(np.abs(image.eigenvalues() - hermitian_eig(image.matrix)).max())


def random_bloch(lengths, rng) -> np.ndarray:
    """(N, 3) Bloch vectors of the given N lengths, in random directions."""
    r = rng.standard_normal((len(lengths), 3))
    return r * (np.asarray(lengths) / np.linalg.norm(r, axis=1))[:, None]


def bloch_matrices(r) -> np.ndarray:
    """The (N, 2, 2) matrices (I + r . sigma)/2 of an (N, 3) stack of Bloch vectors."""
    rx, ry, rz = np.moveaxis(np.asarray(r, dtype=float), -1, 0)[..., None, None]
    return 0.5 * (IDENTITY_2 + rx * SIGMA_X + ry * SIGMA_Y + rz * SIGMA_Z)


def repair_gap(bloch) -> float:
    """Largest gap between ``reconstruct_state(bloch)`` and the closed form of
    the clamp-and-renormalize repair over a stack of Bloch vectors r: entrywise
    to the matrices (I + r' . sigma)/2, where r' is r cut to unit length if
    longer, and to their spectra (1 -+ |r'|)/2, against the carried spectra."""
    r = np.asarray(bloch, dtype=float)
    norm = np.linalg.norm(r, axis=-1, keepdims=True)
    expected = bloch_matrices(r / np.maximum(norm, 1.0))
    length = np.minimum(norm, 1.0)
    spectrum = np.concatenate((1.0 - length, 1.0 + length), axis=-1) / 2.0
    rec = tomography.reconstruct_state(bloch)
    return float(max(np.abs(rec.matrix - expected).max(), np.abs(rec.eigenvalues() - spectrum).max()))


EPS = np.finfo(float).eps
# The bounds of qubit_kernel_errors.  On random 2x2 members LAPACK's own
# eigenvalues lie up to 5.9 eps·‖A‖ from exact (100,000 members), so the
# kernel is held to 4 eps·‖A‖ against exact arithmetic but to 8 against
# eigvalsh (6.7 seen over 500,000 members).
QUBIT_KERNEL_BOUNDS = {"exact": 4.0, "lapack": 8.0}


def exact_qubit_spectra(m) -> np.ndarray:
    """The (N, 2) eigenvalues mid -+ sqrt(h^2 + |b|^2) of an (N, 2, 2)
    Hermitian stack, in 50-digit decimal arithmetic on its float entries."""
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        entries = (m[:, 0, 0].real, m[:, 1, 1].real, m[:, 0, 1].real, m[:, 0, 1].imag)
        for p, q, br, bi in zip(*(x.tolist() for x in entries)):
            p, q, br, bi = map(decimal.Decimal, (p, q, br, bi))
            mid, h = (p + q) / 2, (p - q) / 2
            rad = (h * h + br * br + bi * bi).sqrt()
            out.append((float(mid - rad), float(mid + rad)))
    return np.array(out)


def qubit_kernel_errors(m) -> dict:
    """The worst eigenvalue errors of the 2x2 eigensolver kernel
    ``linalg._qubit_eig`` over an (N, 2, 2) Hermitian stack whose members all
    have a nonzero off-diagonal entry, keyed as ``QUBIT_KERNEL_BOUNDS``: the
    errors against exact arithmetic and against ``numpy.linalg.eigvalsh``,
    in units of eps·‖A‖, with ‖A‖ a member's largest |eigenvalue|.
    """
    w = linalg._qubit_eig(m)
    exact = exact_qubit_spectra(m)
    norm = np.abs(exact).max(axis=1)
    return {
        "exact": float((np.abs(w - exact).max(axis=1) / norm).max() / EPS),
        "lapack": float((np.abs(w - np.linalg.eigvalsh(m)).max(axis=1) / norm).max() / EPS),
    }


def qubit_kernel_passes(errors) -> bool:
    return all(errors[key] <= bound for key, bound in QUBIT_KERNEL_BOUNDS.items())


def named_check(report, name) -> dict:
    """The check called ``name`` in a ``CheckReport`` or in its JSON dict, as a dict."""
    data = report if isinstance(report, dict) else report.to_dict()
    return next(c for c in data["checks"] if c["name"] == name)


def count_negative(values):
    return int(np.count_nonzero(np.asarray(values) < -1e-9))


def binary_entropy(p):
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def probe_gain_sign_check(probe_gains):
    """Criterion 2c: the probe gain has no fixed sign.

    Passes when some of ``probe_gains`` are negative and a z-definite state
    monitored along the pi/4 axis at full strength loses exactly
    h(cos^2(pi/8)) - h(1/4) bits of z reality (within 1e-12).  Returns
    (passed, negatives, counterexample, closed-form gap).
    """
    negatives = count_negative(probe_gains)
    zero = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
    counterexample = reality.delta_reality_other(SZ, observable_from_axis(math.pi / 4, 0.0), 1.0, zero)
    closed_form = binary_entropy(math.cos(math.pi / 8) ** 2) - binary_entropy(0.25)
    gap = abs(counterexample - closed_form)
    return negatives > 0 and gap <= 1e-12, negatives, counterexample, gap


def axis_vector(theta, phi=0.0):
    """The unit Bloch vector of the axis (theta, phi), or an (N, 3) stack for (N,) angles."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    components = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def state_bloch(spec):
    """The Bloch vector of a preset name in ``PRESET_BLOCH`` or a ``{"theta", "phi"}`` state spec."""
    return PRESET_BLOCH[spec] if isinstance(spec, str) else axis_vector(spec["theta"], spec.get("phi", 0.0))


def report_entropies(report):
    """A ``RealityReport``'s (S_rho, S_mon, S_probe, S_probe_mon), in the oracle's order."""
    return np.array(
        [report.entropy_initial, report.entropy_monitored, report.entropy_probe, report.entropy_probe_monitored]
    )


def spectra_entropies(larger):
    """Entropies of the qubit spectra (lam, 1 - lam) for the larger eigenvalues ``larger``."""
    larger = np.asarray(larger, dtype=float)
    return entropy_of_probabilities(np.stack((larger, 1.0 - larger), axis=-1))


def scenario1_grid(thetas, epsilons):
    """Criterion 4: plus state, z monitor, probe axis theta, on a (theta, eps) grid.

    Returns the largest gap between the report's four entropies and the
    entropies of ``reality.qubit_spectra``' closed-form spectra, and every
    (theta, eps, report).
    """
    worst = 0.0
    reports = []
    for theta in thetas:
        probe_obs = observable_from_axis(theta, 0.0)
        for eps in epsilons:
            rep = reality.reality_report(SZ, probe_obs, eps, PLUS)
            larger = reality.qubit_spectra(PRESET_BLOCH["plus"], axis_vector(0.0), axis_vector(theta), eps)
            worst = max(worst, np.abs(report_entropies(rep) - spectra_entropies(larger)).max())
            reports.append((theta, eps, rep))
    return worst, reports


def sweep_oracle_gap(config):
    """Largest gap between a sweep's four entropy columns and the entropies of
    ``reality.qubit_spectra`` at each grid point, noise included on the noisy
    path.  The grid's intensities and axes are rebuilt here from the config,
    with the couplings' intensities 1 - cos(theta_m) (CZ) and 1 - sin(theta_m)
    (CNOT) written out."""
    values = np.array(config.grid_values)
    monitor, probe = (np.tile(axis, (len(values), 1)) for axis in (config.monitor_axis, config.probe_axis))
    if config.grid_kind == "theta_m":
        eps = 1.0 - (np.cos(values) if config.coupling == "CZ" else np.sin(values))
    elif config.grid_kind == "epsilon":
        eps = values
    else:
        eps = np.full(len(values), config.epsilon)
        (probe if config.sweep_target == "probe" else monitor)[:, 0] = values
    noisy = config.path == "noisy"
    larger = reality.qubit_spectra(
        state_bloch(config.state),
        axis_vector(*monitor.T),
        axis_vector(*probe.T),
        eps,
        config.depolarizing if noisy else 0.0,
        config.readout_flip if noisy else 0.0,
    )
    got = np.array([(r.S_rho, r.S_mon, r.S_probe, r.S_probe_mon) for r in run_sweep(config)])
    return float(np.abs(got - spectra_entropies(larger)).max())


def noisy_dilation_gap(n, coupling, rate):
    """Sup-norm gap between the superoperator of a noisy n-qubit monitor circuit
    and its closed form: the noiseless ``product_monitor`` channel followed, on
    each system qubit, by monitoring along z, x and y at intensity
    1 - sqrt(1 - rate), which is single-qubit depolarizing at ``rate``."""
    rng = np.random.default_rng(90 + n)
    bases = [(float(rng.uniform(0, math.pi)), float(rng.uniform(-math.pi, math.pi))) for _ in range(n)]
    theta_m = 0.7
    noisy = to_superoperator(build_monitor_circuit(bases, theta_m, coupling, rate)).matrix
    expected = product_monitor(bases, epsilon_of_strength(coupling, theta_m))
    for axis in ((0.0, 0.0), (math.pi / 2, 0.0), (math.pi / 2, math.pi / 2)):
        expected = ComposedChannel(product_monitor([axis] * n, 1.0 - math.sqrt(1.0 - rate)), expected)
    return float(np.abs(noisy - to_superoperator(expected).matrix).max())


BLOCH_GATE_DRAWS = 1000
# fig4a on the noisy path at 100 repeats, seeds 0-2, drawn when every
# (point, repeat, state) member had its own generator seeded
# [seed, point, repeat, state]: dR_X, dR_Xp and their standard errors
PER_MEMBER_STREAMS = os.path.join(os.path.dirname(__file__), "data", "fig4a_noisy_per_member_streams.json")


def bloch_shot_gate(draws=BLOCH_GATE_DRAWS, seed=19):
    """Shot statistics of stacked ``estimate_pauli`` draws on the fig4a noisy states.

    Makes ``draws`` draws of the 132-state stack from one generator and
    returns the largest |z| of a (state, axis) sample mean against its
    ``shots=0`` value, and the smallest and largest ratio of a sample
    variance to the binomial (1 - m**2) / shots.
    """
    config = make_config("fig4a", path="noisy")
    _, _, strength, monitor_axes, probe_axes = sweeps._grid_parameters(config)
    states = sweeps._circuit_states(config, resolve_state(config.state), strength, monitor_axes, probe_axes)
    confusion = confusion_from_flip(config.readout_flip)
    exact = estimate_pauli(states, 0, None, confusion)
    rng = np.random.default_rng(seed)
    sample = np.stack([estimate_pauli(states, config.shots, rng, confusion) for _ in range(draws)])
    binomial = (1.0 - exact**2) / config.shots
    z = (sample.mean(axis=0) - exact) / np.sqrt(binomial / draws)
    ratio = sample.var(axis=0, ddof=1) / binomial
    return float(np.abs(z).max()), float(ratio.min()), float(ratio.max())


def bloch_gate_passes(gate) -> bool:
    z, low, high = gate
    return z <= 5.0 and 0.75 <= low and high <= 1.25


def sweep_shot_gate():
    """fig4a noisy at 100 repeats, seeds 0-2, against the per-member-stream record.

    Returns the largest |mean_new - mean_old| / sqrt(se_old**2 + se_new**2)
    over every point and both gains, and the median ratio se_new / se_old.
    """
    with open(PER_MEMBER_STREAMS) as f:
        old = json.load(f)
    z, ratio = [], []
    for seed, columns in old.items():
        records = run_sweep(make_config("fig4a", path="noisy", repeats=100, seed=int(seed)))
        for gain in ("dR_X", "dR_Xp"):
            mean, se = (np.array([getattr(r, name) for r in records]) for name in (gain, "se_" + gain))
            old_mean, old_se = np.array(columns[gain]), np.array(columns["se_" + gain])
            z.append(np.abs(mean - old_mean) / np.hypot(old_se, se))
            ratio.append(se / old_se)
    return float(np.max(z)), float(np.median(ratio))


def sweep_gate_passes(gate) -> bool:
    z, median_ratio = gate
    return z <= 4.5 and 0.9 <= median_ratio <= 1.1
