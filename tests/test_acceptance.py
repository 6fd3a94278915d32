"""Acceptance suite: one test per numbered criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 2 checks the monitoring inequalities that hold for every pair on
the criterion-1 instance set: (2a) the monitored gain is at least
eps * I_X(rho), and (2b) the probe gain at eps is at least eps times the
probe gain at full strength, by joint convexity of relative entropy.  (2c)
states that the probe gain itself has no fixed sign: some generic instances
are negative, and a z-definite state monitored along the pi/4 axis at full
strength loses h(cos^2(pi/8)) - h(1/4) = 0.2104 bits.  The nonnegative
restricted forms (compatible pairs, unbiased pairs, diagonal states) are
covered by criterion 3 and the verify-cases command.
"""

import math
import time

import numpy as np
import pytest

from realmon.certify import certify_circuits
from realmon.channels import MonitoringChannel, monitor
from realmon.config import make_config
from realmon.observables import ObservableStack, observable_from_axis, pauli_observable
from realmon.reality import (
    delta_reality_monitored,
    delta_reality_other,
    irreality,
    reality_report,
    scenario1_eigenvalues,
    scenario2_eigenvalues,
)
from realmon.sampling import (
    mixture_of_eigenstates,
    random_commuting_pair,
    random_density,
    random_mu_pair,
    random_observable,
    random_probabilities,
)
from realmon.states import DensityOperator, entropy_of_probabilities, stack_states
from realmon.sweeps import render_csv, run_sweep

SZ = pauli_observable("z")
SX = pauli_observable("x")
SY = pauli_observable("y")
PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex))

N_INSTANCES = 10_000
DIMS = (2, 3, 4)


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def _count_negative(values):
    return int(np.count_nonzero(np.asarray(values) < -1e-9))


def _binary_entropy(p):
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@pytest.fixture(scope="module")
def generic_instances():
    """The 1e4 generic instances shared by criteria 1 and 2, with their evaluations.

    Instances are drawn one at a time with d cycling through 2, 3, 4, then
    evaluated as one stack per dimension.  Sampling and evaluation run inside
    one timed window, which is the window criterion 1 holds to its 30 s
    budget.  Per-instance results are kept in drawing order.
    """
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    instances = []
    for k in range(N_INSTANCES):
        d = DIMS[k % len(DIMS)]
        x = random_observable(d, rng)
        xp = random_observable(d, rng)
        rho = random_density(d, rng)
        eps = float(rng.random())
        instances.append((x, xp, rho, eps))
    stacks = []
    identity = np.empty(N_INSTANCES)
    self_margins = np.empty(N_INSTANCES)
    probe_gains = np.empty(N_INSTANCES)
    for j in range(len(DIMS)):
        group = instances[j :: len(DIMS)]
        x = ObservableStack(x for x, _, _, _ in group)
        xp = ObservableStack(xp for _, xp, _, _ in group)
        rho = stack_states(rho for _, _, rho, _ in group)
        eps = np.array([eps for _, _, _, eps in group])
        rep = reality_report(x, xp, eps, rho)
        dro = delta_reality_other(xp, x, eps, rho)
        drm = delta_reality_monitored(x, eps, rho)
        identity[j :: len(DIMS)] = np.abs(dro - (drm + rep.entropy_probe - rep.entropy_probe_monitored))
        self_margins[j :: len(DIMS)] = drm - eps * irreality(x, rho)
        probe_gains[j :: len(DIMS)] = dro
        stacks.append((x, xp, rho, eps))
    elapsed = time.perf_counter() - start
    return {
        "stacks": stacks,
        "worst_identity": float(identity.max()),
        "elapsed": elapsed,
        "self_margins": self_margins,
        "probe_gains": probe_gains,
    }


def test_criterion_1_four_entropy_identity(generic_instances):
    """Identity between the two delta routes on 1e4 random instances, < 30 s."""
    worst_identity = generic_instances["worst_identity"]
    elapsed = generic_instances["elapsed"]
    ok = worst_identity <= 1e-10 and elapsed < 30.0
    _report(1, ok, f"identity residual max {worst_identity:.3e} on {N_INSTANCES} instances in {elapsed:.1f}s")
    assert worst_identity <= 1e-10
    assert elapsed < 30.0


def test_criterion_2_monitoring_inequalities(generic_instances):
    """Monitoring inequalities on the criterion-1 set, and the sign of the probe gain.

    2a: dR_X(eps) >= eps * I_X(rho).
    2b: dR_X'(eps) >= eps * dR_X'(1) for every pair.  I_X'(s) = D(s || dephase_X'(s)),
        and monitoring is (1 - eps) rho + eps dephase_X(rho), so joint convexity of
        relative entropy bounds I_X' of the monitored state by the same mixture of
        I_X'(rho) and I_X'(dephase_X(rho)).  With X' = X this is 2a.  The full-strength
        gains are evaluated as one stack per dimension.
    2c: dR_X' itself has no fixed sign: some generic instances are negative, and a
        z-definite state monitored along the pi/4 axis at full strength loses
        h(cos^2(pi/8)) - h(1/4) bits of z reality.
    """
    probe_gains = generic_instances["probe_gains"]
    self_margins = generic_instances["self_margins"]
    worst_self = float(self_margins.min())
    probe_margins = np.empty(N_INSTANCES)
    for j, (x, xp, rho, eps) in enumerate(generic_instances["stacks"]):
        full_strength = delta_reality_other(xp, x, 1.0, rho)
        probe_margins[j :: len(DIMS)] = probe_gains[j :: len(DIMS)] - eps * full_strength
    worst_probe = float(probe_margins.min())
    negatives = _count_negative(probe_gains)
    zero = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
    counterexample = delta_reality_other(SZ, observable_from_axis(math.pi / 4, 0.0), 1.0, zero)
    closed_form = _binary_entropy(math.cos(math.pi / 8) ** 2) - _binary_entropy(0.25)
    counter_gap = abs(counterexample - closed_form)

    ok_self = worst_self >= -1e-9
    ok_probe = worst_probe >= -1e-9
    ok_sign = negatives > 0 and counter_gap <= 1e-12
    _report(
        "2a",
        ok_self,
        f"self gain minus eps*irreality: min margin {worst_self:+.3e} "
        f"({_count_negative(self_margins)}/{N_INSTANCES} instances negative)",
    )
    _report(
        "2b",
        ok_probe,
        f"probe gain minus eps*(full-strength probe gain): min margin {worst_probe:+.3e} "
        f"({_count_negative(probe_margins)}/{N_INSTANCES} instances negative)",
    )
    _report(
        "2c",
        ok_sign,
        f"probe gain min {probe_gains.min():+.3e} ({negatives}/{N_INSTANCES} instances negative); "
        f"pi/4 counterexample {counterexample:+.4f}, closed-form gap {counter_gap:.1e}",
    )
    assert ok_self, f"self-gain bound violated: {worst_self}"
    assert ok_probe, f"probe-gain convexity bound violated: {worst_probe}"
    assert negatives > 0, "no negative probe gain on generic instances: is the sign clamped?"
    assert counter_gap <= 1e-12, f"pi/4 counterexample {counterexample} != {closed_form}"


def test_criterion_3_cases():
    """Cases (i)-(v) at their stated tolerances."""
    rng = np.random.default_rng(77)
    trials = 250

    worst_i = 0.0
    for d in (2, 3, 4):
        for _ in range(trials):
            x, xp = random_commuting_pair(d, rng)
            rho = random_density(d, rng)
            eps = float(rng.random())
            worst_i = max(
                worst_i,
                abs(delta_reality_other(xp, x, eps, rho) - delta_reality_monitored(x, eps, rho)),
            )

    worst_ii = 0.0
    for d in (2, 3, 4):
        for _ in range(trials):
            x = random_observable(d, rng)
            xp = random_observable(d, rng)
            rho = mixture_of_eigenstates(x, random_probabilities(d, rng))
            eps = float(rng.random())
            worst_ii = max(
                worst_ii,
                abs(delta_reality_monitored(x, eps, rho)),
                abs(delta_reality_other(xp, x, eps, rho)),
            )

    worst_iii = -math.inf
    for d in (2, 3, 4):
        for _ in range(trials):
            x = random_observable(d, rng)
            xp = random_observable(d, rng)
            rho = mixture_of_eigenstates(xp, random_probabilities(d, rng))
            eps = float(rng.random())
            worst_iii = max(worst_iii, delta_reality_other(xp, x, eps, rho))

    worst_iv_order = math.inf
    worst_iv_concave = math.inf
    for d in (2, 3):
        for _ in range(trials):
            x, xp = random_mu_pair(d, rng)
            rho = random_density(d, rng)
            eps = float(rng.random())
            rep = reality_report(x, xp, eps, rho)
            worst_iv_order = min(worst_iv_order, rep.delta_r_monitored - rep.delta_r_probe)
            lhs = rep.entropy_probe_monitored - rep.entropy_probe
            rhs = eps * (math.log2(d) - rep.entropy_probe)
            worst_iv_concave = min(worst_iv_concave, lhs - rhs)

    worst_v_eq = 0.0
    worst_v_pos = math.inf
    for _ in range(trials):
        p = float(rng.uniform(0.0, 0.45))
        rho = mixture_of_eigenstates(SY, [p, 1.0 - p])
        eps = float(rng.uniform(0.05, 1.0))
        drm = delta_reality_monitored(SZ, eps, rho)
        dro = delta_reality_other(SX, SZ, eps, rho)
        worst_v_eq = max(worst_v_eq, abs(dro - drm))
        worst_v_pos = min(worst_v_pos, drm)

    ok = (
        worst_i <= 1e-9
        and worst_ii <= 1e-9
        and worst_iii <= 1e-9
        and worst_iv_order >= -1e-9
        and worst_iv_concave >= -1e-9
        and worst_v_eq <= 1e-9
        and worst_v_pos > 0.0
    )
    _report(
        3,
        ok,
        f"(i) {worst_i:.2e} (ii) {worst_ii:.2e} (iii) {worst_iii:+.2e} "
        f"(iv) order {worst_iv_order:+.2e} concavity {worst_iv_concave:+.2e} "
        f"(v) eq {worst_v_eq:.2e} min-gain {worst_v_pos:+.2e}",
    )
    assert worst_i <= 1e-9
    assert worst_ii <= 1e-9
    assert worst_iii <= 1e-9
    assert worst_iv_order >= -1e-9
    assert worst_iv_concave >= -1e-9
    assert worst_v_eq <= 1e-9
    assert worst_v_pos > 0.0


def test_criterion_4_scenario1_grid():
    """Plus state, z monitor, tilted probe: machinery matches closed forms."""
    thetas = [math.pi * k / 32 for k in range(33)]
    epsilons = [k / 32 for k in range(33)]
    worst = 0.0
    for theta in thetas:
        probe_obs = observable_from_axis(theta, 0.0)
        for eps in epsilons:
            rep = reality_report(SZ, probe_obs, eps, PLUS)
            spectra = scenario1_eigenvalues(theta, eps)
            worst = max(
                worst,
                abs(rep.entropy_monitored - entropy_of_probabilities(spectra.monitored)),
                abs(rep.entropy_probe - entropy_of_probabilities(spectra.probe)),
                abs(rep.entropy_probe_monitored - entropy_of_probabilities(spectra.probe_monitored)),
            )
            if eps == 1.0:
                assert rep.delta_r_monitored == 1.0
            if theta == math.pi / 2:
                assert abs(rep.delta_r_probe) <= 1e-12
    ok = worst <= 1e-10
    _report(4, ok, f"closed-form entropy match {worst:.3e}; exact 1-bit gain at full strength")
    assert worst <= 1e-10


def test_criterion_5_scenario2_grid():
    """Plus state, tilted monitor, z probe: spectrum match, goldens, ordering."""
    thetas = [math.pi * k / 32 for k in range(33)]
    epsilons = [k / 32 for k in range(33)]
    worst_spec = 0.0
    worst_order = math.inf
    for theta in thetas:
        tilted = observable_from_axis(theta, 0.0)
        for eps in epsilons:
            lam = scenario2_eigenvalues(theta, eps)
            mon = monitor(MonitoringChannel(tilted, eps), PLUS)
            w = sorted(mon.eigenvalues(), reverse=True)
            worst_spec = max(worst_spec, abs(w[0] - lam[0]), abs(w[1] - lam[1]))
            rep = reality_report(tilted, SZ, eps, PLUS)
            worst_order = min(worst_order, rep.delta_r_probe - rep.delta_r_monitored)
    quarter = reality_report(observable_from_axis(math.pi / 4, 0.0), SZ, 1.0, PLUS)
    ok = (
        worst_spec <= 1e-10
        and worst_order >= -1e-9
        and abs(quarter.delta_r_monitored - 0.6009) <= 1e-4
        and abs(quarter.delta_r_probe - 0.7896) <= 1e-4
    )
    _report(
        5,
        ok,
        f"spectrum match {worst_spec:.3e}; probe-minus-self min {worst_order:+.3e}; "
        f"point values {quarter.delta_r_monitored:.4f}/{quarter.delta_r_probe:.4f}",
    )
    assert worst_spec <= 1e-10
    assert abs(quarter.delta_r_monitored - 0.6009) <= 1e-4
    assert abs(quarter.delta_r_probe - 0.7896) <= 1e-4
    assert worst_order >= -1e-9


def test_criterion_6_circuit_certification():
    """Dilation == monitoring channel at 17 grid points, n=1,2 (+ n=3), < 60 s."""
    start = time.perf_counter()
    report = certify_circuits(resolution=17, seed=11)
    elapsed = time.perf_counter() - start
    dev1 = report.deviations["n=1 CZ"]
    dev2 = report.deviations["n=2 CZ"]
    dev3 = report.deviations["n=3 CZ smoke"]
    ok = dev1 <= 1e-10 and dev2 <= 1e-10 and dev3 <= 1e-9 and elapsed < 60.0
    _report(6, ok, f"deviations n1 {dev1:.2e} n2 {dev2:.2e} n3 {dev3:.2e} in {elapsed:.1f}s")
    assert dev1 <= 1e-10
    assert dev2 <= 1e-10
    assert dev3 <= 1e-9
    assert elapsed < 60.0


def test_criterion_7_cnot_mapping():
    """CNOT intensity mapping: smooth, monotone, matches damping, flagged."""
    report = certify_circuits(resolution=17, seed=11)
    ok = (
        report.cnot_mapping_max_error <= 1e-10
        and report.cnot_monotone
        and report.deviations["n=1 CNOT"] <= 1e-10
        and any("1 - (1/2) sin" in note for note in report.notes)
    )
    _report(
        7,
        ok,
        f"mapping error {report.cnot_mapping_max_error:.2e}, monotone={report.cnot_monotone}, "
        "disagreement with the halved-sine formula flagged in the report",
    )
    assert report.cnot_mapping_max_error <= 1e-10
    assert report.cnot_monotone
    assert report.deviations["n=1 CNOT"] <= 1e-10
    assert any("1 - (1/2) sin" in note for note in report.notes)


def test_criterion_8_noisy_emulation():
    """Readout+depolarizing noise reproduces negative probe gains; noiseless converges."""
    found = None
    for seed in range(100):
        config = make_config("fig4a", path="noisy", shots=8192, seed=seed)
        records = run_sweep(config)
        negs = [r for r in records if r.dR_Xp < 0.0]
        if negs:
            found = (seed, negs[0].theta_m, negs[0].dR_Xp)
            break
    clean_config = make_config(
        "fig4a",
        path="noisy",
        shots=10**6,
        repeats=1,
        seed=0,
        readout_flips=(0.0, 0.0, 0.0),
        depolarizing=0.0,
    )
    noisy = run_sweep(clean_config)
    exact = run_sweep(make_config("fig4a"))
    gaps = sorted(abs(n.dR_X - e.dR_X) for n, e in zip(noisy, exact))
    median_gap = gaps[len(gaps) // 2]
    ok = found is not None and median_gap < 0.01
    detail = (
        f"negative probe gain at seed {found[0]}, theta_m {found[1]:.3f} ({found[2]:+.4f}); "
        if found
        else "no negative probe gain in 100 seeds; "
    )
    _report(8, ok, detail + f"noiseless median gap {median_gap:.4f} bits at 1e6 shots")
    assert found is not None
    assert median_gap < 0.01


def test_criterion_9_deterministic_csv():
    """Identical config and seed give byte-identical CSV."""
    config = make_config("fig4a", points=9, path="noisy", shots=2048, repeats=5, seed=13)
    first = render_csv(run_sweep(config)).encode()
    second = render_csv(run_sweep(config)).encode()
    analytic = make_config("fig4c")
    a1 = render_csv(run_sweep(analytic)).encode()
    a2 = render_csv(run_sweep(analytic)).encode()
    ok = first == second and a1 == a2
    _report(9, ok, f"noisy and analytic CSV byte-identical ({len(first)} and {len(a1)} bytes)")
    assert first == second
    assert a1 == a2
