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

from _helpers import (
    CNOT_MAPPING_CHECK,
    CNOT_MONOTONE_CHECK,
    PRESET_BLOCH,
    axis_vector,
    count_negative,
    named_check,
    probe_gain_sign_check,
    scenario1_grid,
)
from realmon.certify import certify_circuits
from realmon.channels import MonitoringChannel, monitor
from realmon.config import make_config
from realmon.observables import observable_from_axis, pauli_observable
from realmon.reality import (
    delta_reality_monitored,
    delta_reality_other,
    irreality,
    qubit_spectra,
    reality_report,
)
from realmon.sampling import (
    draw_density,
    draw_observable,
    draw_pair,
    mixture_of_eigenstates,
    random_commuting_pair,
    random_density,
    random_mu_pair,
    random_observable,
    random_probabilities,
)
from realmon.states import DensityOperator
from realmon.sweeps import render_csv, run_sweep

SZ = pauli_observable("z")
SX = pauli_observable("x")
SY = pauli_observable("y")
PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex))

N_INSTANCES = 10_000
DIMS = (2, 3, 4)


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def generic_instances():
    """The 1e4 generic instances shared by criteria 1 and 2, with their evaluations.

    Instances are drawn one at a time with d cycling through 2, 3, 4, then
    built and evaluated as one stack per dimension.  Drawing, building and
    evaluation run inside one timed window, which is the window criterion 1
    holds to its 30 s budget.  Per-instance results are kept in drawing order.
    """
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    draws = []
    for k in range(N_INSTANCES):
        d = DIMS[k % len(DIMS)]
        draws.append((draw_observable(d, rng), draw_observable(d, rng), draw_density(d, rng), float(rng.random())))
    stacks = []
    identity = np.empty(N_INSTANCES)
    self_margins = np.empty(N_INSTANCES)
    probe_gains = np.empty(N_INSTANCES)
    for j, d in enumerate(DIMS):
        x_draws, xp_draws, rho_draws, eps = zip(*draws[j :: len(DIMS)])
        x = random_observable(d, draws=x_draws)
        xp = random_observable(d, draws=xp_draws)
        rho = random_density(d, draws=rho_draws)
        eps = np.array(eps)
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
    ok_sign, negatives, counterexample, counter_gap = probe_gain_sign_check(probe_gains)

    ok_self = worst_self >= -1e-9
    ok_probe = worst_probe >= -1e-9
    _report(
        "2a",
        ok_self,
        f"self gain minus eps*irreality: min margin {worst_self:+.3e} "
        f"({count_negative(self_margins)}/{N_INSTANCES} instances negative)",
    )
    _report(
        "2b",
        ok_probe,
        f"probe gain minus eps*(full-strength probe gain): min margin {worst_probe:+.3e} "
        f"({count_negative(probe_margins)}/{N_INSTANCES} instances negative)",
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


def _drawn(trials, draw):
    """``trials`` instances drawn one at a time with ``draw()``, as one tuple of records per field."""
    return tuple(zip(*(draw() for _ in range(trials))))


def test_criterion_3_cases():
    """Cases (i)-(v) at their stated tolerances.

    Each case draws its instances one at a time, in the order of a
    one-at-a-time loop over dimensions and trials, then builds and evaluates
    them as one stack per dimension.
    """
    rng = np.random.default_rng(77)
    trials = 250

    worst_i = 0.0
    for d in (2, 3, 4):
        pairs, states, eps = _drawn(trials, lambda: (draw_pair(d, rng), draw_density(d, rng), rng.random()))
        x, xp = random_commuting_pair(d, draws=pairs)
        rho, eps = random_density(d, draws=states), np.array(eps)
        gap = np.abs(delta_reality_other(xp, x, eps, rho) - delta_reality_monitored(x, eps, rho))
        worst_i = max(worst_i, float(gap.max()))

    def diagonal_instances(d, in_probe_basis):
        xs, xps, probs, eps = _drawn(
            trials,
            lambda: (draw_observable(d, rng), draw_observable(d, rng), random_probabilities(d, rng), rng.random()),
        )
        x, xp = random_observable(d, draws=xs), random_observable(d, draws=xps)
        return x, xp, mixture_of_eigenstates(xp if in_probe_basis else x, np.array(probs)), np.array(eps)

    worst_ii = 0.0
    for d in (2, 3, 4):
        x, xp, rho, eps = diagonal_instances(d, False)
        frozen = np.abs(delta_reality_monitored(x, eps, rho)), np.abs(delta_reality_other(xp, x, eps, rho))
        worst_ii = max(worst_ii, float(np.maximum(*frozen).max()))

    worst_iii = -math.inf
    for d in (2, 3, 4):
        x, xp, rho, eps = diagonal_instances(d, True)
        worst_iii = max(worst_iii, float(delta_reality_other(xp, x, eps, rho).max()))

    worst_iv_order = math.inf
    worst_iv_concave = math.inf
    for d in (2, 3):
        pairs, states, eps = _drawn(trials, lambda: (draw_pair(d, rng), draw_density(d, rng), rng.random()))
        x, xp = random_mu_pair(d, draws=pairs)
        rho, eps = random_density(d, draws=states), np.array(eps)
        rep = reality_report(x, xp, eps, rho)
        worst_iv_order = min(worst_iv_order, float((rep.delta_r_monitored - rep.delta_r_probe).min()))
        lhs = rep.entropy_probe_monitored - rep.entropy_probe
        rhs = eps * (math.log2(d) - rep.entropy_probe)
        worst_iv_concave = min(worst_iv_concave, float((lhs - rhs).min()))

    ps, eps = _drawn(trials, lambda: (rng.uniform(0.0, 0.45), rng.uniform(0.05, 1.0)))
    ps, eps = np.array(ps), np.array(eps)
    rho = mixture_of_eigenstates(SY, np.stack([ps, 1.0 - ps], axis=-1))
    drm = delta_reality_monitored(SZ, eps, rho)
    dro = delta_reality_other(SX, SZ, eps, rho)
    worst_v_eq = float(np.abs(dro - drm).max())
    worst_v_pos = float(drm.min())

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
    worst, reports = scenario1_grid(thetas, epsilons)
    for theta, eps, rep in reports:
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
            lam = qubit_spectra(PRESET_BLOCH["plus"], axis_vector(theta), axis_vector(0.0), eps)[1]
            mon = monitor(MonitoringChannel(tilted, eps), PLUS)
            w = sorted(mon.eigenvalues(), reverse=True)
            worst_spec = max(worst_spec, abs(w[0] - lam), abs(w[1] - (1.0 - lam)))
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
    dev1 = named_check(report, "n=1 CZ")["worst"]
    dev2 = named_check(report, "n=2 CZ")["worst"]
    dev3 = named_check(report, "n=3 CZ smoke")["worst"]
    ok = dev1 <= 1e-10 and dev2 <= 1e-10 and dev3 <= 1e-9 and elapsed < 60.0
    _report(6, ok, f"deviations n1 {dev1:.2e} n2 {dev2:.2e} n3 {dev3:.2e} in {elapsed:.1f}s")
    assert dev1 <= 1e-10
    assert dev2 <= 1e-10
    assert dev3 <= 1e-9
    assert elapsed < 60.0


def test_criterion_7_cnot_mapping():
    """CNOT intensity mapping: smooth, monotone, matches damping, flagged."""
    report = certify_circuits(resolution=17, seed=11)
    mapping = named_check(report, CNOT_MAPPING_CHECK)
    monotone = named_check(report, CNOT_MONOTONE_CHECK)["passed"]
    deviation = named_check(report, "n=1 CNOT")["worst"]
    ok = (
        mapping["worst"] <= 1e-10
        and monotone
        and deviation <= 1e-10
        and "1 - (1/2) sin" in mapping["note"]
    )
    _report(
        7,
        ok,
        f"mapping error {mapping['worst']:.2e}, monotone={monotone}, "
        "disagreement with the halved-sine formula flagged in the report",
    )
    assert mapping["worst"] <= 1e-10
    assert monotone
    assert deviation <= 1e-10
    assert "1 - (1/2) sin" in mapping["note"]


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
        readout_flip=0.0,
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
