"""Property tests on random finite stacks, d in {2, 3, 4} (Hypothesis).

A stack evaluated at once equals its members evaluated one at a time
(spectra bitwise, gains within 1e-15); monitoring and dephasing keep
trace, Hermiticity and positivity; monitoring never lowers the entropy.
States are G G† / Tr from drawn entries, so rank-deficient and diagonal
members occur; observables come from a drawn seed.  The settings are fixed
and derandomized, so every run checks the same examples.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from realmon.channels import MonitoringChannel, dephase, monitor
from realmon.linalg import hermitian_eig, hermiticity_defect
from realmon.observables import stack_observables
from realmon.reality import delta_reality_monitored, delta_reality_other, irreality, reality_report
from realmon.sampling import random_observable
from realmon.states import DensityOperator, stack_states, von_neumann_entropy

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
STATE_TOL = 1e-12


@st.composite
def instance_stacks(draw):
    """N members (N in 1..5) of one dimension: (X, X', rho, eps) each."""
    d = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(1, 5))
    entries = draw(arrays(np.float64, (n, 2, d, d), elements=st.floats(-1.0, 1.0)))
    g = entries[:, 0] + 1j * entries[:, 1]
    m = g @ g.conj().swapaxes(1, 2)
    trace = np.trace(m, axis1=1, axis2=2).real
    assume((trace > 1e-6).all())
    rhos = [DensityOperator(mat / tr) for mat, tr in zip(m, trace)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = [random_observable(d, rng) for _ in range(n)]
    xps = [random_observable(d, rng) for _ in range(n)]
    eps = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return xs, xps, rhos, eps


@PROPERTY_SETTINGS
@given(instance_stacks())
def test_stack_equals_members(members):
    xs, xps, rhos, eps = members
    x, xp, rho = stack_observables(xs), stack_observables(xps), stack_states(rhos)
    w, v = hermitian_eig(rho.matrix)
    gains = {
        "probe": delta_reality_other(xp, x, eps, rho),
        "monitored": delta_reality_monitored(x, eps, rho),
        "irreality": irreality(x, rho),
        "report": reality_report(x, xp, eps, rho).delta_r_probe,
    }
    for n, (xn, xpn, rhon, epsn) in enumerate(zip(xs, xps, rhos, eps)):
        wn, vn = hermitian_eig(rhon.matrix)
        assert np.array_equal(w[n], wn) and np.array_equal(v[n], vn)
        single = {
            "probe": delta_reality_other(xpn, xn, epsn, rhon),
            "monitored": delta_reality_monitored(xn, epsn, rhon),
            "irreality": irreality(xn, rhon),
            "report": reality_report(xn, xpn, epsn, rhon).delta_r_probe,
        }
        for name, value in single.items():
            assert abs(gains[name][n] - value) <= 1e-15, name


@PROPERTY_SETTINGS
@given(instance_stacks())
def test_monitoring_and_dephasing_keep_states_valid(members):
    xs, _, rhos, eps = members
    x, rho = stack_observables(xs), stack_states(rhos)
    for out in (monitor(MonitoringChannel(x, eps), rho), dephase(x, rho)):
        assert np.abs(np.trace(out.matrix, axis1=1, axis2=2) - 1.0).max() <= STATE_TOL
        assert hermiticity_defect(out.matrix) <= STATE_TOL
        assert out.eigenvalues().min() >= -STATE_TOL


@PROPERTY_SETTINGS
@given(instance_stacks())
def test_monitoring_never_lowers_entropy(members):
    xs, _, rhos, eps = members
    rho = stack_states(rhos)
    monitored = monitor(MonitoringChannel(stack_observables(xs), eps), rho)
    assert (von_neumann_entropy(monitored) >= von_neumann_entropy(rho) - 1e-9).all()
