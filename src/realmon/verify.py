"""Case verification: every reality-variation invariant on seeded random
instances, each one check of an ``output.CheckReport`` with its own bound."""

from __future__ import annotations

import math

import numpy as np

from .channels import MonitoringChannel, dephase, monitor
from .config import MAX_DIMENSION, MAX_SEED, MAX_TRIALS, ConfigError, check_integer
from .observables import standard_mub_observables
from .output import CheckReport, check
from .reality import (
    CaseLabel,
    classify_case,
    delta_reality_monitored,
    delta_reality_other,
    irreality,
    reality_report,
)
from .sampling import (
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


def _away_from_uniform(d, rng):
    """Random probabilities, redrawn until some entry is at least 0.05 from 1/d."""
    probs = random_probabilities(d, rng)
    while np.abs(probs - 1.0 / d).max() < 0.05:
        probs = random_probabilities(d, rng)
    return probs


def _numbers(d, draws):
    """One number, or one probability vector, per instance, as the field's one array."""
    return (np.array(draws),)


# A field is (how one instance draws it, how N draw records build its stacks:
# one, or two for a pair).  The builds look their sampler up when called, so a
# wrapper bound to the name later (perfbench's spans) sees every call.
OBSERVABLE = (draw_observable, lambda d, draws: (random_observable(d, draws=draws),))
COMMUTING_PAIR = (draw_pair, lambda d, draws: random_commuting_pair(d, draws=draws))
MU_PAIR = (draw_pair, lambda d, draws: random_mu_pair(d, draws=draws))
STATE = (draw_density, lambda d, draws: (random_density(d, draws=draws),))
PROBABILITIES = (random_probabilities, _numbers)
AWAY_FROM_UNIFORM = (_away_from_uniform, _numbers)
INTENSITY = (lambda d, rng: rng.random(), _numbers)
STRONG_INTENSITY = (lambda d, rng: 0.1 + 0.9 * rng.random(), _numbers)


def _instances(d, trials, rng, *fields):
    """``trials`` instances drawn one at a time, each drawing its fields in the
    order given; then each field's stacks built from its N draw records."""
    drawn = zip(*([draw(d, rng) for draw, _ in fields] for _ in range(trials)))
    return [stack for (_, build), records in zip(fields, drawn) for stack in build(d, records)]


def _mislabelled(x, xp, rho, label) -> np.ndarray:
    """1.0 for each member of the stacked configuration whose case label is not ``label``."""
    return np.array([float(case is not label) for case in classify_case(x, xp, rho)])


def _generic_margins(d, trials, rng):
    """Identity residual, self-gain margin, entropy change and probe gain on generic instances."""
    x, xp, rho, eps = _instances(d, trials, rng, OBSERVABLE, OBSERVABLE, STATE, INTENSITY)
    report = reality_report(x, xp, eps, rho)
    dro = delta_reality_other(xp, x, eps, rho)
    drm = delta_reality_monitored(x, eps, rho)
    return (
        np.abs(dro - (drm + report.entropy_probe - report.entropy_probe_monitored)),
        drm - eps * irreality(x, rho),
        report.entropy_monitored - report.entropy_initial,
        dro,
    )


def _commuting_margins(d, trials, rng):
    """(i) |probe gain - monitored gain| and wrong labels on commuting pairs."""
    x, xp, rho, eps = _instances(d, trials, rng, COMMUTING_PAIR, STATE, INTENSITY)
    equal = np.abs(delta_reality_other(xp, x, eps, rho) - delta_reality_monitored(x, eps, rho))
    return equal, _mislabelled(x, xp, rho, CaseLabel.COMPATIBLE)


def _monitored_diagonal_margins(d, trials, rng):
    """(ii) the larger of |monitored gain| and |probe gain| for monitored-diagonal states."""
    x, xp, probs, eps = _instances(d, trials, rng, OBSERVABLE, OBSERVABLE, PROBABILITIES, INTENSITY)
    rho = mixture_of_eigenstates(x, probs)
    return (np.maximum(np.abs(delta_reality_monitored(x, eps, rho)), np.abs(delta_reality_other(xp, x, eps, rho))),)


def _probe_diagonal_margins(d, trials, rng):
    """(iii) the probe gain for probe-diagonal states."""
    x, xp, probs, eps = _instances(d, trials, rng, OBSERVABLE, OBSERVABLE, PROBABILITIES, INTENSITY)
    return (delta_reality_other(xp, x, eps, mixture_of_eigenstates(xp, probs)),)


def _mu_probe_margins(d, trials, rng):
    """(iii) |probe gain| for probe-diagonal states under an MU monitor, and the
    probe gain of the same MU pairs on arbitrary states."""
    x, xp, probs, eps, rho_any = _instances(d, trials, rng, MU_PAIR, PROBABILITIES, INTENSITY, STATE)
    rho = mixture_of_eigenstates(xp, probs)
    return np.abs(delta_reality_other(xp, x, eps, rho)), delta_reality_other(xp, x, eps, rho_any)


def _mu_margins(d, trials, rng):
    """(iv) gain ordering, concavity margin and blend-identity residual on MU pairs."""
    x, xp, rho, eps = _instances(d, trials, rng, MU_PAIR, STATE, INTENSITY)
    report = reality_report(x, xp, eps, rho)
    lhs = report.entropy_probe_monitored - report.entropy_probe
    e = eps[:, None, None]
    blend = (1.0 - e) * dephase(xp, rho).matrix + e * np.eye(d) / d
    chained = dephase(xp, monitor(MonitoringChannel(x, eps), rho))
    return (
        report.delta_r_monitored - report.delta_r_probe,
        lhs - eps * (math.log2(d) - report.entropy_probe),
        np.abs(chained.matrix - blend).max(axis=(1, 2)),
    )


def _third_basis_margins(d, trials, rng):
    """(v) |probe gain - monitored gain|, monitored gain and wrong labels for
    states diagonal in a third basis unbiased to both observables, kept away
    from I/d, under intensities in [0.1, 1]."""
    x, xp, third = standard_mub_observables(d)[:3]
    probs, eps = _instances(d, trials, rng, AWAY_FROM_UNIFORM, STRONG_INTENSITY)
    rho = mixture_of_eigenstates(third, probs)
    drm = delta_reality_monitored(x, eps, rho)
    dro = delta_reality_other(xp, x, eps, rho)
    return np.abs(dro - drm), drm, _mislabelled(x, xp, rho, CaseLabel.TRIPLE_MU)


MISLABELLED = "1 per mislabelled instance"

# The sections in run order: each section, whether it needs MU bases (it then
# runs only in the dimensions that have them), and one (name, kind, bound[,
# note]) per margin it returns.  A name holding "{d}" gives one check per dimension.
SECTIONS = (
    # identity between the sequential and composed four-entropy routes
    (_generic_margins, False, (
        ("four-entropy identity (sequential vs composed)", "max<=", 1e-10),
        ("monitored gain >= eps * irreality", "min>=", -1e-9),
        ("entropy nondecreasing under monitoring", "min>=", -1e-9),
        # The probe gain has no sign guarantee for generic pairs: monitoring a
        # tilted, non-unbiased axis can scramble an established probe reality
        # (minimum reported for the record; provable sign claims follow below).
        ("probe gain minimum over generic pairs (informational)", "min>=", -math.inf,
         "sign-indefinite for generic pairs; see MU and diagonal-state checks"),
    )),
    # (i) commuting pair -> equal variations, and the pair is labelled compatible
    (_commuting_margins, False, (
        ("(i) commuting pair gives equal variations", "max<=", 1e-9),
        ("(i) commuting pair labelled compatible", "max<=", 0.0, MISLABELLED),
    )),
    # (ii) state diagonal in the monitored basis -> both variations vanish
    (_monitored_diagonal_margins, False, (("(ii) monitored-diagonal state freezes both variations", "max<=", 1e-9),)),
    # (iii) state diagonal in the probe basis: an established probe reality
    # can never grow (one-sided); it stays exactly fixed when the monitored
    # axis is unbiased with respect to the probe.
    (_probe_diagonal_margins, False, (("(iii) probe-diagonal state: probe gain never positive", "max<=", 1e-9),)),
    (_mu_probe_margins, True, (
        ("(iii) probe-diagonal state, MU monitor: probe reality fixed", "max<=", 1e-9),
        ("MU pair: probe gain nonnegative (any state)", "min>=", -1e-9),
    )),
    # (iv) mutually unbiased pair: ordering plus the concavity bound
    (_mu_margins, True, (
        ("(iv) MU pair: monitored gain dominates probe gain", "min>=", -1e-9),
        ("(iv) MU pair: concavity lower bound", "min>=", -1e-9),
        ("(iv) MU pair: dephased-monitor blend identity", "max<=", 1e-10),
    )),
    # (v) state diagonal in a third pairwise-MU basis -> equal, nonzero
    # variations, and the configuration is labelled triple-MU
    (_third_basis_margins, True, (
        ("(v) third-basis-diagonal state: equal variations (d={d})", "max<=", 1e-9),
        ("(v) third-basis-diagonal state: strictly positive gain (d={d})", "min>=", 1e-12),
        ("(v) third-basis-diagonal state labelled triple-MU (d={d})", "max<=", 0.0, MISLABELLED),
    )),
)


def verify_cases(seed: int = 0, trials: int = 200, dims: tuple[int, ...] = (2, 3)) -> CheckReport:
    """Run every reality-variation invariant on seeded random instances.

    Each section draws its instances' random numbers one instance at a time,
    in the order a one-at-a-time loop would, then builds each field of the
    instances as one stack per dimension (``sampling``'s draw-then-build
    split) and evaluates the stacks.  A check counts the instances it
    evaluated; an MU check with no MU dimension evaluates none.
    """
    check_integer("trials", trials, 1, MAX_TRIALS)
    dims = tuple(dims)
    for d in dims:
        check_integer("dims", d, 2, MAX_DIMENSION)
    if not dims or len(set(dims)) != len(dims):
        raise ConfigError(f"dims: must name one or more dimensions, none repeated, got {list(dims)}")
    check_integer("seed", seed, 0, MAX_SEED)
    rng = np.random.default_rng(seed)
    mu_dims = tuple(d for d in dims if standard_mub_observables(d))
    checks = []
    for section, needs_mu, margins in SECTIONS:
        run_on = mu_dims if needs_mu else dims
        per_dimension = "{d}" in margins[0][0]
        for group in [(d,) for d in run_on] if per_dimension else [run_on]:
            results = [section(d, trials, rng) for d in group]
            checks += [
                check(name.format(d=group[0]) if per_dimension else name, kind, [r[k] for r in results], bound, *note)
                for k, (name, kind, bound, *note) in enumerate(margins)
            ]
    params = {"seed": seed, "trials": trials, "dims": list(dims)}
    return CheckReport("case verification", params, tuple(checks))
