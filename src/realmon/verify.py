"""Case verification: every reality-variation invariant on seeded random instances."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channels import MonitoringChannel, dephase, monitor
from .config import ConfigError, check_seed, is_integer
from .observables import ObservableStack, ProjectiveObservable, standard_mub_observables
from .reality import (
    CaseLabel,
    classify_case,
    delta_reality_monitored,
    delta_reality_other,
    irreality,
    reality_report,
)
from .sampling import (
    mixture_of_eigenstates,
    random_commuting_pair,
    random_density,
    random_mu_pair,
    random_observable,
    random_probabilities,
)
from .states import DensityOperator, stack_states


@dataclass(frozen=True)
class CheckResult:
    """One invariant over the instances it was evaluated on.

    A check with no instances (an MU check when ``dims`` holds neither 2
    nor 3) is not applicable: its ``worst`` and ``passed`` are None.
    """

    name: str
    instances: int
    worst: float | None
    bound: float
    kind: str  # 'max<=' or 'min>='
    passed: bool | None
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    trials: int
    dims: tuple[int, ...]
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def render_text(self) -> str:
        lines = [f"case verification: seed={self.seed} trials={self.trials} dims={list(self.dims)}"]
        for c in self.checks:
            note = f"  ({c.note})" if c.note else ""
            if c.passed is None:
                lines.append(f"  [N/A] {c.name}: no instances in these dims{note}")
                continue
            rel = "max" if c.kind == "max<=" else "min"
            if math.isinf(c.bound):
                status, bound_txt = "INFO", "none"
            else:
                status, bound_txt = ("PASS" if c.passed else "FAIL"), f"{c.bound:.0e}"
            lines.append(
                f"  [{status}] {c.name}: {rel} margin {c.worst:+.3e} vs bound {bound_txt}"
                f" over {c.instances} instances{note}"
            )
        lines.append("result: " + ("all checks passed" if self.ok else "VIOLATIONS FOUND"))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "dims": list(self.dims),
            "ok": self.ok,
            "checks": [
                {**asdict(c), "bound": (None if math.isinf(c.bound) else c.bound)}
                for c in self.checks
            ],
        }


def _random_pair(d, rng):
    return random_observable(d, rng), random_observable(d, rng)


def _instance(d, rng, pair=_random_pair):
    """(X, X', rho, eps): a sampled pair, a random state and a uniform intensity."""
    x, xp = pair(d, rng)
    return x, xp, random_density(d, rng), float(rng.random())


def _diagonal_instance(d, rng, in_probe_basis):
    """A random pair with a state diagonal in the monitored or the probe basis."""
    x, xp = _random_pair(d, rng)
    rho = mixture_of_eigenstates(xp if in_probe_basis else x, random_probabilities(d, rng))
    return x, xp, rho, float(rng.random())


def _mu_probe_instance(d, rng):
    """An MU pair, a probe-diagonal state, an intensity and an arbitrary state."""
    x, xp = random_mu_pair(d, rng)
    rho = mixture_of_eigenstates(xp, random_probabilities(d, rng))
    return x, xp, rho, float(rng.random()), random_density(d, rng)


def _third_basis_instance(d, rng, third):
    """A state diagonal in ``third``, kept away from I/d, and an intensity in [0.1, 1]."""
    probs = random_probabilities(d, rng)
    while np.abs(probs - 1.0 / d).max() < 0.05:
        probs = random_probabilities(d, rng)
    return mixture_of_eigenstates(third, probs), 0.1 + 0.9 * float(rng.random())


def _stacked(instances):
    """Sampled instance tuples as one stack per field: observables as an
    ``ObservableStack``, states as one ``DensityOperator`` stack, numbers as an array."""
    columns = []
    for column in zip(*instances):
        if isinstance(column[0], ProjectiveObservable):
            columns.append(ObservableStack(column))
        elif isinstance(column[0], DensityOperator):
            columns.append(stack_states(column))
        else:
            columns.append(np.array(column, dtype=float))
    return columns


def _mislabelled(instances, label) -> np.ndarray:
    """1.0 for each (X, X', rho, ...) instance whose case label is not ``label``."""
    return np.array([float(classify_case(x, xp, rho) is not label) for x, xp, rho, *_ in instances])


def _generic_margins(d, trials, rng):
    """Identity residual, self-gain margin, entropy change and probe gain on generic instances."""
    x, xp, rho, eps = _stacked([_instance(d, rng) for _ in range(trials)])
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
    instances = [_instance(d, rng, random_commuting_pair) for _ in range(trials)]
    labels = _mislabelled(instances, CaseLabel.COMPATIBLE)
    x, xp, rho, eps = _stacked(instances)
    del instances  # the stacks hold the instances now; keep one copy while evaluating
    return np.abs(delta_reality_other(xp, x, eps, rho) - delta_reality_monitored(x, eps, rho)), labels


def _monitored_diagonal_margins(d, trials, rng):
    """(ii) the larger of |monitored gain| and |probe gain| for monitored-diagonal states."""
    x, xp, rho, eps = _stacked([_diagonal_instance(d, rng, False) for _ in range(trials)])
    return (np.maximum(np.abs(delta_reality_monitored(x, eps, rho)), np.abs(delta_reality_other(xp, x, eps, rho))),)


def _probe_diagonal_margins(d, trials, rng):
    """(iii) the probe gain for probe-diagonal states."""
    x, xp, rho, eps = _stacked([_diagonal_instance(d, rng, True) for _ in range(trials)])
    return (delta_reality_other(xp, x, eps, rho),)


def _mu_probe_margins(d, trials, rng):
    """(iii) |probe gain| for probe-diagonal states under an MU monitor, and the
    probe gain of the same MU pairs on arbitrary states."""
    x, xp, rho, eps, rho_any = _stacked([_mu_probe_instance(d, rng) for _ in range(trials)])
    return np.abs(delta_reality_other(xp, x, eps, rho)), delta_reality_other(xp, x, eps, rho_any)


def _mu_margins(d, trials, rng):
    """(iv) gain ordering, concavity margin and blend-identity residual on MU pairs."""
    x, xp, rho, eps = _stacked([_instance(d, rng, random_mu_pair) for _ in range(trials)])
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
    states diagonal in a third basis unbiased to both observables."""
    x, xp, third = standard_mub_observables(d)[:3]
    instances = [(x, xp, *_third_basis_instance(d, rng, third)) for _ in range(trials)]
    labels = _mislabelled(instances, CaseLabel.TRIPLE_MU)
    _, _, rho, eps = _stacked(instances)
    del instances  # the stacks hold the instances now; keep one copy while evaluating
    drm = delta_reality_monitored(x, eps, rho)
    dro = delta_reality_other(xp, x, eps, rho)
    return np.abs(dro - drm), drm, labels


def _per_dimension(section, dims, trials, rng, count):
    """Run a section once per dimension, in order: for each of its ``count``
    margins, the list of per-dimension arrays."""
    columns = [[] for _ in range(count)]
    for d in dims:
        for column, margins in zip(columns, section(d, trials, rng), strict=True):
            column.append(margins)
    return columns


def verify_cases(seed: int = 0, trials: int = 200, dims: tuple[int, ...] = (2, 3)) -> VerificationReport:
    """Run every reality-variation invariant on seeded random instances.

    Each section draws its instances exactly as a one-at-a-time loop would,
    then evaluates them as one stack per dimension.  A check counts the
    instances it evaluated.
    """
    if not (is_integer(trials) and trials >= 1):
        raise ConfigError(f"trials: must be a positive integer, got {trials!r}")
    dims = tuple(dims)
    if not dims or not all(is_integer(d) and d >= 2 for d in dims):
        raise ConfigError(f"dims: must be one or more integer dimensions of at least 2, got {list(dims)}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    mu_dims = [d for d in dims if d in (2, 3)]
    checks: list[CheckResult] = []

    def add(name, kind, margins, bound, note=""):
        values = np.concatenate(margins) if margins else np.empty(0)
        if not values.size:
            checks.append(CheckResult(name, 0, None, bound, kind, None, note))
            return
        worst = float(values.max() if kind == "max<=" else values.min())
        passed = worst <= bound if kind == "max<=" else worst >= bound
        checks.append(CheckResult(name, int(values.size), worst, bound, kind, bool(passed), note))

    # identity between the sequential and composed four-entropy routes
    identity, gain, entropy, probe = _per_dimension(_generic_margins, dims, trials, rng, 4)
    add("four-entropy identity (sequential vs composed)", "max<=", identity, 1e-10)
    add("monitored gain >= eps * irreality", "min>=", gain, -1e-9)
    add("entropy nondecreasing under monitoring", "min>=", entropy, -1e-9)
    # The probe gain has no sign guarantee for generic pairs: monitoring a
    # tilted, non-unbiased axis can scramble an established probe reality
    # (minimum reported for the record; provable sign claims follow below).
    add(
        "probe gain minimum over generic pairs (informational)",
        "min>=",
        probe,
        -math.inf,
        note="sign-indefinite for generic pairs; see MU and diagonal-state checks",
    )

    # (i) commuting pair -> equal variations, and the pair is labelled compatible
    equal, labels = _per_dimension(_commuting_margins, dims, trials, rng, 2)
    add("(i) commuting pair gives equal variations", "max<=", equal, 1e-9)
    add("(i) commuting pair labelled compatible", "max<=", labels, 0.0, note="1 per mislabelled instance")

    # (ii) state diagonal in the monitored basis -> both variations vanish
    (frozen,) = _per_dimension(_monitored_diagonal_margins, dims, trials, rng, 1)
    add("(ii) monitored-diagonal state freezes both variations", "max<=", frozen, 1e-9)

    # (iii) state diagonal in the probe basis: an established probe reality
    # can never grow (one-sided); it stays exactly fixed when the monitored
    # axis is unbiased with respect to the probe.
    (probe_gain,) = _per_dimension(_probe_diagonal_margins, dims, trials, rng, 1)
    add("(iii) probe-diagonal state: probe gain never positive", "max<=", probe_gain, 1e-9)
    fixed, mu_probe = _per_dimension(_mu_probe_margins, mu_dims, trials, rng, 2)
    add("(iii) probe-diagonal state, MU monitor: probe reality fixed", "max<=", fixed, 1e-9)
    add("MU pair: probe gain nonnegative (any state)", "min>=", mu_probe, -1e-9)

    # (iv) mutually unbiased pair: ordering plus the concavity bound
    order, concave, blend_identity = _per_dimension(_mu_margins, mu_dims, trials, rng, 3)
    add("(iv) MU pair: monitored gain dominates probe gain", "min>=", order, -1e-9)
    add("(iv) MU pair: concavity lower bound", "min>=", concave, -1e-9)
    add("(iv) MU pair: dephased-monitor blend identity", "max<=", blend_identity, 1e-10)

    # (v) state diagonal in a third pairwise-MU basis -> equal, nonzero
    # variations, and the configuration is labelled triple-MU
    for d in mu_dims:
        equal, positive, labels = _third_basis_margins(d, trials, rng)
        add(f"(v) third-basis-diagonal state: equal variations (d={d})", "max<=", [equal], 1e-9)
        add(f"(v) third-basis-diagonal state: strictly positive gain (d={d})", "min>=", [positive], 1e-12)
        add(
            f"(v) third-basis-diagonal state labelled triple-MU (d={d})",
            "max<=",
            [labels],
            0.0,
            note="1 per mislabelled instance",
        )

    return VerificationReport(seed=seed, trials=trials, dims=dims, checks=tuple(checks))
