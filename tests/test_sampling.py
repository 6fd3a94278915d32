"""Stacked samplers against one-at-a-time draws, bitwise.

Each public sampler builds a stack from per-member draw records.  Its
members must equal, bit for bit, both the sampler's own one-at-a-time calls
and a reference written out below: plain one-at-a-time samplers that draw
and build each instance in turn (one QR per matrix, the projectors of one
basis, ``W P W†`` per projector, one Ginibre product).  The reference pins
the draw order, so a reordered draw fails here even though it reorders the
stacked and the one-at-a-time paths alike.
"""

import numpy as np
import pytest

from realmon import sampling
from realmon.linalg import DimensionError
from realmon.observables import standard_mub_observables
from realmon.states import DensityOperator

MEMBERS = 40
SEED = 11  # reaches both random_density branches at every d (checked below)


def _gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _unitary(d, rng):
    q, r = np.linalg.qr(_gaussian(rng, (d, d)))
    diag = np.diagonal(r).copy()
    diag = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return q * diag


def _eigenvalues(d, rng):
    while True:
        vals = np.sort(rng.uniform(-1.0, 1.0, size=d))
        if np.diff(vals).min() > 1e-3:
            return vals


def _projectors(u):
    return u.T[:, :, None] * u.T.conj()[:, None, :]


def reference_observable(d, rng):
    u = _unitary(d, rng)
    return [_eigenvalues(d, rng), _projectors(u)]


def reference_commuting_pair(d, rng):
    u = _unitary(d, rng)
    return [_eigenvalues(d, rng), _projectors(u), _eigenvalues(d, rng), _projectors(u)]


def reference_mu_pair(d, rng):
    w = _unitary(d, rng)
    out = []
    for base in standard_mub_observables(d)[:2]:
        projs = np.array([w @ p @ w.conj().T for p in base.projectors])
        out += [_eigenvalues(d, rng), projs]
    return out


def reference_density(d, rng):
    if rng.random() < 0.25:
        z = _gaussian(rng, d)
        amp = z / np.linalg.norm(z)
        amp = amp / float(np.linalg.norm(amp))  # PureState renormalises
        return [np.outer(amp, amp.conj())]
    g = _gaussian(rng, (d, d))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    m /= np.trace(m).real
    return [m]


def reference_mixture(projs, probs):
    m = np.zeros(projs.shape[1:], dtype=complex)
    for p, proj in zip(probs, projs):
        m += p * proj
    m /= np.trace(m).real
    return m


# sampler -> (draw function name, reference, dimensions)
SAMPLERS = {
    "random_observable": ("draw_observable", reference_observable, range(2, 17)),
    "random_commuting_pair": ("draw_pair", reference_commuting_pair, range(2, 17)),
    "random_mu_pair": ("draw_pair", reference_mu_pair, (2, 3)),
    "random_density": ("draw_density", reference_density, range(2, 17)),
}
CASES = [(name, d) for name, (_, _, dims) in SAMPLERS.items() for d in dims]


def arrays(result, member=None):
    """The arrays of an observable, a state or a pair of them, or of one member of their stacks."""
    out = []
    for x in result if isinstance(result, tuple) else (result,):
        fields = (x.matrix,) if isinstance(x, DensityOperator) else (np.asarray(x.eigenvalues), x.projectors)
        out += [f if member is None else f[member] for f in fields]
    return out


def same_bits(a, b):
    return len(a) == len(b) and all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def stack_matches_reference(name, d, seed=SEED):
    """The stack built from MEMBERS draw records, the one-at-a-time calls and the
    reference all give the same members bitwise, and consume the same draws."""
    draw_name, reference, _ = SAMPLERS[name]
    sampler, draw = getattr(sampling, name), getattr(sampling, draw_name)
    stacked_rng, single_rng, reference_rng = (np.random.default_rng(seed) for _ in range(3))
    stack = sampler(d, draws=[draw(d, stacked_rng) for _ in range(MEMBERS)])
    for i in range(MEMBERS):
        expected = reference(d, reference_rng)
        if not (same_bits(arrays(stack, i), expected) and same_bits(arrays(sampler(d, single_rng)), expected)):
            return False
    return stacked_rng.random() == single_rng.random() == reference_rng.random()


@pytest.mark.parametrize("name, d", CASES)
def test_stacked_build_equals_one_at_a_time_calls(name, d):
    assert stack_matches_reference(name, d)


@pytest.mark.parametrize("d", range(2, 17))
def test_density_seed_reaches_both_branches(d):
    rng = np.random.default_rng(SEED)
    pure = [sampling.draw_density(d, rng)[0] for _ in range(MEMBERS)]
    assert 0 < sum(pure) < MEMBERS


@pytest.mark.parametrize("d", range(2, 17))
def test_stacked_mixture_equals_one_at_a_time_mixtures(d):
    rng = np.random.default_rng(SEED + d)
    obs = sampling.random_observable(d, draws=[sampling.draw_observable(d, rng) for _ in range(MEMBERS)])
    probs = np.array([sampling.random_probabilities(d, rng) for _ in range(MEMBERS)])
    one = sampling.random_observable(d, rng)
    stacked = sampling.mixture_of_eigenstates(obs, probs).matrix
    broadcast = sampling.mixture_of_eigenstates(one, probs).matrix
    for i in range(MEMBERS):
        assert same_bits([stacked[i]], [reference_mixture(obs.projectors[i], probs[i])])
        assert same_bits([broadcast[i]], [reference_mixture(one.projectors, probs[i])])
    assert same_bits([sampling.mixture_of_eigenstates(one, probs[0]).matrix], [broadcast[0]])


def test_eigenvalues_drawn_before_the_gaussian_matrix_are_caught(monkeypatch):
    def eigenvalues_first(d, rng):
        values = sampling._distinct_eigenvalues(d, rng)
        return sampling._gaussian(rng, (d, d)), values

    assert stack_matches_reference("random_observable", 3)
    monkeypatch.setattr(sampling, "draw_observable", eigenvalues_first)
    assert not stack_matches_reference("random_observable", 3)


def test_pair_eigenvalues_drawn_before_the_gaussian_matrix_are_caught(monkeypatch):
    def eigenvalues_first(d, rng):
        first, second = sampling._distinct_eigenvalues(d, rng), sampling._distinct_eigenvalues(d, rng)
        return sampling._gaussian(rng, (d, d)), first, second

    monkeypatch.setattr(sampling, "draw_pair", eigenvalues_first)
    assert not stack_matches_reference("random_commuting_pair", 3)
    assert not stack_matches_reference("random_mu_pair", 3)


def test_interleaved_gaussian_block_is_caught(monkeypatch):
    """Real and imaginary parts drawn in pairs, not as two whole blocks."""

    def interleaved(rng, shape):
        return np.moveaxis(rng.standard_normal((*shape, 2)), -1, 0)

    assert stack_matches_reference("random_density", 3)
    monkeypatch.setattr(sampling, "_gaussian", interleaved)
    for name in SAMPLERS:
        assert not stack_matches_reference(name, 3)


def test_a_sampler_takes_rng_or_draws():
    rng = np.random.default_rng(0)
    with pytest.raises(TypeError):
        sampling.random_observable(2)
    with pytest.raises(TypeError):
        sampling.random_density(2, rng, draws=[sampling.draw_density(2, rng)])
    with pytest.raises(DimensionError):
        sampling.random_commuting_pair(2, draws=[])
    with pytest.raises(DimensionError):
        sampling.random_mu_pair(4, draws=[sampling.draw_pair(4, rng)])


def uniform_eigenvalues(d, rng, draws):
    """The eigenvalue draw written with numpy's ``uniform(-1, 1)``, counting each draw in ``draws``."""
    while True:
        draws.append(d)
        vals = sorted(rng.uniform(-1.0, 1.0, size=d).tolist())
        if all(b - a > sampling.MIN_EIGENVALUE_GAP for a, b in zip(vals, vals[1:])):
            return vals


@pytest.mark.parametrize("gap", ["default", "large"])
def test_distinct_eigenvalues_equal_numpy_uniform_draws(monkeypatch, gap):
    """``2u - 1`` from ``rng.random`` gives the values and the generator state of ``uniform(-1, 1)``;
    a large gap forces redraws, which must consume the stream alike."""
    draws = []
    for d in range(2, 17):
        if gap == "large":
            monkeypatch.setattr(sampling, "MIN_EIGENVALUE_GAP", 0.5 / d)
        for seed in range(40):
            ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sampling._distinct_eigenvalues(d, ours) == uniform_eigenvalues(d, reference, draws)
            assert ours.bit_generator.state == reference.bit_generator.state
            assert ours.random() == reference.random()
    assert len(draws) - 15 * 40 > (1000 if gap == "large" else 0)  # redraws happened


def numpy_round_trip_eigenvalues(d, rng):
    """The eigenvalue draw in numpy arithmetic: an array ``2u - 1`` and a pairwise gap check."""
    while True:
        vals = sorted((2.0 * rng.random(d) - 1.0).tolist())
        if all(b - a > sampling.MIN_EIGENVALUE_GAP for a, b in zip(vals, vals[1:])):
            return vals


@pytest.mark.parametrize("d", range(2, 17))
def test_plain_float_eigenvalue_draw_equals_the_numpy_round_trip(d):
    """10,000 draws in a row: the same values, and the generator left in the same state."""
    ours, reference = np.random.default_rng(1000 + d), np.random.default_rng(1000 + d)
    for _ in range(10_000):
        assert sampling._distinct_eigenvalues(d, ours) == numpy_round_trip_eigenvalues(d, reference)
    assert ours.bit_generator.state == reference.bit_generator.state
