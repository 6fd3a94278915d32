import math
import re

import numpy as np
import pytest

from _helpers import bloch_matrices, maximally_mixed, random_bloch, repair_gap
from realmon import linalg
from realmon.config import DEFAULT_READOUT_FLIP
from realmon.linalg import DimensionError, dagger
from realmon.noise import confusion_from_flip
from realmon.sampling import ginibre_density, haar_pure_state
from realmon.observables import SIGMA_X, SIGMA_Y, SIGMA_Z
from realmon.states import DensityOperator, density_from_pure, stack_states, von_neumann_entropy
from realmon.config import ConfigError, resolve_state
from realmon.tomography import SEED_CHUNK, estimate_pauli, reconstruct_state, reconstructions, tomography_errors

ZERO = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex))


def pauli_traces(rho):
    """Bloch components Tr(rho sigma) for sigma = x, y, z."""
    return [np.trace(rho.matrix @ sigma).real for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)]


class TestEstimatePauli:
    def test_infinite_shot_exact(self):
        assert estimate_pauli(ZERO, 0, 0) == (0.0, 0.0, 1.0)

    def test_finite_shots_within_five_sigma(self):
        bloch = estimate_pauli(ZERO, 4096, 11)
        sigma = 1.0 / math.sqrt(4096)
        assert abs(bloch[2] - 1.0) <= 5 * sigma
        assert abs(bloch[0]) <= 5 * sigma

    def test_readout_confusion_golden(self):
        bloch = estimate_pauli(ZERO, 0, 0, confusion_from_flip(DEFAULT_READOUT_FLIP))
        assert abs(bloch[2] - 0.9584) <= 1e-12

    @pytest.mark.parametrize("shots", [2.5, True, -1, "8", math.nan])
    def test_shot_count_must_be_a_nonnegative_integer(self, shots):
        with pytest.raises(ConfigError, match="shots"):
            estimate_pauli(ZERO, shots, 0)

    def test_seeded_reproducibility(self):
        a = estimate_pauli(PLUS, 1024, 9)
        b = estimate_pauli(PLUS, 1024, 9)
        assert a == b

    def test_requires_qubit_state(self):
        with pytest.raises(DimensionError):
            estimate_pauli(maximally_mixed(4), 0, 0)

    def test_non_finite_state_rejected_at_infinite_shots(self):
        nan_state = DensityOperator(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex), validate=False)
        with pytest.raises(ValueError, match="non-finite"):
            estimate_pauli(nan_state, 0, 0)


def _reference_estimate(rho, shots, rng, confusion):
    """The per-axis estimator: one rotation, readout pass and multinomial draw per axis."""
    s = 1.0 / math.sqrt(2.0)
    hadamard = np.array([[s, s], [s, -s]], dtype=complex)
    sdg = np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex)
    means = []
    for r in (hadamard, hadamard @ sdg, np.eye(2, dtype=complex)):
        p = np.clip(np.diagonal(r @ rho.matrix @ r.conj().T).real, 0.0, None)
        p = p / p.sum()
        if confusion is not None:
            p = np.clip(p, 0.0, None)
            p = np.tensordot(confusion, p / p.sum(), axes=(1, 0))
        if shots == 0:
            means.append(float(p[0] - p[1]))
        else:
            p = np.clip(p, 0.0, None)
            counts = rng.multinomial(shots, p / p.sum())
            means.append(float(counts[0] - counts[1]) / shots)
    return tuple(means)


class TestStackedAxesMatchPerAxisReference:
    """One stacked pass over the three axes gives the per-axis estimator's bits."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal-readout", "readout-flip"])
    @pytest.mark.parametrize("shots", [0, 1, 8192])
    def test_bitwise_on_random_states(self, shots, noisy):
        confusion = confusion_from_flip(DEFAULT_READOUT_FLIP) if noisy else None
        states = np.random.default_rng(2024)
        for k in range(200):
            rho = ginibre_density(2, states) if k % 2 else density_from_pure(haar_pure_state(2, states))
            got = estimate_pauli(rho, shots, np.random.default_rng([k, shots]), confusion)
            want = _reference_estimate(rho, shots, np.random.default_rng([k, shots]), confusion)
            assert got == want, k


def _random_states(count, seed):
    """Alternating Haar-pure and Ginibre qubit states."""
    g = np.random.default_rng(seed)
    return [ginibre_density(2, g) if k % 2 else density_from_pure(haar_pure_state(2, g)) for k in range(count)]


class TestStackedTomography:
    """A stack goes through the same code as one state, its members drawing in turn from one generator."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal-readout", "readout-flip"])
    @pytest.mark.parametrize("shots", [0, 8192])
    def test_stack_members_equal_single_calls_bitwise(self, shots, noisy):
        confusion = confusion_from_flip(DEFAULT_READOUT_FLIP) if noisy else None
        states = _random_states(200, 31)
        stacked = estimate_pauli(stack_states(states), shots, np.random.default_rng([31, shots]), confusion)
        shared = np.random.default_rng([31, shots])
        single = [estimate_pauli(s, shots, shared, confusion) for s in states]
        assert stacked.shape == (200, 3)
        assert [tuple(row) for row in stacked.tolist()] == single
        rebuilt = reconstruct_state(stacked)
        assert rebuilt.batch == 200
        for member, bloch in zip(rebuilt.matrix, single):
            assert (member == reconstruct_state(bloch).matrix).all()

    def test_stack_with_clamped_members_equals_single_calls_bitwise(self):
        # pure states at 8192 shots and perfect readout overshoot the Bloch ball on about half the draws
        states = [density_from_pure(haar_pure_state(2, np.random.default_rng(k))) for k in range(40)]
        bloch = estimate_pauli(stack_states(states), 8192, np.random.default_rng(40))
        shared = np.random.default_rng(40)
        assert [tuple(row) for row in bloch.tolist()] == [estimate_pauli(s, 8192, shared) for s in states]
        bloch = np.vstack((bloch, [[1.02, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -0.7, 0.75]]))
        overlong = np.linalg.norm(bloch, axis=1) > 1.0
        assert 0 < overlong.sum() < len(bloch)
        rebuilt = reconstruct_state(bloch)
        singles = [reconstruct_state(tuple(row)) for row in bloch.tolist()]
        for member, one in zip(rebuilt.matrix, singles):
            assert (member == one.matrix).all()
        assert (von_neumann_entropy(rebuilt) == [von_neumann_entropy(one) for one in singles]).all()
        assert rebuilt.eigenvalues()[:, 0].min() >= -1e-15

    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal-readout", "readout-flip"])
    @pytest.mark.parametrize("shots", [0, 8192])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one-state", "stack"])
    def test_repeats_equal_consecutive_calls_bitwise(self, stacked, shots, noisy):
        confusion = confusion_from_flip(DEFAULT_READOUT_FLIP) if noisy else None
        rho = stack_states(_random_states(50, 9)) if stacked else resolve_state("iplus")
        rng, shared = np.random.default_rng(9), np.random.default_rng(9)
        got = estimate_pauli(rho, shots, rng, confusion, repeats=4)
        want = np.array([estimate_pauli(rho, shots, shared, confusion) for _ in range(4)])
        assert got.shape == want.shape == ((4, 50, 3) if stacked else (4, 3))
        assert (got == want).all()
        assert rng.bit_generator.state == shared.bit_generator.state

    @pytest.mark.parametrize("repeats", [0, -1, 2.0, True, "3"])
    def test_repeats_must_be_a_positive_integer(self, repeats):
        with pytest.raises(ConfigError, match="repeats"):
            estimate_pauli(PLUS, 64, 0, repeats=repeats)

    def test_non_finite_state_rejected_when_drawing(self):
        # the finite-shot path leaves the check to the sampler, which names the row
        nan_state = DensityOperator(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex), validate=False)
        with pytest.raises(ValueError, match="non-finite probability in row"):
            estimate_pauli(nan_state, 64, 0, repeats=3)

    def test_single_state_still_returns_a_tuple_and_a_state(self):
        bloch = estimate_pauli(PLUS, 64, np.random.default_rng(3))
        assert isinstance(bloch, tuple) and len(bloch) == 3
        assert reconstruct_state(bloch).batch is None

    def test_single_state_draws_are_pinned(self):
        # recorded when every member still had its own generator; one state's draw must not move
        assert estimate_pauli(PLUS, 64, 0) == (1.0, 0.125, -0.15625)
        rho = resolve_state("iplus")
        assert estimate_pauli(rho, 65, 1, confusion_from_flip(0.03)) == (
            -0.1076923076923077, 0.9692307692307692, -0.16923076923076924,
        )
        assert estimate_pauli(rho, 1000, np.random.default_rng([1, 3]), confusion_from_flip(0.03)) == (
            -0.008, 0.958, 0.006,
        )

    @pytest.mark.parametrize(
        "rngs", [[0, 1], [0, 1, 2, 3], (np.random.default_rng(0),)], ids=["two", "four", "one"]
    )
    def test_generator_count_must_match_the_stack(self, rngs):
        # the stack takes one generator or seed, never a sequence of them
        with pytest.raises(TypeError, match="one np.random.Generator or one integer seed"):
            estimate_pauli(stack_states([PLUS, ZERO, PLUS]), 16, rngs)

    def test_tomography_errors_equal_the_per_seed_loop(self):
        rho = resolve_state("iplus")
        confusion = confusion_from_flip(DEFAULT_READOUT_FLIP)
        shared = np.random.default_rng(4)
        want = []
        for _ in range(30):
            rec = reconstruct_state(estimate_pauli(rho, 256, shared, confusion))
            want.append(float(np.abs(rec.matrix - rho.matrix).max()))
        assert tomography_errors("iplus", 256, 30, 4, True)["errors"] == want

    def test_chunked_run_equals_one_chunk(self, monkeypatch):
        import realmon.tomography as tomography_mod

        whole = tomography_errors("iplus", 256, 30, 4, True)
        monkeypatch.setattr(tomography_mod, "SEED_CHUNK", 7)
        assert tomography_errors("iplus", 256, 30, 4, True) == whole


class TestReconstructions:
    """The one tomography loop: its chunks of whole repeats, concatenated, are one repeated draw."""

    @pytest.mark.parametrize(
        "stacked, chunk, sizes",
        [
            (False, 1, [1] * 11),
            (False, 7, [7, 4]),
            (False, None, [11]),
            (True, 1, [5] * 11),
            (True, 7, [5] * 11),
            (True, None, [55]),
        ],
        ids=["one-1", "one-7", "one-default", "five-1", "five-7", "five-default"],
    )
    def test_chunks_concatenate_to_one_repeated_draw_bitwise(self, monkeypatch, stacked, chunk, sizes):
        import realmon.tomography as tomography_mod

        monkeypatch.setattr(tomography_mod, "SEED_CHUNK", chunk or SEED_CHUNK)
        rho = stack_states(_random_states(5, 12)) if stacked else resolve_state("iplus")
        confusion = confusion_from_flip(DEFAULT_READOUT_FLIP)
        chunks = [rec.matrix for rec in reconstructions(rho, 256, 11, 3, confusion)]
        want = reconstruct_state(estimate_pauli(rho, 256, np.random.default_rng(3), confusion, 11).reshape(-1, 3))
        assert [len(m) for m in chunks] == sizes
        assert (np.concatenate(chunks) == want.matrix).all()

    def test_perfect_readout_is_the_default(self):
        one = next(reconstructions(PLUS, 64, 3, 5))
        assert (one.matrix == reconstruct_state(estimate_pauli(PLUS, 64, 5, None, 3)).matrix).all()


class TestReconstruct:
    def test_center_of_ball(self):
        rec = reconstruct_state((0.0, 0.0, 0.0))
        assert np.abs(rec.matrix - np.eye(2) / 2).max() <= 1e-15

    def test_north_pole(self):
        rec = reconstruct_state((0.0, 0.0, 1.0))
        assert np.abs(rec.matrix - ZERO.matrix).max() <= 1e-15

    def test_clamp_and_renormalize_overlong_bloch(self):
        rec = reconstruct_state((1.02, 0.0, 0.0))
        assert np.abs(rec.matrix - PLUS.matrix).max() <= 1e-12
        assert min(rec.eigenvalues()) >= -1e-15

    @pytest.mark.parametrize(
        "bloch",
        [(0.1, 0.2), np.zeros((5, 2)), np.zeros((5, 4)), 0.5, np.zeros((0, 3)), np.zeros((2, 2, 3))],
        ids=["pair", "stack-of-pairs", "stack-of-4-vectors", "scalar", "empty-stack", "3-D"],
    )
    def test_malformed_bloch_input_is_refused_by_its_shape(self, bloch):
        message = f"Bloch vector must have shape (3,) or (N, 3) with N >= 1, got shape {np.shape(bloch)}"
        with pytest.raises(DimensionError, match=re.escape(message)):
            reconstruct_state(bloch)

    def test_always_valid_state(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = rng.uniform(-1.1, 1.1, 3)
            rec = reconstruct_state(tuple(r))
            assert abs(np.trace(rec.matrix) - 1.0) <= 1e-10
            assert rec.eigenvalues()[0] >= -1e-12


def bloch_with_overlong(n, overlong, rng):
    """n random Bloch vectors, those at the ``overlong`` indices 1.001-1.05 long and the rest shorter than 1."""
    lengths = rng.uniform(0.0, 0.999, n)
    lengths[overlong] = rng.uniform(1.001, 1.05, len(overlong))
    return random_bloch(lengths, rng)


def full_stack_repair(bloch) -> np.ndarray:
    """The clamp-and-renormalize repair from ``numpy.linalg.eigh``'s eigensystem
    of every member, kept where the lowest eigenvalue is negative."""
    raw = bloch_matrices(bloch)
    w, v = np.linalg.eigh(raw)
    negative = w[:, 0] < 0.0
    w = np.clip(w, 0.0, None)
    w = w / w.sum(axis=-1, keepdims=True)
    return np.where(negative[:, None, None], (v * w[:, None, :]) @ dagger(v), raw)


class TestRepairSolves:
    """A reconstruction and its entropy make one values-only solve, however many members are repaired."""

    def spy(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "_qubit_eig", lambda a, _solve=linalg._qubit_eig: calls.append(a.shape) or _solve(a))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *args, _name=name, **kw: pytest.fail(f"{_name} called"))
        return calls

    @pytest.mark.parametrize("overlong", [[], [0], [5, 6, 7, 299], list(range(0, 300, 2)), list(range(300))])
    def test_one_solve_per_reconstruction_and_entropy(self, monkeypatch, overlong):
        bloch = bloch_with_overlong(300, overlong, np.random.default_rng(len(overlong)))
        expected = full_stack_repair(bloch)
        calls = self.spy(monkeypatch)
        rec = reconstruct_state(bloch)
        von_neumann_entropy(rec)
        assert calls == [(300, 2, 2)]
        unrepaired = np.setdiff1d(np.arange(300), overlong)
        assert np.array_equal(rec.matrix[unrepaired], expected[unrepaired])
        assert np.abs(rec.matrix - expected).max() <= 1e-14  # eigh's own rounding: up to 1.1e-15 seen

    def test_a_single_overlong_state_is_repaired_as_a_stack_of_one(self, monkeypatch):
        bloch = (1.02, 0.0, 0.0)
        expected = full_stack_repair(np.array([bloch]))[0]
        calls = self.spy(monkeypatch)
        rec = reconstruct_state(bloch)
        assert von_neumann_entropy(rec) == 0.0 and calls == [(1, 2, 2)]
        assert rec.matrix.shape == (2, 2) and np.abs(rec.matrix - expected).max() <= 1e-14

    def test_repaired_members_have_entropy_exactly_zero(self):
        bloch = bloch_with_overlong(2000, list(range(2000)), np.random.default_rng(14))
        rec = reconstruct_state(bloch)
        assert np.array_equal(rec.eigenvalues(), np.tile([0.0, 1.0], (2000, 1)))
        assert np.array_equal(von_neumann_entropy(rec), np.zeros(2000))

    def test_repair_matches_the_closed_form(self):
        rng = np.random.default_rng(12)
        # rounding of r/|r| and of the unrepaired members' solves: up to 2.2e-16 seen over 30 seeds
        assert repair_gap(bloch_with_overlong(2000, list(range(0, 2000, 3)), rng)) <= 1e-14


class TestRoundTrip:
    def test_infinite_shot_noiseless_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = ginibre_density(2, rng)
            rec = reconstruct_state(estimate_pauli(rho, 0, rng))
            assert np.abs(rec.matrix - rho.matrix).max() <= 1e-12

    def test_error_scaling_quarter_shots(self):
        # quadrupling the shot count should halve the median error (within x1.5)
        rho = density_from_pure(haar_pure_state(2, np.random.default_rng(2)))

        def median_error(shots):
            errs = []
            for seed in range(100):
                rec = reconstruct_state(estimate_pauli(rho, shots, np.random.default_rng([seed, shots])))
                errs.append(max(abs(a - b) for a, b in zip(pauli_traces(rec), pauli_traces(rho))))
            return sorted(errs)[50]

        e1 = median_error(512)
        e2 = median_error(2048)
        ratio = e1 / e2
        assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


class TestTomographyErrors:
    @pytest.mark.parametrize("seeds", [2.5, True, 3.0, "3", 0])
    def test_seeds_must_be_a_positive_integer(self, seeds):
        with pytest.raises(ConfigError, match="seeds"):
            tomography_errors("plus", 64, seeds, 0, False)

    def test_integer_seeds_accepted(self):
        out = tomography_errors("plus", 64, np.int64(3), 0, False)
        assert len(out["errors"]) == 3

    def test_zero_shots_gives_the_exact_estimate_every_time(self):
        # shots=0 is the infinite-shot sentinel, so no repetition draws
        assert tomography_errors("plus", 0, 3, 0, False)["errors"] == [0.0] * 3
        noisy = tomography_errors("iplus", 0, 2, 5, True)["errors"]
        assert noisy[0] == noisy[1] > 0.0  # the readout flip shrinks the Bloch vector
