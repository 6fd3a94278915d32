import itertools
import math

import numpy as np
import pytest

from _helpers import bloch_matrices, qubit_kernel_errors, qubit_kernel_passes, random_bloch
from realmon import cli
from realmon.config import make_config
from realmon.linalg import (
    OFFDIAG_TOL,
    DimensionError,
    NonHermitianError,
    _qubit_eig,
    common_batch,
    dagger,
    hermitian_eig,
    operators,
    partial_trace,
    tensor_product,
)
from realmon.sweeps import run_sweep
from realmon.verify import verify_cases

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


class TestTensorProduct:
    def test_identity_case(self):
        assert np.array_equal(tensor_product(I2, I2), np.eye(4))

    def test_sigma_z_with_projector(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        assert np.array_equal(tensor_product(SZ, p0), np.diag([1.0, 0.0, -1.0, 0.0]))

    def test_plus_projector_with_zero_projector(self):
        # hand expansion: |+0> has support on basis indices 0 and 2
        plus = np.full((2, 2), 0.5, dtype=complex)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        out = tensor_product(plus, p0)
        expected = np.zeros((4, 4), dtype=complex)
        for i in (0, 2):
            for j in (0, 2):
                expected[i, j] = 0.5
        assert np.abs(out - expected).max() == 0.0

    def test_entry_layout(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        out = tensor_product(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        assert abs(out[i * 3 + k, j * 3 + l] - a[i, j] * b[k, l]) <= 1e-15

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_hermitian(3, rng)
            b = random_hermitian(4, rng)
            lhs = np.trace(tensor_product(a, b))
            assert abs(lhs - np.trace(a) * np.trace(b)) <= 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            tensor_product(np.ones((2, 3)), I2)

    def test_bitwise_equal_to_kron(self):
        rng = np.random.default_rng(6)
        for da, db in ((1, 2), (2, 2), (2, 8), (4, 2), (3, 4)):
            a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
            b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
            assert np.array_equal(tensor_product(a, b), np.kron(a, b))

    def test_stacks_broadcast(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = tensor_product(a, b)
        assert out.shape == (5, 6, 6)
        for k in range(5):
            assert np.array_equal(out[k], np.kron(a[k], b))
        assert np.array_equal(tensor_product(b, a)[2], np.kron(b, a[2]))


class TestPartialTrace:
    def test_product_state(self):
        ket = np.zeros(4, dtype=complex)
        ket[0] = 1.0  # |00>
        rho = np.outer(ket, ket.conj())
        out = partial_trace(rho, [2, 2], keep=0)
        assert np.abs(out - np.diag([1.0, 0.0])).max() == 0.0

    def test_bell_state_marginal(self):
        ket = np.zeros(4, dtype=complex)
        ket[0] = ket[3] = 1 / math.sqrt(2)
        rho = np.outer(ket, ket.conj())
        out = partial_trace(rho, [2, 2], keep=[0])
        assert np.abs(out - I2 / 2).max() <= 1e-15

    def test_tensor_factor_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_hermitian(2, rng)
            b = random_hermitian(3, rng)
            out = partial_trace(tensor_product(a, b), [2, 3], keep=0)
            assert np.abs(out - a * np.trace(b)).max() <= 1e-12

    def test_linearity_and_trace_preservation(self):
        rng = np.random.default_rng(3)
        m1 = random_hermitian(8, rng)
        m2 = random_hermitian(8, rng)
        lhs = partial_trace(2.0 * m1 + m2, [2, 2, 2], keep=[0, 2])
        rhs = 2.0 * partial_trace(m1, [2, 2, 2], keep=[0, 2]) + partial_trace(m2, [2, 2, 2], keep=[0, 2])
        assert np.abs(lhs - rhs).max() <= 1e-12
        assert abs(np.trace(partial_trace(m1, [2, 2, 2], keep=1)) - np.trace(m1)) <= 1e-12

    def test_keep_order_is_subsystem_order(self):
        rng = np.random.default_rng(4)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        out = partial_trace(tensor_product(a, b), [2, 3], keep=[1, 0])
        assert np.abs(out - tensor_product(a, b)).max() <= 1e-12

    def test_stack_members_match_single_traces(self):
        rng = np.random.default_rng(5)
        stack = np.stack([random_hermitian(8, rng) for _ in range(6)]).reshape(2, 3, 8, 8)
        out = partial_trace(stack, [2, 2, 2], keep=[0, 2])
        assert out.shape == (2, 3, 4, 4)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], partial_trace(stack[i, j], [2, 2, 2], keep=[0, 2]))

    def test_unit_subsystems_are_allowed(self):
        m = random_hermitian(3, np.random.default_rng(6))
        assert np.array_equal(partial_trace(m, [1, 3], keep=1), m)
        assert np.array_equal(partial_trace(m, [3, 1], keep=0), m)
        assert np.array_equal(partial_trace(m, [3, 1], keep=1), [[np.trace(m)]])
        with pytest.raises(DimensionError, match="must be positive"):
            partial_trace(m, [3, 0, 1], keep=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(6), [2, 2], keep=0)
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), [2, 2], keep=[])
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), [2, 2], keep=5)

    @pytest.mark.parametrize("keep", [2, [0, 2], -1])
    def test_keep_index_edges_are_out_of_range(self, keep):
        with pytest.raises(DimensionError, match="out of range"):
            partial_trace(np.eye(4), [2, 2], keep=keep)
        assert partial_trace(np.eye(4), [2, 2], keep=1).shape == (2, 2)


class Sized:
    def __init__(self, dim, batch):
        self.dim, self.batch = dim, batch


class TestCommonBatch:
    def test_shared_count_or_none(self):
        assert common_batch({"observables": Sized(2, None), "states": Sized(2, None)}) is None
        assert common_batch({"observables": Sized(2, 5), "states": Sized(2, None), "intensities": 5}) == 5
        assert common_batch({"observables": Sized(3, None), "intensities": None, "states": Sized(3, 4)}) == 4

    def test_stack_sizes_are_named_in_order(self):
        with pytest.raises(DimensionError, match="^stack sizes differ: 5 observables vs 3 states$"):
            common_batch({"observables": Sized(2, 5), "probes": Sized(2, None), "states": Sized(2, 3)})
        with pytest.raises(DimensionError, match="^stack sizes differ: 2 observables vs 2 intensities vs 3 states$"):
            common_batch({"observables": Sized(2, 2), "intensities": 2, "states": Sized(2, 3)})

    def test_a_stack_of_one_does_not_broadcast(self):
        with pytest.raises(DimensionError, match="^stack sizes differ: 1 observables vs 3 states$"):
            common_batch({"observables": Sized(2, 1), "states": Sized(2, 3)})

    def test_dimensions_are_named_before_sizes(self):
        with pytest.raises(DimensionError, match="^dimensions differ: 2-dimensional observables vs 4-dimensional states$"):
            common_batch({"observables": Sized(2, 5), "intensities": 3, "states": Sized(4, 3)})

    def test_operator_arrays(self):
        one, stack, units = operators(np.eye(2)), operators(np.zeros((3, 2, 2))), operators(np.zeros((4, 1, 2, 2)))
        assert (one.dim, one.batch) == (2, None)
        assert (stack.dim, stack.batch) == (2, 3)
        assert (units.dim, units.batch) == (2, None)
        with pytest.raises(DimensionError, match="operator must be a square"):
            operators(np.zeros((2, 3)))


class TestHermitianEig:
    def test_already_diagonal(self):
        assert np.array_equal(hermitian_eig(np.diag([0.25, 0.75]).astype(complex)), [0.25, 0.75])

    def test_sigma_x_textbook(self):
        assert np.abs(hermitian_eig(SX) - np.array([-1.0, 1.0])).max() <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_trace_and_frobenius_norm(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(25):
            m = random_hermitian(d, rng)
            w = hermitian_eig(m)
            assert abs(w.sum() - np.trace(m).real) <= 1e-10
            assert abs((w**2).sum() - np.linalg.norm(m) ** 2) <= 1e-9
            assert np.all(np.diff(w) >= -1e-15)

    def test_matches_external_solver(self):
        rng = np.random.default_rng(42)
        for d in (2, 3, 4, 8, 16):
            m = random_hermitian(d, rng)
            assert np.abs(hermitian_eig(m) - np.linalg.eigvalsh(m)).max() <= 1e-10

    def test_non_hermitian_rejected_with_defect(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitianError, match="1.000e"):
            hermitian_eig(m)

    def test_deterministic_repeat(self):
        m = random_hermitian(6, np.random.default_rng(6))
        assert np.array_equal(hermitian_eig(m), hermitian_eig(m))

    def test_near_diagonal_returns_exact_sorted_diagonal(self):
        # off-diagonals of ~1e-17, as a monitored maximally mixed state carries
        m = np.diag([0.5, 0.2, 0.3]).astype(complex)
        m[0, 1] = m[1, 2] = 3e-17 + 1e-17j
        m[1, 0] = m[2, 1] = 3e-17 - 1e-17j
        assert np.array_equal(hermitian_eig(m), [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("scale", [1e-14, 1.0, 1e14])
    def test_off_diagonal_tolerance_is_relative_to_the_largest_entry(self, d, scale):
        # an absolute tolerance answers the 1e-14 matrix from its diagonal, all 1e-14
        expected = np.zeros(d)
        expected[-1] = d * scale
        assert np.abs(hermitian_eig(np.full((d, d), scale, dtype=complex)) - expected).max() <= 1e-15 * scale
        near = scale * np.eye(d, dtype=complex)
        near[0, 1] = near[1, 0] = 0.99 * OFFDIAG_TOL * scale
        assert np.array_equal(hermitian_eig(near), np.full(d, scale))
        near[0, 1] = near[1, 0] = 1.01 * OFFDIAG_TOL * scale
        assert hermitian_eig(near)[0] < scale

    def test_solves_the_hermitian_part_of_a_near_hermitian_matrix(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 4):
            m = random_hermitian(d, rng) + 1e-12 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            assert np.array_equal(hermitian_eig(m), hermitian_eig((m + dagger(m)) / 2.0))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_every_off_diagonal_position_is_solved(self, d):
        for i, j in itertools.combinations(range(d), 2):
            m = np.diag(np.arange(1.0, d + 1)).astype(complex)
            m[i, j], m[j, i] = 0.3j, -0.3j
            assert np.abs(hermitian_eig(m) - np.linalg.eigvalsh(m)).max() <= 1e-14, (i, j)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_mixed_state_is_exact(self, d):
        assert np.array_equal(hermitian_eig(np.eye(d, dtype=complex) / d), np.full(d, 1 / d))

    def test_one_by_one(self):
        assert np.array_equal(hermitian_eig(np.array([[0.7 + 0j]])), [0.7])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected_with_entry(self, value):
        m = np.full((2, 2), 0.5, dtype=complex)
        m[0, 1] = m[1, 0] = value
        with pytest.raises(ValueError, match=r"entry \[0, 1\] is not finite"):
            hermitian_eig(m)


class TestHermitianEigStack:
    def test_members_match_single_solves_bitwise(self):
        # a stack mixing full matrices with one answered from its diagonal
        rng = np.random.default_rng(21)
        for d in (2, 3, 4):
            members = [random_hermitian(d, rng) for _ in range(5)]
            members.insert(2, np.diag(rng.standard_normal(d)).astype(complex))
            w = hermitian_eig(np.stack(members))
            assert w.shape == (6, d)
            for n, m in enumerate(members):
                assert np.array_equal(w[n], hermitian_eig(m))

    def test_all_diagonal_stack(self):
        w = hermitian_eig(np.stack([np.diag([0.7, 0.3]), np.diag([0.25, 0.75])]).astype(complex))
        assert np.array_equal(w, [[0.3, 0.7], [0.25, 0.75]])

    def test_non_finite_member_named_by_stack_index(self):
        m = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        m[1, 0, 1] = m[1, 1, 0] = math.nan
        with pytest.raises(ValueError, match=r"entry \[1, 0, 1\] is not finite"):
            hermitian_eig(m)

    def test_non_hermitian_member_rejected(self):
        m = np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]).astype(complex)
        with pytest.raises(NonHermitianError):
            hermitian_eig(m)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 2, 2, 2)])
    def test_rejects_non_square_or_deeper_stacks(self, shape):
        with pytest.raises(DimensionError):
            hermitian_eig(np.zeros(shape, dtype=complex))


def density_stack(d, n, rng):
    """n unit-trace states G G† / Tr at dimension d."""
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


class TestValuesOnly:
    """``hermitian_eig`` solves eigenvalues alone; above d = 2 they come from
    LAPACK's eigenvalue-only driver, held here to its full solve."""

    @pytest.mark.parametrize("d", range(3, 9))
    def test_within_rounding_of_the_full_solve_above_d2(self, d):
        m = density_stack(d, 500, np.random.default_rng(40 + d))
        w = hermitian_eig(m)
        assert w.shape == (500, d) and np.all(np.diff(w, axis=1) >= 0)
        assert np.abs(w - np.linalg.eigh(m)[0]).max() <= 2e-15

    def test_diagonal_members_keep_exact_sorted_spectra(self):
        near = np.diag([0.5, 0.2, 0.3]).astype(complex)
        near[0, 1], near[1, 0] = 3e-17j, -3e-17j
        assert np.array_equal(hermitian_eig(near), [0.2, 0.3, 0.5])
        stack = np.stack([np.diag([0.7, 0.3]), SX / 2 + I2 / 2, np.diag([0.25, 0.75])]).astype(complex)
        w = hermitian_eig(stack)
        assert np.array_equal(w[[0, 2]], [[0.3, 0.7], [0.25, 0.75]])


def qubit_kernel_stacks():
    """Named (N, 2, 2) Hermitian stacks, every member with an off-diagonal entry."""
    rng = np.random.default_rng(34)

    def hermitian(n):
        g = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        return (g + dagger(g)) / 2

    def with_entries(h, b, mid=0.3):
        m = np.empty((len(b), 2, 2), dtype=complex)
        m[:, 0, 0], m[:, 1, 1], m[:, 0, 1], m[:, 1, 0] = mid + h, mid - h, b, np.conj(b)
        return m

    def phases(n):
        return np.exp(2j * np.pi * rng.random(n))

    real_b, imaginary_b = hermitian(2000), hermitian(2000)
    real_b[:, 0, 1] = real_b[:, 1, 0] = real_b[:, 0, 1].real
    imaginary_b[:, 0, 1] = 1j * imaginary_b[:, 0, 1].imag
    imaginary_b[:, 1, 0] = imaginary_b[:, 0, 1].conj()
    overshoot = 1.0 + rng.choice([-1e-12, 1e-12], 2000)  # tomography's Bloch vectors just off the unit sphere
    return {
        "random": hermitian(10_000),
        "unit-bloch": bloch_matrices(random_bloch(overshoot, rng)),
        "at-offdiag-tol": np.concatenate(
            [with_entries(h, 1.01 * OFFDIAG_TOL * (0.3 + abs(h)) * phases(500)) for h in (0.0, 1e-14, -1e-14)]
        ),
        "h-dominant": np.concatenate([with_entries(h, 1e-9 * phases(1000), mid=0.0) for h in (1.0, -1.0)]),
        "real-b": real_b,
        "imaginary-b": imaginary_b,
        "scaled-1e150": 1e150 * hermitian(1000),
        "scaled-1e-150": 1e-150 * hermitian(1000),
    }


QUBIT_STACKS = qubit_kernel_stacks()


class TestQubitKernel:
    """The closed-form 2x2 kernel, held to numpy's LAPACK called directly and
    to exact arithmetic.  Overflow, underflow and invalid values raise."""

    @pytest.mark.parametrize("name", QUBIT_STACKS)
    def test_within_bounds_of_lapack_and_exact_arithmetic(self, name):
        with np.errstate(all="raise"):
            errors = qubit_kernel_errors(QUBIT_STACKS[name])
        assert qubit_kernel_passes(errors), errors

    def test_the_stacks_reach_both_signs_of_h_and_the_tolerance(self):
        h = {name: 0.5 * (m[:, 0, 0] - m[:, 1, 1]).real for name, m in QUBIT_STACKS.items()}
        assert (h["h-dominant"] > 0).sum() == (h["h-dominant"] < 0).sum() == 1000
        assert np.abs(h["at-offdiag-tol"].reshape(3, 500) - [[0.0], [1e-14], [-1e-14]]).max() <= 1e-16
        stack = QUBIT_STACKS["at-offdiag-tol"]
        offdiag, largest = np.abs(stack[:, 0, 1]), np.abs(stack).max(axis=(1, 2))
        assert np.all((offdiag > OFFDIAG_TOL * largest) & (offdiag <= 1.02 * OFFDIAG_TOL * largest))
        assert not QUBIT_STACKS["real-b"][:, 0, 1].imag.any() and not QUBIT_STACKS["imaginary-b"][:, 0, 1].real.any()

    @pytest.mark.parametrize("name", QUBIT_STACKS)
    def test_hermitian_eig_hands_off_diagonal_members_to_the_kernel(self, name):
        m = QUBIT_STACKS[name]
        assert np.array_equal(hermitian_eig(m), _qubit_eig(m))

    @pytest.mark.parametrize("name", QUBIT_STACKS)
    def test_power_of_two_scaling_scales_each_spectrum_exactly(self, name):
        # the off-diagonal tolerance is relative, so scaling moves no member between the diagonal and the kernel
        m = QUBIT_STACKS[name]
        w = hermitian_eig(m)
        for scale in (2.0**-40, 2.0**40):
            with np.errstate(all="raise"):
                assert np.array_equal(hermitian_eig(scale * m), scale * w), scale

    @pytest.mark.parametrize("name", QUBIT_STACKS)
    def test_kernel_members_match_single_solves_bitwise(self, name):
        m = QUBIT_STACKS[name][:1000]
        w = _qubit_eig(m)
        for n in range(len(m)):
            assert np.array_equal(w[n], _qubit_eig(m[n : n + 1])[0])

    def test_qubit_paths_make_no_lapack_call(self, monkeypatch, capsys):
        calls = []

        def spy(name, solve):
            return lambda *args, **kw: calls.append(name) or solve(*args, **kw)

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        run_sweep(make_config("fig4a", path="noisy"))
        run_sweep(make_config("fig4a", path="circuit"))
        assert cli.main(["tomo-sim", "--seeds", "200"]) == 0  # |+> at exact readout: every member repaired
        capsys.readouterr()
        assert calls == []
        verify_cases(0, 5, (3,))
        assert calls  # d = 3 still goes to LAPACK
