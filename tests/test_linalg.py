import math

import numpy as np
import pytest

from realmon.linalg import (
    DimensionError,
    NonHermitianError,
    hermitian_eig,
    partial_trace,
    tensor_product,
)

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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(6), [2, 2], keep=0)
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), [2, 2], keep=[])
        with pytest.raises(DimensionError):
            partial_trace(np.eye(4), [2, 2], keep=5)


class TestHermitianEig:
    def test_already_diagonal(self):
        w, v = hermitian_eig(np.diag([0.25, 0.75]).astype(complex))
        assert np.array_equal(w, [0.25, 0.75])
        assert np.array_equal(v, np.eye(2))

    def test_sigma_x_textbook(self):
        w, v = hermitian_eig(SX)
        assert np.abs(w - np.array([-1.0, 1.0])).max() <= 1e-14
        minus = np.array([1, -1]) / math.sqrt(2)
        plus = np.array([1, 1]) / math.sqrt(2)
        assert min(np.abs(v[:, 0] - minus).max(), np.abs(v[:, 0] + minus).max()) <= 1e-14
        assert min(np.abs(v[:, 1] - plus).max(), np.abs(v[:, 1] + plus).max()) <= 1e-14

    def test_tilted_axis_eigenvector(self):
        # +1 eigenvector of the theta=pi/3 axis observable is (cos pi/6, sin pi/6)
        theta = math.pi / 3
        n = math.sin(theta) * SX + math.cos(theta) * SZ
        w, v = hermitian_eig(n)
        assert np.abs(w - np.array([-1.0, 1.0])).max() <= 1e-12
        expected = np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)])
        assert np.abs(v[:, 1] - expected).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_reconstruction_and_trace(self, d):
        rng = np.random.default_rng(10 + d)
        for _ in range(25):
            m = random_hermitian(d, rng)
            w, v = hermitian_eig(m)
            assert np.linalg.norm((v * w) @ v.conj().T - m) <= 1e-9
            assert abs(w.sum() - np.trace(m).real) <= 1e-10
            assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-10
            assert np.all(np.diff(w) >= -1e-15)

    def test_matches_external_solver(self):
        rng = np.random.default_rng(42)
        for d in (2, 3, 4, 8, 16):
            m = random_hermitian(d, rng)
            w, _ = hermitian_eig(m)
            assert np.abs(w - np.linalg.eigvalsh(m)).max() <= 1e-10

    def test_phase_fix_largest_component_real_positive(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(5, rng)
        _, v = hermitian_eig(m)
        for k in range(5):
            idx = int(np.argmax(np.abs(v[:, k])))
            z = v[idx, k]
            assert abs(z.imag) <= 1e-12 and z.real > 0

    def test_non_hermitian_rejected_with_defect(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitianError, match="1.000e"):
            hermitian_eig(m)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(6, rng)
        w1, v1 = hermitian_eig(m)
        w2, v2 = hermitian_eig(m)
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)

    def test_near_diagonal_returns_exact_sorted_diagonal(self):
        # off-diagonals of ~1e-17, as a monitored maximally mixed state carries
        m = np.diag([0.5, 0.2, 0.3]).astype(complex)
        m[0, 1] = m[1, 2] = 3e-17 + 1e-17j
        m[1, 0] = m[2, 1] = 3e-17 - 1e-17j
        w, v = hermitian_eig(m)
        assert np.array_equal(w, [0.2, 0.3, 0.5])
        assert np.array_equal(v, np.eye(3)[:, [1, 2, 0]])

    def test_one_by_one(self):
        w, v = hermitian_eig(np.array([[0.7 + 0j]]))
        assert np.array_equal(w, [0.7])
        assert np.array_equal(v, [[1.0]])

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
            w, v = hermitian_eig(np.stack(members))
            assert w.shape == (6, d) and v.shape == (6, d, d)
            for n, m in enumerate(members):
                w1, v1 = hermitian_eig(m)
                assert np.array_equal(w[n], w1) and np.array_equal(v[n], v1)

    def test_all_diagonal_stack(self):
        w, v = hermitian_eig(np.stack([np.diag([0.7, 0.3]), np.diag([0.25, 0.75])]).astype(complex))
        assert np.array_equal(w, [[0.3, 0.7], [0.25, 0.75]])
        assert np.array_equal(v, [np.eye(2)[:, [1, 0]], np.eye(2)])

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
