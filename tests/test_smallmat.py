import numpy as np
import pytest

from symqkd.smallmat import (
    hermitian_eigenvalues,
    is_isometry,
    partial_trace,
    projector,
    tensor,
)

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    return q


class TestTensor:
    def test_identity_times_identity(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_basis_vectors(self):
        v = tensor(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert np.array_equal(v, np.array([1, 0, 0, 0], dtype=complex))

    def test_forced_by_definition(self):
        out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_dims_multiply(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(4, 5))
        assert tensor(a, b).shape == (8, 15)

    def test_associative_exactly_for_exact_inputs(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        c = np.array([[2, 0], [0, 5]], dtype=complex)
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            tensor(np.array([[np.nan, 0], [0, 1]]), I2)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        rho, sigma = random_density(rng, 2), random_density(rng, 4)
        full = tensor(rho, sigma)
        np.testing.assert_allclose(partial_trace(full, 2, 4, "A"), rho, atol=1e-14)
        np.testing.assert_allclose(partial_trace(full, 2, 4, "B"), sigma, atol=1e-14)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace(np.eye(4) / 4, 2, 2, "A"), I2 / 2, atol=1e-15)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        reduced = partial_trace(projector(bell), 2, 2, "A")
        np.testing.assert_allclose(reduced, I2 / 2, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(17)
        m = random_hermitian(rng, 8)
        for keep in ("A", "B"):
            reduced = partial_trace(m, 2, 4, keep)
            assert abs(np.trace(reduced) - np.trace(m)) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), 2, 4, "A")

    def test_bad_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(8), 2, 4, "C")


class TestHermitianEigenvalues:
    def test_already_diagonal(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(np.diag([0.25, 0.75])), [0.75, 0.25], atol=1e-14
        )

    def test_pure_state_projector(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(0.5 * (I2 + PAULI_X)), [1.0, 0.0], atol=1e-13
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_lapack_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        mats = [random_hermitian(rng, n) for _ in range(5)]
        for m in mats + [np.stack(mats)]:  # five matrices, then the same five as one (5, n, n) stack
            expected = np.sort(np.linalg.eigvalsh(m), axis=-1)[..., ::-1]
            np.testing.assert_allclose(hermitian_eigenvalues(m), expected, atol=1e-10)

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 6)
        assert abs(hermitian_eigenvalues(m).sum() - np.trace(m).real) <= 1e-10

    def test_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(23)
        m = random_hermitian(rng, 4)
        u = random_unitary(rng, 4)
        np.testing.assert_allclose(
            hermitian_eigenvalues(u @ m @ u.conj().T), hermitian_eigenvalues(m), atol=1e-10
        )

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_lapack_reads_the_hermitian_part_bit_for_bit(self):
        """An exactly Hermitian stack goes to eigvalsh as is; a merely close one as m - (m - m^dag)/2."""
        rng = np.random.default_rng(47)
        stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        assert np.array_equal(hermitian_eigenvalues(stack), np.linalg.eigvalsh(stack)[..., ::-1])
        stack[3, 2, 0] += 1e-13 + 3e-14j  # within HERMITIAN_TOL
        herm = stack - 0.5 * (stack - stack.conj().swapaxes(-1, -2))
        assert np.array_equal(hermitian_eigenvalues(stack), np.linalg.eigvalsh(herm)[..., ::-1])

    def test_stack_with_one_non_hermitian_matrix_rejected(self):
        rng = np.random.default_rng(41)
        stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        stack[3, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stack_with_one_non_finite_matrix_rejected(self, bad):
        rng = np.random.default_rng(43)
        stack = np.stack([random_density(rng, 4) for _ in range(5)])
        stack[2, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigenvalues(stack)


class TestIsIsometry:
    def test_identity(self):
        assert is_isometry(I2, 1e-12)

    def test_scaling_breaks_isometry(self):
        assert not is_isometry(2 * I2, 1e-12)

    def test_tall_orthonormal_columns(self):
        rng = np.random.default_rng(7)
        q = random_unitary(rng, 8)[:, :2]
        assert is_isometry(q, 1e-12)

    def test_real_matrix_checked_as_is(self):
        assert is_isometry(np.eye(3)[:, :2], 1e-12)
        assert not is_isometry(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]]), 1e-12)
        with pytest.raises(ValueError, match="finite"):
            is_isometry(np.array([[1.0, 0.0], [0.0, np.nan]]), 1e-12)

    def test_wide_matrix_never_isometry(self):
        assert not is_isometry(np.ones((2, 4)), 1e-6)

    def test_stack_holds_only_if_every_matrix_does(self):
        rng = np.random.default_rng(13)
        stack = np.stack([random_unitary(rng, 8)[:, :2] for _ in range(6)]).reshape(2, 3, 8, 2)
        assert is_isometry(stack, 1e-12)
        stack[1, 2, :, 1] *= 1.0 + 1e-9
        assert not is_isometry(stack, 1e-12)
