import numpy as np
import pytest
from scipy.linalg import expm

from spinpulse.oracle import SIGMA_Y, pauli_dot
from su2_oracles import (PAULI, X_HAT, Y_HAT, Z_HAT, BranchAmbiguityError,
                         axis_angle_exponential, matrix_log_unitary, pauli_conjugate,
                         rotation_matrix)

X, Y, Z = X_HAT, Y_HAT, Z_HAT


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestAxisAngleExponential:
    def test_zero_angle_is_identity(self):
        assert np.allclose(axis_angle_exponential(Z, 0.0), np.eye(2))

    def test_pi_about_y(self):
        assert np.allclose(axis_angle_exponential(Y, np.pi), -1j * SIGMA_Y)

    def test_tilted_axis_against_expm_oracle(self):
        axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        angle = np.pi / 3.0
        # independent scaling-and-squaring route
        expected = expm(-0.5j * angle * pauli_dot(axis))
        assert np.allclose(axis_angle_exponential(axis, angle), expected, atol=1e-14)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            axis_angle_exponential(np.array([1.0, 1.0, 0.0]), 0.3)

    def test_unitary(self, rng):
        for _ in range(50):
            u = axis_angle_exponential(random_unit(rng), rng.uniform(-8, 8))
            assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-14


class TestRotationMatrix:
    def test_y_rotation_of_z(self):
        theta = 0.77
        out = rotation_matrix(Y, theta) @ Z
        assert np.allclose(out, [np.sin(theta), 0.0, np.cos(theta)], atol=1e-14)

    def test_axis_is_fixed_point(self):
        assert np.allclose(rotation_matrix(Z, 2.13) @ Z, Z, atol=1e-14)

    def test_right_hand_rule(self):
        assert np.allclose(rotation_matrix(X, np.pi / 2) @ Y, Z, atol=1e-14)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            rotation_matrix(2.0 * Z, 0.1)

    def test_inverse_by_angle_negation(self, rng):
        for _ in range(20):
            axis = random_unit(rng)
            psi = rng.uniform(-7, 7)
            prod = rotation_matrix(axis, psi) @ rotation_matrix(axis, -psi)
            assert np.abs(prod - np.eye(3)).max() < 1e-12


class TestPauliConjugate:
    def test_identity(self):
        assert np.allclose(pauli_conjugate(np.eye(2)), np.eye(3), atol=1e-14)

    def test_matches_rotation_matrix(self, rng):
        for _ in range(50):
            axis = random_unit(rng)
            psi = rng.uniform(-6, 6)
            u = axis_angle_exponential(axis, psi)
            assert np.abs(pauli_conjugate(u) - rotation_matrix(axis, psi)).max() < 1e-12

    def test_homomorphism(self, rng):
        for _ in range(50):
            u1 = axis_angle_exponential(random_unit(rng), rng.uniform(-6, 6))
            u2 = axis_angle_exponential(random_unit(rng), rng.uniform(-6, 6))
            lhs = pauli_conjugate(u1 @ u2)
            rhs = pauli_conjugate(u1) @ pauli_conjugate(u2)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            pauli_conjugate(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    def test_orthogonal_special(self, rng):
        u = axis_angle_exponential(random_unit(rng), 1.234)
        r = pauli_conjugate(u)
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


class TestMatrixLogUnitary:
    def test_identity(self):
        assert np.allclose(matrix_log_unitary(np.eye(2)), 0.0, atol=1e-14)

    def test_small_y_rotation(self):
        theta = 0.3
        u = axis_angle_exponential(Y, theta)
        expected = -1j * (theta / 2.0) * SIGMA_Y
        assert np.allclose(matrix_log_unitary(u), expected, atol=1e-12)

    def test_round_trip_on_random_small_generators(self, rng):
        for dim in (2, 4, 6):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = 0.3 * (a + a.conj().T) / 2.0
            u = expm(-1j * h)
            gen = matrix_log_unitary(u)
            assert np.linalg.norm(expm(gen) - u) < 1e-9
            assert np.linalg.norm(gen + gen.conj().T) < 1e-10

    def test_branch_cut_rejected(self):
        u = np.diag([-1.0 + 0.0j, 1.0])
        with pytest.raises(BranchAmbiguityError):
            matrix_log_unitary(u)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            matrix_log_unitary(np.diag([2.0 + 0.0j, 0.5]))


class TestAlgebraInvariants:
    def test_conjugation_consistency(self, rng):
        """Components of e^{ip} sigma_j e^{-ip} equal the rotated Pauli vector."""
        for _ in range(1000):
            axis = random_unit(rng)
            psi = rng.uniform(-2 * np.pi, 2 * np.pi)
            u = axis_angle_exponential(axis, psi)       # e^{-ip}
            d = rotation_matrix(axis, psi)
            for j in range(3):
                lhs = u.conj().T @ PAULI[j] @ u
                rhs = pauli_dot(d[j])                   # row j of D against sigma
                if np.abs(lhs - rhs).max() >= 1e-10:
                    pytest.fail(f"conjugation mismatch at axis={axis}, psi={psi}")

    def test_pauli_product_identity(self, rng):
        """sigma (sigma . n) = n I + i (n x sigma), componentwise."""
        for _ in range(100):
            n = rng.normal(size=3)
            sn = pauli_dot(n)
            for j in range(3):
                lhs = PAULI[j] @ sn
                # (n x sigma)_j carries sigma-coefficients e_j x n
                rhs = n[j] * np.eye(2) + 1j * pauli_dot(np.cross(np.eye(3)[j], n))
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_explicit_rotation_form(self, rng):
        """sigma cos(psi) + a (sigma.a)(1-cos psi) + (a x sigma) sin(psi) matches conjugation.

        The cross-term handedness is fixed by the same convention as
        rotation_matrix: conjugating z by the frame of a +psi rotation about y
        must give (-sin psi, 0, cos psi).
        """
        for _ in range(100):
            axis = random_unit(rng)
            psi = rng.uniform(-2 * np.pi, 2 * np.pi)
            u = axis_angle_exponential(axis, psi)
            c, s = np.cos(psi), np.sin(psi)
            sig_dot_a = pauli_dot(axis)
            for j in range(3):
                cross_j = np.cross(np.eye(3)[j], axis)  # (a x sigma)_j coefficients
                explicit = (PAULI[j] * c + axis[j] * sig_dot_a * (1 - c)
                            + pauli_dot(cross_j) * s)
                conj = u.conj().T @ PAULI[j] @ u
                assert np.abs(explicit - conj).max() < 1e-10
